package harness

import (
	"context"
	"reflect"
	"testing"

	"fugu/internal/delivery"
	"fugu/internal/niq"
	"fugu/internal/telemetry"
)

// TestLabTimelines: every lab point carries its flight-recorder timeline,
// so a Runner's timeline hook (`run -timeline DIR`) gets one non-empty
// timeline per point from the policy and buffer labs, as from the crucible.
func TestLabTimelines(t *testing.T) {
	for _, name := range []string{"policylab", "bufferlab"} {
		exp, _ := Lookup(name)
		var got []int
		r := &Runner{OnTimeline: func(point int, label string, tl telemetry.Timeline) {
			if tl.Empty() {
				t.Errorf("%s point %s: empty timeline", name, label)
			}
			got = append(got, point)
		}}
		if _, err := r.Run(context.Background(), exp, WithQuick(), WithTrials(1), WithSeed(1)); err != nil {
			t.Fatal(err)
		}
		if want := len(exp.Points(NewOptions(WithQuick(), WithTrials(1)))); len(got) != want {
			t.Errorf("%s: %d timelines for %d points", name, len(got), want)
		}
	}
}

// TestLabAxisRule pins the axis rule: an axis the options set (-policy,
// -niq) holds only that value, even in a preset that sweeps it. A buffer lab
// narrowed to one shared organization has no FIFO to beat, so its verdict
// leaves the dominance claim unevaluated instead of failing it.
func TestLabAxisRule(t *testing.T) {
	bypass, err := delivery.ByName("bypass")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		exp           string
		opt           Option
		rows          int
		policy, queue string // every row's value; "" is unchecked
		verdict       []string
	}{
		{"crucible", WithDeliveryPolicy(bypass), 8, "bypass", "", nil},
		{"policylab", WithDeliveryPolicy(bypass), 3, "bypass", "", nil},
		{"bufferlab", WithInputQueue(niq.Spec{Model: niq.ModelDAMQ, Policy: niq.PolicyDemand}), 4, "", "damq:demand", nil},
	}
	for _, tc := range cases {
		t.Run(tc.exp, func(t *testing.T) {
			exp, _ := Lookup(tc.exp)
			res, err := (&Runner{}).Run(context.Background(), exp,
				WithQuick(), WithTrials(1), WithSeed(1), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			rows := res.(LabResult).Rows
			if len(rows) != tc.rows {
				t.Errorf("got %d rows, want %d", len(rows), tc.rows)
			}
			for _, row := range rows {
				if tc.policy != "" && row.Policy != tc.policy || tc.queue != "" && row.Queue != tc.queue {
					t.Errorf("row %s %s %s trial=%d escaped the axis", row.Policy, row.Queue, row.Plan, row.Trial)
				}
			}
			if got := exp.Verdict(res); !reflect.DeepEqual(got, tc.verdict) {
				t.Errorf("Verdict = %q, want %q", got, tc.verdict)
			}
		})
	}
}
