package delivery

import (
	"fmt"
	"testing"

	"fugu/internal/vm"
)

// confCosts is an arbitrary but distinctive cost vector so conformance
// checks notice a store charging from the wrong constant.
var confCosts = Costs{
	InsertMin:     180,
	InsertVMAlloc: 3162,
	ExtraInsert:   0,
	PageOut:       2000,
	PageIn:        1800,
	Remap:         300,
	RemapRelease:  60,
}

// allPolicies instantiates every registered policy in its default
// configuration, the same set the CLI's -policy flag can name.
func allPolicies(t *testing.T) []Policy {
	t.Helper()
	var out []Policy
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports Name() = %q", name, p.Name())
		}
		out = append(out, p)
	}
	return out
}

// TestStoreConformance drives every policy's store through the contract the
// kernel and NI rely on: admitted pushes succeed, messages come back
// exactly once in FIFO order with their words and metadata intact, and a
// drained store reports empty.
func TestStoreConformance(t *testing.T) {
	for _, pol := range allPolicies(t) {
		t.Run(pol.Name(), func(t *testing.T) {
			frames := vm.NewFrames(64)
			st := pol.NewStore(frames, Params{Costs: confCosts})

			const n = 12
			want := make([][]uint64, n)
			for i := 0; i < n; i++ {
				// Lengths vary but stay inside every policy's envelope (the
				// default bypass ring holds 128-word slots).
				words := make([]uint64, 3+(i*17)%90)
				for j := range words {
					words[j] = uint64(i)<<32 | uint64(j)
				}
				want[i] = words
				if !st.Admit(len(words)) {
					t.Fatalf("msg %d: Admit refused with an empty backlog", i)
				}
				res := st.Push(uint64(100+i), words, uint64(10*i), uint64(10*i+5))
				if c := st.InsertCost(res); c > confCosts.InsertVMAlloc+confCosts.PageOut*8 {
					t.Fatalf("msg %d: implausible insert cost %d", i, c)
				}
				if st.Pending() != i+1 {
					t.Fatalf("after push %d: Pending = %d", i, st.Pending())
				}
			}

			ids := st.PendingIDs()
			if len(ids) != n {
				t.Fatalf("PendingIDs len = %d, want %d", len(ids), n)
			}
			for i, id := range ids {
				if id != uint64(100+i) {
					t.Fatalf("PendingIDs[%d] = %d, want %d", i, id, 100+i)
				}
			}

			for i := 0; i < n; i++ {
				if st.Empty() {
					t.Fatalf("Empty before popping msg %d", i)
				}
				if h, ok := st.Head(); !ok || h.ID != uint64(100+i) || h.SentAt != uint64(10*i) {
					t.Fatalf("Head = %+v,%v, want ID %d SentAt %d", h, ok, 100+i, 10*i)
				}
				if got := st.HeadLen(); got != len(want[i]) {
					t.Fatalf("msg %d: HeadLen = %d, want %d", i, got, len(want[i]))
				}
				for j, w := range want[i] {
					if got := st.HeadWord(j); got != w {
						t.Fatalf("msg %d word %d = %#x, want %#x", i, j, got, w)
					}
				}
				meta, _ := st.Pop()
				if meta.ID != uint64(100+i) || meta.SentAt != uint64(10*i) || meta.InsertedAt != uint64(10*i+5) {
					t.Fatalf("msg %d: meta = %+v", i, meta)
				}
			}
			if !st.Empty() || st.Pending() != 0 {
				t.Fatalf("store not empty after draining: Pending = %d", st.Pending())
			}
			if _, ok := st.Head(); ok {
				t.Fatal("Head ok on an empty store")
			}
			if hw := st.PagesHighWater(); hw < st.PagesResident() {
				t.Fatalf("high water %d below resident %d", hw, st.PagesResident())
			}
		})
	}
}

// TestStorePushBorrowsWords pins the Push contract the kernel and the NI
// rely on when they recycle a packet right after storing it: words is
// borrowed for the call only. Every message is pushed from one caller
// buffer that is scribbled over after each Push, and the store must still
// return the original words. The 4-frame pool also drives the zero-copy
// store into its copying fallback and fills the bypass ring's pinned pages.
func TestStorePushBorrowsWords(t *testing.T) {
	for _, pol := range allPolicies(t) {
		for _, nframes := range []int{64, 4} {
			t.Run(fmt.Sprintf("%s/frames=%d", pol.Name(), nframes), func(t *testing.T) {
				st := pol.NewStore(vm.NewFrames(nframes), Params{Costs: confCosts})
				const n = 12
				msgLen := func(i int) int { return 3 + (i*17)%90 }
				word := func(i, j int) uint64 { return uint64(i)<<32 | uint64(j) }
				buf := make([]uint64, 128)
				for i := 0; i < n; i++ {
					words := buf[:msgLen(i)]
					for j := range words {
						words[j] = word(i, j)
					}
					if !st.Admit(len(words)) {
						t.Fatalf("msg %d: Admit refused", i)
					}
					st.Push(uint64(i), words, 0, 0)
					for j := range buf {
						buf[j] = 0xdeadbeef
					}
				}
				for i := 0; i < n; i++ {
					if got := st.HeadLen(); got != msgLen(i) {
						t.Fatalf("msg %d: HeadLen = %d, want %d", i, got, msgLen(i))
					}
					for j := 0; j < msgLen(i); j++ {
						if got := st.HeadWord(j); got != word(i, j) {
							t.Fatalf("msg %d word %d = %#x after the caller reused its slice, want %#x", i, j, got, word(i, j))
						}
					}
					st.Pop()
				}
			})
		}
	}
}

// TestStoreResidencyAfterDrain pins each policy's memory-footprint contract:
// the kernel-buffered stores return every page once drained, while the
// bypass ring's statically partitioned pages stay pinned for the process's
// lifetime — that fixed cost is exactly what the policy lab measures.
func TestStoreResidencyAfterDrain(t *testing.T) {
	for _, pol := range allPolicies(t) {
		t.Run(pol.Name(), func(t *testing.T) {
			frames := vm.NewFrames(64)
			st := pol.NewStore(frames, Params{Costs: confCosts})
			static := st.PagesResident() // bypass pre-pins its ring
			for i := 0; i < 40; i++ {
				words := make([]uint64, 100)
				if !st.Admit(len(words)) {
					t.Fatalf("push %d refused", i)
				}
				st.Push(uint64(i), words, 0, 0)
				if i%3 == 2 {
					st.Pop()
				}
			}
			for !st.Empty() {
				st.Pop()
			}
			if pol.KernelBuffered() {
				if st.PagesResident() != 0 {
					t.Errorf("drained %s store holds %d page(s)", pol.Name(), st.PagesResident())
				}
				if frames.InUse() != 0 {
					t.Errorf("drained %s store leaks %d frame(s)", pol.Name(), frames.InUse())
				}
			} else {
				if st.PagesResident() != static {
					t.Errorf("bypass ring resident pages %d, want static %d", st.PagesResident(), static)
				}
			}
		})
	}
}

// TestBypassRingBackpressure pins the ring's overflow contract: a full ring
// refuses admission (the NI turns that into NACK + sender retry) instead of
// overwriting or growing, and reservation bookkeeping releases as messages
// pop.
func TestBypassRingBackpressure(t *testing.T) {
	ring := BypassRing{Pages: 1, SlotWords: 128} // 8 slots
	frames := vm.NewFrames(8)
	st := ring.NewStore(frames, Params{Costs: confCosts})

	slots := vm.PageWords / 128
	for i := 0; i < slots; i++ {
		if !st.Admit(10) {
			t.Fatalf("slot %d refused below capacity", i)
		}
		st.Push(uint64(i), []uint64{1, 2, 3}, 0, 0)
	}
	if st.Admit(10) {
		t.Fatal("full ring admitted a message")
	}
	if st.Admit(1000) {
		t.Fatal("ring admitted a message wider than a slot")
	}
	st.Pop()
	if !st.Admit(10) {
		t.Fatal("ring refused after a pop freed a slot")
	}
	st.Push(uint64(slots), []uint64{4}, 0, 0)
	// The freed head slot is reused: ring never grows past its partition.
	if got := st.PagesResident(); got != 1 {
		t.Fatalf("ring resident pages = %d, want 1", got)
	}
}

// TestBypassRingReservation pins the Admit-reserves semantics: admissions
// without their Push yet (packets queued behind the head in the NI) count
// against capacity, so the ring can never oversubscribe.
func TestBypassRingReservation(t *testing.T) {
	ring := BypassRing{Pages: 1, SlotWords: 128}
	st := ring.NewStore(vm.NewFrames(8), Params{Costs: confCosts})
	slots := vm.PageWords / 128
	for i := 0; i < slots; i++ {
		if !st.Admit(10) {
			t.Fatalf("reservation %d refused", i)
		}
	}
	if st.Admit(10) {
		t.Fatal("ring oversubscribed: admitted beyond reserved capacity")
	}
	for i := 0; i < slots; i++ {
		st.Push(uint64(i), []uint64{uint64(i)}, 0, 0)
	}
	if st.Pending() != slots {
		t.Fatalf("Pending = %d, want %d", st.Pending(), slots)
	}
}

// TestInsertCostsPerPolicy pins each policy's charge arithmetic against the
// cost model, so the lab's latency comparison rests on the intended
// constants.
func TestInsertCostsPerPolicy(t *testing.T) {
	frames := vm.NewFrames(16)
	cases := []struct {
		policy Policy
		res    PushResult
		want   uint64
	}{
		{TwoCase{}, PushResult{}, confCosts.InsertMin},
		{TwoCase{}, PushResult{NewPages: 1}, confCosts.InsertVMAlloc},
		{TwoCase{}, PushResult{NewPages: 1, PagedOut: 2}, confCosts.InsertVMAlloc + 2*confCosts.PageOut},
		{ZeroCopyRemap{}, PushResult{}, confCosts.Remap},
		{ZeroCopyRemap{}, PushResult{Fallback: true}, confCosts.InsertVMAlloc},
		{DefaultBypassRing(), PushResult{}, 0}, // NI DMA: no kernel cycles
	}
	for _, c := range cases {
		st := c.policy.NewStore(frames, Params{Costs: confCosts})
		if got := st.InsertCost(c.res); got != c.want {
			t.Errorf("%s InsertCost(%+v) = %d, want %d", c.policy.Name(), c.res, got, c.want)
		}
	}
}

// TestRegistry pins the registry surface the -policy flag exposes.
func TestRegistry(t *testing.T) {
	want := []string{"bypass", "twocase", "zerocopy"}
	got := Names()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted an unknown policy")
	}
	def, err := ByName("twocase")
	if err != nil || !def.KernelBuffered() || def.HardwareDemux() {
		t.Errorf("twocase flags wrong: %+v %v", def, err)
	}
	byp, err := ByName("bypass")
	if err != nil || byp.KernelBuffered() || !byp.HardwareDemux() {
		t.Errorf("bypass flags wrong: %+v %v", byp, err)
	}
}
