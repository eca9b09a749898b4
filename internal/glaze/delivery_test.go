package glaze

import "testing"

func TestDeliveryPct(t *testing.T) {
	d := Delivery{Fast: 75, Buffered: 25}
	if d.Total() != 100 {
		t.Errorf("Total = %d", d.Total())
	}
	if got := d.BufferedPct(); got != 25 {
		t.Errorf("BufferedPct = %v, want 25", got)
	}
	var zero Delivery
	if zero.BufferedPct() != 0 {
		t.Error("empty delivery pct != 0")
	}
}

func TestDeliveryAdd(t *testing.T) {
	a := Delivery{Fast: 1, Buffered: 2}
	a.Add(Delivery{Fast: 10, Buffered: 20})
	if a.Fast != 11 || a.Buffered != 22 {
		t.Errorf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}
