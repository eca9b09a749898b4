package glaze

import (
	"testing"
)

func TestCostModelMatchesTable4(t *testing.T) {
	cases := []struct {
		impl                 AtomicityImpl
		pre, intrTotal, poll uint64
	}{
		{KernelMode, 32, 54, 9},
		{HardAtomicity, 54, 87, 9},
		{SoftAtomicity, 66, 115, 9},
	}
	for _, c := range cases {
		cm := Costs(c.impl)
		if got := cm.RecvIntrPre(); got != c.pre {
			t.Errorf("%v RecvIntrPre = %d, want %d", c.impl, got, c.pre)
		}
		if got := cm.RecvIntrTotal(); got != c.intrTotal {
			t.Errorf("%v RecvIntrTotal = %d, want %d", c.impl, got, c.intrTotal)
		}
		if got := cm.RecvPollTotal(); got != c.poll {
			t.Errorf("%v RecvPollTotal = %d, want %d", c.impl, got, c.poll)
		}
		if got := cm.SendCost(0); got != 7 {
			t.Errorf("%v SendCost(0) = %d, want 7", c.impl, got)
		}
		if got := cm.SendCost(4); got != 19 {
			t.Errorf("%v SendCost(4) = %d, want 19", c.impl, got)
		}
	}
}

func TestCostModelMatchesTable5(t *testing.T) {
	cm := Costs(SoftAtomicity)
	if cm.BufferInsertMin != 180 || cm.BufferInsertVMAlloc != 3162 {
		t.Errorf("insert costs = %d/%d, want 180/3162", cm.BufferInsertMin, cm.BufferInsertVMAlloc)
	}
	if cm.BufferedNullHandler != 52 {
		t.Errorf("buffered null handler = %d, want 52", cm.BufferedNullHandler)
	}
}
