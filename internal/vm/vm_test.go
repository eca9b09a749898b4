package vm

import (
	"testing"
	"testing/quick"
)

func TestEnsureZeroFill(t *testing.T) {
	s := NewSpace(NewFrames(4))
	faulted, ok := s.Ensure(5000)
	if !faulted || !ok {
		t.Fatalf("Ensure = (%v,%v), want fault+ok", faulted, ok)
	}
	if got := s.Read(5000); got != 0 {
		t.Errorf("fresh page word = %d, want 0", got)
	}
	// Second touch of the same page: no fault.
	faulted, ok = s.Ensure(5001)
	if faulted || !ok {
		t.Errorf("re-Ensure = (%v,%v), want no fault", faulted, ok)
	}
}

// TestRecycledPageZeroFilled: page storage freed by Unmap or Release is
// reused by a later Ensure, in the same space or another on the node, and
// must come back zero-filled and reported as a fault, exactly like a fresh
// page. Recycling is host memory only, so the frame accounting is the same
// as without it.
func TestRecycledPageZeroFilled(t *testing.T) {
	free := map[string]func(s *Space){
		"unmap":   func(s *Space) { s.Unmap(0); s.Unmap(PageWords) },
		"release": func(s *Space) { s.Release() },
	}
	for name, drop := range free {
		t.Run(name, func(t *testing.T) {
			f := NewFrames(4)
			a, b := NewSpace(f), NewSpace(f)
			for _, addr := range []uint64{0, PageWords} {
				a.Ensure(addr)
				for i := uint64(0); i < PageWords; i++ {
					a.Write(addr+i, 0xdead0000|i)
				}
			}
			drop(a)
			if f.InUse() != 0 || f.HighWater() != 2 || a.PagesMapped() != 0 {
				t.Fatalf("after %s: InUse %d HighWater %d mapped %d, want 0 2 0", name, f.InUse(), f.HighWater(), a.PagesMapped())
			}
			for _, s := range []*Space{a, b} {
				if faulted, ok := s.Ensure(0); !faulted || !ok {
					t.Fatalf("re-Ensure = (%v,%v), want fault+ok", faulted, ok)
				}
				for i := uint64(0); i < PageWords; i++ {
					if got := s.Read(i); got != 0 {
						t.Fatalf("recycled page word %d = %#x, want 0", i, got)
					}
				}
			}
			if f.InUse() != 2 || f.HighWater() != 2 {
				t.Fatalf("after re-Ensure: InUse %d HighWater %d, want 2 2", f.InUse(), f.HighWater())
			}
		})
	}
}

func TestReadWrite(t *testing.T) {
	s := NewSpace(NewFrames(4))
	s.Ensure(0)
	s.Write(7, 99)
	if s.Read(7) != 99 {
		t.Error("read back failed")
	}
	// Same page, different word untouched.
	if s.Read(8) != 0 {
		t.Error("neighbour word dirtied")
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	s := NewSpace(NewFrames(4))
	defer func() {
		if recover() == nil {
			t.Error("read of unmapped page did not panic")
		}
	}()
	s.Read(12345)
}

func TestFrameExhaustion(t *testing.T) {
	f := NewFrames(2)
	s := NewSpace(f)
	if _, ok := s.Ensure(0 * PageWords); !ok {
		t.Fatal("first alloc failed")
	}
	if _, ok := s.Ensure(1 * PageWords); !ok {
		t.Fatal("second alloc failed")
	}
	faulted, ok := s.Ensure(2 * PageWords)
	if !faulted || ok {
		t.Errorf("exhausted Ensure = (%v,%v), want fault+!ok", faulted, ok)
	}
	if s.Denied() != 1 {
		t.Errorf("Denied = %d, want 1", s.Denied())
	}
	if f.Free() != 0 || f.InUse() != 2 {
		t.Errorf("pool state free=%d inUse=%d", f.Free(), f.InUse())
	}
	// Freeing a page makes the allocation succeed.
	s.Unmap(0)
	if _, ok := s.Ensure(2 * PageWords); !ok {
		t.Error("Ensure after Unmap failed")
	}
}

func TestSharedPoolAcrossSpaces(t *testing.T) {
	f := NewFrames(3)
	a, b := NewSpace(f), NewSpace(f)
	a.Ensure(0)
	a.Ensure(PageWords)
	b.Ensure(0)
	if _, ok := b.Ensure(PageWords); ok {
		t.Error("pool did not limit across spaces")
	}
	a.Release()
	if f.InUse() != 1 {
		t.Errorf("InUse after release = %d, want 1", f.InUse())
	}
	if _, ok := b.Ensure(PageWords); !ok {
		t.Error("Ensure after peer release failed")
	}
}

func TestHighWater(t *testing.T) {
	f := NewFrames(10)
	s := NewSpace(f)
	for i := 0; i < 5; i++ {
		s.Ensure(uint64(i) * PageWords)
	}
	for i := 0; i < 3; i++ {
		s.Unmap(uint64(i) * PageWords)
	}
	s.Ensure(100 * PageWords)
	if f.HighWater() != 5 {
		t.Errorf("pool high water = %d, want 5", f.HighWater())
	}
	if s.HighWater() != 5 {
		t.Errorf("space high water = %d, want 5", s.HighWater())
	}
	if s.PagesMapped() != 3 {
		t.Errorf("mapped = %d, want 3", s.PagesMapped())
	}
}

func TestUnmapIdempotent(t *testing.T) {
	f := NewFrames(2)
	s := NewSpace(f)
	s.Ensure(0)
	s.Unmap(0)
	s.Unmap(0) // no-op, must not underflow the pool
	if f.InUse() != 0 {
		t.Errorf("InUse = %d, want 0", f.InUse())
	}
}

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageWords-1) != 0 || PageOf(PageWords) != 1 {
		t.Error("PageOf boundary arithmetic wrong")
	}
}

// Property: under any interleaving of Ensure/Unmap on bounded addresses,
// the pool accounting never goes negative, never exceeds the total, and
// high-water bounds in-use.
func TestAccountingInvariants(t *testing.T) {
	prop := func(ops []uint16) bool {
		f := NewFrames(8)
		s := NewSpace(f)
		for _, op := range ops {
			addr := uint64(op%32) * PageWords
			if op&0x8000 != 0 {
				s.Unmap(addr)
			} else {
				s.Ensure(addr)
			}
			if f.InUse() < 0 || f.InUse() > f.Total() {
				return false
			}
			if f.HighWater() < f.InUse() {
				return false
			}
			if s.PagesMapped() != f.InUse() {
				return false // single space: must track exactly
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: writes land on the right page/offset — no aliasing between
// distinct addresses.
func TestNoAliasing(t *testing.T) {
	prop := func(addrs []uint16) bool {
		s := NewSpace(NewFrames(64))
		written := map[uint64]uint64{}
		for i, a := range addrs {
			addr := uint64(a) % (32 * PageWords)
			if _, ok := s.Ensure(addr); !ok {
				return false
			}
			v := uint64(i + 1)
			s.Write(addr, v)
			written[addr] = v
		}
		for addr, v := range written {
			if s.Read(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEvictInstallRoundTrip(t *testing.T) {
	f := NewFrames(2)
	s := NewSpace(f)
	s.Ensure(0)
	s.Write(5, 77)
	words := s.Evict(0)
	if words == nil || words[5] != 77 {
		t.Fatal("evict lost contents")
	}
	if f.InUse() != 0 || s.Mapped(0) {
		t.Error("evict did not release the frame")
	}
	if !s.Install(0, words) {
		t.Fatal("install failed with free frames")
	}
	if s.Read(5) != 77 {
		t.Error("install lost contents")
	}
}

func TestEvictNonResident(t *testing.T) {
	s := NewSpace(NewFrames(2))
	if s.Evict(12345) != nil {
		t.Error("evict of non-resident page returned words")
	}
}

func TestInstallFailsWhenExhausted(t *testing.T) {
	f := NewFrames(1)
	s := NewSpace(f)
	s.Ensure(0)
	if s.Install(PageWords, make([]uint64, PageWords)) {
		t.Error("install succeeded with no free frames")
	}
	if s.Denied() != 1 {
		t.Errorf("Denied = %d, want 1", s.Denied())
	}
}

func TestInstallOverResidentPanics(t *testing.T) {
	s := NewSpace(NewFrames(2))
	s.Ensure(0)
	defer func() {
		if recover() == nil {
			t.Error("double install did not panic")
		}
	}()
	s.Install(0, make([]uint64, PageWords))
}

func TestInstallWrongSizePanics(t *testing.T) {
	s := NewSpace(NewFrames(2))
	defer func() {
		if recover() == nil {
			t.Error("short install did not panic")
		}
	}()
	s.Install(0, make([]uint64, 3))
}
