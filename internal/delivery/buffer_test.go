package delivery

import (
	"testing"
	"testing/quick"

	"fugu/internal/vm"
)

func TestBufferPushPop(t *testing.T) {
	b := NewVirtualBuffer(vm.NewFrames(16))
	b.Push(0, []uint64{1, 2, 3}, 0, 0)
	b.Push(0, []uint64{4, 5}, 0, 0)
	if b.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", b.Pending())
	}
	if n := b.HeadLen(); n != 3 {
		t.Errorf("head len = %d, want 3", n)
	}
	if w := b.HeadWord(2); w != 3 {
		t.Errorf("head word 2 = %d, want 3", w)
	}
	b.Pop()
	if n := b.HeadLen(); n != 2 {
		t.Errorf("second head len = %d, want 2", n)
	}
	if w := b.HeadWord(0); w != 4 {
		t.Errorf("second head word 0 = %d, want 4", w)
	}
	b.Pop()
	if !b.Empty() {
		t.Error("buffer not empty after draining")
	}
}

func TestBufferFirstPushAllocates(t *testing.T) {
	f := vm.NewFrames(16)
	b := NewVirtualBuffer(f)
	res := b.Push(0, []uint64{1}, 0, 0)
	if res.NewPages != 1 {
		t.Errorf("NewPages = %d, want 1 (vmalloc path)", res.NewPages)
	}
	res = b.Push(0, []uint64{2}, 0, 0)
	if res.NewPages != 0 {
		t.Errorf("second push NewPages = %d, want 0 (existing page)", res.NewPages)
	}
}

func TestBufferInsertCostArithmetic(t *testing.T) {
	b := NewVirtualBuffer(vm.NewFrames(16))
	b.costs = Costs{InsertMin: 180, InsertVMAlloc: 3162, ExtraInsert: 10, PageOut: 2000}
	if got := b.InsertCost(PushResult{}); got != 190 {
		t.Errorf("min insert cost = %d, want 190", got)
	}
	if got := b.InsertCost(PushResult{NewPages: 1}); got != 3172 {
		t.Errorf("vmalloc insert cost = %d, want 3172", got)
	}
	if got := b.InsertCost(PushResult{NewPages: 2, PagedOut: 3}); got != 3162+10+3*2000 {
		t.Errorf("paged insert cost = %d, want %d", got, 3162+10+3*2000)
	}
}

func TestBufferPageReclamation(t *testing.T) {
	f := vm.NewFrames(64)
	b := NewVirtualBuffer(f)
	// Push enough small messages to span several pages, consuming as we go:
	// resident pages must stay low because passed pages are reclaimed.
	msg := make([]uint64, 63) // 64 words per record
	maxResident := 0
	for i := 0; i < 200; i++ {
		b.Push(0, msg, 0, 0)
		if r := b.PagesResident(); r > maxResident {
			maxResident = r
		}
		b.Pop()
	}
	if maxResident > 2 {
		t.Errorf("max resident pages = %d, want <= 2 with immediate draining", maxResident)
	}
	if b.PagesResident() != 0 {
		t.Errorf("resident after full drain = %d, want 0", b.PagesResident())
	}
	if f.InUse() != 0 {
		t.Errorf("frames in use after drain = %d, want 0", f.InUse())
	}
}

func TestBufferHighWaterTracksBacklog(t *testing.T) {
	b := NewVirtualBuffer(vm.NewFrames(64))
	msg := make([]uint64, 255) // 256-word records: 4 per page
	for i := 0; i < 16; i++ {
		b.Push(0, msg, 0, 0) // 16 records = 4 pages
	}
	if hw := b.PagesHighWater(); hw < 4 {
		t.Errorf("high water = %d, want >= 4", hw)
	}
	for i := 0; i < 16; i++ {
		b.Pop()
	}
	if b.PagesResident() != 0 {
		t.Errorf("resident = %d after drain", b.PagesResident())
	}
}

func TestBufferPageOutUnderExhaustion(t *testing.T) {
	f := vm.NewFrames(3)
	b := NewVirtualBuffer(f)
	msg := make([]uint64, 511) // 512-word records: 2 per page
	// 10 records need 5 pages; only 3 frames exist, so pushes must evict.
	pagedOut := 0
	for i := 0; i < 10; i++ {
		for j := range msg {
			msg[j] = uint64(i*1000 + j)
		}
		pagedOut += b.Push(0, msg, 0, 0).PagedOut
	}
	if pagedOut == 0 {
		t.Fatal("no page-outs despite frame exhaustion")
	}
	// Every record must read back intact, paging back in as needed.
	pagedIn := 0
	for i := 0; i < 10; i++ {
		if _, swapped := b.swap[vm.PageOf(b.head)]; swapped {
			pagedIn++
		}
		n := b.HeadLen()
		if n != 511 {
			t.Fatalf("record %d len = %d", i, n)
		}
		for _, j := range []int{0, 255, 510} {
			w := b.HeadWord(j)
			if w != uint64(i*1000+j) {
				t.Fatalf("record %d word %d = %d, want %d", i, j, w, i*1000+j)
			}
		}
		b.Pop()
	}
	if pagedIn == 0 {
		t.Error("no record was read back from backing store")
	}
	if !b.Empty() {
		t.Error("buffer not empty")
	}
}

// Property: any sequence of variable-length pushes followed by interleaved
// pops delivers exactly the pushed contents in FIFO order, under a tight
// frame pool.
func TestBufferFIFOProperty(t *testing.T) {
	prop := func(lens []uint16, seed uint64) bool {
		if len(lens) == 0 {
			return true
		}
		f := vm.NewFrames(4)
		b := NewVirtualBuffer(f)
		type rec struct{ first, last, n uint64 }
		var want []rec
		pushed := 0
		for i, l := range lens {
			n := uint64(l%600) + 1
			words := make([]uint64, n)
			words[0] = uint64(i) ^ seed
			words[n-1] = uint64(i) * 7
			b.Push(uint64(i), words, 0, 0)
			want = append(want, rec{words[0], words[n-1], n})
			pushed++
			// Interleave pops.
			if i%3 == 2 && b.Pending() > 1 {
				r := want[0]
				want = want[1:]
				if got := b.HeadLen(); uint64(got) != r.n {
					return false
				}
				if w := b.HeadWord(0); w != r.first {
					return false
				}
				if w := b.HeadWord(int(r.n - 1)); w != r.last {
					return false
				}
				b.Pop()
			}
		}
		for _, r := range want {
			if got := b.HeadLen(); uint64(got) != r.n {
				return false
			}
			if w := b.HeadWord(0); w != r.first {
				return false
			}
			if w := b.HeadWord(int(r.n - 1)); w != r.last {
				return false
			}
			b.Pop()
		}
		return b.Empty() && f.InUse() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
