package delivery

import (
	"testing"

	"fugu/internal/vm"
)

// FuzzBufferInsertDrain differentially tests the virtual software buffer —
// the insert/drain path of second-case delivery — against a plain Go slice
// model. The fuzz input chooses record lengths, push/pop interleaving and
// the frame-pool size, so the page-reclamation, eviction and swap-in
// machinery all get exercised under arbitrary schedules. Every drained
// record must read back word-for-word identical to what was pushed, in FIFO
// order, and a fully drained buffer must return every frame to the pool.
//
// It calls the buffer directly, without Store.Admit or the policy registry;
// FuzzStoreInsertDrain runs the same schedules through every policy's store
// and carries this target's former committed corpus (its buffer-* files).
func FuzzBufferInsertDrain(f *testing.F) {
	f.Add([]byte{3, 10, 200, 3, 0, 7, 3, 3}, uint8(3))
	f.Add([]byte{255, 255, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7}, uint8(1))
	f.Add([]byte{40, 3, 80, 3, 120, 3, 160, 3, 200, 3}, uint8(8))
	f.Fuzz(func(t *testing.T, script []byte, poolB uint8) {
		// At least four frames: a record may straddle a page boundary while
		// the head page and a swap-restore victim are resident too. Records
		// below a page keep within the buffer's design envelope (real NI
		// messages are tens of words; see TestBufferFIFOProperty).
		frames := vm.NewFrames(int(poolB)%6 + 4)
		b := NewVirtualBuffer(frames)
		var model [][]uint64

		verifyHead := func() {
			want := model[0]
			if n := b.HeadLen(); n != len(want) {
				t.Fatalf("head len = %d, want %d", n, len(want))
			}
			for j, w := range want {
				if got := b.HeadWord(j); got != w {
					t.Fatalf("head word %d = %#x, want %#x", j, got, w)
				}
			}
		}

		seq := uint64(0)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			if op%4 == 3 && len(model) > 0 {
				verifyHead()
				b.Pop()
				model = model[1:]
				continue
			}
			n := (int(op)*13+int(arg))%600 + 1
			words := make([]uint64, n)
			for j := range words {
				seq++
				words[j] = seq*0x9e3779b97f4a7c15 + uint64(j)
			}
			b.Push(seq, words, 0, 0)
			model = append(model, words)
		}
		for len(model) > 0 {
			verifyHead()
			b.Pop()
			model = model[1:]
		}
		if !b.Empty() {
			t.Fatal("buffer not empty after draining the model")
		}
		if b.PagesResident() != 0 {
			t.Fatalf("resident pages after drain = %d, want 0", b.PagesResident())
		}
		if frames.InUse() != 0 {
			t.Fatalf("frames in use after drain = %d, want 0", frames.InUse())
		}
	})
}
