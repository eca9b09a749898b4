package delivery

import (
	"testing"

	"fugu/internal/vm"
)

// FuzzStoreInsertDrain differentially tests every registered policy's store
// against a plain Go slice model. The fuzz input chooses record lengths, the
// push/pop interleaving and the frame-pool size. Each push goes through
// Admit first and a refused message is skipped, as the NI would NACK it.
// Before every pop the store's Head (ID and SentAt), PendingIDs and every
// word of the head record must match the model in FIFO order. Records stay
// under one page, since a zero-copy message occupies one flipped page. A
// drained store must hold exactly the pages it held at creation: none for
// the kernel-buffered stores, the statically pinned ring for bypass.
//
// The committed corpus files named buffer-* hold FuzzBufferInsertDrain's
// former corpus and its seeds, re-encoded so that twocase replays the same
// pool size and the same sequence of push lengths and pops.
func FuzzStoreInsertDrain(f *testing.F) {
	f.Add([]byte{3, 10, 200, 3, 0, 7, 3, 3}, uint8(3))
	f.Add([]byte{0x81, 255, 0x90, 255, 0xa0, 255, 3, 0, 3, 0, 3, 0}, uint8(0))
	f.Add([]byte{0, 120, 4, 120, 8, 120, 12, 120, 16, 120, 3, 0, 20, 5}, uint8(5))
	f.Fuzz(func(t *testing.T, script []byte, poolB uint8) {
		for _, name := range Names() {
			pol, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// At least four frames: the default bypass ring pins four at
			// creation.
			frames := vm.NewFrames(int(poolB)%6 + 4)
			st := pol.NewStore(frames, Params{Costs: confCosts})
			static, staticFrames := st.PagesResident(), frames.InUse()
			fuzzStore(t, name, st, script)
			if !st.Empty() || st.Pending() != 0 {
				t.Fatalf("%s: store not empty after draining: Pending = %d", name, st.Pending())
			}
			if _, ok := st.Head(); ok {
				t.Fatalf("%s: Head ok on a drained store", name)
			}
			if got := st.PagesResident(); got != static {
				t.Fatalf("%s: resident pages after drain = %d, want %d", name, got, static)
			}
			if got := frames.InUse(); got != staticFrames {
				t.Fatalf("%s: frames in use after drain = %d, want %d", name, got, staticFrames)
			}
		}
	})
}

// fuzzStore runs one script against st and drains it, checking every
// message against the model.
func fuzzStore(t *testing.T, name string, st Store, script []byte) {
	type rec struct {
		id, sentAt uint64
		words      []uint64
	}
	var model []rec

	pop := func() {
		want := model[0]
		ids := st.PendingIDs()
		if len(ids) != len(model) {
			t.Fatalf("%s: PendingIDs len = %d, want %d", name, len(ids), len(model))
		}
		for i, m := range model {
			if ids[i] != m.id {
				t.Fatalf("%s: PendingIDs[%d] = %d, want %d", name, i, ids[i], m.id)
			}
		}
		if h, ok := st.Head(); !ok || h.ID != want.id || h.SentAt != want.sentAt {
			t.Fatalf("%s: Head = %+v,%v, want ID %d SentAt %d", name, h, ok, want.id, want.sentAt)
		}
		if n := st.HeadLen(); n != len(want.words) {
			t.Fatalf("%s: head len = %d, want %d", name, n, len(want.words))
		}
		for j, w := range want.words {
			if got := st.HeadWord(j); got != w {
				t.Fatalf("%s: msg %d word %d = %#x, want %#x", name, want.id, j, got, w)
			}
		}
		if meta, _ := st.Pop(); meta.ID != want.id || meta.SentAt != want.sentAt {
			t.Fatalf("%s: Pop meta = %+v, want ID %d SentAt %d", name, meta, want.id, want.sentAt)
		}
		model = model[1:]
	}

	seq := uint64(0)
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		if op%4 == 3 && len(model) > 0 {
			pop()
			continue
		}
		// Mostly short records that fit a default bypass slot; a set high
		// bit asks for one up to a page less its length word.
		n := int(arg)%120 + 1
		if op&0x80 != 0 {
			n = (int(op)*13+int(arg))%(vm.PageWords-1) + 1
		}
		if !st.Admit(n) {
			continue
		}
		seq++
		words := make([]uint64, n)
		for j := range words {
			words[j] = seq*0x9e3779b97f4a7c15 + uint64(j)
		}
		st.Push(seq, words, 7*seq, 7*seq+1)
		model = append(model, rec{id: seq, sentAt: 7 * seq, words: words})
		if st.Pending() != len(model) {
			t.Fatalf("%s: Pending = %d after push, want %d", name, st.Pending(), len(model))
		}
		if hw := st.PagesHighWater(); hw < st.PagesResident() {
			t.Fatalf("%s: high water %d below resident %d", name, hw, st.PagesResident())
		}
	}
	for len(model) > 0 {
		pop()
	}
}
