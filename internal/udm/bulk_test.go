package udm

import (
	"testing"
	"testing/quick"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
)

func TestBulkTransferRoundTrip(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	var got []uint64
	var wasBulk bool
	done := NewCounter()
	eps[1].On(1, func(e *Env, msg *Msg) {
		got = append([]uint64(nil), msg.Args...)
		wasBulk = msg.Bulk
		done.Add(1)
	})
	const n = 500 // far beyond one 16-word descriptor
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i * 3)
	}
	job.Process(1).StartMain(func(tk *cpu.Task) { done.WaitFor(tk, 1) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		eps[0].Env(tk).InjectBulk(1, 1, data...)
	})
	m.RunUntilDone(0, job)
	if len(got) != n {
		t.Fatalf("reassembled %d words, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i*3) {
			t.Fatalf("word %d = %d, corrupted", i, v)
		}
	}
	if !wasBulk {
		t.Error("Msg.Bulk not set")
	}
}

func TestBulkEmptyPayload(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	done := NewCounter()
	var argLen = -1
	eps[1].On(1, func(e *Env, msg *Msg) {
		argLen = len(msg.Args)
		done.Add(1)
	})
	job.Process(1).StartMain(func(tk *cpu.Task) { done.WaitFor(tk, 1) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		eps[0].Env(tk).InjectBulk(1, 1)
	})
	m.RunUntilDone(0, job)
	if argLen != 0 {
		t.Errorf("empty bulk delivered %d args", argLen)
	}
}

func TestBulkInterleavedTransfers(t *testing.T) {
	// Two senders each stream several transfers to the same receiver; the
	// per-transfer ids keep reassembly separate even though fragments
	// interleave arbitrarily at the destination.
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 4, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("bulk")
	eps := make([]*EP, 4)
	for i := range eps {
		eps[i] = Attach(job.Process(i))
	}
	type rx struct {
		first uint64
		n     int
	}
	var gotAll []rx
	done := NewCounter()
	eps[3].On(1, func(e *Env, msg *Msg) {
		gotAll = append(gotAll, rx{msg.Args[0], len(msg.Args)})
		for i, v := range msg.Args {
			if v != msg.Args[0]+uint64(i) {
				t.Errorf("cross-transfer corruption in payload starting %d", msg.Args[0])
			}
		}
		done.Add(1)
	})
	job.Process(3).StartMain(func(tk *cpu.Task) { done.WaitFor(tk, 6) })
	for sender := 0; sender < 2; sender++ {
		job.Process(sender).StartMain(func(tk *cpu.Task) {
			e := eps[sender].Env(tk)
			for k := 0; k < 3; k++ {
				base := uint64(sender*10000 + k*1000)
				data := make([]uint64, 100+k*37)
				for i := range data {
					data[i] = base + uint64(i)
				}
				e.InjectBulk(3, 1, data...)
			}
		})
	}
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	if len(gotAll) != 6 {
		t.Fatalf("received %d transfers, want 6", len(gotAll))
	}
}

// Property: any payload survives fragmentation and reassembly bit-exactly,
// for any descriptor size.
func TestBulkPayloadProperty(t *testing.T) {
	prop := func(seed uint64, length uint16, outWords uint8) bool {
		n := int(length % 1500)
		ow := 24 + int(outWords%64) // descriptor between 24 and 87 words
		data := make([]uint64, n)
		h := seed | 1
		for i := range data {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			data[i] = h
		}
		cfg := glaze.DefaultConfig()
		cfg.W, cfg.H = 2, 1
		cfg.NIConfig.OutputWords = ow
		m := glaze.NewMachine(cfg)
		job := m.NewJob("p")
		ep0 := Attach(job.Process(0))
		ep1 := Attach(job.Process(1))
		var got []uint64
		done := NewCounter()
		ep1.On(1, func(e *Env, msg *Msg) {
			got = append([]uint64(nil), msg.Args...)
			done.Add(1)
		})
		job.Process(1).StartMain(func(tk *cpu.Task) { done.WaitFor(tk, 1) })
		job.Process(0).StartMain(func(tk *cpu.Task) {
			ep0.Env(tk).InjectBulk(1, 1, data...)
		})
		m.NewGang(1<<40, 0, job).Start()
		m.RunUntilDone(1_000_000_000, job)
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBulkUnderMultiprogramming(t *testing.T) {
	// A bulk transfer whose fragments straddle quantum boundaries must
	// reassemble exactly once even though some fragments take the buffered
	// path.
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("bulk")
	null := m.NewJob("null")
	Attach(null.Process(0))
	Attach(null.Process(1))
	ep0 := Attach(job.Process(0))
	ep1 := Attach(job.Process(1))
	var transfers int
	var total int
	done := NewCounter()
	ep1.On(1, func(e *Env, msg *Msg) {
		transfers++
		total += len(msg.Args)
		done.Add(1)
	})
	job.Process(1).StartMain(func(tk *cpu.Task) { done.WaitFor(tk, 10) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := ep0.Env(tk)
		data := make([]uint64, 300)
		for k := 0; k < 10; k++ {
			e.InjectBulk(1, 1, data...)
			tk.Spend(20_000)
		}
	})
	m.NewGang(30_000, 0.4, job, null).Start()
	m.RunUntilDone(0, job)
	if transfers != 10 || total != 3000 {
		t.Errorf("transfers=%d total=%d, want 10/3000", transfers, total)
	}
	if job.Delivery().Buffered == 0 {
		t.Error("no fragments took the buffered path; the test proved nothing")
	}
}
