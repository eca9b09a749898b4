package mesh

import (
	"runtime"
	"testing"
	"testing/quick"

	"fugu/internal/metrics"
	"fugu/internal/sim"
)

// sinkEP accepts up to cap packets until drained.
type sinkEP struct {
	got []*Packet
	cap int
}

func (s *sinkEP) Arrive(p *Packet) bool {
	if s.cap > 0 && len(s.got) >= s.cap {
		return false
	}
	s.got = append(s.got, p)
	return true
}

func newNet(e *sim.Engine) (*Net, []*sinkEP) {
	n := New(e, 4, 2, DefaultLatency())
	eps := make([]*sinkEP, n.Nodes())
	for i := range eps {
		eps[i] = &sinkEP{}
		n.Register(i, Main, eps[i])
		n.Register(i, OS, &sinkEP{})
	}
	return n, eps
}

func TestHops(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 4, 2, DefaultLatency())
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 4, 1}, {0, 7, 4}, {3, 4, 4}, {1, 6, 2},
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeliveryLatency(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	n.Send(Main, 0, 3, []uint64{1, 2, 3, 4}) // 3 hops, 4 words
	e.Run()
	if len(eps[3].got) != 1 {
		t.Fatalf("got %d packets, want 1", len(eps[3].got))
	}
	pkt := eps[3].got[0]
	want := DefaultLatency().Delay(3, 4) // 10 + 2*3 + 1*4 = 20
	if pkt.ArrivedAt != want {
		t.Errorf("arrived at %d, want %d", pkt.ArrivedAt, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	n.Send(Main, 2, 2, []uint64{9})
	e.Run()
	if len(eps[2].got) != 1 {
		t.Fatal("local packet not delivered")
	}
	if eps[2].got[0].ArrivedAt != DefaultLatency().Delay(0, 1) {
		t.Errorf("local latency = %d", eps[2].got[0].ArrivedAt)
	}
}

func TestInOrderPerPair(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			n.Send(Main, 0, 5, []uint64{uint64(i)})
			p.Sleep(1)
		}
	})
	e.Run()
	if len(eps[5].got) != 20 {
		t.Fatalf("got %d packets, want 20", len(eps[5].got))
	}
	for i, pkt := range eps[5].got {
		if pkt.Words[0] != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, pkt.Words[0])
		}
	}
}

func TestBackpressureAndNotifySpace(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	reg := metrics.NewRegistry()
	n.UseMetrics(reg)
	eps[1].cap = 2
	for i := 0; i < 5; i++ {
		n.Send(Main, 0, 1, []uint64{uint64(i)})
	}
	e.Run()
	if len(eps[1].got) != 2 {
		t.Fatalf("accepted %d, want 2", len(eps[1].got))
	}
	if n.BlockedAt(1, Main) != 3 {
		t.Fatalf("blocked = %d, want 3", n.BlockedAt(1, Main))
	}
	if reg.Counter("mesh.main.refused").Value() == 0 {
		t.Error("no refusals recorded")
	}
	// Drain one slot: exactly one blocked packet (the next in order) lands.
	eps[1].cap = 3
	n.NotifySpace(1, Main)
	if len(eps[1].got) != 3 || eps[1].got[2].Words[0] != 2 {
		t.Fatalf("after notify: got %d, last word %d", len(eps[1].got), eps[1].got[len(eps[1].got)-1].Words[0])
	}
	// Unbounded now: the rest flows.
	eps[1].cap = 0
	n.NotifySpace(1, Main)
	if len(eps[1].got) != 5 || n.BlockedAt(1, Main) != 0 {
		t.Fatalf("after drain: got %d, blocked %d", len(eps[1].got), n.BlockedAt(1, Main))
	}
}

func TestOrderPreservedAcrossRefusal(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	eps[1].cap = 1
	e.Spawn("s", func(p *sim.Proc) {
		n.Send(Main, 0, 1, []uint64{0})
		p.Sleep(100) // first packet delivered, fills the queue
		n.Send(Main, 0, 1, []uint64{1})
		p.Sleep(100) // second blocks in network
		eps[1].cap = 10
		n.Send(Main, 0, 1, []uint64{2}) // must NOT bypass packet 1
		p.Sleep(100)
		n.NotifySpace(1, Main)
	})
	e.Run()
	if len(eps[1].got) != 3 {
		t.Fatalf("got %d packets, want 3", len(eps[1].got))
	}
	for i, pkt := range eps[1].got {
		if pkt.Words[0] != uint64(i) {
			t.Fatalf("order violated: position %d has %d", i, pkt.Words[0])
		}
	}
}

func TestClassesIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 4, 2, DefaultLatency())
	main := &sinkEP{cap: 1}
	osEp := &sinkEP{}
	for i := 0; i < n.Nodes(); i++ {
		n.Register(i, Main, main)
		n.Register(i, OS, osEp)
	}
	// Clog the main network at node 1.
	n.Send(Main, 0, 1, []uint64{1})
	n.Send(Main, 0, 1, []uint64{2})
	n.Send(OS, 0, 1, []uint64{3})
	e.Run()
	if len(osEp.got) != 1 {
		t.Error("OS network blocked by main-network congestion")
	}
	if n.BlockedAt(1, Main) != 1 {
		t.Errorf("main blocked = %d, want 1", n.BlockedAt(1, Main))
	}
}

func TestStats(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNet(e)
	reg := metrics.NewRegistry()
	n.UseMetrics(reg)
	n.Send(Main, 0, 1, []uint64{1, 2, 3})
	n.Send(Main, 2, 3, []uint64{1})
	n.Send(OS, 0, 1, []uint64{1, 2})
	e.Run()
	for _, c := range []struct {
		name string
		want uint64
	}{{"mesh.main.packets", 2}, {"mesh.main.words", 4}, {"mesh.os.packets", 1}, {"mesh.os.words", 2}} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSendInvalidNodePanics(t *testing.T) {
	cases := []struct {
		name     string
		src, dst int
		want     string
	}{
		{"bad dst", 0, 99, "mesh: send to invalid node 99"},
		{"negative dst", 0, -1, "mesh: send to invalid node -1"},
		// Pools are per engine, so Acquire on a bad source succeeds; the
		// send itself must refuse it.
		{"bad src", 99, 0, "mesh: send from invalid node 99"},
		{"negative src", -1, 0, "mesh: send from invalid node -1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			n, _ := newNet(e)
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic = %v, want %q", got, c.want)
				}
			}()
			n.SendPacket(Main, c.src, c.dst, n.Acquire(c.src, 1))
		})
	}
}

// TestNewSizedByNodes: building the 64×64 mesh allocates O(nodes) bytes.
// The FIFO guard holds only packets in flight, not an entry per node pair
// (a pair table would be 2 classes × 4096² × 8 bytes = 268 MB).
func TestNewSizedByNodes(t *testing.T) {
	e := sim.NewEngine(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := New(e, 64, 64, DefaultLatency())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	const limit = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("New(64, 64) allocated %d bytes, want under %d", got, limit)
	}
}

// poolSink releases every packet it receives back to the network at its
// own node, and records which packets it saw.
type poolSink struct {
	net      *Net
	node     int
	got      int
	distinct map[*Packet]bool
}

func (s *poolSink) Arrive(p *Packet) bool {
	s.got++
	s.distinct[p] = true
	s.net.Release(s.node, p)
	return true
}

// TestPoolManyToOne: every node sends to node 0, which releases what it
// receives. The receiver's releases must feed the senders' acquires, so the
// packets ever allocated stay bounded by the peak number in flight, not by
// the number of messages sent.
func TestPoolManyToOne(t *testing.T) {
	const msgs = 50
	e := sim.NewEngine(1)
	n := New(e, 4, 2, DefaultLatency())
	sink := &poolSink{net: n, distinct: map[*Packet]bool{}}
	n.Register(0, Main, sink)
	sent, peak := 0, 0
	for src := 0; src < n.Nodes(); src++ {
		for i := 0; i < msgs; i++ {
			e.Schedule(uint64(i*7+src), func() {
				n.SendPacket(Main, src, 0, n.Acquire(src, 4))
				sent++
				peak = max(peak, sent-sink.got)
			})
		}
	}
	e.Run()
	if sink.got != sent || sent != n.Nodes()*msgs {
		t.Fatalf("delivered %d of %d packets", sink.got, sent)
	}
	if len(sink.distinct) > peak {
		t.Fatalf("%d distinct packets carried %d messages, want at most the peak in flight (%d)",
			len(sink.distinct), sent, peak)
	}
}

// TestReleaseTwicePanics: a second Release of a packet already on the free
// list panics, so two later Acquires can never hand out the same packet.
// Acquire clears the mark, so the packet can be released again after reuse.
func TestReleaseTwicePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNet(e)
	pkt := n.Acquire(0, 2)
	n.Release(0, pkt)
	if again := n.Acquire(0, 2); again != pkt {
		t.Fatal("Acquire did not reuse the released packet")
	}
	n.Release(0, pkt)
	defer func() {
		if got := recover(); got == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	n.Release(0, pkt)
}

// Property: for random send schedules from many sources to one sink with a
// finite queue that is drained periodically, every packet is delivered
// exactly once and per-source order is preserved.
func TestDeliveryExactlyOnceProperty(t *testing.T) {
	prop := func(seed uint64, plan []uint8) bool {
		if len(plan) == 0 {
			return true
		}
		e := sim.NewEngine(seed)
		n := New(e, 4, 2, DefaultLatency())
		sink := &sinkEP{cap: 2}
		for i := 0; i < n.Nodes(); i++ {
			n.Register(i, Main, sink)
			n.Register(i, OS, &sinkEP{})
		}
		type mark struct{ at, id uint64 }
		lastSent := map[int]mark{}
		sent := 0
		for i, b := range plan {
			src := int(b) % 7 // nodes 0..6 send to 7
			delay := uint64(b%13) * uint64(i)
			seq := uint64(i)
			e.Schedule(delay, func() { n.Send(Main, src, 7, []uint64{uint64(src), seq}) })
			sent++
		}
		// Periodic drain.
		var drain func()
		drain = func() {
			sink.cap += 2
			n.NotifySpace(7, Main)
			if len(sink.got) < sent {
				e.Schedule(50, drain)
			}
		}
		e.Schedule(25, drain)
		e.Run()
		if len(sink.got) != sent {
			return false
		}
		seen := map[uint64]bool{}
		for _, pkt := range sink.got {
			if seen[pkt.ID] {
				return false // duplicate
			}
			seen[pkt.ID] = true
			src := int(pkt.Words[0])
			// Per-pair delivery must follow injection order: (SentAt, ID)
			// nondecreasing lexicographically for each source.
			if last, ok := lastSent[src]; ok {
				if pkt.SentAt < last.at || (pkt.SentAt == last.at && pkt.ID < last.id) {
					return false // per-source reorder
				}
			}
			lastSent[src] = mark{pkt.SentAt, pkt.ID}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestShortPacketCannotOvertakeLong: a 2-word packet sent right after a
// 60-word packet on the same route must arrive second, even though its raw
// latency is smaller (per-pair FIFO, the property higher-level protocols
// rely on for reassembly and flush ordering).
func TestShortPacketCannotOvertakeLong(t *testing.T) {
	e := sim.NewEngine(1)
	n, eps := newNet(e)
	long := make([]uint64, 60)
	long[0] = 111
	n.Send(Main, 0, 1, long)
	n.Send(Main, 0, 1, []uint64{222, 0})
	e.Run()
	if len(eps[1].got) != 2 {
		t.Fatalf("delivered %d", len(eps[1].got))
	}
	if eps[1].got[0].Words[0] != 111 || eps[1].got[1].Words[0] != 222 {
		t.Errorf("short packet overtook long: %d then %d",
			eps[1].got[0].Words[0], eps[1].got[1].Words[0])
	}
	if eps[1].got[1].ArrivedAt <= eps[1].got[0].ArrivedAt {
		t.Error("arrival times not strictly ordered")
	}
}
