package mesh

import (
	"testing"

	"fugu/internal/faultinject"
	"fugu/internal/sim"
)

// FuzzMeshFIFO drives the mesh with an arbitrary send schedule — sources,
// destinations, lengths and inter-send gaps all read from the fuzz input —
// under fault-plan congestion (link stalls and hot spots whose probability
// and magnitude also come from the input) and a latency model also drawn
// from the input (zero costs allowed), and checks the two route invariants
// the NIs and the kernel stand on:
//
//   - conservation: every packet sent is delivered exactly once;
//   - per-pair FIFO: packets between one (src, dst) pair arrive in send
//     order, each strictly after the one before, no matter what injected
//     delays their schedules picked up.
//
// The second is the property the injector's ordering clamp exists for: a
// stall drawn for an early packet must never let a later packet overtake.
// With a zero-latency model a send lands in the cycle it was made, so a
// second same-cycle send on the pair must still be pushed one cycle later.
func FuzzMeshFIFO(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 1, 0, 4, 10, 0, 1, 1, 0}, uint8(0), uint8(0), uint8(10), uint8(2), uint8(1))
	f.Add([]byte{7, 0, 16, 255, 0, 7, 16, 0, 3, 4, 2, 1}, uint8(200), uint8(90), uint8(10), uint8(2), uint8(1))
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, uint8(255), uint8(255), uint8(10), uint8(2), uint8(1))
	f.Add([]byte{2, 2, 0, 0, 2, 5, 0, 0, 2, 2, 3, 0, 2, 5, 0, 0}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, script []byte, stallP, stallC, base, perHop, perWord uint8) {
		eng := sim.NewEngine(1)
		net := New(eng, 4, 2, LatencyModel{Base: uint64(base), PerHop: uint64(perHop), PerWord: uint64(perWord)})
		eps := make([]*sinkEP, net.Nodes())
		for i := range eps {
			eps[i] = &sinkEP{}
			net.Register(i, Main, eps[i])
			net.Register(i, OS, &sinkEP{})
		}
		plan := faultinject.Plan{Seed: uint64(stallP)<<8 | uint64(stallC)}
		plan.Arm(faultinject.LinkStall, faultinject.FaultSpec{
			Prob: float64(stallP) / 255, Cycles: uint64(stallC) * 7,
			Node: faultinject.AllNodes,
		})
		plan.Arm(faultinject.HotSpot, faultinject.FaultSpec{
			Prob: float64(stallC) / 255, Cycles: uint64(stallP) * 3,
			Node: faultinject.AllNodes,
		})
		inj := faultinject.New(plan)
		inj.BindClock(eng.Now)
		net.UseFaults(inj)

		sent := 0
		var when uint64
		for i := 0; i+3 < len(script); i += 4 {
			src := int(script[i]) % net.Nodes()
			dst := int(script[i+1]) % net.Nodes()
			words := make([]uint64, int(script[i+2])%16+1)
			words[0] = uint64(dst) // routing header stand-in
			when += uint64(script[i+3])
			w := words
			eng.Schedule(when, func() { net.Send(Main, src, dst, w) })
			sent++
		}
		eng.Run()

		delivered := 0
		last := map[[2]int]*Packet{}
		for node, ep := range eps {
			for _, pkt := range ep.got {
				delivered++
				if pkt.Dst != node {
					t.Fatalf("packet %d for node %d arrived at node %d", pkt.ID, pkt.Dst, node)
				}
				pair := [2]int{pkt.Src, pkt.Dst}
				if prev := last[pair]; prev != nil {
					if pkt.ID <= prev.ID {
						t.Fatalf("pair (%d,%d): packet %d arrived after %d — FIFO violated",
							pkt.Src, pkt.Dst, pkt.ID, prev.ID)
					}
					if pkt.ArrivedAt <= prev.ArrivedAt {
						t.Fatalf("pair (%d,%d): packet %d arrived at %d, not after packet %d at %d",
							pkt.Src, pkt.Dst, pkt.ID, pkt.ArrivedAt, prev.ID, prev.ArrivedAt)
					}
				}
				last[pair] = pkt
				if pkt.ArrivedAt < pkt.SentAt {
					t.Fatalf("packet %d arrived at %d before its send at %d",
						pkt.ID, pkt.ArrivedAt, pkt.SentAt)
				}
			}
		}
		if delivered != sent {
			t.Fatalf("conservation violated: sent %d packets, delivered %d", sent, delivered)
		}
	})
}
