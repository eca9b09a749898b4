// DSM demonstrates the CRL all-software shared-memory system the paper's
// SPLASH applications run on: eight nodes cooperatively relax a shared
// 1-D heat equation, each owning a strip of cells in a CRL region and
// reading its neighbours' boundary regions each sweep. Coherence-protocol
// messages (the request-reply traffic of Section 5.1) do all communication.
package main

import (
	"fmt"
	"math"

	"fugu"
	"fugu/internal/apps"
	"fugu/internal/crl"
)

const (
	cells  = 512
	sweeps = 60
)

func main() {
	// Bulk coherence messages ride the modelled DMA descriptor.
	m := fugu.NewMachine(fugu.DefaultConfig(), fugu.WithOutputWords(64))
	job := m.NewJob("heat")
	nodes := len(m.Nodes)
	per := cells / nodes

	eps := make([]*fugu.EP, nodes)
	crls := make([]*crl.Node, nodes)
	for i := 0; i < nodes; i++ {
		eps[i] = fugu.Attach(job.Process(i))
		crls[i] = crl.New(eps[i], nodes)
	}

	// One region per strip; region id = owner node.
	final := make([]float64, cells)
	for node := 0; node < nodes; node++ {
		c := crls[node]
		bar := apps.NewBarrier(eps[node], nodes)
		job.Process(node).StartMain(func(t *fugu.Task) {
			own := c.Create(crl.RegionID(node), per)
			c.StartWrite(t, own)
			for i := 0; i < per; i++ {
				// Hot spike in the middle of the bar.
				v := 0.0
				if node*per+i == cells/2 {
					v = 1000
				}
				own.Write(i, math.Float64bits(v))
			}
			c.EndWrite(t, own)
			t.Spend(10_000) // everyone finishes initialization

			left := c.Map(crl.RegionID((node+nodes-1)%nodes), per)
			right := c.Map(crl.RegionID((node+1)%nodes), per)
			cur := make([]float64, per+2)
			bar.Wait(t)
			for s := 0; s < sweeps; s++ {
				// Gather: own strip plus neighbour boundary cells.
				c.StartRead(t, own)
				for i := 0; i < per; i++ {
					cur[i+1] = math.Float64frombits(own.Read(i))
				}
				c.EndRead(t, own)
				c.StartRead(t, left)
				cur[0] = math.Float64frombits(left.Read(per - 1))
				c.EndRead(t, left)
				c.StartRead(t, right)
				cur[per+1] = math.Float64frombits(right.Read(0))
				c.EndRead(t, right)
				// All reads complete machine-wide before anyone publishes
				// (strict Jacobi), then relax and publish.
				bar.Wait(t)
				c.StartWrite(t, own)
				for i := 0; i < per; i++ {
					v := cur[i+1] + 0.25*(cur[i]-2*cur[i+1]+cur[i+2])
					own.Write(i, math.Float64bits(v))
				}
				c.EndWrite(t, own)
				t.Spend(uint64(per) * 6)
				// Jacobi sweeps: everyone reads old values, then everyone
				// publishes — the barrier separates the generations.
				bar.Wait(t)
			}

			c.StartRead(t, own)
			for i := 0; i < per; i++ {
				final[node*per+i] = math.Float64frombits(own.Read(i))
			}
			c.EndRead(t, own)
		})
	}

	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)

	// The heat spreads symmetrically around the spike; print a coarse view.
	total := 0.0
	for _, v := range final {
		total += v
	}
	fmt.Printf("after %d sweeps on %d nodes: total heat %.1f (conserved from 1000)\n", sweeps, nodes, total)
	fmt.Print("profile around the spike: ")
	for i := cells/2 - 4; i <= cells/2+4; i++ {
		fmt.Printf("%.1f ", final[i])
	}
	fmt.Println()
	d := job.Delivery()
	fmt.Printf("CRL coherence traffic: %d messages (%d fast, %d buffered)\n", d.Total(), d.Fast, d.Buffered)
	sym := math.Abs(final[cells/2-3]-final[cells/2+3]) < 1e-9
	fmt.Println("symmetric diffusion:", sym)
}
