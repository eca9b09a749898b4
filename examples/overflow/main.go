// Overflow demonstrates virtual buffering's guaranteed delivery and the
// overflow-control mechanism: an unruly sender floods a slow consumer whose
// node has a deliberately tiny frame pool. The kernel buffers into virtual
// memory, pages out to backing store over the OS network when frames run
// out, trips overflow control (globally suspending the job and advising the
// scheduler to co-schedule it), and still delivers every message in order.
package main

import (
	"fmt"

	"fugu"
)

const (
	hFlood = 1
	n      = 1200
	frames = 8 // a 32 KB node: pressure arrives quickly
)

func main() {
	m := fugu.NewMachine(fugu.DefaultConfig(), fugu.WithMesh(2, 1), fugu.WithFrames(frames))
	job := m.NewJob("flood")
	null := m.NewJob("null")
	fugu.Attach(null.Process(0))
	fugu.Attach(null.Process(1))
	ep0 := fugu.Attach(job.Process(0))
	ep1 := fugu.Attach(job.Process(1))

	delivered := 0
	inOrder := true
	ep1.On(hFlood, func(e *fugu.Env, msg *fugu.Msg) {
		if int(msg.Args[0]) != delivered {
			inOrder = false
		}
		delivered++
		e.Spend(600) // slow consumer: production outruns consumption
	})

	throttleSeen := false
	args := make([]uint64, 14)
	job.Process(0).StartMain(func(t *fugu.Task) {
		e := ep0.Env(t)
		for i := 0; i < n; i++ {
			args[0] = uint64(i)
			e.Inject(1, hFlood, args...)
			if job.Process(0).Throttled() {
				throttleSeen = true
			}
		}
	})
	job.Process(1).StartMain(func(t *fugu.Task) {
		for delivered < n {
			t.Spend(20_000)
		}
	})

	m.NewGang(50_000, 0.5, job, null).Start()
	m.RunUntilDone(0, job)

	fmt.Printf("delivered %d/%d messages, in order: %v\n", delivered, n, inOrder)
	fmt.Printf("sender observed overflow throttling: %v\n", throttleSeen)
	fmt.Printf("overflow-control trips at consumer: %d\n", m.Nodes[1].Metrics.Counter("glaze.overflow.trips").Value())
	fmt.Printf("frame pool high water: %d of %d frames (bounded by virtual buffering)\n",
		m.Nodes[1].Frames.HighWater(), frames)
	fmt.Printf("max buffer pages at consumer: %d\n", job.Process(1).BufferPagesHighWater())
}
