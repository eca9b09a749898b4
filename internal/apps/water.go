package apps

import (
	"math"

	"fugu/internal/cpu"
	"fugu/internal/crl"
	"fugu/internal/glaze"
)

// Water is a particle-dynamics benchmark in the mould of SPLASH Water (512
// molecules, 3 iterations in the paper): molecules are partitioned across
// nodes, positions live in one CRL region per partition, and every
// iteration each node reads all partitions to accumulate pairwise forces on
// its own molecules, then writes its partition back. The CRL traffic is the
// paper's "fewer larger data packets" component.
type Water struct {
	N     int // molecules
	Iters int

	nodes []*crl.Node
	vel   [][3]float64 // node-local velocities (never shared)
	pos   [][3]float64 // scratch for verification snapshots
	final [][3]float64
}

// Simulation constants: softened inverse-square attraction, small step.
const (
	waterDT       = 1e-3
	waterSoft     = 0.25
	waterPairCost = 8 // cycles per pair interaction
)

// NewWater configures the benchmark.
func NewWater(n, iters int) *Water {
	return &Water{N: n, Iters: iters}
}

// Name implements Instance.
func (w *Water) Name() string { return "water" }

// Model implements Instance.
func (w *Water) Model() string { return "CRL" }

// initial returns molecule i's starting position: a jittered lattice.
func waterInitial(i int) [3]float64 {
	h := uint64(i)*0x9e3779b97f4a7c15 + 12345
	j := func() float64 {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return float64(h%1000)/5000.0 - 0.1
	}
	side := 8
	return [3]float64{
		float64(i%side) + j(),
		float64((i/side)%side) + j(),
		float64(i/(side*side)) + j(),
	}
}

// force accumulates the softened attraction of body q on body p.
func waterForce(p, q [3]float64) [3]float64 {
	dx, dy, dz := q[0]-p[0], q[1]-p[1], q[2]-p[2]
	r2 := dx*dx + dy*dy + dz*dz + waterSoft
	inv := 1 / (r2 * math.Sqrt(r2))
	return [3]float64{dx * inv, dy * inv, dz * inv}
}

// Start implements Instance.
func (w *Water) Start(m *glaze.Machine, job *glaze.Job) {
	rig := NewRig(m, job)
	nn := rig.Nodes()
	if w.N%nn != 0 {
		panic("apps: water molecule count must divide node count")
	}
	per := w.N / nn
	w.nodes = make([]*crl.Node, nn)
	w.vel = make([][3]float64, w.N)
	w.final = make([][3]float64, w.N)
	for i := 0; i < nn; i++ {
		w.nodes[i] = crl.New(rig.EPs[i], nn)
	}
	for node := 0; node < nn; node++ {
		bar := NewBarrier(rig.EPs[node], nn)
		job.Process(node).StartMain(func(t *cpu.Task) {
			w.main(t, node, nn, per, bar)
		})
	}
}

func (w *Water) main(t *cpu.Task, self, nn, per int, bar *Barrier) {
	c := w.nodes[self]
	// Partition p's positions live in region p (3 words per molecule).
	own := c.Create(crl.RegionID(self), per*3)
	c.StartWrite(t, own)
	for i := 0; i < per; i++ {
		p := waterInitial(self*per + i)
		for d := 0; d < 3; d++ {
			own.Write(i*3+d, math.Float64bits(p[d]))
		}
	}
	c.EndWrite(t, own)
	bar.Wait(t)

	parts := make([]*crl.Region, nn)
	for p := 0; p < nn; p++ {
		parts[p] = c.Map(crl.RegionID(p), per*3)
	}
	forces := make([][3]float64, per)
	mine := make([][3]float64, per)

	for iter := 0; iter < w.Iters; iter++ {
		for i := range forces {
			forces[i] = [3]float64{}
		}
		// Snapshot start-of-iteration positions of own molecules.
		c.StartRead(t, own)
		for i := range mine {
			mine[i] = readVec(own, i)
		}
		c.EndRead(t, own)
		// Force phase: read every partition and accumulate on own bodies,
		// in global molecule order so the arithmetic matches the
		// sequential reference bit-for-bit.
		for p := 0; p < nn; p++ {
			c.StartRead(t, parts[p])
			for i := 0; i < per; i++ {
				gi := self*per + i
				for j := 0; j < per; j++ {
					if p*per+j == gi {
						continue
					}
					f := waterForce(mine[i], readVec(parts[p], j))
					for d := 0; d < 3; d++ {
						forces[i][d] += f[d]
					}
				}
			}
			c.EndRead(t, parts[p])
			t.Spend(uint64(per*per) * waterPairCost)
		}
		bar.Wait(t)
		// Update phase: integrate and publish own positions.
		c.StartWrite(t, own)
		for i := 0; i < per; i++ {
			for d := 0; d < 3; d++ {
				gi := self*per + i
				w.vel[gi][d] += forces[i][d] * waterDT
				v := math.Float64frombits(own.Read(i*3+d)) + w.vel[gi][d]*waterDT
				own.Write(i*3+d, math.Float64bits(v))
			}
		}
		c.EndWrite(t, own)
		bar.Wait(t)
	}

	// Record final positions for verification.
	c.StartRead(t, own)
	for i := 0; i < per; i++ {
		for d := 0; d < 3; d++ {
			w.final[self*per+i][d] = math.Float64frombits(own.Read(i*3 + d))
		}
	}
	c.EndRead(t, own)
}

func readVec(r *crl.Region, i int) [3]float64 {
	return [3]float64{
		math.Float64frombits(r.Read(i * 3)),
		math.Float64frombits(r.Read(i*3 + 1)),
		math.Float64frombits(r.Read(i*3 + 2)),
	}
}

// Check implements Instance: the distributed run must match a sequential
// reference executing the same arithmetic in the same order.
func (w *Water) Check() error {
	ref := w.reference()
	for i := range ref {
		for d := 0; d < 3; d++ {
			if math.Abs(ref[i][d]-w.final[i][d]) > 1e-9 {
				return checkf("water: molecule %d dim %d: %g != %g",
					i, d, w.final[i][d], ref[i][d])
			}
		}
	}
	return nil
}

// reference runs the same computation on one real CPU.
func (w *Water) reference() [][3]float64 {
	pos := make([][3]float64, w.N)
	vel := make([][3]float64, w.N)
	for i := range pos {
		pos[i] = waterInitial(i)
	}
	for iter := 0; iter < w.Iters; iter++ {
		forces := make([][3]float64, w.N)
		for i := 0; i < w.N; i++ {
			for j := 0; j < w.N; j++ {
				if i == j {
					continue
				}
				f := waterForce(pos[i], pos[j])
				for d := 0; d < 3; d++ {
					forces[i][d] += f[d]
				}
			}
		}
		for i := 0; i < w.N; i++ {
			for d := 0; d < 3; d++ {
				vel[i][d] += forces[i][d] * waterDT
				pos[i][d] += vel[i][d] * waterDT
			}
		}
	}
	return pos
}
