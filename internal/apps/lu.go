package apps

import (
	"math"

	"fugu/internal/cpu"
	"fugu/internal/crl"
	"fugu/internal/glaze"
)

// LU is the SPLASH blocked dense LU decomposition on CRL regions, as in the
// paper (250×250 matrix in 10×10 blocks). Each block is one CRL region
// homed on its computational owner; the right-looking factorization reads
// pivot blocks through CRL (the coherence misses are the communication) and
// synchronizes between phases with dissemination barriers.
type LU struct {
	N, B int // matrix and block dimension (N divisible by B)

	nb    int
	orig  []float64 // original matrix, for verification
	nodes []*crl.Node
	rig   *Rig
}

// NewLU configures an N×N decomposition in B×B blocks without pivoting (the
// generated matrix is made diagonally dominant, as SPLASH LU assumes).
func NewLU(n, b int) *LU {
	if n%b != 0 {
		panic("apps: LU size must be divisible by block size")
	}
	return &LU{N: n, B: b, nb: n / b}
}

// Name implements Instance.
func (l *LU) Name() string { return "lu" }

// Model implements Instance.
func (l *LU) Model() string { return "CRL" }

// block region id for block row I, column J.
func (l *LU) rid(i, j int) crl.RegionID { return crl.RegionID(i*l.nb + j) }

// owner of a block is its region's home node.
func (l *LU) owner(i, j int, nodes int) int { return int(l.rid(i, j)) % nodes }

// generate fills the source matrix deterministically: uniform entries with
// a dominant diagonal so factoring needs no pivoting.
func (l *LU) generate() {
	l.orig = make([]float64, l.N*l.N)
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1000) / 1000.0
	}
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.N; j++ {
			v := next()
			if i == j {
				v += float64(l.N)
			}
			l.orig[i*l.N+j] = v
		}
	}
}

// Per-flop cycle cost for the numeric kernels.
const luFlopCost = 1

// Start implements Instance.
func (l *LU) Start(m *glaze.Machine, job *glaze.Job) {
	l.rig = NewRig(m, job)
	n := l.rig.Nodes()
	l.generate()
	l.nodes = make([]*crl.Node, n)
	for i := 0; i < n; i++ {
		l.nodes[i] = crl.New(l.rig.EPs[i], n)
	}
	for node := 0; node < n; node++ {
		bar := NewBarrier(l.rig.EPs[node], n)
		job.Process(node).StartMain(func(t *cpu.Task) { l.main(t, node, n, bar) })
	}
}

// main is the per-node worker.
func (l *LU) main(t *cpu.Task, self, nodes int, bar *Barrier) {
	c := l.nodes[self]
	B, nb := l.B, l.nb

	// Phase 0: every node creates and initializes its own blocks.
	blocks := make(map[[2]int]*crl.Region)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if l.owner(i, j, nodes) != self {
				continue
			}
			rg := c.Create(l.rid(i, j), B*B)
			c.StartWrite(t, rg)
			for r := 0; r < B; r++ {
				for q := 0; q < B; q++ {
					rg.Write(r*B+q, math.Float64bits(l.orig[(i*B+r)*l.N+j*B+q]))
				}
			}
			c.EndWrite(t, rg)
			blocks[[2]int{i, j}] = rg
		}
	}
	bar.Wait(t)

	// mapAt returns the local mapping of any block.
	mapAt := func(i, j int) *crl.Region { return c.Map(l.rid(i, j), B*B) }
	get := func(rg *crl.Region, r, q int) float64 { return math.Float64frombits(rg.Read(r*B + q)) }
	put := func(rg *crl.Region, r, q int, v float64) { rg.Write(r*B+q, math.Float64bits(v)) }

	for k := 0; k < nb; k++ {
		// Factor the diagonal block (its owner only).
		if l.owner(k, k, nodes) == self {
			rg := blocks[[2]int{k, k}]
			c.StartWrite(t, rg)
			for p := 0; p < B; p++ {
				piv := get(rg, p, p)
				for r := p + 1; r < B; r++ {
					m := get(rg, r, p) / piv
					put(rg, r, p, m)
					for q := p + 1; q < B; q++ {
						put(rg, r, q, get(rg, r, q)-m*get(rg, p, q))
					}
				}
			}
			c.EndWrite(t, rg)
			t.Spend(2 * uint64(B*B*B) / 3 * luFlopCost)
		}
		bar.Wait(t)

		// Panel updates: row k right of the pivot and column k below it.
		diag := mapAt(k, k)
		for j := k + 1; j < nb; j++ {
			if l.owner(k, j, nodes) != self {
				continue
			}
			rg := blocks[[2]int{k, j}]
			c.StartRead(t, diag)
			c.StartWrite(t, rg)
			// Forward-substitute: A[k][j] := L(kk)^-1 * A[k][j].
			for q := 0; q < B; q++ {
				for r := 1; r < B; r++ {
					v := get(rg, r, q)
					for p := 0; p < r; p++ {
						v -= get(diag, r, p) * get(rg, p, q)
					}
					put(rg, r, q, v)
				}
			}
			c.EndWrite(t, rg)
			c.EndRead(t, diag)
			t.Spend(uint64(B*B*B) * luFlopCost)
		}
		for i := k + 1; i < nb; i++ {
			if l.owner(i, k, nodes) != self {
				continue
			}
			rg := blocks[[2]int{i, k}]
			c.StartRead(t, diag)
			c.StartWrite(t, rg)
			// A[i][k] := A[i][k] * U(kk)^-1.
			for r := 0; r < B; r++ {
				for q := 0; q < B; q++ {
					v := get(rg, r, q)
					for p := 0; p < q; p++ {
						v -= get(rg, r, p) * get(diag, p, q)
					}
					put(rg, r, q, v/get(diag, q, q))
				}
			}
			c.EndWrite(t, rg)
			c.EndRead(t, diag)
			t.Spend(uint64(B*B*B) * luFlopCost)
		}
		bar.Wait(t)

		// Trailing submatrix update.
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				if l.owner(i, j, nodes) != self {
					continue
				}
				rg := blocks[[2]int{i, j}]
				left := mapAt(i, k)
				up := mapAt(k, j)
				c.StartRead(t, left)
				c.StartRead(t, up)
				c.StartWrite(t, rg)
				for r := 0; r < B; r++ {
					for q := 0; q < B; q++ {
						v := get(rg, r, q)
						for p := 0; p < B; p++ {
							v -= get(left, r, p) * get(up, p, q)
						}
						put(rg, r, q, v)
					}
				}
				c.EndWrite(t, rg)
				c.EndRead(t, up)
				c.EndRead(t, left)
				t.Spend(2 * uint64(B*B*B) * luFlopCost)
			}
		}
		bar.Wait(t)
	}
}

// Check implements Instance: reconstruct L·U from the factored blocks and
// compare against the original matrix.
func (l *LU) Check() error {
	N, B, nb := l.N, l.B, l.nb
	nodes := len(l.nodes)
	// Assemble the factored matrix from the home copies.
	f := make([]float64, N*N)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			home := l.owner(i, j, nodes)
			data := l.nodes[home].HomeData(l.rid(i, j))
			for r := 0; r < B; r++ {
				for q := 0; q < B; q++ {
					f[(i*B+r)*N+j*B+q] = math.Float64frombits(data[r*B+q])
				}
			}
		}
	}
	// L·U: L unit lower triangular, U upper (both packed in f).
	maxErr := 0.0
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			sum := 0.0
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				lv := f[i*N+k]
				if k == i {
					lv = 1
				}
				if k > i {
					lv = 0
				}
				uv := 0.0
				if k <= j {
					uv = f[k*N+j]
				}
				sum += lv * uv
			}
			if err := math.Abs(sum - l.orig[i*N+j]); err > maxErr {
				maxErr = err
			}
		}
	}
	if maxErr > 1e-6*float64(N) {
		return checkf("lu: residual %g too large", maxErr)
	}
	return nil
}
