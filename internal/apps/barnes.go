package apps

import (
	"math"

	"fugu/internal/cpu"
	"fugu/internal/crl"
	"fugu/internal/glaze"
)

// Barnes is the Barnes-Hut N-body benchmark on CRL (2048 bodies, 3
// iterations in the paper). Bodies are partitioned into per-node regions;
// each iteration one node gathers the bodies, builds the octree and
// publishes it through a set of shared tree regions; every node then reads
// the tree (CRL caches it; the rebuild invalidates the cached copies each
// iteration — the coherence-protocol traffic the paper describes) and
// advances its own bodies.
type Barnes struct {
	N     int // bodies
	Iters int
	Theta float64

	nodes []*crl.Node
	vel   [][3]float64
	final [][3]float64

	// Tree geometry.
	treeRegions int
	treeWords   int
}

// Octree serialization: each cell is a fixed-size record.
//
//	word 0      kind: 0 empty, 1 leaf (body), 2 internal
//	words 1-4   mass, x, y, z (float bits; centre of mass for internals)
//	words 5-12  child record indices (internal cells)
const (
	cellWords  = 13
	kindEmpty  = 0
	kindLeaf   = 1
	kindCell   = 2
	barnesDT   = 1e-3
	barnesSoft = 0.25
	// Cycle costs: per body inserted during build, per cell visited during
	// force evaluation.
	barnesInsertCost = 40
	barnesVisitCost  = 12
)

// treeRegionWords is the serialized tree's region granularity.
const treeRegionWords = 1024

// NewBarnes configures the benchmark.
func NewBarnes(n, iters int) *Barnes {
	b := &Barnes{N: n, Iters: iters, Theta: 0.6}
	// Every leaf split adds eight children, so octrees run to roughly 8-16
	// cells per body depending on clustering; budget generously and fail
	// loudly if exceeded.
	b.treeWords = 2 + 16*n*cellWords
	b.treeRegions = (b.treeWords + treeRegionWords - 1) / treeRegionWords
	return b
}

// Name implements Instance.
func (b *Barnes) Name() string { return "barnes" }

// Model implements Instance.
func (b *Barnes) Model() string { return "CRL" }

// body region ids are 0..nodes-1 (homed on their owner); tree region k has
// id nodes*(k+1) rounded to home node k%nodes... tree regions are built by
// node 0, so they are homed there: ids are multiples of the node count.
func (b *Barnes) treeRID(k int, nodes int) crl.RegionID {
	return crl.RegionID(nodes * (k + 1))
}

func barnesInitial(i int) [3]float64 {
	h := uint64(i)*0x2545f4914f6cdd1d + 99
	r := func() float64 {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return float64(h%10000)/10000.0*16 - 8
	}
	return [3]float64{r(), r(), r()}
}

// Start implements Instance.
func (b *Barnes) Start(m *glaze.Machine, job *glaze.Job) {
	rig := NewRig(m, job)
	nn := rig.Nodes()
	if b.N%nn != 0 {
		panic("apps: barnes body count must divide node count")
	}
	per := b.N / nn
	b.nodes = make([]*crl.Node, nn)
	b.vel = make([][3]float64, b.N)
	b.final = make([][3]float64, b.N)
	for i := 0; i < nn; i++ {
		b.nodes[i] = crl.New(rig.EPs[i], nn)
	}
	for node := 0; node < nn; node++ {
		bar := NewBarrier(rig.EPs[node], nn)
		job.Process(node).StartMain(func(t *cpu.Task) {
			b.main(t, node, nn, per, bar)
		})
	}
}

func (b *Barnes) main(t *cpu.Task, self, nn, per int, bar *Barrier) {
	c := b.nodes[self]
	own := c.Create(crl.RegionID(self), per*3)
	c.StartWrite(t, own)
	for i := 0; i < per; i++ {
		p := barnesInitial(self*per + i)
		for d := 0; d < 3; d++ {
			own.Write(i*3+d, math.Float64bits(p[d]))
		}
	}
	c.EndWrite(t, own)

	// Node 0 creates the shared tree regions.
	var tree []*crl.Region
	if self == 0 {
		for k := 0; k < b.treeRegions; k++ {
			tree = append(tree, c.Create(b.treeRID(k, nn), treeRegionWords))
		}
	}
	bar.Wait(t)
	if self != 0 {
		for k := 0; k < b.treeRegions; k++ {
			tree = append(tree, c.Map(b.treeRID(k, nn), treeRegionWords))
		}
	}
	parts := make([]*crl.Region, nn)
	for p := 0; p < nn; p++ {
		parts[p] = c.Map(crl.RegionID(p), per*3)
	}

	forces := make([][3]float64, per)
	mine := make([][3]float64, per)

	for iter := 0; iter < b.Iters; iter++ {
		// Build phase (node 0): gather bodies, build, serialize.
		if self == 0 {
			pos := make([][3]float64, b.N)
			for p := 0; p < nn; p++ {
				c.StartRead(t, parts[p])
				for j := 0; j < per; j++ {
					pos[p*per+j] = readVec(parts[p], j)
				}
				c.EndRead(t, parts[p])
			}
			cells := buildOctree(pos)
			t.Spend(uint64(b.N) * barnesInsertCost)
			words := serializeTree(cells)
			if len(words) > b.treeWords {
				panic("apps: barnes octree exceeded its region budget")
			}
			for k := range tree {
				c.StartWrite(t, tree[k])
				base := k * treeRegionWords
				for w := 0; w < treeRegionWords && base+w < len(words); w++ {
					tree[k].Write(w, words[base+w])
				}
				c.EndWrite(t, tree[k])
			}
		}
		bar.Wait(t)

		// Force phase: every node traverses the shared tree.
		c.StartRead(t, own)
		for i := range mine {
			mine[i] = readVec(own, i)
		}
		c.EndRead(t, own)
		for k := range tree {
			c.StartRead(t, tree[k])
		}
		reader := &treeReader{tree: tree}
		visits := 0
		for i := 0; i < per; i++ {
			forces[i], visits = reader.force(mine[i], b.Theta, visits)
		}
		for k := range tree {
			c.EndRead(t, tree[k])
		}
		t.Spend(uint64(visits) * barnesVisitCost)
		bar.Wait(t)

		// Update phase.
		c.StartWrite(t, own)
		for i := 0; i < per; i++ {
			gi := self*per + i
			for d := 0; d < 3; d++ {
				b.vel[gi][d] += forces[i][d] * barnesDT
				v := math.Float64frombits(own.Read(i*3+d)) + b.vel[gi][d]*barnesDT
				own.Write(i*3+d, math.Float64bits(v))
			}
		}
		c.EndWrite(t, own)
		bar.Wait(t)
	}

	c.StartRead(t, own)
	for i := 0; i < per; i++ {
		for d := 0; d < 3; d++ {
			b.final[self*per+i][d] = math.Float64frombits(own.Read(i*3 + d))
		}
	}
	c.EndRead(t, own)
}

// ---------------------------------------------------------------------------
// Octree build and traversal (pure computation; cycle costs charged above)

type cell struct {
	kind     int
	mass     float64
	pos      [3]float64 // body position or centre of mass
	children [8]int     // cell indices, internal cells only
	centre   [3]float64
	half     float64
}

// buildOctree inserts every body into an octree rooted on a cube covering
// all positions, then computes centres of mass bottom-up.
func buildOctree(pos [][3]float64) []cell {
	lo, hi := pos[0], pos[0]
	for _, p := range pos {
		for d := 0; d < 3; d++ {
			lo[d] = math.Min(lo[d], p[d])
			hi[d] = math.Max(hi[d], p[d])
		}
	}
	half := 0.0
	var centre [3]float64
	for d := 0; d < 3; d++ {
		centre[d] = (lo[d] + hi[d]) / 2
		half = math.Max(half, (hi[d]-lo[d])/2)
	}
	half += 1e-9
	cells := []cell{{kind: kindEmpty, centre: centre, half: half}}
	var insert func(ci int, p [3]float64)
	insert = func(ci int, p [3]float64) {
		c := &cells[ci]
		switch c.kind {
		case kindEmpty:
			c.kind = kindLeaf
			c.pos = p
			c.mass = 1
		case kindLeaf:
			old := c.pos
			c.kind = kindCell
			for o := 0; o < 8; o++ {
				oc := childCell(c.centre, c.half, o)
				cells = append(cells, oc)
				cells[ci].children[o] = len(cells) - 1
			}
			insert(cells[ci].children[octant(cells[ci].centre, old)], old)
			insert(cells[ci].children[octant(cells[ci].centre, p)], p)
		case kindCell:
			insert(c.children[octant(c.centre, p)], p)
		}
	}
	for _, p := range pos {
		insert(0, p)
	}
	// Centres of mass, bottom-up via recursion.
	var com func(ci int) (float64, [3]float64)
	com = func(ci int) (float64, [3]float64) {
		c := &cells[ci]
		switch c.kind {
		case kindLeaf:
			return c.mass, c.pos
		case kindCell:
			var m float64
			var s [3]float64
			for _, ch := range c.children {
				cm, cp := com(ch)
				m += cm
				for d := 0; d < 3; d++ {
					s[d] += cm * cp[d]
				}
			}
			if m > 0 {
				for d := 0; d < 3; d++ {
					s[d] /= m
				}
			}
			c.mass = m
			c.pos = s
			return m, s
		}
		return 0, c.pos
	}
	com(0)
	return cells
}

func octant(centre, p [3]float64) int {
	o := 0
	for d := 0; d < 3; d++ {
		if p[d] >= centre[d] {
			o |= 1 << d
		}
	}
	return o
}

func childCell(centre [3]float64, half float64, o int) cell {
	h := half / 2
	var c [3]float64
	for d := 0; d < 3; d++ {
		if o&(1<<d) != 0 {
			c[d] = centre[d] + h
		} else {
			c[d] = centre[d] - h
		}
	}
	return cell{kind: kindEmpty, centre: c, half: h}
}

// serializeTree flattens cells into the shared word format: a two-word
// header (cell count, root half-width) followed by fixed 13-word records.
// Cell sizes below the root are not stored; the opening criterion halves
// the width on each descent, which is exact for a regular octree.
func serializeTree(cells []cell) []uint64 {
	words := make([]uint64, 2+len(cells)*cellWords)
	words[0] = uint64(len(cells))
	words[1] = math.Float64bits(cells[0].half)
	for i, c := range cells {
		base := 2 + i*cellWords
		words[base] = uint64(c.kind)
		words[base+1] = math.Float64bits(c.mass)
		words[base+2] = math.Float64bits(c.pos[0])
		words[base+3] = math.Float64bits(c.pos[1])
		words[base+4] = math.Float64bits(c.pos[2])
		if c.kind == kindCell {
			for o := 0; o < 8; o++ {
				words[base+5+o] = uint64(c.children[o])
			}
		}
	}
	return words
}

// treeReader traverses the serialized tree through the CRL regions.
type treeReader struct {
	tree []*crl.Region
}

func (tr *treeReader) word(i int) uint64 {
	return tr.tree[i/treeRegionWords].Read(i % treeRegionWords)
}

// force computes the Barnes-Hut force on position p, counting visited
// records for cycle accounting.
func (tr *treeReader) force(p [3]float64, theta float64, visits int) ([3]float64, int) {
	rootHalf := math.Float64frombits(tr.word(1))
	var f [3]float64
	var walk func(ci int, half float64)
	walk = func(ci int, half float64) {
		visits++
		base := 2 + ci*cellWords
		kind := tr.word(base)
		if kind == kindEmpty {
			return
		}
		mass := math.Float64frombits(tr.word(base + 1))
		q := [3]float64{
			math.Float64frombits(tr.word(base + 2)),
			math.Float64frombits(tr.word(base + 3)),
			math.Float64frombits(tr.word(base + 4)),
		}
		dx, dy, dz := q[0]-p[0], q[1]-p[1], q[2]-p[2]
		r2 := dx*dx + dy*dy + dz*dz
		if kind == kindLeaf || (2*half)*(2*half) < theta*theta*r2 {
			if r2 < 1e-12 {
				return // self
			}
			r2 += barnesSoft
			inv := mass / (r2 * math.Sqrt(r2))
			f[0] += dx * inv
			f[1] += dy * inv
			f[2] += dz * inv
			return
		}
		for o := 0; o < 8; o++ {
			walk(int(tr.word(base+5+o)), half/2)
		}
	}
	walk(0, rootHalf)
	return f, visits
}

// Check implements Instance against a sequential reference with identical
// tree construction and traversal order.
func (b *Barnes) Check() error {
	ref := b.reference()
	for i := range ref {
		for d := 0; d < 3; d++ {
			if math.Abs(ref[i][d]-b.final[i][d]) > 1e-9 {
				return checkf("barnes: body %d dim %d: %g != %g",
					i, d, b.final[i][d], ref[i][d])
			}
		}
	}
	return nil
}

func (b *Barnes) reference() [][3]float64 {
	pos := make([][3]float64, b.N)
	vel := make([][3]float64, b.N)
	for i := range pos {
		pos[i] = barnesInitial(i)
	}
	for iter := 0; iter < b.Iters; iter++ {
		cells := buildOctree(pos)
		words := serializeTree(cells)
		tr := &memTreeReader{words: words}
		// Two phases, exactly like the distributed run: all forces from the
		// iteration-start snapshot, then all updates.
		forces := make([][3]float64, b.N)
		for i := range pos {
			forces[i] = tr.force(pos[i], b.Theta)
		}
		for i := range pos {
			for d := 0; d < 3; d++ {
				vel[i][d] += forces[i][d] * barnesDT
				pos[i][d] += vel[i][d] * barnesDT
			}
		}
	}
	return pos
}

// memTreeReader mirrors treeReader over a plain slice for the reference.
type memTreeReader struct{ words []uint64 }

func (tr *memTreeReader) force(p [3]float64, theta float64) [3]float64 {
	rootHalf := math.Float64frombits(tr.words[1])
	var f [3]float64
	var walk func(ci int, half float64)
	walk = func(ci int, half float64) {
		base := 2 + ci*cellWords
		kind := tr.words[base]
		if kind == kindEmpty {
			return
		}
		mass := math.Float64frombits(tr.words[base+1])
		q := [3]float64{
			math.Float64frombits(tr.words[base+2]),
			math.Float64frombits(tr.words[base+3]),
			math.Float64frombits(tr.words[base+4]),
		}
		dx, dy, dz := q[0]-p[0], q[1]-p[1], q[2]-p[2]
		r2 := dx*dx + dy*dy + dz*dz
		if kind == kindLeaf || (2*half)*(2*half) < theta*theta*r2 {
			if r2 < 1e-12 {
				return
			}
			r2 += barnesSoft
			inv := mass / (r2 * math.Sqrt(r2))
			f[0] += dx * inv
			f[1] += dy * inv
			f[2] += dz * inv
			return
		}
		for o := 0; o < 8; o++ {
			walk(int(tr.words[base+5+o]), half/2)
		}
	}
	walk(0, rootHalf)
	return f
}
