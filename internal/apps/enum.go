package apps

import (
	"fmt"
	"math/bits"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// Enum is the triangle-puzzle enumeration benchmark: a fine-grain,
// data-parallel search that ships work items as numerous unacknowledged
// short messages and synchronizes only infrequently (a termination-
// detection token ring). The puzzle is triangular peg solitaire: a board
// with Side pegs per side, one hole empty, jumps removing pegs; the program
// counts every game ending with a single peg.
type Enum struct {
	Side      int // pegs per side (the paper runs 6)
	ShipEvery int // ship the children of every k-th expansion

	moves     [][3]int   // jump rules as (from, over, to) hole indices
	masks     []moveMask // the same rules as bit masks, in the same order
	holes     int
	solutions []uint64
	expanded  []uint64
	done      bool
}

// moveMask is one jump rule over the board bitmap: need = from|over must
// hold pegs, and flip = from|over|to is what the jump toggles.
type moveMask struct{ need, flip uint64 }

// maxEnumSide keeps the board inside one uint64 with its top bit clear
// (side 10 has 55 holes), which expand's legality test relies on.
const maxEnumSide = 10

// NewEnum configures the puzzle. ShipEvery 4 ships a quarter of all
// expansions to other nodes, keeping communication fine-grained without
// drowning the network. It panics on a side outside 1..10.
func NewEnum(side int) *Enum {
	if side < 1 || side > maxEnumSide {
		panic(fmt.Sprintf("apps: enum side %d outside 1..%d (the board is one 64-bit word)", side, maxEnumSide))
	}
	e := &Enum{Side: side, ShipEvery: 4}
	e.prepare()
	return e
}

// Name implements Instance.
func (s *Enum) Name() string { return "enum" }

// Model implements Instance.
func (s *Enum) Model() string { return "UDM" }

// prepare builds the board geometry: hole indices and jump moves.
func (s *Enum) prepare() {
	idx := make(map[[2]int]int)
	n := 0
	for r := 0; r < s.Side; r++ {
		for i := 0; i <= r; i++ {
			idx[[2]int{r, i}] = n
			n++
		}
	}
	s.holes = n
	dirs := [][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}, {1, 1}, {-1, -1}}
	for r := 0; r < s.Side; r++ {
		for i := 0; i <= r; i++ {
			for _, d := range dirs {
				over := [2]int{r + d[0], i + d[1]}
				to := [2]int{r + 2*d[0], i + 2*d[1]}
				o, ok1 := idx[over]
				t, ok2 := idx[to]
				if ok1 && ok2 {
					f := idx[[2]int{r, i}]
					s.moves = append(s.moves, [3]int{f, o, t})
					need := uint64(1)<<f | uint64(1)<<o
					s.masks = append(s.masks, moveMask{need, need | uint64(1)<<t})
				}
			}
		}
	}
}

// initial returns the starting board: full except the apex hole.
func (s *Enum) initial() uint64 {
	return (uint64(1)<<s.holes - 1) &^ 1
}

// expand appends the child of every legal jump from state to kids, in move
// order, and returns the extended slice; no children means a leaf. Legality
// is computed branch-free for up to 64 moves at a time: miss = (state^need)
// & flip is zero exactly when from and over hold pegs and to is empty, and
// as miss < 2^63, (miss-1)>>63 is then 1 and otherwise 0.
func (s *Enum) expand(state uint64, kids []uint64) []uint64 {
	for base := 0; base < len(s.masks); base += 64 {
		word := s.masks[base:min(base+64, len(s.masks))]
		var legal uint64
		for k := len(word) - 1; k >= 0; k-- {
			miss := (state ^ word[k].need) & word[k].flip
			legal = legal<<1 | (miss-1)>>63
		}
		for ; legal != 0; legal &= legal - 1 {
			kids = append(kids, state^word[bits.TrailingZeros64(legal)].flip)
		}
	}
	return kids
}

// enumCount is the size of one subtree of the game.
type enumCount struct{ solutions, expanded uint64 }

// SolveSequential counts the whole tree on one (real) CPU, for verification.
// Returns the single-peg solution count and states expanded. A board's
// subtree is the same wherever the board occurs in the tree, so it counts
// each distinct board once, memoised, rather than walking every path.
func (s *Enum) SolveSequential() (solutions, expanded uint64) {
	memo := make(map[uint64]enumCount)
	var kids []uint64 // children of every board on the current path
	var count func(st uint64) enumCount
	count = func(st uint64) enumCount {
		if c, ok := memo[st]; ok {
			return c
		}
		base := len(kids)
		kids = s.expand(st, kids)
		c := enumCount{expanded: 1}
		if len(kids) == base && bits.OnesCount64(st) == 1 {
			c.solutions = 1
		}
		for i := base; i < len(kids); i++ {
			sub := count(kids[i])
			c.solutions += sub.solutions
			c.expanded += sub.expanded
		}
		kids = kids[:base]
		memo[st] = c
		return c
	}
	c := count(s.initial())
	return c.solutions, c.expanded
}

// mix is a splitmix64-style finalizer used for shipping decisions.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// enumNode is the per-node runtime state of the distributed search.
type enumNode struct {
	app   *Enum
	ep    *udm.EP
	self  int
	nodes int

	t     *cpu.Task // the main thread, which runs the expansions
	stack []uint64
	cur   uint64       // the state whose expansion is being spent
	kids  []uint64     // scratch for the children of a shipped expansion
	work  *udm.Counter // wakes the main loop on arrivals
	black bool         // termination-detection colour
	sent  int64        // work messages sent minus received
	token *tokenState
	done  bool
	ships int
}

type tokenState struct {
	holding bool
	value   int64
	black   bool
}

// expansion cost in cycles: move generation over the 36-odd jump rules.
const enumExpandCost = 120

// Start implements Instance.
func (s *Enum) Start(m *glaze.Machine, job *glaze.Job) {
	r := NewRig(m, job)
	n := r.Nodes()
	s.solutions = make([]uint64, n)
	s.expanded = make([]uint64, n)
	nodes := make([]*enumNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = &enumNode{app: s, ep: r.EPs[i], self: i, nodes: n, work: udm.NewCounter()}
		if i == 0 {
			// The origin holds a fresh token: no conclusion may be drawn
			// until a full probe has circulated.
			nodes[i].token = &tokenState{holding: true, value: tokenFresh}
		} else {
			nodes[i].token = &tokenState{}
		}
	}
	for i := 0; i < n; i++ {
		en := nodes[i]
		en.register()
		job.Process(i).StartMain(func(t *cpu.Task) { en.run(t) })
	}
	nodes[0].stack = append(nodes[0].stack, s.initial())
}

func (en *enumNode) register() {
	en.ep.On(hEnumWork, func(e *udm.Env, m *udm.Msg) {
		en.stack = append(en.stack, m.Args[0])
		en.sent--
		en.black = true
		en.work.Add(1)
	})
	en.ep.On(hEnumToken, func(e *udm.Env, m *udm.Msg) {
		en.token.holding = true
		en.token.value = int64(m.Args[0])
		en.token.black = m.Args[1] != 0
		en.work.Add(1)
	})
	en.ep.On(hEnumDone, func(e *udm.Env, m *udm.Msg) {
		en.done = true
		en.work.Add(1)
	})
}

// run is the main search loop with Dijkstra-style token-ring termination.
func (en *enumNode) run(t *cpu.Task) {
	e := en.ep.Env(t)
	en.t = t
	for !en.done {
		if len(en.stack) > 0 {
			// Expand the local stack until it empties: one expansion
			// spend per state, each followed by a Step.
			en.cur = en.pop()
			t.SpendSteps(enumExpandCost, en)
		}
		// Idle: participate in termination detection. The origin throttles
		// probe relaunches so an idle ring does not spin the network — the
		// application synchronizes infrequently, as in the paper.
		if en.token.holding {
			if en.self == 0 && en.token.value != tokenFresh {
				t.Spend(probeCooldown)
				if len(en.stack) > 0 || en.done {
					continue
				}
			}
			en.passToken(e)
		}
		if en.done {
			break
		}
		target := en.work.Value() + 1
		en.work.WaitFor(t, target)
	}
}

func (en *enumNode) pop() uint64 {
	st := en.stack[len(en.stack)-1]
	en.stack = en.stack[:len(en.stack)-1]
	return st
}

// shipped reports whether the expansion of st sends its children to other
// nodes. Shipping decisions hash the state, not the local expansion count,
// so the distribution of work across nodes is a pure function of the tree —
// runs differ in timing, never in placement, which keeps the runtime
// comparison across skews meaningful.
func (en *enumNode) shipped(st uint64) bool {
	s := en.app
	return s.ShipEvery > 0 && en.nodes > 1 && mix(st)%uint64(s.ShipEvery) == 0
}

// Inline implements cpu.Stepper: a local expansion may run at the wake of
// its spend; a shipping one injects, so it runs in the task.
func (en *enumNode) Inline() bool { return !en.shipped(en.cur) }

// Step implements cpu.Stepper: it expands the state whose cost was just
// spent, then pops the next state and returns its expansion cost, until
// the stack is empty.
func (en *enumNode) Step() (uint64, *cpu.WaitQ, bool) {
	s, st := en.app, en.cur
	s.expanded[en.self]++
	var leaf bool
	if en.shipped(st) {
		e := en.ep.Env(en.t)
		en.kids = s.expand(st, en.kids[:0])
		leaf = len(en.kids) == 0
		for _, c := range en.kids {
			dst := int(mix(c^0xabcd) % uint64(en.nodes-1))
			if dst >= en.self {
				dst++
			}
			en.sent++
			en.ships++
			e.Inject(dst, hEnumWork, c)
		}
	} else {
		n := len(en.stack)
		en.stack = s.expand(st, en.stack)
		leaf = len(en.stack) == n
	}
	if leaf && bits.OnesCount64(st) == 1 {
		s.solutions[en.self]++
	}
	if len(en.stack) == 0 {
		return 0, nil, false
	}
	en.cur = en.pop()
	return enumExpandCost, nil, true
}

// probeCooldown is the origin's idle wait between termination probes.
const probeCooldown = 5000

// passToken forwards the termination token, or declares completion at the
// ring's origin after a clean pass.
func (en *enumNode) passToken(e *udm.Env) {
	tk := en.token
	tk.holding = false
	if en.self == 0 {
		// Origin: a white token returning with zero global balance to a
		// white origin means no work is anywhere and none is in flight.
		if !tk.black && !en.black && tk.value != tokenFresh && tk.value+en.sent == 0 {
			for i := 1; i < en.nodes; i++ {
				e.Inject(i, hEnumDone)
			}
			en.done = true
			return
		}
		// Launch a fresh white token with a zero count; the origin's own
		// balance is added only when the token returns.
		en.black = false
		e.Inject(1%en.nodes, hEnumToken, 0, 0)
		tk.value = 0
		return
	}
	v := tk.value + en.sent
	black := tk.black || en.black
	en.black = false
	b := uint64(0)
	if black {
		b = 1
	}
	e.Inject((en.self+1)%en.nodes, hEnumToken, uint64(v), b)
}

// tokenFresh marks the origin's very first token launch (nothing observed).
const tokenFresh = int64(-1 << 62)

// Check implements Instance: the distributed totals must match a sequential
// enumeration exactly.
func (s *Enum) Check() error {
	wantSol, wantExp := s.SolveSequential()
	var sol, exp uint64
	for i := range s.solutions {
		sol += s.solutions[i]
		exp += s.expanded[i]
	}
	if sol != wantSol || exp != wantExp {
		return checkf("enum: got %d solutions / %d expansions, want %d / %d",
			sol, exp, wantSol, wantExp)
	}
	return nil
}

// String describes the configuration.
func (s *Enum) String() string {
	return fmt.Sprintf("enum(side=%d, holes=%d, moves=%d)", s.Side, s.holes, len(s.moves))
}
