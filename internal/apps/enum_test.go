package apps

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// literalExpand applies the jump rule as written, one move at a time: from
// and over hold pegs, to is empty. It is the reference for Enum.expand.
func literalExpand(s *Enum, state uint64, kids []uint64) []uint64 {
	for _, m := range s.moves {
		from, over, to := uint64(1)<<m[0], uint64(1)<<m[1], uint64(1)<<m[2]
		if state&from != 0 && state&over != 0 && state&to == 0 {
			kids = append(kids, state&^from&^over|to)
		}
	}
	return kids
}

// treeWalk enumerates every path of the game tree with an explicit stack,
// the way the distributed search visits it.
func treeWalk(s *Enum) (solutions, expanded uint64) {
	stack := []uint64{s.initial()}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		expanded++
		n := len(stack)
		stack = literalExpand(s, st, stack)
		if len(stack) == n && bits.OnesCount64(st) == 1 {
			solutions++
		}
	}
	return
}

// checkExpand compares expand with the literal rule on one state, including
// that expand appends after what kids already holds.
func checkExpand(t *testing.T, s *Enum, state uint64) {
	t.Helper()
	want := literalExpand(s, state, nil)
	got := s.expand(state, []uint64{^uint64(0)})
	if got[0] != ^uint64(0) || !slices.Equal(got[1:], want) {
		t.Fatalf("side %d state %#x: expand = %x, want %x after the kept prefix", s.Side, state, got, want)
	}
}

func TestEnumExpandMatchesMoveRule(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for side := 3; side <= maxEnumSide; side++ {
		s := NewEnum(side)
		board := uint64(1)<<s.holes - 1
		checkExpand(t, s, s.initial())
		checkExpand(t, s, board)
		checkExpand(t, s, 0)
		for i := 0; i < 2000; i++ {
			// Vary the peg density so both crowded and sparse boards,
			// with many and few legal jumps, come up.
			st := r.Uint64()
			for k := r.IntN(3); k > 0; k-- {
				st &= r.Uint64()
			}
			checkExpand(t, s, st&board)
		}
	}
	if n := len(NewEnum(7).moves); n <= 64 {
		t.Fatalf("side 7 has %d moves; the test no longer covers more than one 64-move word", n)
	}
}

func TestSolveSequentialMatchesTreeWalk(t *testing.T) {
	for side := 3; side <= 5; side++ {
		s := NewEnum(side)
		sol, exp := s.SolveSequential()
		wantSol, wantExp := treeWalk(s)
		if sol != wantSol || exp != wantExp {
			t.Errorf("side %d: SolveSequential = %d / %d, tree walk %d / %d", side, sol, exp, wantSol, wantExp)
		}
	}
	for _, c := range []struct {
		side     int
		sol, exp uint64
	}{
		{5, 29_760, 1_293_179},
		{6, 43_419_942_138, 818_569_383_179},
	} {
		if sol, exp := NewEnum(c.side).SolveSequential(); sol != c.sol || exp != c.exp {
			t.Errorf("side %d: SolveSequential = %d / %d, want %d / %d", c.side, sol, exp, c.sol, c.exp)
		}
	}

	// Check compares both totals exactly.
	s := NewEnum(4)
	sol, exp := s.SolveSequential()
	for _, c := range []struct {
		sol, exp uint64
		ok       bool
	}{{sol, exp, true}, {sol + 1, exp, false}, {sol, exp - 1, false}} {
		s.solutions, s.expanded = []uint64{c.sol}, []uint64{c.exp}
		if err := s.Check(); (err == nil) != c.ok {
			t.Errorf("Check with %d / %d (reference %d / %d): err = %v", c.sol, c.exp, sol, exp, err)
		}
	}
}

func TestNewEnumRejectsOversizeBoard(t *testing.T) {
	for _, side := range []int{-1, 0, maxEnumSide + 1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEnum(%d) did not panic", side)
				}
			}()
			NewEnum(side)
		}()
	}
	if s := NewEnum(maxEnumSide); s.holes != 55 {
		t.Errorf("side %d has %d holes, want 55", maxEnumSide, s.holes)
	}
}

func FuzzEnumExpand(f *testing.F) {
	// Corner boards live in testdata/fuzz: the side-10 starting board, the
	// side-7 multi-word case and an empty board.
	f.Add(uint8(5), uint64(0x7ffe))
	f.Fuzz(func(t *testing.T, side uint8, state uint64) {
		s := NewEnum(3 + int(side)%(maxEnumSide-2))
		checkExpand(t, s, state&(uint64(1)<<s.holes-1))
	})
}

var enumKidsSink int

func BenchmarkEnumExpand(b *testing.B) {
	s := NewEnum(5)
	// The first boards the search expands: a realistic mix of crowded
	// and thinning boards.
	states := literalExpand(s, s.initial(), nil)
	for i := 0; len(states) < 4096; i++ {
		states = literalExpand(s, states[i], states)
	}
	kids := make([]uint64, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kids = s.expand(states[i%len(states)], kids[:0])
		enumKidsSink += len(kids)
	}
}

func BenchmarkEnumCheck(b *testing.B) {
	s := NewEnum(5)
	sol, exp := s.SolveSequential()
	s.solutions, s.expanded = []uint64{sol}, []uint64{exp}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
