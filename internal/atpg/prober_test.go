package atpg

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// guardedCounter builds q' = sel ? q+1 : q over a w-bit register,
// init 0, where sel = ((a & b) | (~a & c)) ^ (b & c) over free 1-bit
// inputs: the implied next-state cube of every state over-approximates
// {v, v+1}, and confirming either successor takes decisions and
// backtracks on the select logic while the other candidates are
// refuted.
func guardedCounter(w int) (*netlist.Netlist, netlist.GateID) {
	nl := netlist.New("guarded")
	a := nl.AddInput("a", 1)
	b := nl.AddInput("b", 1)
	c := nl.AddInput("c", 1)
	q := nl.DffPlaceholder(w, bv.FromUint64(w, 0), "q")
	mux := nl.Binary(netlist.KOr, nl.Binary(netlist.KAnd, a, b),
		nl.Binary(netlist.KAnd, nl.Unary(netlist.KNot, a), c))
	sel := nl.Binary(netlist.KXor, mux, nl.Binary(netlist.KAnd, b, c))
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(w, 1))
	nl.ConnectDff(q, nl.Mux(sel, q, inc))
	return nl, nl.Signals[q].Driver
}

func TestProberSuccessors(t *testing.T) {
	nl, ff := guardedCounter(3)
	p, err := NewProber(nl)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 8; v++ {
		got := p.Successors(ff, v, 256)
		want := []uint64{v, (v + 1) & 7}
		slices.Sort(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("succ(%d) = %v, want %v", v, got, want)
		}
	}
	// 1 -> implied cube 0xx: one query plus four candidate searches.
	before := p.Probes()
	p.Successors(ff, 1, 256)
	if n := p.Probes() - before; n != 5 {
		t.Errorf("succ(1) ran %d probes, want 5", n)
	}
	if got := p.Successors(ff, 1, 2); got != nil {
		t.Errorf("succ(1) with 2 candidates allowed = %v, want nil (no information)", got)
	}
}

// TestProberRestoresBaseline checks that every probe leaves the engine
// exactly at its baseline: values, trail chains, identities and the
// justification frontier.
func TestProberRestoresBaseline(t *testing.T) {
	nl, ff := guardedCounter(4)
	p, err := NewProber(nl)
	if err != nil {
		t.Fatal(err)
	}
	e := p.e
	vals := slices.Clone(e.vals[0])
	touch := slices.Clone(e.lastTouch)
	parent := slices.Clone(e.ufParent)
	unjust := slices.Clone(e.unjustBuf)
	for v := uint64(0); v < 16; v++ {
		p.Successors(ff, v, 256)
		if len(e.trail) != p.baseTrail || len(e.ufTrail) != p.baseUf || len(e.levelMarks) != 0 ||
			len(e.reqs) != 0 || len(e.dirtyList) != 0 || e.qhead != len(e.queue) {
			t.Fatalf("after succ(%d): engine not at baseline marks", v)
		}
		if !reflect.DeepEqual(e.vals[0], vals) || !slices.Equal(e.lastTouch, touch) ||
			!slices.Equal(e.ufParent, parent) || !slices.Equal(e.unjustBuf, unjust) {
			t.Fatalf("after succ(%d): engine state differs from the baseline", v)
		}
		if e.stats != (Stats{}) {
			t.Fatalf("after succ(%d): stats not reset: %+v", v, e.stats)
		}
		if e.actInc != 1 || slices.ContainsFunc(e.actScore, func(a float64) bool { return a != 0 }) {
			t.Fatalf("after succ(%d): conflict activity not reset", v)
		}
	}
}

// TestProberSteadyStateZeroAlloc pins the in-place reset: once the
// engine's scratch has reached its steady-state size, a whole
// successor query — the implied-next-state probe and every candidate
// search, decisions included — allocates only the returned slice.
func TestProberSteadyStateZeroAlloc(t *testing.T) {
	nl, ff := guardedCounter(3)
	p, err := NewProber(nl)
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		if len(p.Successors(ff, 1, 256)) != 2 {
			t.Fatal("succ(1) lost a successor")
		}
	}
	query()
	if raceEnabled {
		t.Log("race detector enabled: exercising the query without pinning the alloc count")
		query()
		return
	}
	if got := testing.AllocsPerRun(100, query); got != 1 {
		t.Errorf("steady-state successor query: %.2f allocs/op, want 1 (the returned slice)", got)
	}
}
