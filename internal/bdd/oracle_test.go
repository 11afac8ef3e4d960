package bdd

import (
	"math/rand"
	"sort"
	"testing"
)

// mapManager is the reference manager the flat tables replaced: Go
// maps for the unique table and the apply cache, a fresh map memo per
// AndExists / Exists / Rename call (and per Exists reached inside
// AndExists), closures for quantifier sets and renamings. It is kept
// verbatim as an oracle: both managers must create the same nodes in
// the same order, so every Ref and every NumNodes agrees.
type mapManager struct {
	nodes     []node
	unique    map[node]Ref
	apply     map[applyKey]Ref
	nVars     int
	MaxNodes  int
	Interrupt func() bool
	allocs    int
}

type applyKey struct {
	op   uint8
	f, g Ref
}

func newMapManager(n int) *mapManager {
	m := &mapManager{
		nodes:  make([]node, 2, 1024),
		unique: map[node]Ref{},
		apply:  map[applyKey]Ref{},
		nVars:  n,
	}
	m.nodes[0] = node{level: termLevel}
	m.nodes[1] = node{level: termLevel}
	return m
}

func newMapFromSnapshot(n int, nodes []Node) *mapManager {
	m := newMapManager(n)
	m.unique = make(map[node]Ref, len(nodes))
	for _, sn := range nodes {
		key := node{level: sn.Level, lo: sn.Lo, hi: sn.Hi}
		r := Ref(len(m.nodes))
		m.nodes = append(m.nodes, key)
		m.unique[key] = r
	}
	return m
}

func (m *mapManager) NumNodes() int { return len(m.nodes) }

func (m *mapManager) level(r Ref) int32 { return m.nodes[r].level }

func (m *mapManager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	if m.MaxNodes > 0 && len(m.nodes) >= m.MaxNodes {
		panic(ErrNodeLimit)
	}
	m.allocs++
	if m.allocs%interruptInterval == 0 && m.Interrupt != nil && m.Interrupt() {
		panic(ErrInterrupted)
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	return r
}

func (m *mapManager) Var(v int) Ref       { return m.mk(int32(v), False, True) }
func (m *mapManager) Not(f Ref) Ref       { return m.Xor(f, True) }
func (m *mapManager) And(f, g Ref) Ref    { return m.applyOp(opAnd, f, g) }
func (m *mapManager) Or(f, g Ref) Ref     { return m.applyOp(opOr, f, g) }
func (m *mapManager) Xor(f, g Ref) Ref    { return m.applyOp(opXor, f, g) }
func (m *mapManager) Ite(f, g, h Ref) Ref { return m.Or(m.And(f, g), m.And(m.Not(f), h)) }

func (m *mapManager) applyOp(op uint8, f, g Ref) Ref {
	if r, ok := terminalApply(op, f, g); ok {
		return r
	}
	if f > g {
		f, g = g, f
	}
	key := applyKey{op, f, g}
	if r, ok := m.apply[key]; ok {
		return r
	}
	lf, lg := m.level(f), m.level(g)
	top := lf
	if lg < top {
		top = lg
	}
	var f0, f1, g0, g1 Ref
	if lf == top {
		f0, f1 = m.nodes[f].lo, m.nodes[f].hi
	} else {
		f0, f1 = f, f
	}
	if lg == top {
		g0, g1 = m.nodes[g].lo, m.nodes[g].hi
	} else {
		g0, g1 = g, g
	}
	r := m.mk(top, m.applyOp(op, f0, g0), m.applyOp(op, f1, g1))
	m.apply[key] = r
	return r
}

func (m *mapManager) AndExists(f, g Ref, quant func(v int) bool) Ref {
	memo := map[applyKey]Ref{}
	var rec func(f, g Ref) Ref
	rec = func(f, g Ref) Ref {
		if f == False || g == False {
			return False
		}
		if f == True && g == True {
			return True
		}
		if f == True {
			return m.Exists(g, quant)
		}
		if g == True {
			return m.Exists(f, quant)
		}
		if f > g {
			f, g = g, f
		}
		key := applyKey{opAnd, f, g}
		if r, ok := memo[key]; ok {
			return r
		}
		lf, lg := m.level(f), m.level(g)
		top := lf
		if lg < top {
			top = lg
		}
		var f0, f1, g0, g1 Ref
		if lf == top {
			f0, f1 = m.nodes[f].lo, m.nodes[f].hi
		} else {
			f0, f1 = f, f
		}
		if lg == top {
			g0, g1 = m.nodes[g].lo, m.nodes[g].hi
		} else {
			g0, g1 = g, g
		}
		var r Ref
		if quant(int(top)) {
			r = rec(f0, g0)
			if r != True {
				r = m.Or(r, rec(f1, g1))
			}
		} else {
			r = m.mk(top, rec(f0, g0), rec(f1, g1))
		}
		memo[key] = r
		return r
	}
	return rec(f, g)
}

func (m *mapManager) Exists(f Ref, quant func(v int) bool) Ref {
	memo := map[Ref]Ref{}
	var rec func(Ref) Ref
	rec = func(f Ref) Ref {
		if f == True || f == False {
			return f
		}
		if r, ok := memo[f]; ok {
			return r
		}
		n := m.nodes[f]
		lo, hi := rec(n.lo), rec(n.hi)
		var r Ref
		if quant(int(n.level)) {
			r = m.Or(lo, hi)
		} else {
			r = m.mk(n.level, lo, hi)
		}
		memo[f] = r
		return r
	}
	return rec(f)
}

func (m *mapManager) Rename(f Ref, rename func(v int) int) Ref {
	memo := map[Ref]Ref{}
	var rec func(Ref) Ref
	rec = func(f Ref) Ref {
		if f == True || f == False {
			return f
		}
		if r, ok := memo[f]; ok {
			return r
		}
		n := m.nodes[f]
		r := m.mk(int32(rename(int(n.level))), rec(n.lo), rec(n.hi))
		memo[f] = r
		return r
	}
	return rec(f)
}

func (m *mapManager) Support(f Ref, mark []bool) {
	seen := map[Ref]bool{}
	var rec func(Ref)
	rec = func(f Ref) {
		if f == True || f == False || seen[f] {
			return
		}
		seen[f] = true
		n := m.nodes[f]
		mark[n.level] = true
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
}

func (m *mapManager) SatCount(f Ref) float64 {
	lvl := func(r Ref) int {
		if l := m.level(r); l != termLevel {
			return int(l)
		}
		return m.nVars
	}
	memo := map[Ref]float64{}
	var rec func(Ref) float64
	rec = func(f Ref) float64 {
		if f == False {
			return 0
		}
		if f == True {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		n := m.nodes[f]
		c := rec(n.lo)*pow2(lvl(n.lo)-int(n.level)-1) +
			rec(n.hi)*pow2(lvl(n.hi)-int(n.level)-1)
		memo[f] = c
		return c
	}
	return rec(f) * pow2(lvl(f))
}

// opKind enumerates the operations of a random script.
type opKind int

const (
	kAnd opKind = iota
	kOr
	kXor
	kNot
	kIte
	kExists
	kAndExists
	kRename
	numKinds
)

// scriptOp is one step of a random operation script. Operands are
// indices into the replay's growing result pool (taken modulo its
// length); mask is the quantifier set; seed draws the rename targets.
type scriptOp struct {
	kind    opKind
	a, b, c int
	mask    []bool
	seed    int64
}

func randomScript(r *rand.Rand, nVars, steps int) []scriptOp {
	script := make([]scriptOp, steps)
	for i := range script {
		o := scriptOp{kind: opKind(r.Intn(int(numKinds))), a: r.Int(), b: r.Int(), c: r.Int(), seed: r.Int63()}
		// Favour the binary ops so functions keep growing.
		if r.Intn(2) == 0 {
			o.kind = opKind(r.Intn(int(kXor) + 1))
		}
		o.mask = make([]bool, nVars)
		for v := range o.mask {
			o.mask[v] = r.Intn(3) == 0
		}
		script[i] = o
	}
	return script
}

// replay is one manager's view of a script run: the result of every
// step, the node count after it, and the resource panic (if any) that
// ended the run.
type replay struct {
	refs  []Ref
	nodes []int
	sats  []float64
	err   any
}

// renameTargets maps f's support, in order, onto a random strictly
// increasing set of levels — a renaming monotone on f's variables.
func renameTargets(support []bool, seed int64) []int {
	var vars []int
	for v, in := range support {
		if in {
			vars = append(vars, v)
		}
	}
	targets := rand.New(rand.NewSource(seed)).Perm(len(support))[:len(vars)]
	sort.Ints(targets)
	to := make([]int, len(support))
	for v := range to {
		to[v] = -1
	}
	for i, v := range vars {
		to[v] = targets[i]
	}
	return to
}

func (rp *replay) record(r Ref, nodes int, sat float64) {
	rp.refs = append(rp.refs, r)
	rp.nodes = append(rp.nodes, nodes)
	rp.sats = append(rp.sats, sat)
}

func catchResource(err *any) {
	if r := recover(); r != nil {
		if r != ErrNodeLimit && r != ErrInterrupted {
			panic(r)
		}
		*err = r
	}
}

func replayFlat(m *Manager, pool []Ref, script []scriptOp) (rp replay) {
	defer catchResource(&rp.err)
	pool = append([]Ref(nil), pool...)
	for _, o := range script {
		x, y, z := pool[o.a%len(pool)], pool[o.b%len(pool)], pool[o.c%len(pool)]
		var r Ref
		switch o.kind {
		case kAnd:
			r = m.And(x, y)
		case kOr:
			r = m.Or(x, y)
		case kXor:
			r = m.Xor(x, y)
		case kNot:
			r = m.Not(x)
		case kIte:
			r = m.Ite(x, y, z)
		case kExists:
			r = m.Exists(x, o.mask)
		case kAndExists:
			r = m.AndExists(x, y, o.mask)
		case kRename:
			sup := make([]bool, m.NumVars())
			m.Support(x, sup)
			r = m.Rename(x, renameTargets(sup, o.seed))
		}
		pool = append(pool, r)
		rp.record(r, m.NumNodes(), m.SatCount(r))
	}
	return rp
}

func replayMap(m *mapManager, pool []Ref, script []scriptOp) (rp replay) {
	defer catchResource(&rp.err)
	pool = append([]Ref(nil), pool...)
	for _, o := range script {
		x, y, z := pool[o.a%len(pool)], pool[o.b%len(pool)], pool[o.c%len(pool)]
		quant := func(v int) bool { return o.mask[v] }
		var r Ref
		switch o.kind {
		case kAnd:
			r = m.And(x, y)
		case kOr:
			r = m.Or(x, y)
		case kXor:
			r = m.Xor(x, y)
		case kNot:
			r = m.Not(x)
		case kIte:
			r = m.Ite(x, y, z)
		case kExists:
			r = m.Exists(x, quant)
		case kAndExists:
			r = m.AndExists(x, y, quant)
		case kRename:
			sup := make([]bool, m.nVars)
			m.Support(x, sup)
			to := renameTargets(sup, o.seed)
			r = m.Rename(x, func(v int) int { return to[v] })
		}
		pool = append(pool, r)
		rp.record(r, m.NumNodes(), m.SatCount(r))
	}
	return rp
}

// varPool returns False, True and the n variables, built in the same
// order in both managers.
func varPool(n int, mk func(int) Ref) []Ref {
	pool := []Ref{False, True}
	for v := 0; v < n; v++ {
		pool = append(pool, mk(v))
	}
	return pool
}

// sameReplay fails t unless both runs produced identical results step
// by step and ended the same way.
func sameReplay(t *testing.T, label string, got, want replay) {
	t.Helper()
	if len(got.refs) != len(want.refs) {
		t.Fatalf("%s: flat manager ran %d steps, map oracle %d", label, len(got.refs), len(want.refs))
	}
	for i := range got.refs {
		if got.refs[i] != want.refs[i] || got.nodes[i] != want.nodes[i] || got.sats[i] != want.sats[i] {
			t.Fatalf("%s step %d: flat {ref=%d nodes=%d sat=%v}, oracle {ref=%d nodes=%d sat=%v}",
				label, i, got.refs[i], got.nodes[i], got.sats[i], want.refs[i], want.nodes[i], want.sats[i])
		}
	}
	if got.err != want.err {
		t.Fatalf("%s: flat manager ended with %v, map oracle with %v", label, got.err, want.err)
	}
}

const oracleVars = 14

// TestOracleRandomScripts replays random operation scripts on the flat
// manager and the map oracle: every Ref, node count and satcount must
// agree, and the scripts must grow every table through several
// rehashes.
func TestOracleRandomScripts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		script := randomScript(r, oracleVars, 1000)
		m := New(oracleVars)
		o := newMapManager(oracleVars)
		got := replayFlat(m, varPool(oracleVars, m.Var), script)
		want := replayMap(o, varPool(oracleVars, o.Var), script)
		sameReplay(t, "random", got, want)
		if trial == 0 {
			if len(m.unique) < 8*minTable || len(m.apply) < 8*minTable || len(m.memo) < 4*minTable {
				t.Fatalf("script too small to rehash: unique=%d apply=%d memo=%d buckets",
					len(m.unique), len(m.apply), len(m.memo))
			}
		}
	}
}

// TestOracleGenerationWrap fills the per-call memo under the first
// generations, then sets the counter to its limit so the next call
// wraps it and the replay reuses those generation numbers on the same
// operands with complemented quantifier sets: an entry stamped before
// the wrap must never answer a lookup after it.
func TestOracleGenerationWrap(t *testing.T) {
	script := randomScript(rand.New(rand.NewSource(11)), oracleVars, 60)
	again := make([]scriptOp, len(script))
	for i, op := range script {
		op.mask = make([]bool, oracleVars)
		for v := range op.mask {
			op.mask[v] = !script[i].mask[v]
		}
		again[i] = op
	}
	m := New(oracleVars)
	o := newMapManager(oracleVars)
	pool := varPool(oracleVars, m.Var)
	opool := varPool(oracleVars, o.Var)
	sameReplay(t, "before wrap", replayFlat(m, pool, script), replayMap(o, opool, script))
	used := m.memoGen
	m.memoGen = ^uint32(0)
	sameReplay(t, "after wrap", replayFlat(m, pool, again), replayMap(o, opool, again))
	if m.memoGen < used {
		t.Fatalf("memo generation %d after the wrap reused only part of the %d earlier ones", m.memoGen, used)
	}
}

// TestOracleSnapshotRoundTrip builds a table, moves it through
// Snapshot / NewFromSnapshot into both managers and continues the
// script there: the loaded managers must keep agreeing.
func TestOracleSnapshotRoundTrip(t *testing.T) {
	script := randomScript(rand.New(rand.NewSource(23)), oracleVars, 400)
	src := New(oracleVars)
	pool := varPool(oracleVars, src.Var)
	built := replayFlat(src, pool, script[:200])
	pool = append(pool, built.refs...)
	snap := src.Snapshot()
	m := NewFromSnapshot(oracleVars, snap)
	o := newMapFromSnapshot(oracleVars, snap)
	if m.NumNodes() != src.NumNodes() || o.NumNodes() != src.NumNodes() {
		t.Fatalf("loaded %d / %d nodes, snapshot of %d", m.NumNodes(), o.NumNodes(), src.NumNodes())
	}
	loaded := replayFlat(m, pool, script[200:])
	sameReplay(t, "snapshot", loaded, replayMap(o, pool, script[200:]))
	// The source manager continues exactly as its reload did.
	sameReplay(t, "snapshot-source", replayFlat(src, pool, script[200:]), loaded)
}

// TestOracleResourceLimits runs scripts under a node budget and under
// an Interrupt hook that fires on its second poll: both managers must
// stop at the same step with the same node count.
func TestOracleResourceLimits(t *testing.T) {
	script := randomScript(rand.New(rand.NewSource(31)), oracleVars, 1000)
	probe := New(oracleVars)
	full := replayFlat(probe, varPool(oracleVars, probe.Var), script)
	total := full.nodes[len(full.nodes)-1]
	if total <= 2+2*interruptInterval {
		t.Fatalf("script allocates %d nodes, too few to poll Interrupt twice", total)
	}

	m := New(oracleVars)
	m.MaxNodes = total / 2
	o := newMapManager(oracleVars)
	o.MaxNodes = total / 2
	got := replayFlat(m, varPool(oracleVars, m.Var), script)
	want := replayMap(o, varPool(oracleVars, o.Var), script)
	sameReplay(t, "max-nodes", got, want)
	if got.err != ErrNodeLimit || m.NumNodes() != o.NumNodes() || m.NumNodes() != total/2 {
		t.Fatalf("node limit: flat %v at %d nodes, oracle at %d, budget %d", got.err, m.NumNodes(), o.NumNodes(), total/2)
	}

	secondPoll := func() func() bool {
		polls := 0
		return func() bool { polls++; return polls == 2 }
	}
	m = New(oracleVars)
	m.Interrupt = secondPoll()
	o = newMapManager(oracleVars)
	o.Interrupt = secondPoll()
	got = replayFlat(m, varPool(oracleVars, m.Var), script)
	want = replayMap(o, varPool(oracleVars, o.Var), script)
	sameReplay(t, "interrupt", got, want)
	// The second poll runs at allocation 2·interruptInterval, before
	// that node is appended.
	if got.err != ErrInterrupted || m.NumNodes() != o.NumNodes() || m.NumNodes() != 1+2*interruptInterval {
		t.Fatalf("interrupt: flat %v at %d nodes, oracle at %d", got.err, m.NumNodes(), o.NumNodes())
	}
}
