// Package bdd implements reduced ordered binary decision diagrams
// (Bryant, paper ref. [12]) — the substrate of the BDD-based symbolic
// model checking baseline (internal/mc) whose memory behaviour §1 and
// §5 contrast with the ATPG approach.
//
// The manager is built the way a production BDD package is (Brace,
// Rudell, Bryant, "Efficient Implementation of a BDD Package", DAC
// 1990): every table is a flat, manager-owned array rather than a Go
// map. The unique table is an open-addressed []Ref with linear probing;
// the apply memo is an exact open-addressed table keyed by (op, f, g);
// AndExists, Exists and Rename share one reusable per-call memo that a
// generation stamp clears in O(1) at the start of each public call.
// Memoisation only decides how often a sub-result is recomputed, and a
// recomputation finds the nodes the first computation created, so node
// creation order — Refs, NumNodes, the MaxNodes panic point and the
// Interrupt poll cadence — is independent of the tables' layout.
package bdd

import "fmt"

// Ref is a node reference. Refs 0 and 1 are the constant terminals.
type Ref int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

const termLevel = int32(1 << 30)

type node struct {
	level  int32
	lo, hi Ref
}

// Op codes for Apply.
const (
	opAnd uint8 = iota
	opOr
	opXor
)

// applyEntry is one apply-memo slot. f == 0 marks an empty slot: no
// memoized operand pair contains False (terminalApply resolves every
// such pair), and the smaller operand comes first.
type applyEntry struct {
	f, g, r Ref
	op      uint8
}

// memoEntry is one per-call memo slot, live only while gen equals the
// manager's current memo generation. AndExists keys are (f, g) with
// both operands non-terminal; Exists and Rename keys are (f, False).
type memoEntry struct {
	gen     uint32
	f, g, r Ref
}

// minTable is the initial bucket count of every hash table; tables
// double when more than 3/4 full.
const minTable = 256

// Manager owns the node pool. The zero value is not usable; call New.
type Manager struct {
	nodes []node
	// unique is the unique table: a power-of-two bucket array of node
	// Refs probed linearly from hash3(level, lo, hi); 0 marks an empty
	// bucket (the terminals are never stored).
	unique []Ref
	// apply memoizes And/Or/Xor exactly: an entry is never evicted. A
	// lossy direct-mapped cache makes the quantification recursion
	// recompute evicted subproblems; at 2^14 slots industry_01's BDD
	// job took 47 s instead of under 1 s.
	apply  []applyEntry
	applyN int
	// memo is the per-call memo of AndExists, Exists and Rename;
	// memoGen is the generation of the running call, memoN its live
	// entry count.
	memo    []memoEntry
	memoN   int
	memoGen uint32
	// quant and renameTo are the operands of the running quantifier or
	// rename call, read by the recursions.
	quant    []bool
	renameTo []int
	nVars    int
	MaxNodes int // 0 = unlimited; exceeded operations panic with ErrNodeLimit
	// Interrupt, when non-nil, is polled every interruptInterval node
	// allocations; returning true panics with ErrInterrupted. Because
	// the poll sits inside mk, cancellation lands even in the middle of
	// a single huge apply — the operation a per-iteration check could
	// never escape. The model checker recovers the panic into an
	// Unknown verdict.
	Interrupt func() bool
	allocs    int
	// Generation-stamped visited marks, DFS stack and count scratch of
	// the read-only traversals (Size, Support, SatCount), reused across
	// calls: Size runs after every relational-product step.
	seen    []uint32
	seenGen uint32
	stack   []Ref
	counts  []float64
}

// ErrNodeLimit is panicked (and recovered by the model checker) when
// MaxNodes is exceeded — the BDD blow-up signal.
var ErrNodeLimit = fmt.Errorf("bdd: node limit exceeded")

// ErrInterrupted is panicked (and recovered by the model checker) when
// Interrupt reports cancellation mid-operation.
var ErrInterrupted = fmt.Errorf("bdd: interrupted")

// interruptInterval is how many node allocations pass between Interrupt
// polls: rare enough to stay off the profile, frequent enough that a
// blow-up-bound operation (thousands of allocations per millisecond)
// observes cancellation within microseconds.
const interruptInterval = 4096

// New returns a manager with n variables (levels 0..n-1).
func New(n int) *Manager {
	m := &Manager{
		nodes:  make([]node, 2, 1024),
		unique: make([]Ref, minTable),
		apply:  make([]applyEntry, minTable),
		memo:   make([]memoEntry, minTable),
		nVars:  n,
	}
	m.nodes[0] = node{level: termLevel}
	m.nodes[1] = node{level: termLevel}
	return m
}

// NumNodes returns the number of allocated nodes (memory proxy).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Node is one exported unique-table entry, used by Snapshot /
// NewFromSnapshot to move a built BDD between managers.
type Node struct {
	Level  int32
	Lo, Hi Ref
}

// Snapshot copies the non-terminal node table. Because mk only ever
// appends nodes whose children already exist, every node's Lo/Hi refer
// to earlier entries (or the terminals), so the slice is a valid
// creation-order replay log. Refs held against this manager index the
// same nodes in any manager built by NewFromSnapshot of this snapshot.
func (m *Manager) Snapshot() []Node {
	out := make([]Node, len(m.nodes)-2)
	for i, n := range m.nodes[2:] {
		out[i] = Node{Level: n.level, Lo: n.lo, Hi: n.hi}
	}
	return out
}

// NewFromSnapshot returns a fresh manager with n variables whose node
// table is pre-populated from a Snapshot. The nodes were canonical in
// the source manager, so they are inserted verbatim (no re-reduction)
// and receive the same Refs they had at Snapshot time; the unique table
// is presized for them and the memos start empty. This is how a
// compiled transition relation is shared across concurrent sessions:
// one immutable snapshot, one cheap private manager per session.
func NewFromSnapshot(n int, nodes []Node) *Manager {
	m := New(n)
	m.nodes = make([]node, 2, 2+len(nodes))
	m.nodes[0] = node{level: termLevel}
	m.nodes[1] = node{level: termLevel}
	for _, sn := range nodes {
		m.nodes = append(m.nodes, node{level: sn.Level, lo: sn.Lo, hi: sn.Hi})
	}
	m.rehashUnique(tableSize(len(nodes)))
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.nVars }

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// tableSize returns the bucket count for n entries: the smallest power
// of two, at least minTable, that keeps the load at or under 3/4.
func tableSize(n int) int {
	size := minTable
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// hash3 mixes three 32-bit keys into a 64-bit hash (multiply by odd
// constants, then xor-shift-multiply finalization so every input bit
// reaches the low bits the bucket mask keeps).
func hash3(a, b, c uint32) uint64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xc2b2ae3d27d4eb4f ^ uint64(c)*0x165667b19e3779f9
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// rehashUnique rebuilds the unique table with size buckets from the
// node pool.
func (m *Manager) rehashUnique(size int) {
	m.unique = make([]Ref, size)
	mask := uint64(size - 1)
	for r := 2; r < len(m.nodes); r++ {
		n := m.nodes[r]
		i := hash3(uint32(n.level), uint32(n.lo), uint32(n.hi)) & mask
		for m.unique[i] != 0 {
			i = (i + 1) & mask
		}
		m.unique[i] = Ref(r)
	}
}

// mk returns the canonical node (level, lo, hi). A node is created only
// when the unique-table lookup misses.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint64(len(m.unique) - 1)
	i := hash3(uint32(level), uint32(lo), uint32(hi)) & mask
	for r := m.unique[i]; r != 0; r = m.unique[i] {
		if n := m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
		i = (i + 1) & mask
	}
	if m.MaxNodes > 0 && len(m.nodes) >= m.MaxNodes {
		panic(ErrNodeLimit)
	}
	m.allocs++
	if m.allocs%interruptInterval == 0 && m.Interrupt != nil && m.Interrupt() {
		panic(ErrInterrupted)
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[i] = r
	if 4*(len(m.nodes)-2) > 3*len(m.unique) {
		m.rehashUnique(2 * len(m.unique))
	}
	return r
}

// Var returns the BDD of variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.nVars {
		panic("bdd: variable out of range")
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD of ¬v.
func (m *Manager) NVar(v int) Ref {
	return m.mk(int32(v), True, False)
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Xor(f, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.applyOp(opAnd, f, g) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.applyOp(opOr, f, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.applyOp(opXor, f, g) }

// Xnor returns f ↔ g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.Not(m.Xor(f, g)) }

// Ite returns if-then-else(f, g, h).
func (m *Manager) Ite(f, g, h Ref) Ref {
	return m.Or(m.And(f, g), m.And(m.Not(f), h))
}

func terminalApply(op uint8, f, g Ref) (Ref, bool) {
	switch op {
	case opAnd:
		if f == False || g == False {
			return False, true
		}
		if f == True {
			return g, true
		}
		if g == True {
			return f, true
		}
		if f == g {
			return f, true
		}
	case opOr:
		if f == True || g == True {
			return True, true
		}
		if f == False {
			return g, true
		}
		if g == False {
			return f, true
		}
		if f == g {
			return f, true
		}
	case opXor:
		if f == g {
			return False, true
		}
		if f == False {
			return g, true
		}
		if g == False {
			return f, true
		}
	}
	return 0, false
}

// applySlot returns the apply-memo slot of (op, f, g): the entry
// holding that key, or the empty slot where it belongs.
func (m *Manager) applySlot(op uint8, f, g Ref) *applyEntry {
	mask := uint64(len(m.apply) - 1)
	i := hash3(uint32(op), uint32(f), uint32(g)) & mask
	for {
		e := &m.apply[i]
		if e.f == 0 || (e.f == f && e.g == g && e.op == op) {
			return e
		}
		i = (i + 1) & mask
	}
}

// putApply records op(f, g) = r, doubling the table past 3/4 load.
func (m *Manager) putApply(op uint8, f, g, r Ref) {
	*m.applySlot(op, f, g) = applyEntry{f: f, g: g, r: r, op: op}
	m.applyN++
	if 4*m.applyN <= 3*len(m.apply) {
		return
	}
	old := m.apply
	m.apply = make([]applyEntry, 2*len(old))
	for _, e := range old {
		if e.f != 0 {
			*m.applySlot(e.op, e.f, e.g) = e
		}
	}
}

func (m *Manager) applyOp(op uint8, f, g Ref) Ref {
	if r, ok := terminalApply(op, f, g); ok {
		return r
	}
	// Normalize operand order for the commutative memo.
	if f > g {
		f, g = g, f
	}
	if e := m.applySlot(op, f, g); e.f != 0 {
		return e.r
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
	// The recursion may have grown the table: probe again.
	m.putApply(op, f, g, r)
	return r
}

// beginCall starts a new per-call memo generation, which invalidates
// every entry of the previous call in O(1). On wrap-around the stamps
// are cleared so no stale entry can match a reused generation.
func (m *Manager) beginCall() {
	if m.memoGen == ^uint32(0) {
		clear(m.memo)
		m.memoGen = 0
	}
	m.memoGen++
	m.memoN = 0
}

// memoSlot returns the per-call memo slot of (f, g): the live entry
// holding that key, or the slot (empty or stale) where it belongs.
func (m *Manager) memoSlot(f, g Ref) *memoEntry {
	mask := uint64(len(m.memo) - 1)
	i := hash3(uint32(f), uint32(g), 0) & mask
	for {
		e := &m.memo[i]
		if e.gen != m.memoGen || (e.f == f && e.g == g) {
			return e
		}
		i = (i + 1) & mask
	}
}

// memoGet looks (f, g) up in the running call's memo.
func (m *Manager) memoGet(f, g Ref) (Ref, bool) {
	e := m.memoSlot(f, g)
	return e.r, e.gen == m.memoGen
}

// memoPut records (f, g) -> r for the running call, doubling the table
// past 3/4 load (only live entries move).
func (m *Manager) memoPut(f, g, r Ref) {
	*m.memoSlot(f, g) = memoEntry{gen: m.memoGen, f: f, g: g, r: r}
	m.memoN++
	if 4*m.memoN <= 3*len(m.memo) {
		return
	}
	old := m.memo
	m.memo = make([]memoEntry, 2*len(old))
	for _, e := range old {
		if e.gen == m.memoGen {
			*m.memoSlot(e.f, e.g) = e
		}
	}
}

// AndExists returns ∃Q. f ∧ g where Q is the set of variables v with
// quant[v] true (quant has at least NumVars entries) — the relational
// product of symbolic image computation (Burch/Clarke/Long). Computing
// the conjunction and the quantification in one recursion never
// materializes the full product f ∧ g: whenever the top variable is
// quantified, a True low branch short-circuits the high branch
// entirely. The memo is per-call because it is only valid for one
// quantifier set; the Exists reached through a True operand quantifies
// the same set, so it shares the call's memo generation.
func (m *Manager) AndExists(f, g Ref, quant []bool) Ref {
	m.beginCall()
	m.quant = quant
	return m.andExists(f, g)
}

func (m *Manager) andExists(f, g Ref) Ref {
	if f == False || g == False {
		return False
	}
	if f == True && g == True {
		return True
	}
	if f == True {
		return m.exists(g)
	}
	if g == True {
		return m.exists(f)
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.memoGet(f, g); ok {
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
	if m.quant[top] {
		r = m.andExists(f0, g0)
		if r != True {
			r = m.Or(r, m.andExists(f1, g1))
		}
	} else {
		r = m.mk(top, m.andExists(f0, g0), m.andExists(f1, g1))
	}
	m.memoPut(f, g, r)
	return r
}

// visit starts a traversal generation over the node table: a node r
// has been visited in it iff seen[r] == gen. The marks grow
// geometrically with the node table, so a run allocates them O(log n)
// times however often it calls Size.
func (m *Manager) visit() (gen uint32) {
	if len(m.seen) < len(m.nodes) {
		m.seen = make([]uint32, max(len(m.nodes), 2*len(m.seen)))
		m.seenGen = 0
	}
	if m.seenGen == ^uint32(0) {
		clear(m.seen)
		m.seenGen = 0
	}
	m.seenGen++
	return m.seenGen
}

// Support marks the variables f depends on in mark (which must have
// at least NumVars entries). Entries for variables not in f's support
// are left untouched, so one slice can accumulate the union support
// of several functions.
func (m *Manager) Support(f Ref, mark []bool) {
	if f == True || f == False {
		return
	}
	gen := m.visit()
	m.stack = append(m.stack[:0], f)
	m.seen[f] = gen
	for len(m.stack) > 0 {
		n := m.nodes[m.stack[len(m.stack)-1]]
		m.stack = m.stack[:len(m.stack)-1]
		mark[n.level] = true
		m.push(n.lo, gen)
		m.push(n.hi, gen)
	}
}

// push stacks r for a traversal unless it is a terminal or already
// visited in generation gen.
func (m *Manager) push(r Ref, gen uint32) {
	if r > True && m.seen[r] != gen {
		m.seen[r] = gen
		m.stack = append(m.stack, r)
	}
}

// Size returns the number of non-terminal nodes in f — the memory
// cost of that one function, as opposed to NumNodes, the manager-wide
// allocation count. Size runs after every relational-product step on
// BDDs that can reach millions of nodes, so it uses the stamped marks
// rather than a visited map.
func (m *Manager) Size(f Ref) int {
	if f == True || f == False {
		return 0
	}
	gen := m.visit()
	m.stack = append(m.stack[:0], f)
	m.seen[f] = gen
	count := 0
	for len(m.stack) > 0 {
		n := m.nodes[m.stack[len(m.stack)-1]]
		m.stack = m.stack[:len(m.stack)-1]
		count++
		m.push(n.lo, gen)
		m.push(n.hi, gen)
	}
	return count
}

// Exists existentially quantifies every variable v with quant[v] true
// (quant has at least NumVars entries).
func (m *Manager) Exists(f Ref, quant []bool) Ref {
	m.beginCall()
	m.quant = quant
	return m.exists(f)
}

func (m *Manager) exists(f Ref) Ref {
	if f == True || f == False {
		return f
	}
	if r, ok := m.memoGet(f, False); ok {
		return r
	}
	n := m.nodes[f]
	lo, hi := m.exists(n.lo), m.exists(n.hi)
	var r Ref
	if m.quant[n.level] {
		r = m.Or(lo, hi)
	} else {
		r = m.mk(n.level, lo, hi)
	}
	m.memoPut(f, False, r)
	return r
}

// Rename maps each variable v to to[v]; the mapping must be strictly
// monotone on the variables present in f (order-preserving), or the
// result would not be reduced-ordered.
func (m *Manager) Rename(f Ref, to []int) Ref {
	m.beginCall()
	m.renameTo = to
	return m.rename(f)
}

func (m *Manager) rename(f Ref) Ref {
	if f == True || f == False {
		return f
	}
	if r, ok := m.memoGet(f, False); ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(int32(m.renameTo[n.level]), m.rename(n.lo), m.rename(n.hi))
	m.memoPut(f, False, r)
	return r
}

// SatCount returns the number of satisfying assignments over the full
// variable set (as float64 — counts overflow uint64 quickly).
func (m *Manager) SatCount(f Ref) float64 {
	gen := m.visit()
	if len(m.counts) < len(m.nodes) { // SatCount creates no nodes
		m.counts = make([]float64, len(m.nodes))
	}
	return m.satCount(f, gen) * pow2(m.satLevel(f))
}

// satLevel is the level of r, with the terminals below every variable.
func (m *Manager) satLevel(r Ref) int {
	if l := m.level(r); l != termLevel {
		return int(l)
	}
	return m.nVars
}

// satCount counts the assignments of the variables at levels >=
// satLevel(f), memoized in counts under the visit generation gen.
func (m *Manager) satCount(f Ref, gen uint32) float64 {
	if f == False {
		return 0
	}
	if f == True {
		return 1
	}
	if m.seen[f] == gen {
		return m.counts[f]
	}
	n := m.nodes[f]
	c := m.satCount(n.lo, gen)*pow2(m.satLevel(n.lo)-int(n.level)-1) +
		m.satCount(n.hi, gen)*pow2(m.satLevel(n.hi)-int(n.level)-1)
	m.seen[f] = gen
	m.counts[f] = c
	return c
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// AnySat returns one satisfying assignment as a map var -> value, or
// false if f is unsatisfiable. Unmentioned variables are unconstrained.
func (m *Manager) AnySat(f Ref) (map[int]bool, bool) {
	if f == False {
		return nil, false
	}
	out := map[int]bool{}
	for f != True {
		n := m.nodes[f]
		if n.hi != False {
			out[int(n.level)] = true
			f = n.hi
		} else {
			out[int(n.level)] = false
			f = n.lo
		}
	}
	return out, true
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Ref, assign func(v int) bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign(int(n.level)) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}
