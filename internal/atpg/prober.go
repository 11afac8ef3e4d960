package atpg

import (
	"slices"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// probeLimits bounds each candidate-successor search. A probe that hits
// it keeps its candidate (sound over-approximation).
var probeLimits = Limits{MaxDecisions: 2000, MaxBacktracks: 4000}

// Prober answers the successor queries of local-FSM extraction (§6) on
// one reusable engine. The engine covers a single time frame with every
// register free; it is propagated once to its all-x baseline, its
// justification frontier is primed there, and every probe runs on top
// of that baseline and is undone in place afterwards: the trail,
// union-find and frontier roll back to the baseline marks and the
// per-search state (requirements, levels, statistics, activity) is
// reset, so a steady-state probe allocates nothing and each probe
// searches exactly as it would on a fresh engine's baseline.
//
// A Prober is not safe for concurrent use.
type Prober struct {
	e *Engine
	// baseTrail and baseUf are the trail and union-find trail lengths at
	// the baseline; baseUnjust is the baseline's unjustified set.
	baseTrail, baseUf int
	baseUnjust        []gateAt
	// inconsistent records that the baseline itself failed to propagate:
	// no state of any register is then consistent.
	inconsistent bool
	probes       int
	// succ collects one query's confirmed successors.
	succ []uint64
}

// NewProber builds the reusable probe engine over nl (which must be
// combinationally acyclic) and propagates it to its baseline.
func NewProber(nl *netlist.Netlist) (*Prober, error) {
	e, err := NewWithFeatures(nl, 1, ModeWitness, probeLimits, nil, true, Features{})
	if err != nil {
		return nil, err
	}
	p := &Prober{e: e}
	if !e.propagate() {
		p.inconsistent = true
		return p, nil
	}
	// Prime the frontier: the scan consumes the baseline's dirty set, so
	// the unjustified list below is the complete baseline frontier.
	p.baseUnjust = append([]gateAt(nil), e.unjustifiedGates()...)
	p.baseTrail = len(e.trail)
	p.baseUf = len(e.ufTrail)
	p.restore()
	return p, nil
}

// Probes returns the number of probes run so far: one implied-next-state
// query per Successors call plus one bounded search per candidate.
func (p *Prober) Probes() int { return p.probes }

// Successors computes the candidate successor values of register ff in
// state v: all u for which the joint requirement {Q = v, D = u} is
// satisfiable with every other register and input unknown. The
// candidates are the completions of the D cube implied by Q = v (so
// wide registers with tightly-implied next states — one-hot rotators,
// counters — work even though 2^width is astronomical); each is
// confirmed by a bounded search, and a search that hits its budget
// keeps the candidate. Returns nil (no information) when the register
// exceeds 64 bits or the implied D cube has more than maxCands
// completions, and an empty set when v itself is inconsistent. The
// result is ascending.
func (p *Prober) Successors(ff netlist.GateID, v uint64, maxCands int) []uint64 {
	e := p.e
	g := &e.nl.Gates[ff]
	q, d := g.Out, g.In[0]
	w := e.nl.Width(q)
	if w > 64 {
		return nil
	}
	if maxCands <= 0 {
		maxCands = 256
	}
	if p.inconsistent {
		return []uint64{}
	}
	qv := bv.FromUint64(w, v)
	p.probes++
	ok := e.assign(0, q, qv) && e.propagate()
	next := e.vals[0][d]
	p.restore()
	if !ok {
		return []uint64{} // state v itself is inconsistent
	}
	if next.CountSolutions() > uint64(maxCands) {
		return nil // next state too input-dependent: no information
	}
	// Enumerate the completions in ascending order: s walks the subsets
	// of the unknown-bit mask xm in increasing value.
	lo := next.MinUint64()
	xm := next.MaxUint64() ^ lo
	p.succ = p.succ[:0]
	for s := uint64(0); ; s = (s - xm) & xm {
		u := lo | s
		p.probes++
		// ModeWitness polarity reaches a satisfying assignment fastest.
		if e.Require(0, q, qv) && e.Require(0, d, bv.FromUint64(w, u)) && e.Solve() != StatusUnsat {
			p.succ = append(p.succ, u)
		}
		p.restore()
		if s == xm {
			break
		}
	}
	if len(p.succ) == 0 {
		return nil
	}
	return slices.Clone(p.succ)
}

// restore rolls the engine back to its baseline in place: every
// refinement and identity merge made since is undone, the frontier is
// reset to the baseline's unjustified set with an empty dirty set, and
// all per-search state starts over.
func (p *Prober) restore() {
	e := p.e
	nSigs := e.nl.NumSignals()
	for i := len(e.trail) - 1; i >= p.baseTrail; i-- {
		t := &e.trail[i]
		e.vals[t.frame][t.sig] = t.prev
		e.lastTouch[int(t.frame)*nSigs+int(t.sig)] = t.prevTouch
	}
	e.trail = e.trail[:p.baseTrail]
	for i := len(e.ufTrail) - 1; i >= p.baseUf; i-- {
		r := e.ufTrail[i]
		e.ufParent[r] = r
	}
	e.ufTrail = e.ufTrail[:p.baseUf]
	e.levelMarks = e.levelMarks[:0]
	e.ufMarks = e.ufMarks[:0]
	e.reqs = e.reqs[:0]
	e.clearQueue()
	// Values and identities equal the baseline's again, so exactly the
	// baseline's unjustified instances are unjustified and nothing is
	// dirty.
	e.unjustBuf = append(e.unjustBuf[:0], p.baseUnjust...)
	e.clearDirty()
	e.stats = Stats{}
	e.incomplete = false
	e.curReason = gateAt{frame: -1, gate: reasonFree}
	e.curFlags = 0
	e.confKind = confNone
	for i := range e.actScore {
		e.actScore[i] = 0
	}
	e.actInc = 1
	e.conflictsRecorded = 0
}
