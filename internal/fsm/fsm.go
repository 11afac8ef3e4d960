// Package fsm implements the paper's §6 proposal: "there are usually
// many local finite state machines in the design and the transition
// relationship for each individual machine is usually very easy to
// extract ... storing the local state transition graph and using them
// to guide the ATPG justification process can avoid entering illegal
// states".
//
// A local FSM is a narrow register with a known reset value. For each
// concrete state v the candidate successors are the completions of the
// D cube word-level implication derives from Q = v (atpg.Prober), and
// u is kept unless a bounded search refutes the joint assignment
// {Q = v, D = u} with everything else unknown. This is a sound
// over-approximation of the true transition relation, yet far tighter
// than a single three-valued cube of the D input. Iterating from the reset
// value yields, per time frame, the register's reachable value set (its
// state transition graph unrolled); the fixpoint set is an invariant.
// The ATPG engine consults these sets to reject assignments that would
// enter unreachable ("illegal") states, and the k-induction step uses
// the fixpoint as a strengthening invariant.
package fsm

import (
	"slices"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/netlist"
)

// Machine is one extracted local FSM.
type Machine struct {
	FF    netlist.GateID
	Q     netlist.SignalID
	Width int
	// Succ maps each reached state to its possible successor values
	// (sound over-approximation, ascending). Only reached states are
	// probed, so wide registers with small reachable sets stay cheap.
	Succ map[uint64][]uint64
	// ReachAt[f] is the ascending set of values reachable within f
	// steps of the initial value; ReachAt[len-1] is the fixpoint.
	ReachAt [][]uint64
}

// at returns the reachable set of a frame; frames past the fixpoint
// share it.
func (m *Machine) at(frame int) []uint64 {
	if frame >= len(m.ReachAt) {
		frame = len(m.ReachAt) - 1
	}
	return m.ReachAt[frame]
}

// Fixpoint returns a copy of the full reachable set (ascending).
func (m *Machine) Fixpoint() []uint64 {
	return slices.Clone(m.ReachAt[len(m.ReachAt)-1])
}

// AllowedAt reports whether value v is in the reachable set within
// frame steps of reset.
func (m *Machine) AllowedAt(frame int, v uint64) bool {
	_, ok := slices.BinarySearch(m.at(frame), v)
	return ok
}

// AllowedEver reports whether v is reachable at any depth.
func (m *Machine) AllowedEver(v uint64) bool {
	return m.AllowedAt(len(m.ReachAt)-1, v)
}

// Restricts reports whether the machine actually excludes any value —
// machines that reach the full value range carry no information.
func (m *Machine) Restricts() bool {
	if m.Width >= 63 {
		return true // full range cannot have been enumerated
	}
	return len(m.ReachAt[len(m.ReachAt)-1]) < 1<<uint(m.Width)
}

// FeasibleIn reports whether any value reachable within frame steps
// lies inside the cube — the engine-side domain check, pruning partial
// assignments that can no longer complete to a reachable state.
func (m *Machine) FeasibleIn(frame int, cube bv.BV) bool {
	for _, v := range m.at(frame) {
		if cube.Contains(v) {
			return true
		}
	}
	return false
}

// EnumerateIn calls fn for each value reachable within frame steps
// that lies inside the cube, in ascending order, until fn returns
// false.
func (m *Machine) EnumerateIn(frame int, cube bv.BV, fn func(v uint64) bool) {
	for _, v := range m.at(frame) {
		if cube.Contains(v) && !fn(v) {
			return
		}
	}
}

// FeasibleEver is FeasibleIn against the fixpoint set.
func (m *Machine) FeasibleEver(cube bv.BV) bool {
	return m.FeasibleIn(len(m.ReachAt)-1, cube)
}

// Options bounds extraction.
type Options struct {
	// MaxWidth bounds the register width considered (default 64; the
	// limiting factor is MaxStates, not the width — wide one-hot
	// rotators and counters have tiny reachable sets).
	MaxWidth int
	// MaxStates caps the reachable-set size; a machine exceeding it is
	// dropped (default 1024).
	MaxStates int
	// MaxCands caps per-state successor candidates (default 256).
	MaxCands int
}

func (o Options) withDefaults() Options {
	if o.MaxWidth == 0 {
		o.MaxWidth = 64
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1024
	}
	if o.MaxCands == 0 {
		o.MaxCands = 256
	}
	return o
}

// successorFunc answers one state's successor query (see
// atpg.Prober.Successors).
type successorFunc func(ff netlist.GateID, v uint64, maxCands int) []uint64

// Extract analyses every narrow register with a fully-known initial
// value and returns the machines whose reachable sets actually restrict
// the value space. All probes of one call run on a single
// atpg.Prober, built on the first register that qualifies and dropped
// on return.
func Extract(nl *netlist.Netlist, opts Options) ([]*Machine, error) {
	return extract(nl, opts, func() (successorFunc, error) {
		p, err := atpg.NewProber(nl)
		if err != nil {
			return nil, err
		}
		return p.Successors, nil
	})
}

// extract is Extract over the successor function newSucc builds, which
// it calls at most once, on the first register that qualifies.
func extract(nl *netlist.Netlist, opts Options, newSucc func() (successorFunc, error)) ([]*Machine, error) {
	opts = opts.withDefaults()
	if _, err := nl.TopoOrder(); err != nil {
		return nil, err
	}
	var out []*Machine
	var succ successorFunc
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		w := nl.Width(g.Out)
		if w > opts.MaxWidth || w > 64 || !g.Init.IsFullyKnown() {
			continue
		}
		if succ == nil {
			var err error
			if succ, err = newSucc(); err != nil {
				return nil, err
			}
		}
		if m := extractOne(nl, ff, opts, succ); m != nil {
			out = append(out, m)
		}
	}
	return out, nil
}

// extractOne builds the state transition graph of one register via
// implication probing, lazily: only reached states are probed, so the
// cost scales with the reachable set, not 2^width. Returns nil when a
// probe yields no information (too many candidates), the reachable set
// exceeds the budget, or it covers the whole value range — in each case
// the machine could not restrict anything, so exploring stops at once.
func extractOne(nl *netlist.Netlist, ff netlist.GateID, opts Options, succOf successorFunc) *Machine {
	g := &nl.Gates[ff]
	q := g.Out
	w := nl.Width(q)
	m := &Machine{FF: ff, Q: q, Width: w, Succ: map[uint64][]uint64{}}
	full := -1 // size of the whole value range, when it is enumerable
	if w < 63 {
		full = 1 << uint(w)
	}
	init, _ := g.Init.Uint64()
	cur := []uint64{init}
	seen := map[uint64]bool{init: true}
	m.ReachAt = append(m.ReachAt, cur)
	for {
		next := slices.Clone(cur)
		for _, v := range cur {
			succ, ok := m.Succ[v]
			if !ok {
				succ = succOf(ff, v, opts.MaxCands)
				if succ == nil {
					return nil // next state too free: no information
				}
				m.Succ[v] = succ
			}
			for _, u := range succ {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
			if len(next) > opts.MaxStates || len(next) == full {
				return nil
			}
		}
		slices.Sort(next)
		m.ReachAt = append(m.ReachAt, next)
		if len(next) == len(cur) {
			return m
		}
		cur = next
	}
}
