package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call (nothing inside the program is
// instrumented). Spans of one op share Op; Parent indexes the span that
// caused this one (-1 for an op's root span). Replay spans were timed
// on the benchmark's own re-execution of a served request (see
// serve.go) and stand for work inside their parent handler span rather
// than occupying its interval.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, which is how untraced runs
// call the same code paths.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	return t.open(span{Name: name, Op: op, Parent: parent})
}

// beginReplay opens a replay span (see span).
func (t *tracer) beginReplay(op int64, parent int, name string) int {
	return t.open(span{Name: name, Op: op, Parent: parent, Replay: true})
}

func (t *tracer) open(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups a span list for the per-layer computations.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int][]int)}
	for i, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// total sums the durations of every span with the given name.
func (ix *spanIndex) total(name string) time.Duration {
	var d time.Duration
	for _, s := range ix.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// count returns how many spans carry the given name.
func (ix *spanIndex) count(name string) int {
	n := 0
	for _, s := range ix.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// covered returns how much of span id's interval its non-replay
// children cover (the union of their intervals, clipped to the parent).
func (ix *spanIndex) covered(id int) time.Duration {
	p := ix.spans[id]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range ix.children[id] {
		s := ix.spans[c]
		if s.Replay {
			continue
		}
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// replayed sums the durations of span id's replay children.
func (ix *spanIndex) replayed(id int) time.Duration {
	var d time.Duration
	for _, c := range ix.children[id] {
		if ix.spans[c].Replay {
			d += ix.spans[c].dur()
		}
	}
	return d
}

// medianBy returns the id of the median-duration span named name, or
// -1 when there is none.
func (ix *spanIndex) medianBy(name string) int {
	var ids []int
	for i, s := range ix.spans {
		if s.Name == name {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		return -1
	}
	sort.Slice(ids, func(a, b int) bool { return ix.spans[ids[a]].dur() < ix.spans[ids[b]].dur() })
	return ids[len(ids)/2]
}

// medianRootUnattributed is trace.unattributed_frac: the share of the
// median-duration op's time that no span recorded inside it covers.
func (ix *spanIndex) medianRootUnattributed() float64 {
	id := ix.medianBy("op")
	if id < 0 {
		return 0
	}
	d := ix.spans[id].dur()
	if d <= 0 {
		return 0
	}
	return float64(d-ix.covered(id)) / float64(d)
}

// selfOf returns, per span named name, its duration minus its
// children's coverage (or, with replay set, minus its replay
// children's summed durations), in span order.
func (ix *spanIndex) selfOf(name string, replay bool) []time.Duration {
	var out []time.Duration
	for i, s := range ix.spans {
		if s.Name != name {
			continue
		}
		if replay {
			out = append(out, s.dur()-ix.replayed(i))
		} else {
			out = append(out, s.dur()-ix.covered(i))
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// spansDir is where traced runs write their spans, relative to the
// working directory (the repository root).
var spansDir = filepath.Join(".bench_build", "spans")

func spansPath(workload string, seed int64) string {
	return filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
