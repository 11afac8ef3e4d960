package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
)

// designSpec names one benchmark circuit and how to build it.
type designSpec struct {
	name  string
	build func() (*circuits.Design, error)
}

var engineNames = []string{core.EngineATPG, core.EngineBMC, core.EngineBDD}

func engineDesigns(tiny bool) []designSpec {
	all := []designSpec{
		{"addr_decoder", circuits.AddrDecoder},
		{"token_ring", func() (*circuits.Design, error) { return circuits.TokenRing(48) }},
		{"arbiter", func() (*circuits.Design, error) { return circuits.Arbiter(16) }},
		{"alarm_clock", circuits.AlarmClock},
		{"industry_01", func() (*circuits.Design, error) { return circuits.Industry01(24) }},
		{"industry_02", circuits.Industry02},
		{"industry_03", circuits.Industry03},
		{"industry_04", circuits.Industry04},
		{"industry_05", circuits.Industry05},
		{"token_ring96", func() (*circuits.Design, error) { return circuits.TokenRing(96) }},
		{"arbiter24", func() (*circuits.Design, error) { return circuits.Arbiter(24) }},
	}
	if !tiny {
		return all
	}
	var out []designSpec
	for _, s := range all {
		switch s.name {
		case "alarm_clock", "industry_03", "industry_04", "industry_05":
			out = append(out, s)
		}
	}
	return out
}

// engineJob is one op of the engines workload.
type engineJob struct {
	spec   designSpec
	engine string
}

// pinRecord is the expected outcome of one (design, property, engine)
// check: the verdict class and the exact effort counters, which the
// engines are deterministic enough to reproduce in every process.
type pinRecord struct {
	Design       string `json:"design"`
	Prop         string `json:"prop"`
	Engine       string `json:"engine"`
	Verdict      string `json:"verdict"`
	Depth        int    `json:"depth"`
	Validated    bool   `json:"validated"`
	Decisions    int64  `json:"decisions"`
	Conflicts    int64  `json:"conflicts"`
	Implications int64  `json:"implications"`
	MemUnits     int64  `json:"mem_units"`
}

func (p pinRecord) key() string { return p.Design + "/" + p.Prop + "/" + p.Engine }

type pinFile struct {
	Note    string      `json:"note"`
	Records []pinRecord `json:"records"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]pinRecord, []pinRecord, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, nil, fmt.Errorf("pins.json: %w", err)
	}
	m := make(map[string]pinRecord, len(pf.Records))
	for _, r := range pf.Records {
		m[r.key()] = r
	}
	return m, pf.Records, nil
}

func pinOf(design, prop string, res core.Result) pinRecord {
	return pinRecord{
		Design: design, Prop: prop, Engine: res.Engine,
		Verdict: res.Verdict.String(), Depth: res.Depth, Validated: res.Validated,
		Decisions: res.Metrics.Decisions, Conflicts: res.Metrics.Conflicts,
		Implications: res.Metrics.Implications, MemUnits: res.Metrics.MemUnits,
	}
}

// benchPR10Path is the committed Table-2 baseline, relative to the
// repository root the benchmark runs from.
var benchPR10Path = "BENCH_PR10.json"

// benchRow is one "after" row of BENCH_PR10.json, read-only.
type benchRow struct {
	Verdict      string `json:"verdict"`
	Decisions    int64  `json:"decisions"`
	Implications int64  `json:"implications"`
	Backtracks   int64  `json:"backtracks"`
}

func loadBenchPR10(path string) (map[string]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Properties map[string]struct {
			After benchRow `json:"after"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchRow, len(doc.Properties))
	for k, v := range doc.Properties {
		out[k] = v.After
	}
	return out, nil
}

// needsTrace reports whether a result must carry a replay-validated
// trace: every falsified or witness verdict from an engine that
// produces traces (the BDD engine produces none).
func needsTrace(engine, verdict string) bool {
	return engine != core.EngineBDD &&
		(verdict == core.VerdictFalsified.String() || verdict == core.VerdictWitnessFound.String())
}

// validatePins checks the pinned expectations themselves: conclusive
// verdicts agree across engines, traces are validated, and the ATPG
// Table-2 rows equal BENCH_PR10.json exactly.
func validatePins(recs []pinRecord, bench map[string]benchRow) []string {
	var errs []string
	conclusive := map[string]string{}
	for _, r := range recs {
		if needsTrace(r.Engine, r.Verdict) && !r.Validated {
			errs = append(errs, fmt.Sprintf("pin %s: %s without a validated trace", r.key(), r.Verdict))
		}
		switch r.Verdict {
		case core.VerdictProved.String(), core.VerdictFalsified.String(), core.VerdictWitnessFound.String():
			k := r.Design + "/" + r.Prop
			if prev, ok := conclusive[k]; ok && prev != r.Verdict {
				errs = append(errs, fmt.Sprintf("pin %s: engines disagree (%s vs %s)", k, prev, r.Verdict))
			}
			conclusive[k] = r.Verdict
		}
	}
	seen := 0
	for _, r := range recs {
		if r.Engine != core.EngineATPG {
			continue
		}
		row, ok := bench[r.Design+"_"+r.Prop]
		if !ok {
			continue
		}
		seen++
		if row.Verdict != r.Verdict || row.Implications != r.Implications ||
			row.Decisions != r.Decisions || row.Backtracks != r.Conflicts {
			errs = append(errs, fmt.Sprintf("pin %s: %s/%d impl/%d dec/%d confl, BENCH_PR10 %s/%d/%d/%d",
				r.key(), r.Verdict, r.Implications, r.Decisions, r.Conflicts,
				row.Verdict, row.Implications, row.Decisions, row.Backtracks))
		}
	}
	if seen != len(bench) {
		errs = append(errs, fmt.Sprintf("pins cover %d of the %d BENCH_PR10 ATPG rows", seen, len(bench)))
	}
	return errs
}

// tracedEngine records a span around each engine check.
type tracedEngine struct {
	core.Engine
	tr     *tracer
	op     int64
	parent int
	name   string
}

func (e tracedEngine) Check(ctx context.Context, prob core.Problem) core.EngineResult {
	id := e.tr.begin(e.op, e.parent, e.name)
	defer e.tr.end(id)
	return e.Engine.Check(ctx, prob)
}

// fsmProbe counts machines kept and flip-flops probed by one
// extraction (fsm.Extract probes registers of width <= 64 with a fully
// known initial value).
type fsmProbe struct{ machines, probed int }

func probedFFs(nl *netlist.Netlist) int {
	n := 0
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		if nl.Width(g.Out) <= 64 && g.Init.IsFullyKnown() {
			n++
		}
	}
	return n
}

// jobOutput is one engines op's outcome.
type jobOutput struct {
	cd      *circuits.Design
	results []core.Result
	records []byte
	fsm     fsmProbe
}

// runJob does one (design, engine) job the way one `assertcheck
// -engine X` run does it: build the circuit, compile a fresh Design
// (never the process-wide DesignFor cache), open a session and run
// CheckAll(jobs=1), then encode the records. Each property gets its own
// session at its circuits.TableDepth bound — the per-property depth of
// the paper's Table 2 — so every record is the one a single-property
// run produces. With a tracer, the design caches the session would
// build lazily are built explicitly first, each inside its own span.
func runJob(ctx context.Context, job engineJob, tr *tracer, op int64) (*jobOutput, error) {
	root := tr.begin(op, -1, "op")
	defer tr.end(root)
	out := &jobOutput{}
	id := tr.begin(op, root, "circuits.build")
	cd, err := job.spec.build()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.cd = cd
	id = tr.begin(op, root, "core.design")
	d, err := core.NewDesign(cd.NL)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	atpgPath := job.engine == core.EngineATPG
	if tr != nil {
		switch job.engine {
		case core.EngineATPG:
			id = tr.begin(op, root, "fsm.extract")
			ms, err := d.Machines()
			tr.end(id)
			if err != nil {
				return nil, err
			}
			out.fsm = fsmProbe{machines: len(ms), probed: probedFFs(cd.NL)}
			id = tr.begin(op, root, "atpg.prep")
			_, err = d.ATPGPrep()
			tr.end(id)
			if err != nil {
				return nil, err
			}
		case core.EngineBMC:
			id = tr.begin(op, root, "cnf.compile")
			_, _ = d.BMCTemplate() // a failed build is the engine's to report (unknown)
			tr.end(id)
		case core.EngineBDD:
			id = tr.begin(op, root, "mc.compile")
			_, _ = d.BDDModel(false) // a failed build falls back to the direct path
			tr.end(id)
		}
	}
	out.results = make([]core.Result, len(cd.Props))
	for i, p := range cd.Props {
		opts := core.Options{MaxDepth: circuits.TableDepth(cd.PropIDs[i]), UseInduction: true}
		if !atpgPath {
			opts.DisableLocalFSM = true
			opts.DisableLearnedStore = true
		}
		id = tr.begin(op, root, "core.session")
		sess, err := d.NewSession(opts)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		var eng core.Engine
		switch job.engine {
		case core.EngineATPG:
			eng = sess.ATPGEngine()
		case core.EngineBMC:
			eng = sess.BMCEngine(bmc.Options{})
		default:
			eng = sess.BDDEngine(mc.Options{})
		}
		id = tr.begin(op, root, "core.checkall")
		if tr != nil {
			eng = tracedEngine{Engine: eng, tr: tr, op: op, parent: id, name: job.engine + ".check"}
		}
		res := sess.CheckAll(ctx, []property.Property{p}, core.BatchOptions{Jobs: 1, Engine: eng})
		tr.end(id)
		out.results[i] = res[0]
	}
	var buf bytes.Buffer
	id = tr.begin(op, root, "core.encode")
	err = core.EncodeRecords(&buf, out.results)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.records = buf.Bytes()
	return out, nil
}

// checkJob compares one op's results with the pins; it returns a
// failure description or "".
func checkJob(job engineJob, out *jobOutput, pins map[string]pinRecord) string {
	for i, res := range out.results {
		got := pinOf(job.spec.name, out.cd.PropIDs[i], res)
		want, ok := pins[got.key()]
		if !ok {
			return fmt.Sprintf("%s: no pinned expectation", got.key())
		}
		if got != want {
			return fmt.Sprintf("%s: got %+v, pinned %+v", got.key(), got, want)
		}
		if needsTrace(res.Engine, got.Verdict) && !res.Validated {
			return fmt.Sprintf("%s: %s trace not validated", got.key(), got.Verdict)
		}
	}
	var recs []core.JSONRecord
	if err := json.Unmarshal(out.records, &recs); err != nil || len(recs) != len(out.results) {
		return fmt.Sprintf("%s/%s: records do not decode (%v)", job.spec.name, job.engine, err)
	}
	return ""
}

// engineCounters accumulates the exact per-engine effort counters of a
// traced pass.
type engineCounters struct {
	implications, decisions, conflicts, peakNodes int64
}

func runEngines(cfg runConfig) (*report, error) {
	pins, pinList, err := loadPins()
	if err != nil {
		return nil, err
	}
	bench, err := loadBenchPR10(benchPR10Path)
	if err != nil {
		return nil, fmt.Errorf("reading the Table-2 baseline: %w", err)
	}
	rep := &report{}
	for _, e := range validatePins(pinList, bench) {
		rep.checkErr("%s", e)
	}
	specs := engineDesigns(cfg.tiny)
	var jobs []engineJob
	for _, s := range specs {
		for _, e := range engineNames {
			jobs = append(jobs, engineJob{s, e})
		}
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: generate every input (build each circuit and compile its
	// design, checking that it carries properties), then warm up with
	// one token_ring job per engine. Repeated; the median is reported.
	var warm []engineJob
	for _, s := range engineDesigns(false) {
		if s.name == "token_ring" {
			for _, e := range engineNames {
				warm = append(warm, engineJob{s, e})
			}
		}
	}
	for r := 0; r < 5; r++ {
		runtime.GC()
		t0 := time.Now()
		for _, s := range specs {
			cd, err := s.build()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			if _, err := core.NewDesign(cd.NL); err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			if len(cd.Props) == 0 {
				return nil, fmt.Errorf("%s: no properties", s.name)
			}
		}
		for _, j := range warm {
			out, err := runJob(ctx, j, nil, 0)
			if err != nil {
				return nil, err
			}
			if msg := checkJob(j, out, pins); msg != "" {
				return nil, fmt.Errorf("warm-up: %s", msg)
			}
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}

	// Four passes give latency_p90_ms more than ten samples beyond it.
	minPasses := 4
	if cfg.tiny {
		minPasses = 1
	}
	var op int64
	// pass runs every job once in a seeded order, recording each op into
	// into (when non-nil) as slice n, and returns the op latencies.
	pass := func(n int, into *report, tr *tracer, counters map[string]*engineCounters, fsmTot *fsmProbe) []time.Duration {
		var lat []time.Duration
		for _, i := range rng.Perm(len(jobs)) {
			job := jobs[i]
			op++
			rep.attempted++
			// Every job starts from a collected heap, as a fresh
			// assertcheck process would, so the garbage one job leaves
			// does not slow whichever job the seed puts after it.
			runtime.GC()
			c0, t0 := cpuTime(), time.Now()
			out, err := runJob(ctx, job, tr, op)
			d := time.Since(t0)
			lat = append(lat, d)
			if into != nil {
				into.record(d, cpuTime()-c0, n)
			}
			if err != nil {
				rep.fail("%s/%s: %v", job.spec.name, job.engine, err)
				continue
			}
			if msg := checkJob(job, out, pins); msg != "" {
				rep.fail("%s", msg)
				continue
			}
			if counters != nil {
				for _, res := range out.results {
					c := counters[res.Engine]
					c.implications += res.Metrics.Implications
					c.decisions += res.Metrics.Decisions
					c.conflicts += res.Metrics.Conflicts
					if res.Metrics.MemUnits > c.peakNodes {
						c.peakNodes = res.Metrics.MemUnits
					}
				}
				fsmTot.machines += out.fsm.machines
				fsmTot.probed += out.fsm.probed
			}
		}
		return lat
	}

	runtime.GC()
	if !cfg.trace {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for n := 0; n < minPasses || time.Since(t0) < cfg.duration(); n++ {
			pass(n, rep, nil, nil, nil)
		}
		runtime.ReadMemStats(&ms1)
		rep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		rep.notes = append(rep.notes, fmt.Sprintf("%d jobs per pass, %d passes", len(jobs), len(rep.lat)/len(jobs)))
		return rep, nil
	}

	// Traced run: one untraced pass for the overhead baseline, then one
	// traced pass.
	untraced := pass(0, nil, nil, nil, nil)
	tr := newTracer()
	counters := map[string]*engineCounters{}
	for _, e := range engineNames {
		counters[e] = &engineCounters{}
	}
	var fsmTot fsmProbe
	traced := pass(1, nil, tr, counters, &fsmTot)
	if err := tr.write(spansPath("engines", cfg.seed)); err != nil {
		return nil, err
	}
	ix := indexSpans(tr.snapshot())
	ops := len(traced)
	l := map[string]float64{}
	for _, name := range []string{"core.design", "fsm.extract", "atpg.prep", "core.session", "atpg.check",
		"cnf.compile", "bmc.check", "mc.compile", "bdd.check", "core.checkall", "core.encode"} {
		l[name+"_ms"] = perOpMs(ix.total(name), ops)
	}
	a, b, d := counters[core.EngineATPG], counters[core.EngineBMC], counters[core.EngineBDD]
	if a.implications > 0 {
		l["atpg.ns_per_implication"] = float64(ix.total("atpg.check")) / float64(a.implications)
	}
	l["atpg.implications"] = float64(a.implications) / float64(ops)
	l["atpg.decisions"] = float64(a.decisions) / float64(ops)
	l["atpg.conflicts"] = float64(a.conflicts) / float64(ops)
	l["bmc.propagations"] = float64(b.implications) / float64(ops)
	l["bmc.conflicts"] = float64(b.conflicts) / float64(ops)
	l["bdd.iterations"] = float64(d.decisions) / float64(ops)
	l["bdd.peak_nodes"] = float64(d.peakNodes)
	if fsmTot.probed > 0 {
		l["fsm.machines_per_ff"] = float64(fsmTot.machines) / float64(fsmTot.probed)
	}
	l["trace.unattributed_frac"] = ix.medianRootUnattributed()
	l["trace.overhead_frac"] = overheadFrac(untraced, traced)
	rep.layers = l
	rep.notes = append(rep.notes, fmt.Sprintf("traced %d ops (%d spans) after %d untraced", ops, len(ix.spans), len(untraced)))
	return rep, nil
}

// regeneratePins runs every engines job once and writes the observed
// outcomes as the new pin file. The pins record what the code gives;
// review the diff before committing a regenerated file.
func regeneratePins(path string) error {
	ctx := context.Background()
	pf := pinFile{Note: "Expected outcome of every (design, property, engine) check of the engines workload: " +
		"verdict class, depth, trace validation and exact effort counters (decisions, conflicts, implications, " +
		"mem_units as core.EngineMetrics defines them). Regenerate with --write-pins; the ATPG rows of the nine " +
		"Table-2 designs must equal the after rows of BENCH_PR10.json."}
	for _, s := range engineDesigns(false) {
		for _, e := range engineNames {
			out, err := runJob(ctx, engineJob{s, e}, nil, 0)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", s.name, e, err)
			}
			for i, res := range out.results {
				pf.Records = append(pf.Records, pinOf(s.name, out.cd.PropIDs[i], res))
			}
		}
	}
	raw, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
