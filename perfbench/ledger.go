package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
)

// ledgerPath is where --workload all writes the ledger, relative to the
// repository root.
const ledgerPath = "perfbench/ledger.json"

// heldBackSeed is never used while changing the benchmark or the
// program: a claimed gain must also hold on it.
const heldBackSeed = 20261017

// workloadInfo records why each workload exists and what it predicts
// no change on.
var workloadInfo = map[string]struct{ Op, Why, NoChange string }{
	"engines": {
		Op: "one (design, engine) job: build the circuit, fresh core.NewDesign, one session per property at circuits.TableDepth, CheckAll(jobs=1), EncodeRecords; 11 designs x {atpg, bmc, bdd} = 33 jobs per pass",
		Why: "search and the per-design cache builds do almost all the work, with no HTTP and no cache carried between jobs; " +
			"each engine has a job in the 0.1-10s range (ATPG token_ring96, BDD arbiter24 and industry_01, addr_decoder FSM extraction)",
		NoChange: "a serving-path change (decode, admission, design or verdict cache, encode, router) predicts no change here",
	},
	"serve-hot": {
		Op: "one POST /v1/check to an in-process service.Server over loopback HTTP, 8 comment-tagged variants of a generated 16-lane design, 16 invariants at depth 8",
		Why: "the unedited-resubmit CI pattern: after warm-up every request is a design-cache hit with 16 of 16 verdict-cache hits, " +
			"so decode, admission, cone hashing, cache lookup and encoding do all the work and no search runs; " +
			"56 cold designs fill the design cache to its capacity of 64 before timing, so the heap is that of a long-running server",
		NoChange: "an engine or front-end change predicts no change here",
	},
	"serve-churn": {
		Op: "one POST whose design rewrites one lane's 16-bit churn literal to a value not used earlier in the run",
		Why: "every request is a design-cache miss paying parse, elaboration, design build, session setup (FSM extraction over 16 lanes), " +
			"16 cone hashes, 15 verdict-cache hits, 1 miss and write, and one cone's ATPG search; the design LRU churns",
		NoChange: "a router change predicts no change here; a cache change that helps hits but costs misses shows as better on serve-hot and worse here",
	},
	"router-hot": {
		Op:       "serve-hot's exact request stream through an in-process cluster.Router (default Spread, hedging off) over two in-process replicas",
		Why:      "the only workload with scatter and merge on the blocking path; serve-hot is its control, so the difference is the router",
		NoChange: "an engine or front-end change predicts no change here",
	},
}

type ledgerWorkload struct {
	Name        string      `json:"name"`
	Op          string      `json:"op"`
	Why         string      `json:"why"`
	Predictions []metricDef `json:"predictions"`
	NoChange    string      `json:"no_change"`
	EndToEnd    *result     `json:"end_to_end"`
	PerLayer    *result     `json:"per_layer"`
	Lines       []string    `json:"lines"`
}

type ledger struct {
	Description    string             `json:"description"`
	Command        string             `json:"command"`
	Environment    map[string]any     `json:"environment"`
	Seed           int64              `json:"seed"`
	HeldBackSeed   int64              `json:"held_back_seed"`
	Seconds        float64            `json:"seconds"`
	Load           string             `json:"load"`
	EndToEnd       []metricDef        `json:"end_to_end_metrics"`
	Workloads      []ledgerWorkload   `json:"workloads"`
	Findings       map[string]finding `json:"baseline_findings"`
	EffortCounters []pinRecord        `json:"effort_counters"`
}

type finding struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note"`
}

// runAll runs every workload, untraced and traced, each in its own
// child process (so peak RSS is the workload's own), prints every
// metric and writes the ledger. It returns the exit code.
func runAll(seed int64, seconds float64, path string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	_, pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	lg := ledger{
		Description: "Output of `bash perfbench/run.sh --workload all`: every workload's end-to-end metrics (untraced run) and " +
			"per-layer metrics (traced run), the exact effort counters the engines workload checks, the environment and the seeds. " +
			"Per-layer times are ms per op of the traced run; a layer a workload never enters reads 0.",
		Command: fmt.Sprintf("bash perfbench/run.sh --workload all --seed %d --seconds %g", seed, seconds),
		Environment: map[string]any{
			"cpu": cpuModel(), "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc": runtime.NumCPU(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
			"date": time.Now().UTC().Format("2006-01-02"),
		},
		Seed: seed, HeldBackSeed: heldBackSeed, Seconds: seconds,
		Load:           "closed loop: one client goroutine over one connection, the next request sent when the previous answer is in",
		EndToEnd:       endToEnd,
		EffortCounters: pins,
	}
	ok := true
	for _, w := range workloadOrder {
		info := workloadInfo[w]
		lw := ledgerWorkload{Name: w, Op: info.Op, Why: info.Why, NoChange: info.NoChange}
		for _, m := range perLayer {
			for _, on := range m.On {
				if on == w {
					lw.Predictions = append(lw.Predictions, m)
				}
			}
		}
		for _, trace := range []int{0, 1} {
			res, lines, err := runChild(exe, w, seed, seconds, trace)
			lw.Lines = append(lw.Lines, lines...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%d: %v\n", w, trace, err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			if trace == 0 {
				lw.EndToEnd = res
			} else {
				lw.PerLayer = res
			}
		}
		lg.Workloads = append(lg.Workloads, lw)
	}
	lg.Findings, err = baselineFindings()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, k := range sortedKeys(lg.Findings) {
		f := lg.Findings[k]
		fmt.Printf("finding %-32s %10.4g %s  (%s)\n", k, f.Value, f.Unit, f.Note)
	}
	raw, err := json.MarshalIndent(lg, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("ledger written to", path)
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, echoing its output,
// and returns the parsed last line plus the human-readable lines.
func runChild(exe, w string, seed int64, seconds float64, trace int) (*result, []string, error) {
	cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		return nil, lines, err
	}
	if len(lines) == 0 {
		return nil, lines, fmt.Errorf("no output")
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, lines, err
	}
	return &res, lines[:len(lines)-1], nil
}

// baselineFindings measures the two set-up costs this benchmark was
// built to expose (and that it does not fix): local-FSM extraction on
// addr_decoder and Arbiter(8), and session set-up on a fresh churn
// design. Each is the median of three fresh measurements.
func baselineFindings() (map[string]finding, error) {
	fsmTime := func(build func() (*circuits.Design, error)) (float64, int, int, error) {
		var ts []float64
		var machines, probed int
		for i := 0; i < 3; i++ {
			cd, err := build()
			if err != nil {
				return 0, 0, 0, err
			}
			d, err := core.NewDesign(cd.NL)
			if err != nil {
				return 0, 0, 0, err
			}
			t0 := time.Now()
			ms, err := d.Machines()
			if err != nil {
				return 0, 0, 0, err
			}
			ts = append(ts, time.Since(t0).Seconds())
			machines, probed = len(ms), probedFFs(cd.NL)
		}
		return median(ts), machines, probed, nil
	}
	out := map[string]finding{}
	s, m, p, err := fsmTime(circuits.AddrDecoder)
	if err != nil {
		return nil, err
	}
	out["addr_decoder.fsm_extract_s"] = finding{s, "s", fmt.Sprintf("Design.Machines on addr_decoder keeps %d machines of %d flip-flops probed", m, p)}
	s, m, p, err = fsmTime(func() (*circuits.Design, error) { return circuits.Arbiter(8) })
	if err != nil {
		return nil, err
	}
	out["arbiter8.fsm_extract_s"] = finding{s, "s", fmt.Sprintf("Design.Machines on Arbiter(8) keeps %d machines of %d flip-flops probed", m, p)}

	in, err := makeInputs(1)
	if err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < 3; i++ {
		d, err := core.CompileVerilog(in.variants[0], serveTop)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := d.NewSession(core.Options{MaxDepth: serveDepth, UseInduction: true}); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(t0).Seconds()*1e3)
	}
	out["churn.session_setup_ms"] = finding{median(ts), "ms", "NewSession (local-FSM extraction over 16 lanes) on a freshly compiled churn design, paid by every serve-churn request"}
	return out, nil
}
