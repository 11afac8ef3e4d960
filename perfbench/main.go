// Command perfbench is the repository's benchmark: one process per
// workload, closed-loop, every output checked.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload engines --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// Workloads:
//
//	engines      one op = one (design, engine) job over the Table-2
//	             designs plus TokenRing(96) and Arbiter(24), done the way
//	             one `assertcheck -engine X` run does it: build the
//	             circuit, compile a fresh core.Design, open a session and
//	             CheckAll(jobs=1) at circuits.TableDepth
//	serve-hot    one op = one POST /v1/check to an in-process
//	             service.Server over loopback HTTP; 8 comment-tagged
//	             variants of a generated 16-lane design, all cache hits,
//	             with the design cache filled to capacity by 56 cold
//	             designs before timing
//	serve-churn  the same server and design family, each request
//	             rewriting one lane's churn literal to a fresh value
//	router-hot   serve-hot's request stream through an in-process
//	             cluster.Router over two in-process replicas
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, and
// the spans are written to .bench_build/spans/. --workload all runs
// every workload in a child process (untraced and traced) and writes
// the ledger (perfbench/ledger.json): environment, seeds, predictions,
// exact effort counters and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks the workload's inputs for the self-test.
	tiny bool
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// report is what a workload hands back for printing.
type report struct {
	attempted, failed int
	// failures holds the first few failed-op descriptions.
	failures []string
	// checkErrs are benchmark-level consistency failures (a pinned
	// counter file that disagrees with BENCH_PR10.json, a replay that
	// does not match the server): they make the run incorrect without
	// being attributable to one op.
	checkErrs []string
	setups    []time.Duration
	// lat holds the op latencies of the measured window and slices the
	// slice each op fell in (see sliceRate); cpu sums the process CPU
	// time spent inside ops.
	lat    []time.Duration
	slices []int
	cpu    time.Duration
	// allocBytes is the heap allocated in the measured window.
	allocBytes uint64
	// layers holds the per-layer metrics (traced runs only).
	layers map[string]float64
	// notes are extra human-readable lines (sample counts, findings).
	notes []string
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// record adds one measured op.
func (r *report) record(lat, cpu time.Duration, slice int) {
	r.lat = append(r.lat, lat)
	r.slices = append(r.slices, slice)
	r.cpu += cpu
}

func (r *report) checkErr(format string, args ...any) {
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadFunc func(cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"engines":     runEngines,
	"serve-hot":   func(cfg runConfig) (*report, error) { return runServe(cfg, modeHot) },
	"serve-churn": func(cfg runConfig) (*report, error) { return runServe(cfg, modeChurn) },
	"router-hot":  func(cfg runConfig) (*report, error) { return runServe(cfg, modeRouter) },
}

var workloadOrder = []string{"engines", "serve-hot", "serve-churn", "router-hot"}

func main() {
	var (
		workload  = flag.String("workload", "", "engines, serve-hot, serve-churn, router-hot, or all")
		seed      = flag.Int64("seed", 1, "input seed (same seed, same inputs)")
		seconds   = flag.Float64("seconds", 20, "measured window per run")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		writePins = flag.String("write-pins", "", "regenerate the engines pin file at this path and exit")
	)
	flag.Parse()
	if *writePins != "" {
		if err := regeneratePins(*writePins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, ledgerPath))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload engines|serve-hot|serve-churn|router-hot|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := summarize(os.Stdout, *workload, cfg, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summarize prints the human-readable lines to w and builds the result.
func summarize(w io.Writer, workload string, cfg runConfig, rep *report) result {
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	for _, e := range rep.checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.checkErrs) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	attempted := rep.attempted
	if attempted == 0 {
		attempted = 1
		res.Attempted = 1
		res.Failed = rep.failed + 1
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  ops %d  failed %d\n", workload, cfg.seed, cfg.trace, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	if cfg.trace {
		for _, m := range perLayer {
			v := rep.layers[m.Name]
			res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, v, m.Unit)
		}
		return res
	}
	setup := make([]float64, len(rep.setups))
	for i, d := range rep.setups {
		setup[i] = d.Seconds()
	}
	lat := millis(rep.lat)
	vals := map[string]float64{
		"setup_s":        median(setup),
		"ops_per_s":      sliceRate(rep.lat, rep.slices),
		"cpu_ms_per_op":  float64(rep.cpu) / 1e6 / math.Max(1, float64(len(rep.lat))),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
		"alloc_mb_per_op": float64(rep.allocBytes) / 1e6 /
			math.Max(1, float64(len(rep.lat))),
		"peak_rss_mb": peakRSSMB(),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", m.Name, vals[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "  %-16s %14.6g frac (%d of %d)\n", "failed_frac",
		float64(rep.failed)/float64(attempted), rep.failed, attempted)
	fmt.Fprintf(w, "  latency samples %d (p90 has %d beyond it); setup repetitions %d\n",
		len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat)))), len(setup))
	return res
}

// metricDef documents one metric: unit and direction, and for a
// per-layer metric the layer call it times and the prediction of which
// end-to-end metric it should move on which workload.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Call   string   `json:"call,omitempty"`
	Moves  []string `json:"moves,omitempty"`
	On     []string `json:"on,omitempty"`
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer lists the traced run's metrics. Times are per op (ms per op,
// the span total over the traced ops divided by their number); counts
// are per op too; a layer a workload never enters reads 0.
var perLayer = []metricDef{
	{"verilog.parse_ms", "ms", "lower", "verilog.Parse", []string{"latency_p50_ms"}, []string{"serve-churn"}},
	{"elab.elaborate_ms", "ms", "lower", "elab.Elaborate", []string{"latency_p50_ms"}, []string{"serve-churn"}},
	{"core.design_ms", "ms", "lower", "core.NewDesign", []string{"latency_p50_ms"}, []string{"serve-churn"}},
	{"fsm.extract_ms", "ms", "lower", "Design.Machines", []string{"latency_p90_ms", "latency_p50_ms"}, []string{"engines", "serve-churn"}},
	{"fsm.machines_per_ff", "ratio", "higher", "Design.Machines: machines kept per flip-flop probed", nil, []string{"engines", "serve-churn"}},
	{"atpg.prep_ms", "ms", "lower", "Design.ATPGPrep", []string{"latency_p50_ms"}, []string{"engines"}},
	{"core.session_ms", "ms", "lower", "Design.NewSession after the caches are built", []string{"latency_p50_ms"}, []string{"serve-churn"}},
	{"atpg.check_ms", "ms", "lower", "Session.ATPGEngine via CheckAll", []string{"ops_per_s", "latency_p90_ms"}, []string{"engines"}},
	{"atpg.ns_per_implication", "ns", "lower", "Session.ATPGEngine via CheckAll", []string{"ops_per_s", "latency_p90_ms"}, []string{"engines"}},
	{"atpg.implications", "count", "lower", "Result.Metrics (atpg)", []string{"ops_per_s", "latency_p90_ms"}, []string{"engines"}},
	{"atpg.decisions", "count", "lower", "Result.Metrics (atpg)", []string{"ops_per_s", "latency_p90_ms"}, []string{"engines"}},
	{"atpg.conflicts", "count", "lower", "Result.Metrics (atpg)", []string{"ops_per_s", "latency_p90_ms"}, []string{"engines"}},
	{"cnf.compile_ms", "ms", "lower", "Design.BMCTemplate", []string{"ops_per_s"}, []string{"engines"}},
	{"bmc.check_ms", "ms", "lower", "Session.BMCEngine via CheckAll", []string{"ops_per_s"}, []string{"engines"}},
	{"bmc.propagations", "count", "lower", "Result.Metrics (bmc)", []string{"ops_per_s"}, []string{"engines"}},
	{"bmc.conflicts", "count", "lower", "Result.Metrics (bmc)", []string{"ops_per_s"}, []string{"engines"}},
	{"mc.compile_ms", "ms", "lower", "Design.BDDModel", []string{"latency_p90_ms"}, []string{"engines"}},
	{"bdd.check_ms", "ms", "lower", "Session.BDDEngine via CheckAll", []string{"latency_p90_ms"}, []string{"engines"}},
	{"bdd.iterations", "count", "lower", "Result.Metrics (bdd)", []string{"latency_p90_ms"}, []string{"engines"}},
	{"bdd.peak_nodes", "count", "lower", "Result.Metrics (bdd), max over ops", []string{"peak_rss_mb"}, []string{"engines"}},
	{"core.conehash_ms", "ms", "lower", "Design.PropertyConeHash", []string{"latency_p50_ms"}, []string{"serve-hot", "serve-churn"}},
	{"core.checkall_ms", "ms", "lower", "Session.CheckAll", []string{"latency_p50_ms"}, []string{"serve-churn"}},
	{"core.verdict_hit_frac", "frac", "higher", "X-Verdict-Cache header", []string{"latency_p50_ms"}, []string{"serve-churn"}},
	{"core.verdict_stale_frac", "frac", "lower", "share of re-checked churn answers whose verdict-cache replays differ from a fresh uncached check", []string{"failed_frac"}, []string{"serve-churn"}},
	{"core.encode_ms", "ms", "lower", "core.EncodeRecords", []string{"latency_p50_ms"}, []string{"serve-hot"}},
	{"service.handler_ms", "ms", "lower", "wrapped Server.Handler()", []string{"latency_p50_ms", "ops_per_s"}, []string{"serve-hot"}},
	{"service.self_ms", "ms", "lower", "handler time minus the replayed core spans", []string{"latency_p50_ms", "ops_per_s"}, []string{"serve-hot"}},
	{"service.design_hit_frac", "frac", "higher", "X-Design-Cache header", []string{"latency_p50_ms"}, []string{"serve-hot", "serve-churn"}},
	{"service.shed_frac", "frac", "lower", "429/503 answers", []string{"failed_frac"}, []string{"serve-hot", "serve-churn", "router-hot"}},
	{"http.transport_ms", "ms", "lower", "client round trip minus handler time", []string{"latency_p50_ms"}, []string{"serve-hot"}},
	{"cluster.router_ms", "ms", "lower", "wrapped Router.Handler()", []string{"latency_p50_ms"}, []string{"router-hot"}},
	{"cluster.self_ms", "ms", "lower", "router time minus its replica-handler spans", []string{"latency_p50_ms"}, []string{"router-hot"}},
	{"cluster.subrequests_per_req", "count", "lower", "replica-handler calls per request", []string{"ops_per_s"}, []string{"router-hot"}},
	{"trace.unattributed_frac", "frac", "lower", "share of the median op's time under no layer span", nil, []string{"engines", "serve-hot", "serve-churn", "router-hot"}},
	{"trace.overhead_frac", "frac", "lower", "traced vs untraced latency_p50_ms", nil, []string{"engines", "serve-hot", "serve-churn", "router-hot"}},
}

// overheadFrac compares a traced run's op latencies with an untraced
// phase of the same run.
func overheadFrac(untraced, traced []time.Duration) float64 {
	u := median(millis(untraced))
	if u == 0 {
		return 0
	}
	return median(millis(traced))/u - 1
}

// perOpMs converts a span total to milliseconds per op.
func perOpMs(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / 1e6 / float64(ops)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}
