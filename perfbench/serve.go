package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/elab"
	"repro/internal/lru"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/service"
	"repro/internal/verilog"
)

type serveMode int

const (
	modeHot serveMode = iota
	modeChurn
	modeRouter
)

func (m serveMode) String() string {
	switch m {
	case modeChurn:
		return "serve-churn"
	case modeRouter:
		return "router-hot"
	default:
		return "serve-hot"
	}
}

const (
	serveLanes    = 16
	serveVariants = 8
	// serveFills cold designs sit in the design cache beside the hot
	// variants in serve-hot and router-hot, so the server holds a full
	// cache (serverDesignCap entries) as a long-running one does, and
	// its heap, and so its garbage-collection pace, is that of a full
	// cache rather than of eight small designs.
	serveFills = serverDesignCap - serveVariants
	serveDepth = 8
	serveTop   = "churn"
	// The servers run with explicit cache capacities (the service
	// defaults), so the traced replay can mirror them exactly.
	serverDesignCap  = 64
	serverVerdictCap = core.DefaultVerdictCacheCap
	// Churn literals are 16-bit; the stream draws 1..churnWarmLit-1 and
	// never repeats one within a run, warm-up uses the values above.
	churnWarmLit = 65534
	// maxTracedOps caps a traced run's spans in memory.
	maxTracedOps = 20000
)

// laneSource renders the generated design: serveLanes independent
// token-rotator lanes under one top module, shaped like
// testdata/churn_smoke.v. Lane k's tagged line carries the literal
// lits[k]; it is masked into the rotation, so invariant ok<k> (lane k's
// token stays nonzero) holds for every literal while the literal sits
// inside ok<k>'s cone and nobody else's. tag is a leading comment that
// changes the content hash and nothing else.
func laneSource(tag string, lits *[serveLanes]uint32) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// %s\n", tag)
	for k := 0; k < serveLanes; k++ {
		fmt.Fprintf(&sb, `
module lane%d(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [15:0] churn;
  wire [7:0] nxt;
  assign churn = 16'd%d & {tok, tok}; // churn:lane%d
  assign nxt = {tok[6:0], tok[7]} | churn[7:0] | churn[15:8];
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule
`, k, lits[k], k)
	}
	fmt.Fprintf(&sb, "\nmodule %s(clk", serveTop)
	for k := 0; k < serveLanes; k++ {
		fmt.Fprintf(&sb, ", ok%d", k)
	}
	sb.WriteString(");\n  input clk;\n")
	for k := 0; k < serveLanes; k++ {
		fmt.Fprintf(&sb, "  output ok%d;\n", k)
	}
	for k := 0; k < serveLanes; k++ {
		fmt.Fprintf(&sb, "  lane%d u%d (.clk(clk), .ok(ok%d));\n", k, k, k)
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// serveInputs is the generated request family of one seed.
type serveInputs struct {
	tags     []string
	variants []string
	bodies   [][]byte
	names    []string
}

func makeInputs(seed int64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	for k := 0; k < serveLanes; k++ {
		in.names = append(in.names, fmt.Sprintf("ok%d", k))
	}
	var zero [serveLanes]uint32
	for v := 0; v < serveVariants; v++ {
		tag := fmt.Sprintf("variant %d %08x", v, rng.Uint32())
		src := laneSource(tag, &zero)
		body, err := in.body(src)
		if err != nil {
			return nil, err
		}
		in.tags = append(in.tags, tag)
		in.variants = append(in.variants, src)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

func (in *serveInputs) body(src string) ([]byte, error) {
	return json.Marshal(service.CheckRequest{Design: src, Top: serveTop, Invariants: in.names, Depth: serveDepth})
}

// fillSource is the i-th cold design: variant 0 under another tag, so
// a design-cache miss whose every cone is a verdict-cache hit.
func (in *serveInputs) fillSource(i int) string {
	var zero [serveLanes]uint32
	return laneSource(fmt.Sprintf("fill %d, %s", i, in.tags[0]), &zero)
}

// churnSource is variant 0 with lane's literal set to val.
func (in *serveInputs) churnSource(lane int, val uint32) string {
	var lits [serveLanes]uint32
	lits[lane] = val
	return laneSource(in.tags[0], &lits)
}

// directCheck runs the check a request asks for through core's public
// calls, with no server in between and the given verdict cache (nil for
// none), and returns the encoded records.
func directCheck(src string, names []string, cache *core.VerdictCache) ([]byte, error) {
	d, err := core.CompileVerilog(src, serveTop)
	if err != nil {
		return nil, err
	}
	props, err := property.FromNames(d.Netlist(), names, nil)
	if err != nil {
		return nil, err
	}
	sess, err := d.NewSession(core.Options{MaxDepth: serveDepth, UseInduction: true})
	if err != nil {
		return nil, err
	}
	results := sess.CheckAll(context.Background(), props, core.BatchOptions{Jobs: 1, Cache: cache})
	var buf bytes.Buffer
	if err := core.EncodeRecords(&buf, results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

var elapsedField = regexp.MustCompile(`"elapsed_ns": [0-9]+`)

// normalize blanks the one field a response may legitimately differ in
// from an independent check of the same request: elapsed_ns.
func normalize(b []byte) []byte { return elapsedField.ReplaceAll(b, []byte(`"elapsed_ns": 0`)) }

func splitRecords(b []byte) ([]json.RawMessage, error) {
	var recs []json.RawMessage
	err := json.Unmarshal(b, &recs)
	return recs, err
}

// hooks carries the per-request tracing state from the client into the
// handler wrappers. One client goroutine drives the load, so "the
// current op" is well defined.
type hooks struct {
	tr          atomic.Pointer[tracer]
	op          atomic.Int64
	root        atomic.Int64
	routerSpan  atomic.Int64
	handlerSpan atomic.Int64
}

// wrap times the handler's /v1/check calls as spans named name; the
// parent is read from parent and the span id stored into last.
func (h *hooks) wrap(next http.Handler, name string, parent, last *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tr.Load()
		if tr == nil || r.URL.Path != "/v1/check" {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin(h.op.Load(), int(parent.Load()), name)
		if last != nil {
			last.Store(int64(id))
		}
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// fleet is the serving stack under test: one server, or a router over
// two replicas, each behind loopback HTTP.
type fleet struct {
	replicas []*httptest.Server
	router   *cluster.Router
	front    *httptest.Server
	client   *http.Client
	inner    *http.Client
}

func newTransport() *http.Transport {
	return &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 2, DisableCompression: true}
}

func newServer() *service.Server {
	return service.New(service.Options{DesignCacheEntries: serverDesignCap, VerdictCacheEntries: serverVerdictCap})
}

func newFleet(mode serveMode, h *hooks) (*fleet, error) {
	// The load uses one client goroutine over one connection.
	f := &fleet{client: &http.Client{Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: 1, DisableCompression: true}}}
	if mode != modeRouter {
		f.front = httptest.NewServer(h.wrap(newServer().Handler(), "service.handler", &h.root, &h.handlerSpan))
		return f, nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		rs := httptest.NewServer(h.wrap(newServer().Handler(), "service.handler", &h.routerSpan, nil))
		f.replicas = append(f.replicas, rs)
		urls = append(urls, rs.URL)
	}
	f.inner = &http.Client{Transport: newTransport()}
	rt, err := cluster.New(cluster.Options{Replicas: urls, Client: f.inner})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.front = httptest.NewServer(h.wrap(rt.Handler(), "cluster.router", &h.root, &h.routerSpan))
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, rs := range f.replicas {
		rs.Close()
	}
	f.client.CloseIdleConnections()
	if f.inner != nil {
		f.inner.CloseIdleConnections()
	}
}

// response is one answered POST.
type response struct {
	status  int
	design  string
	verdict string
	body    []byte
}

func (f *fleet) post(body []byte) (*response, error) {
	resp, err := f.client.Post(f.front.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, design: resp.Header.Get("X-Design-Cache"),
		verdict: resp.Header.Get("X-Verdict-Cache"), body: b}, nil
}

// serveState is what warm-up leaves for the measured loop.
type serveState struct {
	first [][]byte          // first response per variant
	base  []json.RawMessage // churn: variant 0's records
	lane  []core.JSONRecord // churn: the same, decoded
}

// warmUp sends every variant (cold, then hot) and, for churn, two
// edits, checking each answer; it fails on any mismatch.
func warmUp(f *fleet, in *serveInputs, ref []byte, mode serveMode) (*serveState, error) {
	st := &serveState{}
	for round := 0; round < 2; round++ {
		for v, body := range in.bodies {
			r, err := f.post(body)
			if err != nil {
				return nil, err
			}
			if r.status != http.StatusOK {
				return nil, fmt.Errorf("warm-up variant %d: status %d: %s", v, r.status, r.body)
			}
			if round == 0 {
				if !bytes.Equal(normalize(r.body), normalize(ref)) {
					return nil, fmt.Errorf("warm-up variant %d: response differs from a direct check", v)
				}
				st.first = append(st.first, r.body)
			} else if !bytes.Equal(r.body, st.first[v]) {
				return nil, fmt.Errorf("warm-up variant %d: hot replay differs from the first response", v)
			}
		}
	}
	if mode != modeChurn {
		return st, nil
	}
	var err error
	if st.base, err = splitRecords(st.first[0]); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(st.first[0], &st.lane); err != nil {
		return nil, err
	}
	for k := 0; k < 2; k++ {
		src := in.churnSource(k, churnWarmLit+uint32(k))
		body, err := in.body(src)
		if err != nil {
			return nil, err
		}
		r, err := f.post(body)
		if err != nil {
			return nil, err
		}
		if msg := st.checkChurn(r, k); msg != "" {
			return nil, fmt.Errorf("warm-up edit: %s", msg)
		}
	}
	return st, nil
}

// fill sends every cold design once after warm-up, checking each
// answer against the direct check; the hot variants stay cached, since
// the cache then holds exactly its capacity.
func fill(f *fleet, in *serveInputs, ref []byte) error {
	for i := 0; i < serveFills; i++ {
		body, err := in.body(in.fillSource(i))
		if err != nil {
			return err
		}
		r, err := f.post(body)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK || r.design != "miss" {
			return fmt.Errorf("fill %d: status %d, X-Design-Cache %s: %s", i, r.status, r.design, r.body)
		}
		if !bytes.Equal(normalize(r.body), normalize(ref)) {
			return fmt.Errorf("fill %d: response differs from a direct check", i)
		}
	}
	return nil
}

// checkHot checks one hot answer: cache hits throughout and the exact
// bytes of the variant's first response.
func (st *serveState) checkHot(r *response, v int, mode serveMode) string {
	if r.status != http.StatusOK {
		return fmt.Sprintf("status %d", r.status)
	}
	if r.design != "hit" {
		return "X-Design-Cache " + r.design
	}
	if mode == modeHot && r.verdict != fmt.Sprintf("hits=%d misses=0", serveLanes) {
		return "X-Verdict-Cache " + r.verdict
	}
	if !bytes.Equal(r.body, st.first[v]) {
		return fmt.Sprintf("variant %d: body differs from its first response", v)
	}
	return ""
}

// checkChurn checks one churn answer: a design-cache miss, one fresh
// cone, every record outside the edited lane byte-identical to the
// unedited response and the edited one with the same verdict.
func (st *serveState) checkChurn(r *response, lane int) string {
	if r.status != http.StatusOK {
		return fmt.Sprintf("status %d", r.status)
	}
	if r.design != "miss" {
		return "X-Design-Cache " + r.design
	}
	if r.verdict != fmt.Sprintf("hits=%d misses=1", serveLanes-1) {
		return "X-Verdict-Cache " + r.verdict
	}
	recs, err := splitRecords(r.body)
	if err != nil || len(recs) != serveLanes {
		return fmt.Sprintf("records: %d, %v", len(recs), err)
	}
	for i := range recs {
		if i != lane && !bytes.Equal(recs[i], st.base[i]) {
			return fmt.Sprintf("lane %d edit changed record %d", lane, i)
		}
	}
	var got core.JSONRecord
	if err := json.Unmarshal(recs[lane], &got); err != nil {
		return err.Error()
	}
	want := st.lane[lane]
	if got.Property != want.Property || got.Verdict != want.Verdict || got.Depth != want.Depth || got.Validated != want.Validated {
		return fmt.Sprintf("lane %d: record %+v, unedited %+v", lane, got, want)
	}
	return ""
}

// replayer re-executes served requests through the public calls the
// handler makes, in order, timing each as a replay span. Its design LRU
// and verdict cache have the server's capacities and see the same
// requests, so its hits and misses match the server's.
type replayer struct {
	designs  *lru.Cache[string, *core.Design]
	verdicts *core.VerdictCache
	fsm      fsmProbe
	atpg     engineCounters
}

func newReplayer() *replayer {
	return &replayer{designs: lru.New[string, *core.Design](serverDesignCap), verdicts: core.NewVerdictCache(serverVerdictCap)}
}

// run replays one request and returns its records, whether the design
// was cached and how many records the verdict cache answered.
func (rp *replayer) run(tr *tracer, op int64, parent int, src string, names []string) (out []byte, designHit bool, verdictHits int, err error) {
	span := func(name string, fn func() error) error {
		id := tr.beginReplay(op, parent, name)
		defer tr.end(id)
		return fn()
	}
	var (
		key   string
		d     *core.Design
		ok    bool
		props []property.Property
		sess  *core.Session
		buf   bytes.Buffer
	)
	_ = span("core.fingerprint", func() error {
		key = core.Fingerprint(src, serveTop)
		d, ok = rp.designs.Get(key)
		return nil
	})
	if !ok {
		var ast *verilog.Source
		var nl *netlist.Netlist
		if err := span("verilog.parse", func() (err error) { ast, err = verilog.Parse(src); return }); err != nil {
			return nil, false, 0, err
		}
		if err := span("elab.elaborate", func() (err error) { nl, err = elab.Elaborate(ast, serveTop, nil); return }); err != nil {
			return nil, false, 0, err
		}
		if err := span("core.design", func() (err error) { d, err = core.NewDesign(nl); return }); err != nil {
			return nil, false, 0, err
		}
		rp.designs.Add(key, d)
	}
	if err := span("property.names", func() (err error) {
		props, err = property.FromNames(d.Netlist(), names, nil)
		return
	}); err != nil {
		return nil, ok, 0, err
	}
	if err := span("fsm.extract", func() error {
		ms, err := d.Machines()
		if !ok {
			rp.fsm.machines += len(ms)
			rp.fsm.probed += probedFFs(d.Netlist())
		}
		return err
	}); err != nil {
		return nil, ok, 0, err
	}
	if err := span("core.session", func() (err error) {
		sess, err = d.NewSession(core.Options{MaxDepth: serveDepth, UseInduction: true})
		return
	}); err != nil {
		return nil, ok, 0, err
	}
	_ = span("core.conehash", func() error {
		for _, p := range props {
			d.PropertyConeHash(p)
		}
		return nil
	})
	id := tr.beginReplay(op, parent, "core.checkall")
	eng := tracedEngine{Engine: sess.ATPGEngine(), tr: tr, op: op, parent: id, name: "atpg.check"}
	results := sess.CheckAll(context.Background(), props, core.BatchOptions{Jobs: 1, Engine: eng, Cache: rp.verdicts})
	tr.end(id)
	for _, res := range results {
		if res.FromCache {
			verdictHits++
		} else {
			rp.atpg.implications += res.Metrics.Implications
			rp.atpg.decisions += res.Metrics.Decisions
			rp.atpg.conflicts += res.Metrics.Conflicts
		}
	}
	if err := span("core.encode", func() error { return core.EncodeRecords(&buf, results) }); err != nil {
		return nil, ok, verdictHits, err
	}
	return buf.Bytes(), ok, verdictHits, nil
}

// parseVerdictHeader reads X-Verdict-Cache "hits=H misses=M".
func parseVerdictHeader(s string) (hits, misses int) {
	_, _ = fmt.Sscanf(s, "hits=%d misses=%d", &hits, &misses)
	return
}

// churnSample is a churn answer kept for the after-run direct check.
type churnSample struct {
	lane int
	val  uint32
	body []byte
}

func runServe(cfg runConfig, mode serveMode) (*report, error) {
	rep := &report{}
	h := &hooks{}
	var (
		in  *serveInputs
		ref []byte
		f   *fleet
		st  *serveState
		err error
	)
	// Set-up: generate the inputs, check one variant directly for the
	// reference records, start the servers and warm them up. Repeated
	// on fresh servers; the median is reported and the last kept.
	reps := 5
	if cfg.tiny {
		reps = 2
	}
	for r := 0; r < reps; r++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		if in, err = makeInputs(cfg.seed); err != nil {
			return nil, err
		}
		if ref, err = directCheck(in.variants[0], in.names, nil); err != nil {
			return nil, err
		}
		if f, err = newFleet(mode, h); err != nil {
			return nil, err
		}
		if st, err = warmUp(f, in, ref, mode); err != nil {
			f.close()
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}
	defer f.close()
	// The fill stands for other clients' earlier traffic, not for
	// anything a user's set-up does, so setup_s leaves it out.
	if mode != modeChurn {
		if err := fill(f, in, ref); err != nil {
			return nil, err
		}
	}

	// The replay has to have seen what the server saw during warm-up.
	var rp *replayer
	if cfg.trace && mode != modeRouter {
		rp = newReplayer()
		for round := 0; round < 2; round++ {
			for _, src := range in.variants {
				if _, _, _, err := rp.run(nil, 0, -1, src, in.names); err != nil {
					return nil, err
				}
			}
		}
		if mode == modeChurn {
			for k := 0; k < 2; k++ {
				if _, _, _, err := rp.run(nil, 0, -1, in.churnSource(k, churnWarmLit+uint32(k)), in.names); err != nil {
					return nil, err
				}
			}
		} else {
			for i := 0; i < serveFills; i++ {
				if _, _, _, err := rp.run(nil, 0, -1, in.fillSource(i), in.names); err != nil {
					return nil, err
				}
			}
		}
		rp.fsm, rp.atpg = fsmProbe{}, engineCounters{}
	}

	stream := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	used := map[uint32]bool{}
	var (
		samples                     []churnSample
		untraced, traced            []time.Duration
		shed, designHits, vHits, vN int
		tr                          *tracer
	)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	half := start.Add(cfg.duration() / 2)
	deadline := start.Add(cfg.duration())
	var op int64
	for time.Now().Before(deadline) {
		if cfg.trace && tr == nil && !time.Now().Before(half) {
			tr = newTracer()
			h.tr.Store(tr)
		}
		if tr != nil && len(traced) >= maxTracedOps {
			break
		}
		op++
		// Build the request outside the timed section.
		var (
			body []byte
			src  string
			v    int
			lane int
			val  uint32
		)
		if mode == modeChurn {
			lane = stream.Intn(serveLanes)
			for val == 0 || used[val] {
				val = 1 + uint32(stream.Intn(churnWarmLit-1))
			}
			used[val] = true
			src = in.churnSource(lane, val)
			if body, err = in.body(src); err != nil {
				return nil, err
			}
		} else {
			v = stream.Intn(serveVariants)
			body, src = in.bodies[v], in.variants[v]
		}
		h.op.Store(op)
		root := tr.begin(op, -1, "op")
		h.root.Store(int64(root))
		c0, t0 := cpuTime(), time.Now()
		r, err := f.post(body)
		lat := time.Since(t0)
		cpu := cpuTime() - c0
		tr.end(root)
		rep.attempted++
		if tr != nil {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
			rep.record(lat, cpu, int(t0.Sub(start)/time.Second))
		}
		if err != nil {
			rep.fail("op %d: %v", op, err)
			continue
		}
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			shed++
		}
		if r.design == "hit" {
			designHits++
		}
		hh, mm := parseVerdictHeader(r.verdict)
		vHits += hh
		vN += hh + mm
		var msg string
		if mode == modeChurn {
			msg = st.checkChurn(r, lane)
			if msg == "" && len(samples) < 32 && (op-1)%16 == 0 {
				samples = append(samples, churnSample{lane, val, r.body})
			}
		} else {
			msg = st.checkHot(r, v, mode)
		}
		if msg != "" {
			rep.fail("op %d: %s", op, msg)
			continue
		}
		if rp != nil && tr != nil {
			hid := int(h.handlerSpan.Load())
			out, dHit, vh, err := rp.run(tr, op, hid, src, in.names)
			switch {
			case err != nil:
				rep.checkErr("replay op %d: %v", op, err)
			case dHit != (r.design == "hit") || vh != hh:
				rep.checkErr("replay op %d: design hit %v, %d verdict hits; server %s, %s", op, dHit, vh, r.design, r.verdict)
			case !bytes.Equal(normalize(out), normalize(r.body)):
				rep.checkErr("replay op %d: records differ from the server's", op)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	h.tr.Store(nil)

	// After the window: re-check a sample of churn answers. The served
	// bytes must equal the same check through core, with a verdict cache
	// holding what the server's held (the unedited design's records).
	// Separately, a fresh check without any cache measures whether the
	// cached records are still what the edited design would produce:
	// a difference is the program's verdict-cache transparency defect,
	// counted in core.verdict_stale_frac, not an op failure.
	stale := 0
	if len(samples) > 0 {
		baseCache := core.NewVerdictCache(serverVerdictCap)
		if _, err := directCheck(in.variants[0], in.names, baseCache); err != nil {
			return nil, err
		}
		snap, err := baseCache.Snapshot()
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			src := in.churnSource(s.lane, s.val)
			vc := core.NewVerdictCache(serverVerdictCap)
			if _, err := vc.Restore(snap); err != nil {
				return nil, err
			}
			out, err := directCheck(src, in.names, vc)
			if err != nil {
				rep.fail("churn lane %d value %d: direct check: %v", s.lane, s.val, err)
				continue
			}
			if !bytes.Equal(normalize(out), normalize(s.body)) {
				rep.fail("churn lane %d value %d: response differs from the same check through core", s.lane, s.val)
				continue
			}
			fresh, err := directCheck(src, in.names, nil)
			if err != nil {
				rep.fail("churn lane %d value %d: fresh check: %v", s.lane, s.val, err)
				continue
			}
			if !bytes.Equal(normalize(fresh), normalize(s.body)) {
				stale++
			}
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d answers re-checked through core; %d of them differ from a fresh uncached check (verdict-cache transparency defect)",
			len(samples), stale))
	}

	if !cfg.trace {
		return rep, nil
	}
	if err := tr.write(spansPath(mode.String(), cfg.seed)); err != nil {
		return nil, err
	}
	ix := indexSpans(tr.snapshot())
	ops := len(traced)
	l := map[string]float64{}
	for _, name := range []string{"verilog.parse", "elab.elaborate", "core.design", "fsm.extract", "core.session",
		"core.conehash", "core.checkall", "atpg.check", "core.encode", "service.handler", "cluster.router"} {
		l[name+"_ms"] = perOpMs(ix.total(name), ops)
	}
	if rp != nil {
		if rp.fsm.probed > 0 {
			l["fsm.machines_per_ff"] = float64(rp.fsm.machines) / float64(rp.fsm.probed)
		}
		if rp.atpg.implications > 0 {
			l["atpg.ns_per_implication"] = float64(ix.total("atpg.check")) / float64(rp.atpg.implications)
		}
		l["atpg.implications"] = float64(rp.atpg.implications) / float64(ops)
		l["atpg.decisions"] = float64(rp.atpg.decisions) / float64(ops)
		l["atpg.conflicts"] = float64(rp.atpg.conflicts) / float64(ops)
		self := ix.selfOf("service.handler", true)
		l["service.self_ms"] = perOpMs(sumDur(self), ops)
		// The replay must fit inside the handler on the median request,
		// or it is not the work the server did. Per-request timing noise
		// on a shared host can exceed the handler's own work (on churn
		// it is about 1% of a request), so the check fails only when the
		// median of handler minus replay is below zero by more than two
		// standard errors; a smaller excess is reported as unresolved.
		if m, se := medianWithError(millis(self)); m+2*se < 0 {
			rep.checkErr("replayed spans exceed the handler span: median handler-minus-replay %.3f ms (standard error %.3f ms)", m, se)
		} else if m < 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("replay vs handler unresolved: median handler-minus-replay %.3f ms, standard error %.3f ms", m, se))
		}
	}
	front := "service.handler"
	if mode == modeRouter {
		front = "cluster.router"
		l["cluster.self_ms"] = perOpMs(sumDur(ix.selfOf("cluster.router", false)), ops)
		l["cluster.subrequests_per_req"] = float64(ix.count("service.handler")) / float64(ops)
	}
	l["http.transport_ms"] = perOpMs(ix.total("op")-ix.total(front), ops)
	l["service.design_hit_frac"] = float64(designHits) / float64(rep.attempted)
	l["service.shed_frac"] = float64(shed) / float64(rep.attempted)
	if vN > 0 {
		l["core.verdict_hit_frac"] = float64(vHits) / float64(vN)
	}
	if len(samples) > 0 {
		l["core.verdict_stale_frac"] = float64(stale) / float64(len(samples))
	}
	l["trace.unattributed_frac"] = ix.medianRootUnattributed()
	l["trace.overhead_frac"] = overheadFrac(untraced, traced)
	rep.layers = l
	rep.notes = append(rep.notes, fmt.Sprintf("traced %d ops (%d spans) after %d untraced", ops, len(ix.spans), len(untraced)))
	return rep, nil
}
