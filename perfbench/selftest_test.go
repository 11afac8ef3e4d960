package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload briefly at a tiny size, untraced
// and traced, and checks that every metric is printed by name and unit,
// that nothing failed, and that BENCHMARK.json lists the same metrics.
func TestWorkloadsTiny(t *testing.T) {
	benchPR10Path = "../BENCH_PR10.json"
	spansDir = t.TempDir()
	for _, w := range workloadOrder {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 0.3, trace: trace, tiny: true}
			rep, err := workloads[w](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			res := summarize(&out, w, cfg, rep)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v %v",
					w, trace, res.Correct, res.Attempted, res.Failed, rep.failures, rep.checkErrs)
			}
			want := endToEnd
			if trace {
				want = perLayer
			} else if !strings.Contains(out.String(), "failed_frac                   0 frac") {
				t.Errorf("%s: failed_frac not printed as 0:\n%s", w, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%v: metric %s missing or mislabelled (%+v)", w, trace, m.Name, got)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok || (i < len(workloadOrder) && workloadOrder[i] != w.Name) {
			t.Errorf("workload %q out of step", w.Name)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
