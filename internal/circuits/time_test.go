package circuits

import (
	"testing"

	"repro/internal/core"
)

// TestTable2Shape checks the qualitative shape of Table 2: every
// property completes, and the relative difficulty ordering the paper
// reports is visible (the sequential one-hot proofs p3/p5/p11 dominate
// the cheap combinational checks). Difficulty is compared on the
// deterministic implication counts; wall time is only logged, since on
// millisecond runs it orders properties by scheduling noise.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-2 run takes ~30s; run without -short for the perf yardstick")
	}
	designs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	impl := map[string]int{}
	for _, d := range designs {
		for i, p := range d.Props {
			id := d.PropIDs[i]
			c, _ := core.New(d.NL, core.Options{MaxDepth: depthFor(id), UseInduction: true})
			res := c.Check(p)
			impl[id] = res.Stats.Implications
			t.Logf("%-14s %-4s %-16s depth=%d dec=%d impl=%d %.3fs %.1fMB",
				d.Name, id, res.Verdict, res.Depth, res.Stats.Decisions,
				res.Stats.Implications, res.Elapsed.Seconds(), float64(res.AllocBytes)/1e6)
		}
	}
	// The hardest properties must be the sequential one-hot invariants,
	// never the witness generations (paper: proofs cost more than
	// witnesses on the same design).
	if impl["p5"] <= impl["p6"] {
		t.Errorf("p5 (%d implications) should dominate p6 (%d)", impl["p5"], impl["p6"])
	}
	if impl["p3"] <= impl["p4"] {
		t.Errorf("p3 (%d implications) should dominate p4 (%d)", impl["p3"], impl["p4"])
	}
}
