package fsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// freshSuccessors is the reference successor function: one fresh
// engine, propagated from all-x, for the implied-next-state query of
// every state, and another for every candidate search. atpg.Prober must
// return exactly what it returns.
func freshSuccessors(nl *netlist.Netlist) successorFunc {
	return func(ff netlist.GateID, v uint64, maxCands int) []uint64 {
		g := &nl.Gates[ff]
		q, d := g.Out, g.In[0]
		w := nl.Width(q)
		if w > 64 {
			return nil
		}
		e, err := atpg.NewWithFeatures(nl, 1, atpg.ModeProve, atpg.Limits{}, nil, true, atpg.Features{})
		if err != nil {
			return nil
		}
		if !e.Require(0, q, bv.FromUint64(w, v)) || !e.Propagate() {
			return []uint64{}
		}
		next := e.Value(0, d)
		if next.CountSolutions() > uint64(maxCands) {
			return nil
		}
		var xbits []int
		lo := uint64(0)
		for i := 0; i < w; i++ {
			switch next.Bit(i) {
			case bv.X:
				xbits = append(xbits, i)
			case bv.One:
				lo |= 1 << uint(i)
			}
		}
		var out []uint64
		for t := uint64(0); t < 1<<uint(len(xbits)); t++ {
			u := lo
			for k, pos := range xbits {
				u |= (t >> uint(k) & 1) << uint(pos)
			}
			pe, err := atpg.NewWithFeatures(nl, 1, atpg.ModeWitness,
				atpg.Limits{MaxDecisions: 2000, MaxBacktracks: 4000}, nil, true, atpg.Features{})
			if err != nil {
				out = append(out, u)
				continue
			}
			ok := pe.Require(0, q, bv.FromUint64(w, v)) && pe.Require(0, d, bv.FromUint64(w, u))
			if ok && pe.Solve() != atpg.StatusUnsat {
				out = append(out, u)
			}
		}
		return out
	}
}

// proberExtract runs extract on a prober the caller can inspect; the
// prober is nil when no register qualified.
func proberExtract(t testing.TB, nl *netlist.Netlist) ([]*Machine, *atpg.Prober) {
	t.Helper()
	var p *atpg.Prober
	ms, err := extract(nl, Options{}, func() (successorFunc, error) {
		var err error
		p, err = atpg.NewProber(nl)
		if err != nil {
			return nil, err
		}
		return p.Successors, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, p
}

// checkAgainstOracle asserts that Extract's machines (every Succ entry
// and every frame set) are deep-equal to those built on fresh engines.
func checkAgainstOracle(t *testing.T, name string, nl *netlist.Netlist) {
	t.Helper()
	got, err := Extract(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := extract(nl, Options{}, func() (successorFunc, error) {
		return freshSuccessors(nl), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: prober machines differ from the fresh-engine oracle\n got %s\nwant %s",
			name, describe(got), describe(want))
	}
}

func describe(ms []*Machine) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "[q=%d w=%d frames=%d fix=%v succ=%v] ", m.Q, m.Width, len(m.ReachAt), m.Fixpoint(), m.Succ)
	}
	return sb.String()
}

func TestProberMatchesOracleOnCircuits(t *testing.T) {
	designs, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() (*circuits.Design, error){
		func() (*circuits.Design, error) { return circuits.Arbiter(8) },
		func() (*circuits.Design, error) { return circuits.TokenRing(96) },
		func() (*circuits.Design, error) { return circuits.Arbiter(24) },
	} {
		d, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	for _, d := range designs {
		checkAgainstOracle(t, d.Name, d.NL)
	}
}

// churnSource renders a churn-shaped design: sixteen independent
// 8-bit token-rotator lanes whose 16-bit literal lits[k] is masked into
// lane k's rotation. A literal whose two bytes OR to 0xFF lets a lane
// keep every token bit it holds, so its machine grows past one-hot.
func churnSource(lits [16]uint32) string {
	var sb strings.Builder
	for k, lit := range lits {
		fmt.Fprintf(&sb, `
module lane%d(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [15:0] churn;
  wire [7:0] nxt;
  assign churn = 16'd%d & {tok, tok};
  assign nxt = {tok[6:0], tok[7]} | churn[7:0] | churn[15:8];
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule
`, k, lit)
	}
	sb.WriteString("\nmodule churn(clk);\n  input clk;\n")
	for k := range lits {
		fmt.Fprintf(&sb, "  wire ok%d;\n  lane%d u%d (.clk(clk), .ok(ok%d));\n", k, k, k, k)
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

func churnNetlist(t testing.TB, lits [16]uint32) *netlist.Netlist {
	t.Helper()
	ast, err := verilog.Parse(churnSource(lits))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := elab.Elaborate(ast, "churn", nil)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestProberMatchesOracleOnChurn(t *testing.T) {
	cases := map[string][16]uint32{
		"all zero":        {},
		"lane3 0x1234":    {3: 0x1234},
		"lane0 1":         {0: 1},
		"lane11 0x0ff0":   {11: 0x0ff0}, // bytes OR to 0xFF
		"mixed with 0xff": {2: 0x8001, 7: 0xa55a, 15: 0xffff},
	}
	for name, lits := range cases {
		checkAgainstOracle(t, name, churnNetlist(t, lits))
	}
}

func TestProberMatchesOracleOnRandomNetlists(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	n := 200
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		nl, _ := circuits.RandomSequential(r)
		checkAgainstOracle(t, fmt.Sprintf("random #%d", i), nl)
	}
}

// TestNoProberWithoutCandidates checks the prober is built lazily: a
// design whose only register is too wide to probe never builds one.
func TestNoProberWithoutCandidates(t *testing.T) {
	d, err := circuits.TokenRing(96)
	if err != nil {
		t.Fatal(err)
	}
	ms, p := proberExtract(t, d.NL)
	if len(ms) != 0 || p != nil {
		t.Errorf("token_ring(96): %d machines, prober built %v; want none", len(ms), p != nil)
	}
}

// TestAddrDecoderProbeCount pins the full-range exit: addr_decoder's
// 8-bit cell0 reaches all 256 values from its first state, so its
// exploration stops after one implied-next-state query and 256
// candidate searches; the 32-bit written register is uninformative on
// its first query.
func TestAddrDecoderProbeCount(t *testing.T) {
	d, err := circuits.AddrDecoder()
	if err != nil {
		t.Fatal(err)
	}
	ms, p := proberExtract(t, d.NL)
	if len(ms) != 0 {
		t.Errorf("addr_decoder kept %d machines, want 0", len(ms))
	}
	if n := p.Probes(); n > 300 {
		t.Errorf("addr_decoder extraction ran %d probes, want at most 300", n)
	}
}

// BenchmarkExtract measures whole-design extraction. addr_decoder is
// dominated by the full-range exit, arbiter8 and churn by probe reuse.
func BenchmarkExtract(b *testing.B) {
	addr, err := circuits.AddrDecoder()
	if err != nil {
		b.Fatal(err)
	}
	arb, err := circuits.Arbiter(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"addr_decoder", addr.NL},
		{"arbiter8", arb.NL},
		{"churn16", churnNetlist(b, [16]uint32{5: 0x1234})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Extract(c.nl, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
