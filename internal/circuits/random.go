package circuits

import (
	"fmt"
	"math/rand"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// RandomSequential builds a random small sequential circuit with a mix
// of control and datapath logic plus a 1-bit monitor signal.
func RandomSequential(r *rand.Rand) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("rand")
	w := 2 + r.Intn(3) // datapath width 2..4
	var sigs []netlist.SignalID
	// A couple of inputs.
	nIn := 1 + r.Intn(2)
	for i := 0; i < nIn; i++ {
		sigs = append(sigs, nl.AddInput(fmt.Sprintf("in%d", i), w))
	}
	ctl := nl.AddInput("ctl", 1)
	// One or two registers with feedback, connected later.
	nFF := 1 + r.Intn(2)
	var ffs []netlist.SignalID
	for i := 0; i < nFF; i++ {
		q := nl.DffPlaceholder(w, bv.FromUint64(w, uint64(r.Intn(1<<uint(w)))), fmt.Sprintf("q%d", i))
		ffs = append(ffs, q)
		sigs = append(sigs, q)
	}
	// Random combinational layer.
	kinds := []netlist.Kind{
		netlist.KAnd, netlist.KOr, netlist.KXor, netlist.KAdd, netlist.KSub,
		netlist.KMul, netlist.KNand,
	}
	depth := 3 + r.Intn(4)
	for i := 0; i < depth; i++ {
		a := sigs[r.Intn(len(sigs))]
		bb := sigs[r.Intn(len(sigs))]
		k := kinds[r.Intn(len(kinds))]
		sigs = append(sigs, nl.Binary(k, a, bb))
	}
	// A mux keyed on the control input.
	a := sigs[r.Intn(len(sigs))]
	bb := sigs[r.Intn(len(sigs))]
	sigs = append(sigs, nl.Mux(ctl, a, bb))
	// Connect register feedback.
	for _, q := range ffs {
		nl.ConnectDff(q, sigs[len(sigs)-1-r.Intn(2)])
	}
	// Monitor: a comparator between two random datapath signals.
	x := sigs[r.Intn(len(sigs))]
	y := sigs[r.Intn(len(sigs))]
	cmpKinds := []netlist.Kind{netlist.KEq, netlist.KNe, netlist.KLt, netlist.KGe}
	mon := nl.Binary(cmpKinds[r.Intn(len(cmpKinds))], x, y)
	return nl, mon
}
