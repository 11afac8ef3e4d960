package bv

// Backward implication primitives for bitwise gates: given the required
// output cube of a gate and the current cube of the *other* input, each
// function returns the cube that the remaining input must refine to.
// These are exact per bit (the strongest sound implication).

// BackAnd returns the implication on input a of an AND gate with output
// out and other input b: out bit 1 forces a=1; out bit 0 with b=1
// forces a=0.
func BackAnd(out, other BV) BV {
	checkSameWidth(out, other, "BackAnd")
	if out.small() {
		one := out.v0
		zero := (out.k0 &^ out.v0) & other.v0
		return BV{width: out.width, v0: one, k0: one | zero}
	}
	r := NewX(out.width)
	for i := range r.vs {
		one := out.ks[i] & out.vs[i]
		zero := (out.ks[i] &^ out.vs[i]) & other.ks[i] & other.vs[i]
		r.vs[i] = one
		r.ks[i] = one | zero
	}
	r.normalize()
	return r
}

// BackOr returns the implication on input a of an OR gate with output
// out and other input b: out bit 0 forces a=0; out bit 1 with b=0
// forces a=1.
func BackOr(out, other BV) BV {
	checkSameWidth(out, other, "BackOr")
	if out.small() {
		zero := out.k0 &^ out.v0
		one := out.v0 & (other.k0 &^ other.v0)
		return BV{width: out.width, v0: one, k0: one | zero}
	}
	r := NewX(out.width)
	for i := range r.vs {
		zero := out.ks[i] &^ out.vs[i]
		one := out.ks[i] & out.vs[i] & other.ks[i] &^ other.vs[i]
		r.vs[i] = one
		r.ks[i] = one | zero
	}
	r.normalize()
	return r
}

// BackXor returns the implication on input a of an XOR gate: a = out ^ b
// wherever both are known.
func BackXor(out, other BV) BV {
	checkSameWidth(out, other, "BackXor")
	if out.small() {
		k := out.k0 & other.k0
		return BV{width: out.width, v0: (out.v0 ^ other.v0) & k, k0: k}
	}
	r := NewX(out.width)
	for i := range r.vs {
		k := out.ks[i] & other.ks[i]
		r.ks[i] = k
		r.vs[i] = (out.vs[i] ^ other.vs[i]) & k
	}
	r.normalize()
	return r
}

// BackNot returns the implication on the input of an inverter.
func BackNot(out BV) BV { return out.Not() }

// BackRedAnd returns the implication on the input of a reduction AND
// whose 1-bit output is out: output 1 forces all input bits to 1;
// output 0 with exactly one non-1... (only the all-ones case is exact;
// output 0 forces the single remaining x bit to 0 when all other bits
// are known 1).
func BackRedAnd(out BV, in BV) BV {
	if out.Width() != 1 {
		panic("bv: BackRedAnd output must be 1 bit")
	}
	switch out.Bit(0) {
	case One:
		return Ones(in.width)
	case Zero:
		// If all bits but one are known 1, that one must be 0.
		idx := -1
		for i := 0; i < in.width; i++ {
			switch in.getTrit(i) {
			case Zero:
				return in // already satisfied; no new implication
			case X:
				if idx >= 0 {
					return in // more than one x: nothing forced
				}
				idx = i
			}
		}
		if idx >= 0 {
			return in.WithBit(idx, Zero)
		}
		return in
	}
	return in
}

// BackRedOr is the dual of BackRedAnd: output 0 forces all bits 0;
// output 1 with a single x and the rest 0 forces that x to 1.
func BackRedOr(out BV, in BV) BV {
	if out.Width() != 1 {
		panic("bv: BackRedOr output must be 1 bit")
	}
	switch out.Bit(0) {
	case Zero:
		return FromUint64(in.width, 0)
	case One:
		idx := -1
		for i := 0; i < in.width; i++ {
			switch in.getTrit(i) {
			case One:
				return in
			case X:
				if idx >= 0 {
					return in
				}
				idx = i
			}
		}
		if idx >= 0 {
			return in.WithBit(idx, One)
		}
		return in
	}
	return in
}

// BackAdd returns the implication on input a of an adder out = a + b:
// a refines to out - b (three-valued). The returned borrow trit, when
// known, is the implied carry-out of the original addition (Fig. 3).
func BackAdd(out, other BV) (BV, Trit) {
	return out.SubBorrow(other)
}

// BackSubMinuend returns the implication on the minuend a of a
// subtractor out = a - b: a refines to out + b (three-valued).
func BackSubMinuend(out, other BV) BV { return out.Add(other) }

// BackSubSubtrahend returns the implication on the subtrahend b of
// out = a - b given the minuend a.
func BackSubSubtrahend(out, minuend BV) BV { return minuend.Sub(out) }

// BackSlice returns the implication on the input of a slice gate
// in[lo+out.Width()-1 : lo] whose output cube is out: the output bits
// map onto the window and every other input bit stays unknown. One blit
// builds it, so a single-word input allocates nothing.
func BackSlice(out BV, lo, inWidth int) BV {
	r := NewX(inWidth)
	blit(&r, lo, out, 0, out.width)
	return r
}

// BackZext returns the implication on the input of a zero-extension
// whose output cube is out: high output bits known 1 conflict (reported
// by the caller via Refine), low bits map through.
func BackZext(out BV, inWidth int) BV {
	r := NewX(inWidth)
	n := inWidth
	if out.width < n {
		n = out.width
	}
	blit(&r, 0, out, 0, n)
	return r
}
