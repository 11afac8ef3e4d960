package bv

import (
	"math/rand"
	"testing"
)

// The inline small-vector representation must make every hot operation
// on single-word (≤64-bit) vectors allocation-free: the ATPG engine's
// implication loop leans on that to touch the heap zero times per pass.

var sinkBV BV
var sinkTrit Trit
var sinkBool bool

func TestSmallOpsZeroAlloc(t *testing.T) {
	a := MustParse("16'b10xx_01xx_10x1_0x10")
	b := MustParse("16'b1xx0_011x_10xx_0110")
	one := FromUint64(16, 0x1234)
	lo := FromUint64(16, 100)
	hi := FromUint64(16, 30000)
	a64 := FromUint64(64, 0xdeadbeefcafebabe)
	b64 := MustParse("64'hxx_xxxx_xxxx_dead_beef")
	ops := map[string]func(){
		"NewX":       func() { sinkBV = NewX(64) },
		"FromUint64": func() { sinkBV = FromUint64(64, 42) },
		"Clone":      func() { sinkBV = a.Clone() },
		"WithBit":    func() { sinkBV = a.WithBit(3, One) },
		"Not":        func() { sinkBV = a.Not() },
		"And":        func() { sinkBV = a.And(b) },
		"Or":         func() { sinkBV = a.Or(b) },
		"Xor":        func() { sinkBV = a.Xor(b) },
		"Add":        func() { sinkBV = a.Add(b) },
		"Add64":      func() { sinkBV = a64.Add(b64) },
		"Sub":        func() { sinkBV = a.Sub(b) },
		"SubBorrow":  func() { sinkBV, sinkTrit = a.SubBorrow(b) },
		"Mul":        func() { sinkBV = one.Mul(one) },
		"Shl":        func() { sinkBV = a.Shl(FromUint64(16, 3)) },
		"Shr":        func() { sinkBV = a.Shr(FromUint64(16, 3)) },
		"Intersect":  func() { sinkBV, sinkBool = a.Intersect(b) },
		"Union":      func() { sinkBV = a.Union(b) },
		"Refine":     func() { sinkBV, _, sinkBool = a.Refine(b) },
		"RefineScan": func() { sinkBool, _ = a.RefineScan(b) },
		"Covers":     func() { sinkBool = a.Covers(b) },
		"Min":        func() { sinkBV = a.Min() },
		"Max":        func() { sinkBV = a.Max() },
		"RedAnd":     func() { sinkBV = a.RedAnd() },
		"RedOr":      func() { sinkBV = a.RedOr() },
		"RedXor":     func() { sinkBV = a.RedXor() },
		"LtThree":    func() { sinkTrit = LtThree(a, b) },
		"EqThree":    func() { sinkTrit = EqThree(a, b) },
		"Concat":     func() { sinkBV = Concat(a, b) },
		"Slice":      func() { sinkBV = a.Slice(11, 4) },
		"Zext":       func() { sinkBV = a.Zext(32) },
		"Tighten":    func() { sinkBV, sinkBool = a.TightenToRange(lo, hi) },
		"BackAnd":    func() { sinkBV = BackAnd(a, b) },
		"BackOr":     func() { sinkBV = BackOr(a, b) },
		"BackXor":    func() { sinkBV = BackXor(a, b) },
		"BackNot":    func() { sinkBV = BackNot(a) },
		"BackSlice":  func() { sinkBV = BackSlice(a, 40, 64) },
	}
	for name, fn := range ops {
		if raceEnabled {
			fn() // still exercise the op under the race detector
			continue
		}
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %.2f allocs/op on single-word vectors, want 0", name, got)
		}
	}
}

func TestInPlaceVariantsZeroAllocWide(t *testing.T) {
	// Wide vectors allocate on construction, but the in-place variants
	// must reuse the receiver's spill storage.
	a := NewX(100)
	b := Ones(100).WithBit(70, X)
	dst := NewX(100)
	ops := map[string]func(){
		"RefineInPlace": func() { _, _ = a.RefineInPlace(b) },
		"UnionInPlace":  func() { a.UnionInPlace(b) },
		"AndInto":       func() { AndInto(&dst, a, b) },
		"OrInto":        func() { OrInto(&dst, a, b) },
		"XorInto":       func() { XorInto(&dst, a, b) },
		"NotInto":       func() { NotInto(&dst, a) },
		"CopyInto":      func() { CopyInto(&dst, a) },
	}
	for name, fn := range ops {
		fn() // warm any one-time growth
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", name, got)
		}
	}
}

// TestIntoKernelsMatchImmutable checks the destination-reuse kernels
// against the immutable ops on random vectors, both small and wide,
// including the documented dst-aliases-operand case.
func TestIntoKernelsMatchImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{1, 16, 64, 65, 100, 200} {
		for trial := 0; trial < 200; trial++ {
			a, b := randCube(rng, w), randCube(rng, w)
			dst := randCube(rng, w) // pre-populated garbage to overwrite
			check := func(name string, got, want BV) {
				t.Helper()
				if !got.Equal(want) {
					t.Fatalf("w=%d %s(%v, %v) = %v, want %v", w, name, a, b, got, want)
				}
			}
			AndInto(&dst, a, b)
			check("AndInto", dst, a.And(b))
			OrInto(&dst, a, b)
			check("OrInto", dst, a.Or(b))
			XorInto(&dst, a, b)
			check("XorInto", dst, a.Xor(b))
			NotInto(&dst, a)
			check("NotInto", dst, a.Not())
			CopyInto(&dst, a)
			check("CopyInto", dst, a)
			// Aliased forms: dst is the first operand's own storage.
			al := a.Clone()
			AndInto(&al, al, b)
			check("AndInto/alias", al, a.And(b))
			al = a.Clone()
			NotInto(&al, al)
			check("NotInto/alias", al, a.Not())
			al = a.Clone()
			if al.IntersectInPlace(b) {
				want, _ := a.Intersect(b)
				check("IntersectInPlace", al, want)
			} else if _, ok := a.Intersect(b); ok {
				t.Fatalf("w=%d IntersectInPlace(%v, %v) reported disjoint, Intersect succeeds", w, a, b)
			}
			al = a.Clone()
			al.UnionInPlace(b)
			check("UnionInPlace", al, a.Union(b))
		}
	}
}

// addCarryRef is the per-trit ripple reference AddCarry (the pre-inline
// implementation); the word-parallel small path must match it
// bit-for-bit on every input.
func addCarryRef(a, b BV, cin Trit) (BV, Trit) {
	sum := NewX(a.width)
	c := cin
	for i := 0; i < a.width; i++ {
		ai, bi := a.getTrit(i), b.getTrit(i)
		sum.setBit(i, tritXor(tritXor(ai, bi), c))
		c = tritMaj(ai, bi, c)
	}
	return sum, c
}

func cubeFromTrits(w int, idx int) BV {
	b := NewX(w)
	for i := 0; i < w; i++ {
		b.setBit(i, Trit(idx%3))
		idx /= 3
	}
	return b
}

func TestAddCarrySmallMatchesRipple(t *testing.T) {
	// Exhaustive over all cube pairs up to width 4, all carry-ins.
	for w := 1; w <= 4; w++ {
		n := 1
		for i := 0; i < w; i++ {
			n *= 3
		}
		for ia := 0; ia < n; ia++ {
			a := cubeFromTrits(w, ia)
			for ib := 0; ib < n; ib++ {
				b := cubeFromTrits(w, ib)
				for _, cin := range []Trit{Zero, One, X} {
					gotS, gotC := a.AddCarry(b, cin)
					wantS, wantC := addCarryRef(a, b, cin)
					if !gotS.Equal(wantS) || gotC != wantC {
						t.Fatalf("AddCarry(%v, %v, %v) = (%v, %v), ripple reference gives (%v, %v)",
							a, b, cin, gotS, gotC, wantS, wantC)
					}
				}
			}
		}
	}
	// Randomized at the word-boundary widths.
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{31, 32, 63, 64} {
		for trial := 0; trial < 2000; trial++ {
			a, b := randCube(rng, w), randCube(rng, w)
			cin := Trit(rng.Intn(3))
			gotS, gotC := a.AddCarry(b, cin)
			wantS, wantC := addCarryRef(a, b, cin)
			if !gotS.Equal(wantS) || gotC != wantC {
				t.Fatalf("w=%d AddCarry(%v, %v, %v) = (%v, %v), want (%v, %v)",
					w, a, b, cin, gotS, gotC, wantS, wantC)
			}
		}
	}
}
