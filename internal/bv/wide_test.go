package bv

import (
	"math/rand"
	"testing"
)

// Wide-vector (>64-bit) coverage: the word-parallel paths and the
// generic (non-uint64) interval machinery.

func TestWideArithmetic(t *testing.T) {
	w := 100
	a := FromUint64(64, 0xffffffffffffffff).Zext(w)
	one := FromUint64(64, 1).Zext(w)
	sum := a.Add(one)
	// 2^64 has bit 64 set, low 64 bits clear.
	for i := 0; i < 64; i++ {
		if sum.Bit(i) != Zero {
			t.Fatalf("bit %d of 2^64 should be 0", i)
		}
	}
	if sum.Bit(64) != One {
		t.Fatal("bit 64 of 2^64 should be 1")
	}
	// Subtracting back recovers the operand.
	if diff := sum.Sub(one); !diff.Equal(a) {
		t.Errorf("2^64 - 1 = %v", diff)
	}
	// Wide multiplication by 2 is a shift.
	two := FromUint64(64, 2).Zext(w)
	dbl := a.Mul(two)
	want := a.shiftLeftKnown(1)
	if !dbl.Equal(want) {
		t.Errorf("2*(2^64-1) mismatch")
	}
}

func TestWideTightenToRange(t *testing.T) {
	// The >64-bit path of TightenToRange (Cmp-based).
	w := 70
	cube := NewX(w)
	for i := 0; i < w-2; i++ {
		cube = cube.WithBit(i, Zero)
	}
	// cube = xx000...0: values {0, 2^68, 2^69, 2^68+2^69}.
	lo := FromUint64(1, 1).Zext(w) // 1
	hi := FromUint64(64, 0).Zext(w).WithBit(68, One)
	got, ok := cube.TightenToRange(lo, hi)
	if !ok {
		t.Fatal("range [1, 2^68] contains 2^68")
	}
	// Top bit (69) must be implied 0; bit 68 must be implied 1.
	if got.Bit(69) != Zero {
		t.Errorf("bit 69 = %v, want 0", got.Bit(69))
	}
	if got.Bit(68) != One {
		t.Errorf("bit 68 = %v, want 1", got.Bit(68))
	}
	// Disjoint range fails.
	if _, ok := cube.TightenToRange(lo, lo); ok {
		t.Error("no cube value lies in [1,1]")
	}
}

func TestWideBitwiseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	w := 130
	for trial := 0; trial < 50; trial++ {
		a, b := randCube(r, w), randCube(r, w)
		and := a.And(b)
		or := a.Or(b)
		xor := a.Xor(b)
		for i := 0; i < w; i++ {
			ai, bi := a.Bit(i), b.Bit(i)
			if got, want := and.Bit(i), tritAnd(ai, bi); got != want {
				t.Fatalf("and bit %d: %v want %v", i, got, want)
			}
			if got, want := or.Bit(i), tritOr(ai, bi); got != want {
				t.Fatalf("or bit %d: %v want %v", i, got, want)
			}
			if got, want := xor.Bit(i), tritXor(ai, bi); got != want {
				t.Fatalf("xor bit %d: %v want %v", i, got, want)
			}
		}
	}
}

func TestWideConcatSliceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		wa, wb := 30+r.Intn(60), 40+r.Intn(60)
		a, b := randCube(r, wa), randCube(r, wb)
		c := Concat(a, b)
		if c.Width() != wa+wb {
			t.Fatal("concat width")
		}
		if !c.Slice(wa+wb-1, wb).Equal(a) || !c.Slice(wb-1, 0).Equal(b) {
			t.Fatal("slice round-trip failed")
		}
	}
}

func TestWideRefineScanMatchesRefine(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		w := 1 + r.Intn(150)
		a, b := randCube(r, w), randCube(r, w)
		changed, conflict := a.RefineScan(b)
		merged, rChanged, rOk := a.Refine(b)
		if conflict == rOk {
			t.Fatalf("scan conflict=%v but Refine ok=%v", conflict, rOk)
		}
		if !conflict && changed != rChanged {
			t.Fatalf("scan changed=%v but Refine changed=%v", changed, rChanged)
		}
		if rOk && !merged.Covers(merged) {
			t.Fatal("self-cover sanity")
		}
	}
}

// TestBackSliceMatchesPerBit checks BackSlice against the per-bit
// construction it replaces — an all-x input with the window's bits
// set one at a time — for every input width 1–130 and every window
// start, with windows of one bit, a random width and the rest of the
// vector.
func TestBackSliceMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for inW := 1; inW <= 130; inW++ {
		for lo := 0; lo < inW; lo++ {
			for _, hi := range []int{lo, lo + r.Intn(inW-lo), inW - 1} {
				out := randCube(r, hi-lo+1)
				want := NewX(inW)
				for i := lo; i <= hi; i++ {
					want = want.WithBit(i, out.Bit(i-lo))
				}
				if got := BackSlice(out, lo, inW); !got.Equal(want) {
					t.Fatalf("BackSlice(%v, %d, %d) = %v, want %v", out, lo, inW, got, want)
				}
			}
		}
	}
}
