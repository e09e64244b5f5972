package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// testLengths exercises the empty case, sub-word slices, exact word/stride
// multiples, and odd tails around every unroll boundary in the kernels.
var testLengths = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 1000}

// unaligned returns a slice of length n whose backing data starts at the
// given byte offset from an allocation boundary, so kernels are exercised on
// pointers with every alignment mod 8.
func unaligned(rng *rand.Rand, n, off int) []byte {
	b := make([]byte, n+off)
	rng.Read(b)
	return b[off : off+n]
}

func TestAddSliceMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		for off := 0; off < 8; off++ {
			src := unaligned(rng, n, off)
			dst := unaligned(rng, n, (off+3)%8)
			want := append([]byte(nil), dst...)
			AddSliceRef(want, src)
			AddSlice(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("AddSlice n=%d off=%d: mismatch", n, off)
			}
		}
	}
}

func TestMulKernelsAllCoefficientsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, 7, 15, 16, 17, 31, 33, 63, 64, 65, 100, 512, 1023}
	for c := 0; c < 256; c++ {
		for _, n := range lengths {
			off := (c + n) % 8
			src := unaligned(rng, n, off)

			dst := unaligned(rng, n, (off+1)%8)
			want := append([]byte(nil), dst...)
			MulSliceRef(byte(c), want, src)
			MulSlice(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSlice c=%d n=%d: mismatch", c, n)
			}

			dst = unaligned(rng, n, (off+2)%8)
			want = append([]byte(nil), dst...)
			MulAddSliceRef(byte(c), want, src)
			MulAddSlice(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulAddSlice c=%d n=%d: mismatch", c, n)
			}
		}
	}
}

// TestWordKernelsAllCoefficientsMatchRef pins the portable word-parallel
// bodies directly: on SIMD-capable hosts the public kernels route long slices
// to the vector path, so without this the word loops would only ever see
// short inputs.
func TestWordKernelsAllCoefficientsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lengths := []int{16, 17, 31, 32, 33, 64, 100, 257, 1000}
	for c := 2; c < 256; c++ {
		for _, n := range lengths {
			off := (c + n) % 8
			src := unaligned(rng, n, off)

			dst := unaligned(rng, n, (off+1)%8)
			want := append([]byte(nil), dst...)
			MulSliceRef(byte(c), want, src)
			mulSliceWord(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("mulSliceWord c=%d n=%d: mismatch", c, n)
			}

			dst = unaligned(rng, n, (off+2)%8)
			want = append([]byte(nil), dst...)
			MulAddSliceRef(byte(c), want, src)
			mulAddSliceWord(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("mulAddSliceWord c=%d n=%d: mismatch", c, n)
			}
		}
	}
}

// TestDotSliceWordMatchesRef pins the pairwise-fused word dot product
// (dotSliceWord and mulAdd2) on long slices for the same reason.
func TestDotSliceWordMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 12} {
		for _, n := range []int{16, 17, 64, 100, 1000} {
			coeffs := make([]byte, k)
			vecs := make([][]byte, k)
			for j := 0; j < k; j++ {
				coeffs[j] = byte(rng.Intn(256))
				vecs[j] = unaligned(rng, n, (j+n)%8)
			}
			if k > 1 {
				coeffs[0] = 0
			}
			if k > 2 {
				coeffs[1] = 1
			}
			dst := unaligned(rng, n, 3)
			want := make([]byte, n)
			DotSliceRef(want, coeffs, vecs)
			dotSliceWord(dst, coeffs, vecs)
			if !bytes.Equal(dst, want) {
				t.Fatalf("dotSliceWord k=%d n=%d: mismatch", k, n)
			}
		}
	}
}

func TestMulSliceInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for c := 0; c < 256; c++ {
		s := unaligned(rng, 257, c%8)
		want := make([]byte, len(s))
		MulSliceRef(byte(c), want, s)
		MulSlice(byte(c), s, s)
		if !bytes.Equal(s, want) {
			t.Fatalf("in-place MulSlice c=%d: mismatch", c)
		}
	}
}

// TestDotSliceMatchesRef covers every arity the pairwise-fused kernel
// branches on: 0 sources, odd/even counts (lone trailing source with and
// without a preceding fused pair), across odd lengths and offsets.
func TestDotSliceMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 12} {
		for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 100, 1000} {
			coeffs := make([]byte, k)
			vecs := make([][]byte, k)
			for j := 0; j < k; j++ {
				coeffs[j] = byte(rng.Intn(256))
				vecs[j] = unaligned(rng, n, (j+n)%8)
			}
			// Include zero and one coefficients, which take special paths.
			if k > 1 {
				coeffs[0] = 0
			}
			if k > 2 {
				coeffs[1] = 1
			}
			dst := unaligned(rng, n, 3)
			want := make([]byte, n)
			DotSliceRef(want, coeffs, vecs)
			DotSlice(dst, coeffs, vecs)
			if !bytes.Equal(dst, want) {
				t.Fatalf("DotSlice k=%d n=%d: mismatch", k, n)
			}
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on length mismatch", name)
			}
		}()
		fn()
	}
	a, b := make([]byte, 4), make([]byte, 5)
	expectPanic("AddSlice", func() { AddSlice(a, b) })
	expectPanic("MulSlice", func() { MulSlice(3, a, b) })
	expectPanic("MulAddSlice", func() { MulAddSlice(3, a, b) })
	expectPanic("DotSlice arity", func() { DotSlice(a, []byte{1, 2}, [][]byte{a}) })
	expectPanic("DotSlice vec len", func() { DotSlice(a, []byte{1}, [][]byte{b}) })
}

// FuzzKernelEquivalence cross-checks the fast kernels — whichever path the
// public dispatchers pick (SIMD or word-parallel) plus the word bodies
// directly — against the byte-wise reference on fuzzer-chosen coefficients,
// lengths, and offsets.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(7), uint8(3), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(0), uint8(1), uint8(0), []byte{})
	f.Add(uint8(255), uint8(142), uint8(7), bytes.Repeat([]byte{0xa5}, 65))
	f.Fuzz(func(t *testing.T, c1, c2, off uint8, data []byte) {
		start := int(off % 8)
		if start > len(data) {
			start = len(data)
		}
		src := data[start:]
		n := len(src)

		dst := make([]byte, n)
		want := make([]byte, n)

		MulSlice(c1, dst, src)
		MulSliceRef(c1, want, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSlice c=%d n=%d: %x != %x", c1, n, dst, want)
		}

		copy(dst, src)
		copy(want, src)
		MulAddSlice(c2, dst, src)
		MulAddSliceRef(c2, want, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulAddSlice c=%d n=%d: %x != %x", c2, n, dst, want)
		}

		// The portable word bodies, which long slices otherwise bypass on
		// SIMD-capable hosts.
		if n >= wordMin && c1 >= 2 {
			wdst := make([]byte, n)
			wwant := make([]byte, n)
			mulSliceWord(c1, wdst, src)
			MulSliceRef(c1, wwant, src)
			if !bytes.Equal(wdst, wwant) {
				t.Fatalf("mulSliceWord c=%d n=%d: %x != %x", c1, n, wdst, wwant)
			}
			mulAddSliceWord(c1, wdst, src)
			MulAddSliceRef(c1, wwant, src)
			if !bytes.Equal(wdst, wwant) {
				t.Fatalf("mulAddSliceWord c=%d n=%d: %x != %x", c1, n, wdst, wwant)
			}
		}

		AddSlice(dst, src)
		AddSliceRef(want, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("AddSlice n=%d: %x != %x", n, dst, want)
		}

		// Dot product over three sources derived from the input, covering the
		// fused-pair path plus the lone trailing source.
		v2 := make([]byte, n)
		MulSlice(0x1d, v2, src)
		v3 := make([]byte, n)
		MulSlice(c2, v3, src)
		coeffs := []byte{c1, c2, c1 ^ c2}
		vecs := [][]byte{src, v2, v3}
		DotSlice(dst, coeffs, vecs)
		DotSliceRef(want, coeffs, vecs)
		if !bytes.Equal(dst, want) {
			t.Fatalf("DotSlice n=%d: %x != %x", n, dst, want)
		}
	})
}
