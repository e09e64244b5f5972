// Bulk slice kernels over GF(2^8) — the loops erasure coding actually spends
// its time in.
//
// Three implementations coexist, selected per call by slice length and CPU:
//
//   - The *SIMD* kernels (amd64 with SSSE3/AVX2, see kernels_amd64.go) use
//     split low/high-nibble product tables (16+16 byte entries per
//     coefficient, mulLo/mulHi) and a vector byte shuffle: one PSHUFB per
//     nibble table yields 16 or 32 product bytes per instruction pair. This
//     is the classic table-shuffle trick production erasure coders use and
//     the fastest path by a wide margin.
//
//   - The *word-parallel* kernels process 8 bytes per step in portable Go.
//     The add path is a plain uint64 XOR. The multiply path indexes
//     per-coefficient position-shifted product tables ([4][256]uint32, 4 KiB
//     per coefficient, see mulTable32): byte j of a word is looked up in
//     table j mod 4 and the entry already carries the product shifted to
//     byte j's position, so a word of products is assembled with XORs alone.
//     The dot-product kernel additionally fuses *pairs* of sources per pass,
//     which halves destination traffic while keeping the table working set
//     at 8 KiB, comfortably inside L1.
//
//   - The *byte-wise reference* kernels (…Ref) are the original
//     table-row-per-coefficient loops. They remain the source of truth: the
//     faster kernels fall back to them for short slices and tail bytes, and
//     the property/fuzz tests cross-check every kernel against them.
//
// All kernels are allocation-free and safe for concurrent use; the tables are
// computed once at package init and never mutated afterwards.
package gf

import (
	"encoding/binary"
	"fmt"
)

// wordMin is the slice length below which the word-parallel kernels hand the
// whole slice to the byte-wise reference: under two words the setup overhead
// outweighs the win.
const wordMin = 16

// simdMin is the slice length below which the SIMD kernels are not worth the
// vector setup; such slices take the word-parallel path instead.
const simdMin = 64

// mulLo[c][v] = c·v and mulHi[c][v] = c·(v<<4) for v in 0..15: split
// low/high-nibble product tables. Since b = hi<<4 ^ lo, the product of any
// byte is mulLo[c][b&15] ^ mulHi[c][b>>4] — two 16-entry lookups that a
// vector byte shuffle performs for a whole register at once. 16+16 bytes per
// coefficient, 8 KiB total, built at init.
var (
	mulLo [256][16]byte
	mulHi [256][16]byte
)

// mulTable32[c][p][b] = uint32(c·b) << (8·p) for p in 0..3. A word's 8
// product bytes are gathered as two uint32 halves (4 lookups each) and glued
// with one shift+or; entries are pre-shifted, so no per-byte shifting remains
// in the hot loop. 4 KiB per coefficient, 1 MiB total, built at init.
var mulTable32 [256][4][256]uint32

func init() {
	// Go runs same-package init functions in file-name order, so gf.go's init
	// has already filled mulTable when this derives mulTable32 from it.
	for c := 0; c < 256; c++ {
		row := &mulTable[c]
		t := &mulTable32[c]
		for b := 0; b < 256; b++ {
			v := uint32(row[b])
			t[0][b] = v
			t[1][b] = v << 8
			t[2][b] = v << 16
			t[3][b] = v << 24
		}
		for v := 0; v < 16; v++ {
			mulLo[c][v] = row[v]
			mulHi[c][v] = row[v<<4]
		}
	}
}

// SIMDEnabled reports whether the public kernels route long slices to the
// vector (SIMD) implementation on this CPU; otherwise the portable
// word-parallel path is the fast path.
func SIMDEnabled() bool { return simdEnabled }

// AddSlice sets dst[i] ^= src[i] for all i. dst and src must have equal
// length; it panics otherwise.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: AddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	n := len(dst) &^ 31
	for i := 0; i+32 <= n; i += 32 {
		s := src[i : i+32 : i+32]
		d := dst[i : i+32 : i+32]
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(d[0:])^binary.LittleEndian.Uint64(s[0:]))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(d[16:])^binary.LittleEndian.Uint64(s[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(d[24:])^binary.LittleEndian.Uint64(s[24:]))
	}
	for i := n; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
		n = i + 8
	}
	AddSliceRef(dst[n:], src[n:])
}

// AddSliceRef is the byte-wise reference implementation of AddSlice, kept for
// tails and for cross-checking the word kernel.
func AddSliceRef(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: AddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// MulSlice sets dst[i] = c * src[i]. dst and src must have equal length.
// c == 0 zeroes dst; c == 1 copies. dst may alias src.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		if len(src) < wordMin {
			MulSliceRef(c, dst, src)
			return
		}
		if simdEnabled && len(src) >= simdMin {
			mulSliceSIMD(c, dst, src)
			return
		}
		mulSliceWord(c, dst, src)
	}
}

// mulSliceWord is the word-parallel multiply body: c must be ≥ 2 and
// len(dst) ≥ wordMin (callers dispatch).
func mulSliceWord(c byte, dst, src []byte) {
	t := &mulTable32[c]
	n := len(src) &^ 15
	for i := 0; i+16 <= n; i += 16 {
		s := src[i : i+16 : i+16]
		lo1 := t[0][s[0]] ^ t[1][s[1]] ^ t[2][s[2]] ^ t[3][s[3]]
		hi1 := t[0][s[4]] ^ t[1][s[5]] ^ t[2][s[6]] ^ t[3][s[7]]
		lo2 := t[0][s[8]] ^ t[1][s[9]] ^ t[2][s[10]] ^ t[3][s[11]]
		hi2 := t[0][s[12]] ^ t[1][s[13]] ^ t[2][s[14]] ^ t[3][s[15]]
		binary.LittleEndian.PutUint64(dst[i:], uint64(lo1)|uint64(hi1)<<32)
		binary.LittleEndian.PutUint64(dst[i+8:], uint64(lo2)|uint64(hi2)<<32)
	}
	MulSliceRef(c, dst[n:], src[n:])
}

// MulSliceRef is the byte-wise reference implementation of MulSlice.
func MulSliceRef(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		row := &mulTable[c]
		for i, s := range src {
			dst[i] = row[s]
		}
	}
}

// MulAddSlice sets dst[i] ^= c * src[i]. dst and src must have equal length.
// This is the inner kernel of matrix-vector encoding.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		// no-op
	case 1:
		AddSlice(dst, src)
	default:
		if len(src) < wordMin {
			MulAddSliceRef(c, dst, src)
			return
		}
		if simdEnabled && len(src) >= simdMin {
			mulAddSliceSIMD(c, dst, src)
			return
		}
		mulAddSliceWord(c, dst, src)
	}
}

// mulAddSliceWord is the word-parallel multiply-accumulate body: c must be
// ≥ 2 and len(dst) ≥ wordMin (callers dispatch).
func mulAddSliceWord(c byte, dst, src []byte) {
	t := &mulTable32[c]
	n := len(src) &^ 15
	for i := 0; i+16 <= n; i += 16 {
		s := src[i : i+16 : i+16]
		lo1 := t[0][s[0]] ^ t[1][s[1]] ^ t[2][s[2]] ^ t[3][s[3]]
		hi1 := t[0][s[4]] ^ t[1][s[5]] ^ t[2][s[6]] ^ t[3][s[7]]
		lo2 := t[0][s[8]] ^ t[1][s[9]] ^ t[2][s[10]] ^ t[3][s[11]]
		hi2 := t[0][s[12]] ^ t[1][s[13]] ^ t[2][s[14]] ^ t[3][s[15]]
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^(uint64(lo1)|uint64(hi1)<<32))
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^(uint64(lo2)|uint64(hi2)<<32))
	}
	MulAddSliceRef(c, dst[n:], src[n:])
}

// MulAddSliceRef is the byte-wise reference implementation of MulAddSlice.
func MulAddSliceRef(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		// no-op
	case 1:
		for i := range dst {
			dst[i] ^= src[i]
		}
	default:
		row := &mulTable[c]
		for i, s := range src {
			dst[i] ^= row[s]
		}
	}
}

// mulAdd2 computes dst = c1·a ^ c2·b when overwrite is true, or
// dst ^= c1·a ^ c2·b otherwise, one pass over memory for both sources. The
// two 4 KiB product tables together stay L1-resident, and fusing the pair
// halves the destination read/write traffic of two MulAddSlice passes —
// what keeps the portable dot product ahead of the byte-wise reference.
// All slices must share one length (callers validate).
func mulAdd2(c1, c2 byte, dst, a, b []byte, overwrite bool) {
	t1 := &mulTable32[c1]
	t2 := &mulTable32[c2]
	n := len(dst) &^ 7
	for i := 0; i+8 <= n; i += 8 {
		s1 := a[i : i+8 : i+8]
		s2 := b[i : i+8 : i+8]
		lo := t1[0][s1[0]] ^ t1[1][s1[1]] ^ t1[2][s1[2]] ^ t1[3][s1[3]] ^
			t2[0][s2[0]] ^ t2[1][s2[1]] ^ t2[2][s2[2]] ^ t2[3][s2[3]]
		hi := t1[0][s1[4]] ^ t1[1][s1[5]] ^ t1[2][s1[6]] ^ t1[3][s1[7]] ^
			t2[0][s2[4]] ^ t2[1][s2[5]] ^ t2[2][s2[6]] ^ t2[3][s2[7]]
		r := uint64(lo) | uint64(hi)<<32
		if overwrite {
			binary.LittleEndian.PutUint64(dst[i:], r)
		} else {
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^r)
		}
	}
	r1 := &mulTable[c1]
	r2 := &mulTable[c2]
	for i := n; i < len(dst); i++ {
		v := r1[a[i]] ^ r2[b[i]]
		if overwrite {
			dst[i] = v
		} else {
			dst[i] ^= v
		}
	}
}

// DotSlice computes the dot product sum_i coeffs[i]*vecs[i] into dst,
// overwriting dst. All vecs must have at least len(dst) bytes; len(coeffs)
// must equal len(vecs). dst must not alias any vec except vecs[0].
//
// The first pass overwrites dst (no zeroing pass), later passes accumulate.
// This is the multiply-accumulate kernel behind matrix encoding and erasure
// decoding.
func DotSlice(dst []byte, coeffs []byte, vecs [][]byte) {
	if len(coeffs) != len(vecs) {
		panic(fmt.Sprintf("gf: DotSlice arity mismatch %d != %d", len(coeffs), len(vecs)))
	}
	for j, v := range vecs {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("gf: DotSlice vec %d has %d bytes, want %d", j, len(v), len(dst)))
		}
	}
	if len(coeffs) == 0 {
		clear(dst)
		return
	}
	if len(dst) < wordMin {
		DotSliceRef(dst, coeffs, vecs)
		return
	}
	if simdEnabled && len(dst) >= simdMin {
		// One vector multiply pass per source: at SIMD speeds the extra
		// destination traffic of unfused passes is cheaper than falling back
		// to the scalar pairwise kernel.
		MulSlice(coeffs[0], dst, vecs[0])
		for j := 1; j < len(coeffs); j++ {
			MulAddSlice(coeffs[j], dst, vecs[j])
		}
		return
	}
	dotSliceWord(dst, coeffs, vecs)
}

// dotSliceWord is the portable dot-product body: sources are consumed in
// fused pairs (see mulAdd2), the first pass overwriting dst. len(coeffs) must
// be ≥ 1 and len(dst) ≥ wordMin (callers dispatch).
func dotSliceWord(dst []byte, coeffs []byte, vecs [][]byte) {
	j := 0
	overwrite := true
	for ; j+2 <= len(coeffs); j += 2 {
		mulAdd2(coeffs[j], coeffs[j+1], dst, vecs[j], vecs[j+1], overwrite)
		overwrite = false
	}
	if j < len(coeffs) {
		if overwrite {
			mulSliceDispatchWord(coeffs[j], dst, vecs[j])
		} else {
			mulAddSliceDispatchWord(coeffs[j], dst, vecs[j])
		}
	}
}

// mulSliceDispatchWord handles the 0/1 fast paths then the word body —
// MulSlice without the SIMD branch, so dotSliceWord stays a pure word-path
// kernel for tests and non-SIMD builds.
func mulSliceDispatchWord(c byte, dst, src []byte) {
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		mulSliceWord(c, dst, src)
	}
}

func mulAddSliceDispatchWord(c byte, dst, src []byte) {
	switch c {
	case 0:
	case 1:
		AddSlice(dst, src)
	default:
		mulAddSliceWord(c, dst, src)
	}
}

// DotSliceRef is the byte-wise reference implementation of DotSlice: zero the
// destination, then one reference multiply-accumulate pass per source.
func DotSliceRef(dst []byte, coeffs []byte, vecs [][]byte) {
	if len(coeffs) != len(vecs) {
		panic(fmt.Sprintf("gf: DotSlice arity mismatch %d != %d", len(coeffs), len(vecs)))
	}
	clear(dst)
	for j, c := range coeffs {
		MulAddSliceRef(c, dst, vecs[j])
	}
}
