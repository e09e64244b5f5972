// Package crs implements Cauchy Reed-Solomon coding (Blömer et al. 1995),
// the XOR-based horizontal code the EC-FRM paper surveys in §II-B: the
// GF(2^w) Cauchy generator is expanded into a GF(2) bit matrix, each element
// is split into w packets, and encoding becomes pure XOR of packets — no
// field multiplications on the data path. This mirrors Jerasure's
// cauchy_original coding path.
//
// CRS(k,m) is the same linear code as the matrix Reed-Solomon in
// internal/rs built from the same Cauchy block, so it is MDS and slots into
// EC-FRM as a candidate code; what changes is the encode/decode kernel
// (xor.go).
package crs

import (
	"fmt"

	"repro/internal/bitmatrix"
	"repro/internal/codes"
	"repro/internal/gf"
	"repro/internal/matrix"
)

// W is the GF(2^8) symbol width in bits. Elements are split into W packets;
// shard sizes must be multiples of W bytes.
const W = 8

// Code is a Cauchy Reed-Solomon code with parameters (k, m).
type Code struct {
	*codes.Base
	k, m int
	xc   *xorCode
}

// New constructs CRS(k,m).
func New(k, m int) (*Code, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("crs: invalid parameters k=%d m=%d", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("crs: k+m = %d exceeds field size 256", k+m)
	}
	gen := matrix.Identity(k).Stack(matrix.Cauchy(m, k))
	base, err := codes.NewBase(gen, m)
	if err != nil {
		return nil, err
	}
	return &Code{
		Base: base,
		k:    k, m: m,
		xc: newXORCode(expand(gen), W, k, m),
	}, nil
}

// Must constructs CRS(k,m) and panics on invalid parameters.
func Must(k, m int) *Code {
	c, err := New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns "CRS(k,m)".
func (c *Code) Name() string { return fmt.Sprintf("CRS(%d,%d)", c.k, c.m) }

// PositionalKernel reports false, overriding the embedded Base: CRS shards
// use the packet layout (W bit-plane sub-blocks per shard), so a parity byte
// mixes data bytes from different offsets and byte-range chunking of shards
// would corrupt the code.
func (c *Code) PositionalKernel() bool { return false }

// M returns the number of parity elements per row.
func (c *Code) M() int { return c.m }

// BitGenerator returns the binary generator matrix. Callers must not modify
// it.
func (c *Code) BitGenerator() *bitmatrix.Matrix { return c.xc.bitGen }

// XORCount returns the number of packet XORs one stripe encode performs —
// the cost metric CRS constructions optimize (set bits in the parity block
// beyond the first contribution of each output packet).
func (c *Code) XORCount() int { return c.xc.xorCount() }

// expand converts a GF(2^W) matrix into its binary equivalent: each field
// element a becomes the W×W companion block whose column j holds the bits of
// a·x^j, so block-vector products over GF(2) agree with field products.
func expand(m *matrix.Matrix) *bitmatrix.Matrix {
	out := bitmatrix.New(m.Rows()*W, m.Cols()*W)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			a := m.At(i, j)
			if a == 0 {
				continue
			}
			for col := 0; col < W; col++ {
				v := gf.Mul(a, gf.Exp(2, col)) // a·x^col
				for row := 0; row < W; row++ {
					if v>>uint(row)&1 == 1 {
						out.Set(i*W+row, j*W+col, true)
					}
				}
			}
		}
	}
	return out
}

// Encode computes parity shards using only XOR operations on packets. Shard
// sizes must be multiples of W bytes.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	return c.xc.encode(data)
}

// EncodeInto computes parity into caller-provided cells — the
// zero-allocation encode path. parity must hold m buffers of the data shard
// size; contents are overwritten.
func (c *Code) EncodeInto(parity, data [][]byte) error {
	return c.xc.encodeInto(parity, data)
}

// Reconstruct rebuilds every nil shard. CRS shards use the packet layout
// (W bit-plane sub-blocks per element), so decoding must go through the
// binary generator as well; this overrides the embedded field-arithmetic
// decoder with the XOR path.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.xc.reconstructXOR(shards)
}

// ReconstructInto overrides the promoted Base method: the embedded
// field-arithmetic decode would silently corrupt packet-layout shards, so
// the XOR path must win no matter which interface the caller reached us
// through. The allocator is unused — the XOR decode manages its own buffers.
func (c *Code) ReconstructInto(shards [][]byte, _ codes.Allocator) error {
	return c.xc.reconstructXOR(shards)
}

// ReconstructElementsInto overrides the promoted Base method for the same
// reason as ReconstructInto.
func (c *Code) ReconstructElementsInto(shards [][]byte, targets []int, _ codes.Allocator) error {
	return c.xc.reconstructElements(shards, targets)
}

// ReconstructElements rebuilds the targets (and, as a side effect of the
// XOR decode, any other recoverable nil shard). For an MDS code the targets
// are recoverable exactly when at least k survivors exist, so delegating to
// the full decode loses no generality.
func (c *Code) ReconstructElements(shards [][]byte, targets []int) error {
	return c.xc.reconstructElements(shards, targets)
}

// ReconstructXOR rebuilds every nil shard using the pure-XOR decode path:
// pick k surviving elements, invert their k·W×k·W binary sub-generator,
// recover the data packets, and re-encode the erased elements. It fails
// with codes.ErrUnrecoverable beyond m erasures.
func (c *Code) ReconstructXOR(shards [][]byte) error {
	return c.xc.reconstructXOR(shards)
}

// ApplyDelta folds an update of data element elem into the parity shards
// through the binary generator: each parity element's W×W block for elem is
// applied to the delta's packets and XORed in. Pure XOR, like the encode.
func (c *Code) ApplyDelta(parity [][]byte, elem int, delta []byte) error {
	return c.xc.applyDelta(parity, elem, delta)
}

// RecoverySets mirrors rs.Code: data-heavy sets first, then cyclic windows.
func (c *Code) RecoverySets(idx int) [][]int {
	return crsRecoverySets(c.k, c.m, idx)
}

var (
	_ codes.Code        = (*Code)(nil)
	_ codes.IntoEncoder = (*Code)(nil)
)
