// Package rs implements the systematic Reed-Solomon candidate code RS(k,m):
// k data elements and m parity elements per row, tolerating any m erasures
// (MDS). This is the "Reed-Solomon Code for Google" candidate of the EC-FRM
// paper (§II-C), equivalent in behaviour to Jerasure's Vandermonde RS.
//
// The generator is built from a Cauchy block, whose every square submatrix
// is invertible, so the MDS property holds by construction for any (k,m)
// with k+m ≤ 256: New claims tolerance m, and codes.NewBase audits it.
package rs

import (
	"fmt"

	"repro/internal/codes"
	"repro/internal/matrix"
)

// Code is a systematic Reed-Solomon code with parameters (k, m).
type Code struct {
	*codes.Base
	k, m int
}

// New constructs RS(k,m). It returns an error when the parameters are out of
// the field's range or degenerate.
func New(k, m int) (*Code, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("rs: invalid parameters k=%d m=%d", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("rs: k+m = %d exceeds field size 256", k+m)
	}
	base, err := codes.NewBase(matrix.Identity(k).Stack(matrix.Cauchy(m, k)), m)
	if err != nil {
		return nil, err
	}
	return &Code{Base: base, k: k, m: m}, nil
}

// Name returns "RS(k,m)".
func (c *Code) Name() string { return fmt.Sprintf("RS(%d,%d)", c.k, c.m) }

// M returns the number of parity elements per row.
func (c *Code) M() int { return c.m }

// RecoverySets returns candidate read sets for rebuilding element idx when
// it is the only erasure. Every k-subset of the other n-1 elements works for
// an MDS code; enumerating all of them is exponential, so two linear
// families are offered:
//
//   - data-heavy sets: the other data elements plus one parity (one set per
//     parity; for a lost parity, just the k data elements). These maximize
//     overlap with a sequential read's direct accesses, so rebuilding costs
//     almost no extra I/O — the choice that keeps degraded read cost nearly
//     layout-independent (paper §VI-C, Figure 9a).
//   - cyclic windows: the k survivors following idx at stride 1 from offset
//     t. These give the planner genuinely different disk footprints to
//     balance load across.
func (c *Code) RecoverySets(idx int) [][]int {
	n, k := c.N(), c.k
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("rs: element %d out of [0,%d)", idx, n))
	}
	// Every set holds k elements; one array backs them all.
	sets, flat := make([][]int, 0, 2*(n-k)), make([]int, 0, 2*(n-k)*k)
	next := func() { sets = append(sets, flat[len(flat)-k:len(flat):len(flat)]) }
	if idx < k {
		// Lost data: other k-1 data + each parity in turn.
		for p := k; p < n; p++ {
			for j := 0; j < k; j++ {
				if j != idx {
					flat = append(flat, j)
				}
			}
			flat = append(flat, p)
			next()
		}
	} else {
		// Lost parity: recompute from the k data elements.
		for j := 0; j < k; j++ {
			flat = append(flat, j)
		}
		next()
	}
	for t := 0; t < n-k; t++ {
		for j := 0; j < k; j++ {
			flat = append(flat, (idx+1+t+j)%n)
		}
		next()
	}
	return sets
}

var _ codes.Code = (*Code)(nil)
