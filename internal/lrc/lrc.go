// Package lrc implements the Azure-style Local Reconstruction Code candidate
// LRC(k,l,m): k data elements split into l equal local groups, each with one
// XOR local parity, plus m global parities over all data (the "LRC Code for
// Azure" candidate of the EC-FRM paper, §II-C, Equations 5-8).
//
// Element order within a row follows the paper's figures:
//
//	d_0 … d_{k-1}  l_0 … l_{l-1}  m_0 … m_{m-1}
//
// Global parity t (t = 0..m-1) assigns data element j the coefficient
// x_j^(t+1), where the x_j are distinct nonzero field points — exactly the
// a_i / b_i, a_i² / b_i² structure of the paper's Equations (7) and (8).
// The constructor tries a small family of point assignments and keeps the
// first whose claim of the Azure tolerance m+1 passes codes.NewBase's
// exhaustive audit, since a careless assignment can make a split erasure
// pattern such as {d0,d1,d3,d4} singular; if none passes, or the code is too
// wide for the audit to be exhaustive, it claims m.
package lrc

import (
	"fmt"

	"repro/internal/codes"
	"repro/internal/gf"
	"repro/internal/matrix"
)

// Code is an Azure-style LRC with parameters (k, l, m).
type Code struct {
	*codes.Base
	k, l, m   int
	groupSize int
	points    []byte // x_j for data element j
}

// New constructs LRC(k,l,m). l must divide k; k+l+m must fit the field.
func New(k, l, m int) (*Code, error) {
	if k < 1 || l < 1 || m < 1 {
		return nil, fmt.Errorf("lrc: invalid parameters k=%d l=%d m=%d", k, l, m)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("lrc: l=%d must divide k=%d", l, k)
	}
	if k+l+m > 256 {
		return nil, fmt.Errorf("lrc: k+l+m = %d exceeds field size 256", k+l+m)
	}
	// Try a handful of point assignments: x_j = g^(j·stride + 1). Distinct
	// strides change which cross-group sums coincide; keep the first that
	// reaches the Azure guarantee m+1 (no assignment does better). Claim m+1
	// only where NewBase's audit enumerates every pattern: in wide groups
	// some patterns are singular for every stride (with m ≥ 3, four lost
	// data elements of one group whose points sum to zero, plus one global),
	// too few for a sample to find.
	provable := codes.AuditEnumerates(k+l+m, m+1)
	var first []byte
	for _, stride := range []int{1, 2, 3, 5, 7, 11} {
		if (k*stride)%255 == 0 && k > 1 {
			continue // points would repeat
		}
		points := make([]byte, k)
		seen := make(map[byte]bool, k)
		ok := true
		for j := range points {
			points[j] = gf.Generator(j*stride + 1)
			if points[j] == 0 || seen[points[j]] {
				ok = false
				break
			}
			seen[points[j]] = true
		}
		if !ok {
			continue
		}
		if first == nil {
			first = points
		}
		if !provable {
			break
		}
		if c, err := build(k, l, m, points, m+1); err == nil {
			return c, nil
		}
	}
	if first == nil {
		return nil, fmt.Errorf("lrc: no valid point assignment for (%d,%d,%d)", k, l, m)
	}
	return build(k, l, m, first, m)
}

// build assembles LRC(k,l,m) over the given points, claiming tolerance ft.
func build(k, l, m int, points []byte, ft int) (*Code, error) {
	n := k + l + m
	gen := matrix.New(n, k)
	for j := 0; j < k; j++ {
		gen.Set(j, j, 1) // systematic
	}
	groupSize := k / l
	for g := 0; g < l; g++ {
		for j := g * groupSize; j < (g+1)*groupSize; j++ {
			gen.Set(k+g, j, 1) // local parity: XOR of its group
		}
	}
	for t := 0; t < m; t++ {
		for j := 0; j < k; j++ {
			gen.Set(k+l+t, j, gf.Exp(points[j], t+1))
		}
	}
	base, err := codes.NewBase(gen, ft)
	if err != nil {
		return nil, fmt.Errorf("lrc: (%d,%d,%d): %w", k, l, m, err)
	}
	return &Code{
		Base: base,
		k:    k, l: l, m: m,
		groupSize: groupSize,
		points:    points,
	}, nil
}

// Must constructs LRC(k,l,m) and panics on invalid parameters.
func Must(k, l, m int) *Code {
	c, err := New(k, l, m)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns "LRC(k,l,m)".
func (c *Code) Name() string { return fmt.Sprintf("LRC(%d,%d,%d)", c.k, c.l, c.m) }

// GroupSize returns k/l, the number of data elements per local group.
func (c *Code) GroupSize() int { return c.groupSize }

// LocalGroup returns the index of the local group that element idx belongs
// to, or -1 for global parities (which belong to no local group).
func (c *Code) LocalGroup(idx int) int {
	switch {
	case idx < 0 || idx >= c.N():
		panic(fmt.Sprintf("lrc: element %d out of [0,%d)", idx, c.N()))
	case idx < c.k:
		return idx / c.groupSize
	case idx < c.k+c.l:
		return idx - c.k
	default:
		return -1
	}
}

// RecoverySets returns candidate read sets for element idx when it is the
// only erasure, cheapest first:
//
//   - data element: its local group's other data + local parity (k/l reads),
//     then one global alternative (all other data + one global parity);
//   - local parity: its group's data (k/l reads), then a global alternative;
//   - global parity: all k data elements (the only minimal option), with the
//     remaining global parities offering no cheaper route.
//
// The local-first ordering is what gives LRC its degraded-read I/O savings
// (paper §II-C); the global alternates let the planner dodge hot disks.
func (c *Code) RecoverySets(idx int) [][]int {
	k, l, m, groupSize := c.k, c.l, c.m, c.groupSize
	if n := c.N(); idx < 0 || idx >= n {
		panic(fmt.Sprintf("lrc: element %d out of [0,%d)", idx, n))
	}
	allData := func(except int) []int {
		s := make([]int, 0, k)
		for j := 0; j < k; j++ {
			if j != except {
				s = append(s, j)
			}
		}
		return s
	}
	var sets [][]int
	switch {
	case idx < k: // data element
		g := idx / groupSize
		local := make([]int, 0, groupSize)
		for j := g * groupSize; j < (g+1)*groupSize; j++ {
			if j != idx {
				local = append(local, j)
			}
		}
		local = append(local, k+g)
		sets = append(sets, local)
		for t := 0; t < m; t++ {
			sets = append(sets, append(allData(idx), k+l+t))
		}
	case idx < k+l: // local parity
		g := idx - k
		local := make([]int, 0, groupSize)
		for j := g * groupSize; j < (g+1)*groupSize; j++ {
			local = append(local, j)
		}
		sets = append(sets, local)
	default: // global parity
		sets = append(sets, allData(-1))
	}
	return sets
}

var _ codes.Code = (*Code)(nil)
