// Package core implements the EC-FRM framework itself: it combines a
// candidate code (internal/codes) with a stripe layout (internal/layout)
// into an operational erasure-coding scheme that can encode stripes, rebuild
// lost cells, and plan normal and degraded reads with per-disk load
// accounting.
//
// This is the paper's primary contribution (§IV): the framework is the
// machinery that rewires where a candidate code's elements live — Step-1
// (identify groups) is the layout, Step-2 (construct over each group) is the
// per-group application of the candidate code done here. Read planning lives
// in plan.go.
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/codes"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// ErrBadRequest flags an invalid read request or stripe input.
var ErrBadRequest = errors.New("core: bad request")

// ErrUnrecoverable flags a failure pattern the scheme cannot decode.
var ErrUnrecoverable = errors.New("core: unrecoverable failure pattern")

// Scheme is a candidate code deployed under a particular layout. The paper's
// nomenclature maps as:
//
//	code=RS,  layout=standard → "RS"
//	code=RS,  layout=rotated  → "R-RS"
//	code=RS,  layout=ecfrm    → "EC-FRM-RS"
//	code=LRC, layout=standard → "LRC", etc.
type Scheme struct {
	code codes.Code
	lay  layout.Layout
	// firstData is, per group, the lowest sequential index of its data
	// elements: a stripe filled below it leaves the group all padding.
	firstData []int
}

// NewScheme deploys code under the given layout form.
func NewScheme(code codes.Code, form layout.Form) (*Scheme, error) {
	lay, err := layout.New(form, code.N(), code.K())
	if err != nil {
		return nil, err
	}
	first := make([]int, lay.Groups())
	for g := range first {
		first[g] = lay.DataPerStripe()
	}
	for e := 0; e < lay.DataPerStripe(); e++ {
		g := lay.CellAt(lay.DataPos(e)).Group
		first[g] = min(first[g], e)
	}
	return &Scheme{code: code, lay: lay, firstData: first}, nil
}

// MustScheme is NewScheme for known-good forms; it panics on error.
func MustScheme(code codes.Code, form layout.Form) *Scheme {
	s, err := NewScheme(code, form)
	if err != nil {
		panic(err)
	}
	return s
}

// SchemeFor builds the scheme the command-line flags name: code "rs" (k
// data, m parity elements per row) or "lrc" (k data, l local and m global
// parities), deployed under form. ecfrm and ecfrmd both build through it, so
// a data directory either writes the other opens under the same geometry.
func SchemeFor(code string, k, l, m int, form string) (*Scheme, error) {
	var c codes.Code
	var err error
	switch strings.ToLower(code) {
	case "rs":
		c, err = rs.New(k, m)
	case "lrc":
		c, err = lrc.New(k, l, m)
	default:
		return nil, fmt.Errorf("unknown code %q (want rs or lrc)", code)
	}
	if err != nil {
		return nil, err
	}
	return NewScheme(c, layout.Form(form))
}

// Name combines layout form and code name, e.g. "EC-FRM-RS(6,3)".
func (s *Scheme) Name() string {
	switch s.lay.Name() {
	case "standard":
		return s.code.Name()
	case "rotated":
		return "R-" + s.code.Name()
	case "ecfrm":
		return "EC-FRM-" + s.code.Name()
	default:
		return s.lay.Name() + "-" + s.code.Name()
	}
}

// Layout returns the stripe layout.
func (s *Scheme) Layout() layout.Layout { return s.lay }

// N returns the number of disks a stripe spans.
func (s *Scheme) N() int { return s.lay.N() }

// DataPerStripe returns the number of data elements per stripe.
func (s *Scheme) DataPerStripe() int { return s.lay.DataPerStripe() }

// CellsPerStripe returns the total number of cells (data+parity) per stripe.
func (s *Scheme) CellsPerStripe() int { return s.lay.Rows() * s.lay.N() }

// FaultTolerance returns the number of arbitrary concurrent disk failures
// the scheme survives — identical to the candidate code's tolerance (§IV-C):
// every disk holds at most one element of each group, so f disk failures
// erase at most f elements per group.
func (s *Scheme) FaultTolerance() int { return s.code.FaultTolerance() }

// StorageOverhead returns total cells divided by data cells — identical to
// the candidate code's n/k (§V-B).
func (s *Scheme) StorageOverhead() float64 {
	return float64(s.CellsPerStripe()) / float64(s.DataPerStripe())
}

// cellIndex flattens a stripe position into the cell slice index.
func (s *Scheme) cellIndex(p layout.Pos) int { return p.Row*s.lay.N() + p.Col }

// EncodeStripe computes a full stripe from its data elements. data must hold
// DataPerStripe() equally sized shards in sequential (user byte) order. The
// result has CellsPerStripe() cells indexed row-major; data shards are
// aliased, parity shards freshly allocated.
func (s *Scheme) EncodeStripe(data [][]byte) ([][]byte, error) {
	dps := s.DataPerStripe()
	if len(data) != dps {
		return nil, fmt.Errorf("%w: got %d data shards, want %d", ErrBadRequest, len(data), dps)
	}
	cells := make([][]byte, s.CellsPerStripe())
	for e, d := range data {
		cells[s.cellIndex(s.lay.DataPos(e))] = d
	}
	k, n := s.code.K(), s.code.N()
	groupData := make([][]byte, k)
	for g := 0; g < s.lay.Groups(); g++ {
		for t := 0; t < k; t++ {
			groupData[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
		}
		parity, err := s.code.Encode(groupData)
		if err != nil {
			return nil, err
		}
		for t := k; t < n; t++ {
			cells[s.cellIndex(s.lay.GroupCell(g, t))] = parity[t-k]
		}
	}
	return cells, nil
}

// EncodeStripeInto computes a full stripe into the caller-provided cells
// slice — the zero-allocation encode path. cells must have CellsPerStripe()
// slots; data shards are aliased into their cells, and each parity cell is
// either reused (when the slot already holds a buffer of the right size) or
// drawn from bufs. Together with a warm Buffers arena this performs no heap
// allocations in steady state.
func (s *Scheme) EncodeStripeInto(bufs *Buffers, cells [][]byte, data [][]byte) error {
	return s.EncodeFilledInto(bufs, cells, data, s.DataPerStripe())
}

// EncodeFilledInto is EncodeStripeInto for a stripe whose data elements from
// fill on are zero padding: a group holding none of the first fill elements
// is not encoded — its parity is zero (ZeroCells) — and its parity cells are
// left as they were.
func (s *Scheme) EncodeFilledInto(bufs *Buffers, cells [][]byte, data [][]byte, fill int) error {
	dps := s.DataPerStripe()
	if len(data) != dps {
		return fmt.Errorf("%w: got %d data shards, want %d", ErrBadRequest, len(data), dps)
	}
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	if dps == 0 {
		return nil
	}
	size := len(data[0])
	for e, d := range data {
		cells[s.cellIndex(s.lay.DataPos(e))] = d
	}
	k, n := s.code.K(), s.code.N()
	sc := getStripeScratch(n, k)
	defer putStripeScratch(sc)
	for g := 0; g < s.lay.Groups(); g++ {
		if s.firstData[g] >= fill {
			continue
		}
		for t := 0; t < k; t++ {
			sc.groupData[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
		}
		for t := k; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if len(cells[idx]) != size {
				cells[idx] = bufs.GetShard(size)
			}
			sc.parity[t-k] = cells[idx]
		}
		if err := s.code.EncodeInto(sc.parity, sc.groupData); err != nil {
			return err
		}
	}
	return nil
}

// ZeroCells reports which cells of a stripe whose data elements from fill on
// are zero padding are zero by construction, indexed like EncodeStripe's
// cells: the padding data cells, and every parity cell whose generator row
// reads only padding — each parity of a group holding no user data, and an
// LRC local parity over an all-padding local group. It is read from the
// generator, never from bytes.
func (s *Scheme) ZeroCells(fill int) []bool {
	zero := make([]bool, s.CellsPerStripe())
	for e := max(fill, 0); e < s.DataPerStripe(); e++ {
		zero[s.cellIndex(s.lay.DataPos(e))] = true
	}
	gen := s.code.Generator()
	k, n := s.code.K(), s.code.N()
	for g := 0; g < s.lay.Groups(); g++ {
		for t := k; t < n; t++ {
			z := true
			for j := 0; j < k && z; j++ {
				z = gen.At(t, j) == 0 || zero[s.cellIndex(s.lay.GroupCell(g, j))]
			}
			zero[s.cellIndex(s.lay.GroupCell(g, t))] = z
		}
	}
	return zero
}

// ReconstructStripe rebuilds every nil cell of a stripe in place, group by
// group (the paper's §IV-D three-step reconstruction). It fails with
// ErrUnrecoverable if any group's erasure pattern is undecodable.
func (s *Scheme) ReconstructStripe(cells [][]byte) error {
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	n := s.code.N()
	group := make([][]byte, n)
	for g := 0; g < s.lay.Groups(); g++ {
		missing := false
		for t := 0; t < n; t++ {
			group[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
			if group[t] == nil {
				missing = true
			}
		}
		if !missing {
			continue
		}
		if err := s.code.Reconstruct(group); err != nil {
			return fmt.Errorf("%w: group %d: %v", ErrUnrecoverable, g, err)
		}
		for t := 0; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if cells[idx] == nil {
				cells[idx] = group[t]
			}
		}
	}
	return nil
}

// ReconstructStripeInto is ReconstructStripe drawing decode buffers from
// bufs and pooling its scratch — the zero-allocation repair path.
func (s *Scheme) ReconstructStripeInto(bufs *Buffers, cells [][]byte) error {
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	n := s.code.N()
	sc := getStripeScratch(n, s.code.K())
	defer putStripeScratch(sc)
	group := sc.group
	for g := 0; g < s.lay.Groups(); g++ {
		missing := false
		for t := 0; t < n; t++ {
			group[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
			if group[t] == nil {
				missing = true
			}
		}
		if !missing {
			continue
		}
		if err := s.code.ReconstructInto(group, bufs); err != nil {
			return fmt.Errorf("%w: group %d: %v", ErrUnrecoverable, g, err)
		}
		for t := 0; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if cells[idx] == nil {
				cells[idx] = group[t]
			}
		}
	}
	return nil
}

// RebuildCellInto rebuilds the cell at pos — data or parity — from whatever
// cells of its group are present (non-nil) in cells, stores it into cells,
// and returns it. Cells outside pos's group are ignored, and other erased
// cells of the group are left nil — this is the targeted decode a degraded
// read, a disk rebuild, a heal or a hedge performs after fetching only a
// recovery set. The decode buffer comes from bufs and the scratch is pooled,
// so it allocates nothing in steady state.
func (s *Scheme) RebuildCellInto(bufs *Buffers, cells [][]byte, pos layout.Pos) ([]byte, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	idx := s.cellIndex(pos)
	if cells[idx] != nil {
		return cells[idx], nil
	}
	c := s.lay.CellAt(pos)
	n := s.code.N()
	sc := getStripeScratch(n, s.code.K())
	defer putStripeScratch(sc)
	group := sc.group
	for t := 0; t < n; t++ {
		group[t] = cells[s.cellIndex(s.lay.GroupCell(c.Group, t))]
	}
	sc.target[0] = c.Element
	if err := s.code.ReconstructElementsInto(group, sc.target[:], bufs); err != nil {
		return nil, fmt.Errorf("%w: cell (%d,%d): %v", ErrUnrecoverable, pos.Row, pos.Col, err)
	}
	cells[idx] = group[c.Element]
	return cells[idx], nil
}

// DataShards extracts the stripe's data shards in sequential order.
func (s *Scheme) DataShards(cells [][]byte) [][]byte {
	data := make([][]byte, s.DataPerStripe())
	for e := range data {
		data[e] = cells[s.cellIndex(s.lay.DataPos(e))]
	}
	return data
}

// VerifyStripe re-encodes the stripe's data and reports whether every parity
// cell matches. Used by scrubbing and by tests.
func (s *Scheme) VerifyStripe(cells [][]byte) (bool, error) {
	if len(cells) != s.CellsPerStripe() {
		return false, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	fresh, err := s.EncodeStripe(s.DataShards(cells))
	if err != nil {
		return false, err
	}
	for i := range cells {
		if len(cells[i]) != len(fresh[i]) {
			return false, nil
		}
		for b := range cells[i] {
			if cells[i][b] != fresh[i][b] {
				return false, nil
			}
		}
	}
	return true, nil
}
