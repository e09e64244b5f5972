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

	"repro/internal/codes"
	"repro/internal/gf"
	"repro/internal/layout"
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
	// Capability views of code, resolved once at construction so the hot
	// paths pay no per-call type assertions.
	intoEnc    codes.IntoEncoder       // nil if the code lacks EncodeInto
	intoRec    codes.IntoReconstructor // nil if the code lacks the Into decodes
	positional bool                    // byte-range chunking is valid
	symBytes   int                     // code symbol width — shard-size granularity
}

// NewScheme deploys code under the given layout form.
func NewScheme(code codes.Code, form layout.Form) (*Scheme, error) {
	lay, err := layout.New(form, code.N(), code.K())
	if err != nil {
		return nil, err
	}
	s := &Scheme{code: code, lay: lay}
	s.intoEnc, _ = code.(codes.IntoEncoder)
	s.intoRec, _ = code.(codes.IntoReconstructor)
	if p, ok := code.(codes.PositionalCoder); ok {
		s.positional = p.PositionalKernel()
	}
	s.symBytes = codes.SymbolBytesOf(code)
	return s, nil
}

// MustScheme is NewScheme for known-good forms; it panics on error.
func MustScheme(code codes.Code, form layout.Form) *Scheme {
	s, err := NewScheme(code, form)
	if err != nil {
		panic(err)
	}
	return s
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

// Code returns the candidate code.
func (s *Scheme) Code() codes.Code { return s.code }

// Layout returns the stripe layout.
func (s *Scheme) Layout() layout.Layout { return s.lay }

// SymbolBytes returns the candidate code's symbol width in bytes — the
// granularity shard sizes must respect: 1 for byte-wise codes, 2 for the
// GF(2^16) generator-matrix codes, 16 for packet-layout CRS16. Callers
// sizing shards (stores, benchmarks) should round sizes up to a multiple of
// this.
func (s *Scheme) SymbolBytes() int { return s.symBytes }

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
		if err := s.encodeGroup(sc.parity, sc.groupData); err != nil {
			return err
		}
	}
	return nil
}

// encodeGroup encodes one group's parity into the given cells, using the
// code's allocation-free EncodeInto when available.
func (s *Scheme) encodeGroup(parity, groupData [][]byte) error {
	if s.intoEnc != nil {
		return s.intoEnc.EncodeInto(parity, groupData)
	}
	fresh, err := s.code.Encode(groupData)
	if err != nil {
		return err
	}
	for i := range parity {
		copy(parity[i], fresh[i])
	}
	return nil
}

// encodeGroupRange encodes byte range [lo,hi) of one group's cells. Only
// valid for positional codes (see codes.PositionalCoder); the ParallelCodec
// guards that. cells is the full stripe.
func (s *Scheme) encodeGroupRange(cells [][]byte, g, lo, hi int) error {
	k, n := s.code.K(), s.code.N()
	sc := getStripeScratch(n, k)
	defer putStripeScratch(sc)
	for t := 0; t < k; t++ {
		sc.groupData[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))][lo:hi]
	}
	for t := k; t < n; t++ {
		sc.parity[t-k] = cells[s.cellIndex(s.lay.GroupCell(g, t))][lo:hi]
	}
	return s.encodeGroup(sc.parity, sc.groupData)
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
		if err := s.reconstructGroup(bufs, group); err != nil {
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

// reconstructGroup decodes one group in place, using the code's
// allocation-free ReconstructInto when available.
func (s *Scheme) reconstructGroup(bufs *Buffers, group [][]byte) error {
	if s.intoRec != nil {
		return s.intoRec.ReconstructInto(group, bufs)
	}
	return s.code.Reconstruct(group)
}

// RebuildDataInto is RebuildData drawing the decode buffer from bufs and
// pooling its scratch — the zero-allocation degraded-read decode.
func (s *Scheme) RebuildDataInto(bufs *Buffers, cells [][]byte, e int) ([]byte, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	pos := s.lay.DataPos(e)
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
	var err error
	if s.intoRec != nil {
		err = s.intoRec.ReconstructElementsInto(group, sc.target[:], bufs)
	} else {
		err = s.code.ReconstructElements(group, sc.target[:])
	}
	if err != nil {
		return nil, fmt.Errorf("%w: element %d: %v", ErrUnrecoverable, e, err)
	}
	cells[idx] = group[c.Element]
	return cells[idx], nil
}

// RebuildData rebuilds the in-stripe data element e from whatever cells of
// its group are present (non-nil) in cells, stores it into cells, and
// returns it. Cells outside e's group are ignored, and other erased cells
// of the group are left nil — this is the targeted decode a degraded read
// performs after fetching only a minimal recovery set.
func (s *Scheme) RebuildData(cells [][]byte, e int) ([]byte, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	pos := s.lay.DataPos(e)
	idx := s.cellIndex(pos)
	if cells[idx] != nil {
		return cells[idx], nil
	}
	c := s.lay.CellAt(pos)
	n := s.code.N()
	group := make([][]byte, n)
	for t := 0; t < n; t++ {
		group[t] = cells[s.cellIndex(s.lay.GroupCell(c.Group, t))]
	}
	if err := s.code.ReconstructElements(group, []int{c.Element}); err != nil {
		return nil, fmt.Errorf("%w: element %d: %v", ErrUnrecoverable, e, err)
	}
	cells[idx] = group[c.Element]
	return cells[idx], nil
}

// UpdateData overwrites the in-stripe data element e with newData and folds
// the change into the group's parity cells via the candidate code's delta
// path (read-modify-write small write). Only e's cell and its group's n-k
// parity cells change; the updated cell indices are returned so callers can
// account the write I/O. The old cell and every parity cell of the group
// must be present (non-nil).
func (s *Scheme) UpdateData(cells [][]byte, e int, newData []byte) ([]int, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	pos := s.lay.DataPos(e)
	idx := s.cellIndex(pos)
	old := cells[idx]
	if old == nil {
		return nil, fmt.Errorf("%w: element %d not present for update", ErrBadRequest, e)
	}
	if len(newData) != len(old) {
		return nil, fmt.Errorf("%w: new data %d bytes, cell holds %d", ErrBadRequest, len(newData), len(old))
	}
	delta := make([]byte, len(old))
	gf.XorSlice(delta, old, newData)
	c := s.lay.CellAt(pos)
	k, n := s.code.K(), s.code.N()
	parity := make([][]byte, n-k)
	touched := []int{idx}
	for t := k; t < n; t++ {
		pIdx := s.cellIndex(s.lay.GroupCell(c.Group, t))
		if cells[pIdx] == nil {
			return nil, fmt.Errorf("%w: parity cell of group %d missing for update", ErrBadRequest, c.Group)
		}
		parity[t-k] = cells[pIdx]
		touched = append(touched, pIdx)
	}
	if err := s.code.ApplyDelta(parity, c.Element, delta); err != nil {
		return nil, err
	}
	copy(cells[idx], newData)
	return touched, nil
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
