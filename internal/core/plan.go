package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/layout"
)

// Access is one planned physical element read.
type Access struct {
	Disk   int        // physical disk
	Stripe int        // stripe index
	Pos    layout.Pos // cell within the stripe
}

// Plan is the result of read planning: the set of physical element reads
// (deduplicated — an element read once serves every consumer) and the
// per-disk load they induce.
type Plan struct {
	Requested int // data elements the user asked for
	Reads     []Access
	Loads     []int // per-disk element counts, indexed by disk
	Failed    []int // failed disks the plan avoided (empty for normal reads)
}

// MaxLoad returns the element count on the most loaded disk — the quantity
// the paper's whole design minimizes (§III-B).
func (p *Plan) MaxLoad() int {
	max := 0
	for _, l := range p.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// TotalReads returns the number of distinct physical element reads.
func (p *Plan) TotalReads() int { return len(p.Reads) }

// Cost returns TotalReads/Requested — the paper's "degraded read cost"
// metric (network/IO amplification). 1.0 for any normal read.
func (p *Plan) Cost() float64 {
	if p.Requested == 0 {
		return 0
	}
	return float64(len(p.Reads)) / float64(p.Requested)
}

// ContributingDisks returns how many distinct disks serve at least one read.
func (p *Plan) ContributingDisks() int {
	c := 0
	for _, l := range p.Loads {
		if l > 0 {
			c++
		}
	}
	return c
}

// PlanNormalRead plans a read of count sequential data elements starting at
// global data element index start, with all disks healthy. Only data cells
// are touched; the plan's Cost is exactly 1.
func (s *Scheme) PlanNormalRead(start, count int) (*Plan, error) {
	if start < 0 || count <= 0 {
		return nil, fmt.Errorf("%w: start=%d count=%d", ErrBadRequest, start, count)
	}
	p := &Plan{Requested: count, Reads: make([]Access, 0, count), Loads: make([]int, s.N())}
	dps := s.DataPerStripe()
	for x := start; x < start+count; x++ {
		stripe, e := x/dps, x%dps
		pos := s.lay.DataPos(e)
		a := Access{Disk: s.lay.Disk(stripe, pos.Col), Stripe: stripe, Pos: pos}
		p.Reads = append(p.Reads, a)
		p.Loads[a.Disk]++
	}
	return p, nil
}

// PlanDegradedRead plans a read of count sequential data elements starting
// at start while the given disks are failed: PlanCells with the requested
// data cells as its targets and every stripe full. Elements on surviving
// disks are read directly; each element on a failed disk is rebuilt from
// one recovery set of its group. The sets are chosen jointly for the whole
// request and exactly: the plan reads the fewest cells any choice of sets
// can (the cost the paper's Jerasure decoder pays, which keeps Figure 9
// faithful), and among those choices it has the least max disk load. A
// request too large to search within the planner's node budget gets the
// best plan found, never worse than choosing greedily element by element.
//
// An element none of whose minimal recovery sets avoids the failed disks is
// rebuilt from every surviving element of its group, which succeeds whenever
// the pattern is information-theoretically decodable; otherwise
// ErrUnrecoverable is returned.
func (s *Scheme) PlanDegradedRead(start, count int, failed []int) (*Plan, error) {
	p, _, err := s.planDegraded(start, count, failed)
	return p, err
}

// planNodeBudget caps the recovery sets one degraded plan may try. The
// search's first leaf is the greedy plan, so a request that exhausts the
// budget still gets a plan no worse than greedy. No 1–20-element request of
// the Table-I grid comes near it (TestDegradedPlanIsExact).
const planNodeBudget = 1 << 12

// searchStats describes how a degraded plan was found: the recovery sets
// tried, and the reads and max level of the first leaf, the greedy plan.
type searchStats struct{ nodes, greedyReads, greedyMax int }

// planCell is a cell a recovery set reads: its index in the request's cell
// space, (stripe-first)*CellsPerStripe + row*N + col, and its disk. Groups
// never share a cell, and index order is read order.
type planCell struct{ idx, disk int }

// option is a lost element's candidate recovery set, cells[lo:hi], with the
// reads it adds and the max level it leaves where it was last scored.
type option struct{ lo, hi, reads, max int }

// search is the branch-and-bound state of one degraded plan. Plans draw it
// from searches, so its slices are reused across plans.
type search struct {
	first              int // first stripe of the request
	isFailed           []bool
	cells              []planCell
	opts               []option // lost element i chooses from opts[lost[i]:lost[i+1]]
	lost               []int
	refs               []int32 // per cell: chosen reads covering it
	level              []int   // per disk: planned load
	reads              int
	choice, best       []option
	groupOf, cheapest  []int // per lost target its group in the request; per group its cheapest set's reads
	erased, survivors  []int // a group's elements, when no set is usable
	bestReads, bestMax int
	lbReads, lbMax     int // no plan beats these
	stats              searchStats
	done               bool
}

var searches = sync.Pool{New: func() any { return new(search) }}

// zeroed returns b resized to n zero values, reusing its array when it fits.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// PlanCells plans reading the target cells — data or parity, in any
// stripes — while the given disks are failed. A target on a surviving disk
// is read directly; every other target is rebuilt from one recovery set of
// its group (every survivor of the group when no set avoids the failed
// disks), the sets chosen jointly and exactly as PlanDegradedRead chooses
// them. fills names each stripe's zero cells (ZeroCell; nil: none): a zero
// cell is never read — a zero target needs no read and no set, and a
// recovery set's zero cells, on a failed disk or not, cost nothing — and
// the executor hands the decoder zeros for them. The layout places each
// target, so its Disk field is not consulted. This is the one recovery-set
// chooser: degraded reads, disk rebuild and healing all plan through it.
// Plan.Requested is len(targets).
func (s *Scheme) PlanCells(targets []Access, failed, fills []int) (*Plan, error) {
	p, _, err := s.planCells(targets, failed, fills)
	return p, err
}

// DataCells lists the cells of count sequential data elements from start.
func (s *Scheme) DataCells(start, count int) []Access {
	dps := s.DataPerStripe()
	cells := make([]Access, count)
	for i := range cells {
		x := start + i
		stripe, pos := x/dps, s.lay.DataPos(x%dps)
		cells[i] = Access{Disk: s.lay.Disk(stripe, pos.Col), Stripe: stripe, Pos: pos}
	}
	return cells
}

// planDegraded is the degraded read of count data elements from start: the
// exact planner with the requested range as its targets.
func (s *Scheme) planDegraded(start, count int, failed []int) (*Plan, searchStats, error) {
	if start < 0 || count <= 0 {
		return nil, searchStats{}, fmt.Errorf("%w: start=%d count=%d", ErrBadRequest, start, count)
	}
	return s.planCells(s.DataCells(start, count), failed, nil)
}

// planCells is the exact planner behind PlanCells: a depth-first
// branch-and-bound over the lost targets in request order, minimizing
// (reads, max level) lexicographically. Children are tried in greedy order
// — fewest new reads, then lowest max, then candidate order — so the first
// leaf is the greedy plan and ties keep the earliest leaf.
func (s *Scheme) planCells(targets []Access, failed, fills []int) (*Plan, searchStats, error) {
	n := s.N()
	if len(targets) == 0 {
		return nil, searchStats{}, fmt.Errorf("%w: no target cells", ErrBadRequest)
	}
	sr := searches.Get().(*search)
	defer searches.Put(sr)
	sr.isFailed = zeroed(sr.isFailed, n)
	isFailed := sr.isFailed
	for _, d := range failed {
		if d < 0 || d >= n {
			return nil, searchStats{}, fmt.Errorf("%w: failed disk %d out of [0,%d)", ErrBadRequest, d, n)
		}
		isFailed[d] = true
	}
	first, last := targets[0].Stripe, targets[0].Stripe
	for _, tg := range targets {
		if tg.Stripe < 0 || tg.Pos.Row < 0 || tg.Pos.Row >= s.lay.Rows() || tg.Pos.Col < 0 || tg.Pos.Col >= n {
			return nil, searchStats{}, fmt.Errorf("%w: target cell %+v", ErrBadRequest, tg)
		}
		first, last = min(first, tg.Stripe), max(last, tg.Stripe)
	}
	cps, groups := s.CellsPerStripe(), s.lay.Groups()
	stripes := last - first + 1
	// Size the search for the lost targets' candidates: every recovery set
	// of each, and the group's survivors should none be usable.
	lost, nOpts, nCells := 0, 0, 0
	for _, tg := range targets {
		if isFailed[s.lay.Disk(tg.Stripe, tg.Pos.Col)] && !s.ZeroCell(fills, tg.Stripe, tg.Pos) {
			sets := s.recoverySets(s.lay.CellAt(tg.Pos).Element)
			lost, nOpts, nCells = lost+1, nOpts+len(sets)+1, nCells+s.code.N()
			for _, set := range sets {
				nCells += len(set)
			}
		}
	}
	*sr = search{first: first, isFailed: isFailed, refs: zeroed(sr.refs, stripes*cps), level: zeroed(sr.level, n),
		lost: append(sr.lost[:0], 0), opts: slices.Grow(sr.opts[:0], nOpts), cells: slices.Grow(sr.cells[:0], nCells),
		groupOf: slices.Grow(sr.groupOf[:0], lost), cheapest: zeroed(sr.cheapest, stripes*groups),
		choice: zeroed(sr.choice, lost), best: zeroed(sr.best, lost),
		erased: sr.erased[:0], survivors: sr.survivors[:0], bestReads: math.MaxInt}

	// Direct reads first, so that recovery sets are scored against them.
	for _, tg := range targets {
		stripe, pos := tg.Stripe, tg.Pos
		if s.ZeroCell(fills, stripe, pos) {
			continue
		}
		if disk := s.lay.Disk(stripe, pos.Col); !isFailed[disk] {
			if idx := (stripe-first)*cps + s.cellIndex(pos); sr.refs[idx] == 0 {
				sr.refs[idx] = 1
				sr.level[disk]++
				sr.reads++
			}
			continue
		}
		c := s.lay.CellAt(pos)
		for _, set := range s.recoverySets(c.Element) {
			s.addOption(sr, stripe, c.Group, set, fills)
		}
		if len(sr.opts) == sr.lost[len(sr.lost)-1] {
			// No usable set: read every survivor of the group.
			sr.erased, sr.survivors = sr.erased[:0], sr.survivors[:0]
			for t := 0; t < s.code.N(); t++ {
				if p := s.lay.GroupCell(c.Group, t); isFailed[s.lay.Disk(stripe, p.Col)] && !s.ZeroCell(fills, stripe, p) {
					sr.erased = append(sr.erased, t)
				} else {
					sr.survivors = append(sr.survivors, t)
				}
			}
			if !s.code.CanRecover(sr.erased) {
				return nil, searchStats{}, fmt.Errorf("%w: group %d stripe %d, erased elements %v",
					ErrUnrecoverable, c.Group, stripe, sr.erased)
			}
			s.addOption(sr, stripe, c.Group, sr.survivors, fills)
		}
		sr.lost = append(sr.lost, len(sr.opts))
		sr.groupOf = append(sr.groupOf, (stripe-first)*groups+c.Group)
	}

	// Lower bounds. Groups own disjoint cells, so each adds at least the
	// reads of its costliest lost target's cheapest set. The max level is
	// at least the direct reads' and the survivors' rounded-up average.
	for i, g := range sr.groupOf {
		m := math.MaxInt
		for _, o := range sr.opts[sr.lost[i]:sr.lost[i+1]] {
			m = min(m, sr.score(o, 0).reads)
		}
		sr.cheapest[g] = max(sr.cheapest[g], m)
	}
	sr.lbReads = sr.reads
	for _, m := range sr.cheapest {
		sr.lbReads += m
	}
	sum, survivors, rootMax := sr.lbReads-sr.reads, 0, math.MinInt
	for d, l := range sr.level {
		rootMax = max(rootMax, l)
		if !isFailed[d] {
			sum += l
			survivors++
		}
	}
	sr.lbMax = rootMax
	if survivors > 0 {
		avg := sum / survivors
		if sum%survivors > 0 {
			avg++
		}
		sr.lbMax = max(sr.lbMax, avg)
	}

	sr.dfs(0, rootMax)

	// The search left refs at the direct reads; add the best sets and read
	// the cells off in index order.
	for _, o := range sr.best {
		sr.take(o)
	}
	p := &Plan{Requested: len(targets), Reads: make([]Access, 0, sr.reads), Loads: make([]int, n),
		Failed: append([]int(nil), failed...)}
	for idx, r := range sr.refs {
		if r > 0 {
			stripe, pos := first+idx/cps, layout.Pos{Row: idx % cps / n, Col: idx % n}
			a := Access{Disk: s.lay.Disk(stripe, pos.Col), Stripe: stripe, Pos: pos}
			p.Reads = append(p.Reads, a)
			p.Loads[a.Disk]++
		}
	}
	return p, sr.stats, nil
}

// addOption adds group g's elements set as a candidate, its zero cells
// left out, unless another of them sits on a failed disk.
func (s *Scheme) addOption(sr *search, stripe, g int, set, fills []int) {
	lo := len(sr.cells)
	for _, t := range set {
		pos := s.lay.GroupCell(g, t)
		if s.ZeroCell(fills, stripe, pos) {
			continue
		}
		disk := s.lay.Disk(stripe, pos.Col)
		if sr.isFailed[disk] {
			sr.cells = sr.cells[:lo]
			return
		}
		sr.cells = append(sr.cells, planCell{(stripe-sr.first)*s.CellsPerStripe() + s.cellIndex(pos), disk})
	}
	sr.opts = append(sr.opts, option{lo: lo, hi: len(sr.cells)})
}

// score returns o with the reads it adds to the chosen ones and the max
// level it leaves from curMax.
func (sr *search) score(o option, curMax int) option {
	o.reads, o.max = 0, curMax
	for _, c := range sr.cells[o.lo:o.hi] {
		if sr.refs[c.idx] == 0 {
			o.reads++
			o.max = max(o.max, sr.level[c.disk]+1)
		}
	}
	return o
}

// beats reports whether a plan of these reads and max level would be
// strictly better than the best found.
func (sr *search) beats(reads, maxLevel int) bool {
	return reads < sr.bestReads || reads == sr.bestReads && maxLevel < sr.bestMax
}

func (sr *search) take(o option) {
	for _, c := range sr.cells[o.lo:o.hi] {
		if sr.refs[c.idx]++; sr.refs[c.idx] == 1 {
			sr.level[c.disk]++
			sr.reads++
		}
	}
}

func (sr *search) drop(o option) {
	for _, c := range sr.cells[o.lo:o.hi] {
		if sr.refs[c.idx]--; sr.refs[c.idx] == 0 {
			sr.level[c.disk]--
			sr.reads--
		}
	}
}

// dfs chooses sets for lost elements i onwards; curMax is the current max
// level over all disks.
func (sr *search) dfs(i, curMax int) {
	if i == len(sr.choice) {
		if sr.bestReads == math.MaxInt {
			sr.stats.greedyReads, sr.stats.greedyMax = sr.reads, curMax
		}
		sr.bestReads, sr.bestMax = sr.reads, curMax
		copy(sr.best, sr.choice)
		sr.done = sr.bestReads == sr.lbReads && sr.bestMax == sr.lbMax
		return
	}
	// Score the children and insertion-sort them by the greedy key; lo
	// stands in for candidate order.
	opts := sr.opts[sr.lost[i]:sr.lost[i+1]]
	for j := range opts {
		opts[j] = sr.score(opts[j], curMax)
		for k := j; k > 0 && greedyLess(opts[k], opts[k-1]); k-- {
			opts[k], opts[k-1] = opts[k-1], opts[k]
		}
	}
	for _, o := range opts {
		// Reads and max level only grow down the tree, and children come
		// in key order: once one cannot beat the best plan, none can.
		if !sr.beats(sr.reads+o.reads, o.max) {
			return
		}
		if sr.stats.nodes >= planNodeBudget && sr.bestReads != math.MaxInt {
			sr.done = true
			return
		}
		sr.stats.nodes++
		sr.choice[i] = o
		sr.take(o)
		sr.dfs(i+1, o.max)
		sr.drop(o)
		if sr.done {
			return
		}
	}
}

// greedyLess orders candidates by (new reads, resulting max, candidate order).
func greedyLess(a, b option) bool {
	if a.reads != b.reads {
		return a.reads < b.reads
	}
	if a.max != b.max {
		return a.max < b.max
	}
	return a.lo < b.lo
}
