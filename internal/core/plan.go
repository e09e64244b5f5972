package core

import (
	"fmt"
	"math"

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
// at start while the given disks are failed. Elements on surviving disks are
// read directly; each element on a failed disk is rebuilt from one recovery
// set of its group. The sets are chosen jointly for the whole request and
// exactly: the plan reads the fewest cells any choice of sets can (the cost
// the paper's Jerasure decoder pays, which keeps Figure 9 faithful), and
// among those choices it has the least max disk load. A request too large
// to search within the planner's node budget gets the best plan found,
// never worse than choosing greedily element by element.
//
// An element none of whose minimal recovery sets avoids the failed disks is
// rebuilt from every surviving element of its group, which succeeds whenever
// the pattern is information-theoretically decodable; otherwise
// ErrUnrecoverable is returned.
func (s *Scheme) PlanDegradedRead(start, count int, failed []int) (*Plan, error) {
	return s.PlanDegradedReadBiased(start, count, failed, nil)
}

// PlanDegradedReadBiased is PlanDegradedRead with an external per-disk load
// bias: the planner minimizes the max over disks of (planned load + bias[d])
// instead of the planned load alone, so a momentarily busy disk (bias =
// live queue depth) loses choices it would otherwise win. A nil bias is the
// unbiased planner; a non-nil bias must have one entry per disk. The bias
// never trades reads for balance and influences only which survivors are
// selected — Plan.Loads still reports the plan's own element counts — and
// any recovery set produces the same decoded bytes, so biased and unbiased
// plans are byte-equivalent to execute.
func (s *Scheme) PlanDegradedReadBiased(start, count int, failed, bias []int) (*Plan, error) {
	p, _, err := s.planDegraded(start, count, failed, bias)
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

// search is the branch-and-bound state of one degraded plan.
type search struct {
	first              int // first stripe of the request
	cells              []planCell
	opts               []option // lost element i chooses from opts[lost[i]:lost[i+1]]
	lost               []int
	refs               []int32 // per cell: chosen reads covering it
	level              []int   // per disk: planned load + bias
	reads              int
	choice, best       []option
	bestReads, bestMax int
	lbReads, lbMax     int // no plan beats these
	stats              searchStats
	done               bool
}

// planDegraded is the exact planner behind PlanDegradedReadBiased: a
// depth-first branch-and-bound over the lost elements in request order,
// minimizing (reads, max level) lexicographically. Children are tried in
// greedy order — fewest new reads, then lowest max, then candidate order —
// so the first leaf is the greedy plan and ties keep the earliest leaf.
func (s *Scheme) planDegraded(start, count int, failed, bias []int) (*Plan, searchStats, error) {
	n := s.N()
	if start < 0 || count <= 0 {
		return nil, searchStats{}, fmt.Errorf("%w: start=%d count=%d", ErrBadRequest, start, count)
	}
	if bias != nil && len(bias) != n {
		return nil, searchStats{}, fmt.Errorf("%w: bias has %d entries for %d disks", ErrBadRequest, len(bias), n)
	}
	isFailed := make([]bool, n)
	for _, d := range failed {
		if d < 0 || d >= n {
			return nil, searchStats{}, fmt.Errorf("%w: failed disk %d out of [0,%d)", ErrBadRequest, d, n)
		}
		isFailed[d] = true
	}
	dps, cps, groups := s.DataPerStripe(), s.CellsPerStripe(), s.lay.Groups()
	first := start / dps
	stripes := (start+count-1)/dps - first + 1
	sr := &search{first: first, refs: make([]int32, stripes*cps), level: make([]int, n),
		lost: []int{0}, bestReads: math.MaxInt}
	copy(sr.level, bias)

	// Direct reads first, so that recovery sets are scored against them.
	sets := make([][][]int, s.code.N()) // RecoverySets memo
	var groupOf []int                   // per lost element: its group in the request
	for x := start; x < start+count; x++ {
		stripe, e := x/dps, x%dps
		pos := s.lay.DataPos(e)
		if disk := s.lay.Disk(stripe, pos.Col); !isFailed[disk] {
			sr.refs[(stripe-first)*cps+s.cellIndex(pos)] = 1
			sr.level[disk]++
			sr.reads++
			continue
		}
		c := s.lay.CellAt(pos)
		if sets[c.Element] == nil {
			sets[c.Element] = s.code.RecoverySets(c.Element)
		}
		for _, set := range sets[c.Element] {
			s.addOption(sr, stripe, c.Group, set, isFailed)
		}
		if len(sr.opts) == sr.lost[len(sr.lost)-1] {
			// No usable set: read every survivor of the group.
			var erased, survivors []int
			for t := 0; t < s.code.N(); t++ {
				if isFailed[s.lay.Disk(stripe, s.lay.GroupCell(c.Group, t).Col)] {
					erased = append(erased, t)
				} else {
					survivors = append(survivors, t)
				}
			}
			if !s.code.CanRecover(erased) {
				return nil, searchStats{}, fmt.Errorf("%w: group %d stripe %d, erased elements %v",
					ErrUnrecoverable, c.Group, stripe, erased)
			}
			s.addOption(sr, stripe, c.Group, survivors, isFailed)
		}
		sr.lost = append(sr.lost, len(sr.opts))
		groupOf = append(groupOf, (stripe-first)*groups+c.Group)
	}

	// Lower bounds. Groups own disjoint cells, so each adds at least the
	// reads of its costliest lost element's cheapest set. The max level is
	// at least the direct reads' and the survivors' rounded-up average.
	cheapest := make([]int, stripes*groups)
	for i, g := range groupOf {
		m := math.MaxInt
		for _, o := range sr.opts[sr.lost[i]:sr.lost[i+1]] {
			m = min(m, sr.score(o, 0).reads)
		}
		cheapest[g] = max(cheapest[g], m)
	}
	sr.lbReads = sr.reads
	for _, m := range cheapest {
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

	sr.choice = make([]option, len(groupOf))
	sr.best = make([]option, len(groupOf))
	sr.dfs(0, rootMax)

	// The search left refs at the direct reads; add the best sets and read
	// the cells off in index order.
	for _, o := range sr.best {
		sr.take(o)
	}
	p := &Plan{Requested: count, Reads: make([]Access, 0, sr.reads), Loads: make([]int, n),
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

// addOption adds group g's elements set as a candidate, unless one of them
// sits on a failed disk.
func (s *Scheme) addOption(sr *search, stripe, g int, set []int, failed []bool) {
	lo := len(sr.cells)
	for _, t := range set {
		pos := s.lay.GroupCell(g, t)
		disk := s.lay.Disk(stripe, pos.Col)
		if failed[disk] {
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
