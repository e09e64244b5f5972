package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/layout"
	"repro/internal/lrc"
)

// score is a degraded plan's cost: distinct cells read and the max load.
type score struct{ reads, max int }

// oracleOutcome is what one group's choice of recovery sets adds beyond the
// direct reads: the extra reads and, per disk, the extra load.
type oracleOutcome struct {
	reads int
	inc   []int
}

// oracle is the brute-force optimum of a degraded read, independent of the
// planner: it tries every choice of one candidate per lost element — the
// usable recovery sets, or every survivor of the group when none is usable —
// and returns the best (reads, max load) under both lexicographic orders.
// Choices are enumerated group by group (groups share no cell; a group's
// cells are masks over its element indices), and a group's outcome is
// dropped only when another of its outcomes adds no more load on any disk,
// which can never score worse on either order.
func oracle(s *Scheme, start, count int, failed []int) (readsFirst, loadFirst score, err error) {
	dps := s.DataPerStripe()
	var targets []Access
	for x := start; x < start+count; x++ {
		targets = append(targets, Access{Stripe: x / dps, Pos: s.Layout().DataPos(x % dps)})
	}
	return oracleCells(s, targets, failed, nil)
}

// oracleCells is oracle for any target cells, data or parity, in stripes
// whose zero cells fills names: a zero target and a set's zero cells cost
// nothing, and a zero cell on a failed disk is not erased.
func oracleCells(s *Scheme, targets []Access, failed, fills []int) (readsFirst, loadFirst score, err error) {
	n, lay, code := s.N(), s.Layout(), s.code
	isFailed := make(map[int]bool)
	for _, d := range failed {
		isFailed[d] = true
	}
	type groupKey struct{ stripe, group int }
	direct := make(map[groupKey]uint64)   // per group: elements read directly
	lost := make(map[groupKey][][]uint64) // per group: per lost element: candidates
	var groups []groupKey
	loads := make([]int, n)
	reads := 0
	diskOf := func(k groupKey, t int) int { return lay.Disk(k.stripe, lay.GroupCell(k.group, t).Col) }
	zero := func(k groupKey, t int) bool { return s.ZeroCell(fills, k.stripe, lay.GroupCell(k.group, t)) }
	for _, tg := range targets {
		if s.ZeroCell(fills, tg.Stripe, tg.Pos) {
			continue
		}
		cell := lay.CellAt(tg.Pos)
		k := groupKey{tg.Stripe, cell.Group}
		if d := diskOf(k, cell.Element); !isFailed[d] {
			direct[k] |= 1 << cell.Element
			loads[d]++
			reads++
			continue
		}
		var cands []uint64
		for _, set := range code.RecoverySets(cell.Element) {
			var m uint64
			usable := true
			for _, t := range set {
				switch {
				case zero(k, t):
				case isFailed[diskOf(k, t)]:
					usable = false
				default:
					m |= 1 << t
				}
			}
			if usable {
				cands = append(cands, m)
			}
		}
		if len(cands) == 0 {
			var erased []int
			var survivors uint64
			for t := 0; t < code.N(); t++ {
				switch {
				case zero(k, t):
				case isFailed[diskOf(k, t)]:
					erased = append(erased, t)
				default:
					survivors |= 1 << t
				}
			}
			if !code.CanRecover(erased) {
				return score{}, score{}, ErrUnrecoverable
			}
			cands = []uint64{survivors}
		}
		if lost[k] == nil {
			groups = append(groups, k)
		}
		lost[k] = append(lost[k], cands)
	}

	var outcomes [][]oracleOutcome
	for _, k := range groups {
		elems := lost[k]
		seen := make(map[uint64]bool)
		var outs []oracleOutcome
		pick := make([]int, len(elems))
		for {
			var extra uint64
			for i, c := range pick {
				extra |= elems[i][c]
			}
			if extra &^= direct[k]; !seen[extra] {
				seen[extra] = true
				o := oracleOutcome{inc: make([]int, n)}
				for t := 0; t < code.N(); t++ {
					if extra&(1<<t) != 0 {
						o.reads++
						o.inc[diskOf(k, t)]++
					}
				}
				outs = append(outs, o)
			}
			i := 0
			for ; i < len(pick); i++ {
				if pick[i]++; pick[i] < len(elems[i]) {
					break
				}
				pick[i] = 0
			}
			if i == len(pick) {
				break
			}
		}
		outcomes = append(outcomes, paretoOutcomes(outs))
	}

	readsFirst, loadFirst = score{math.MaxInt, 0}, score{0, math.MaxInt}
	var walk func(g, reads int)
	walk = func(g, reads int) {
		if g == len(outcomes) {
			m := 0
			for _, l := range loads {
				m = max(m, l)
			}
			if reads < readsFirst.reads || reads == readsFirst.reads && m < readsFirst.max {
				readsFirst = score{reads, m}
			}
			if m < loadFirst.max || m == loadFirst.max && reads < loadFirst.reads {
				loadFirst = score{reads, m}
			}
			return
		}
		for _, o := range outcomes[g] {
			for d, v := range o.inc {
				loads[d] += v
			}
			walk(g+1, reads+o.reads)
			for d, v := range o.inc {
				loads[d] -= v
			}
		}
	}
	walk(0, reads)
	return readsFirst, loadFirst, nil
}

// paretoOutcomes drops every outcome that adds at least as much load on
// every disk as another one.
func paretoOutcomes(outs []oracleOutcome) []oracleOutcome {
	var keep []oracleOutcome
	for i, o := range outs {
		dominated := false
		for j, p := range outs {
			if i == j {
				continue
			}
			le := true
			for d := range o.inc {
				if p.inc[d] > o.inc[d] {
					le = false
					break
				}
			}
			if le {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, o)
		}
	}
	return keep
}

// tableI is every Table-I configuration.
func tableI() []codes.Code {
	return []codes.Code{
		mustRS(6, 3), mustRS(8, 4), mustRS(10, 5),
		lrc.Must(6, 2, 2), lrc.Must(8, 2, 3), lrc.Must(10, 2, 4),
	}
}

// auditRow aggregates one (scheme, failure count) cell of the audit.
type auditRow struct {
	requests, suboptimal, maxNodes         int
	greedyMax, exactMax, exactReads        int
	loadFirstMax, loadFirstReads, gainRows int
}

// TestDegradedPlanIsExact audits the planner against the brute-force oracle
// on every Table-I configuration × layout form × failure set of one or two
// disks × start in the first two stripes × 1–20 elements: its (reads, max
// load) is the lexicographic optimum, and no request reaches the node
// budget. -short, and the race build (the planner runs on one goroutine,
// so the detector adds only time), sample an eighth of the two-disk sets.
// With -v it logs the audit: how often the greedy first leaf was beaten,
// the mean max load of greedy, exact and a load-first objective, and the
// reads load-first would add.
func TestDegradedPlanIsExact(t *testing.T) {
	for _, code := range tableI() {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			s := MustScheme(code, form)
			t.Run(s.Name(), func(t *testing.T) {
				t.Parallel()
				n := s.N()
				rng := rand.New(rand.NewSource(int64(n)))
				var sets [][]int
				for a := 0; a < n; a++ {
					sets = append(sets, []int{a})
				}
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						if !testing.Short() && !raceEnabled || rng.Intn(8) == 0 {
							sets = append(sets, []int{a, b})
						}
					}
				}
				var rows [3]auditRow
				for _, failed := range sets {
					row := &rows[len(failed)]
					for start := 0; start < 2*s.DataPerStripe(); start++ {
						for count := 1; count <= 20; count++ {
							p, st, err := s.planDegraded(start, count, failed)
							if err != nil {
								t.Fatalf("failed %v start %d count %d: %v", failed, start, count, err)
							}
							want, loadFirst, err := oracle(s, start, count, failed)
							if err != nil {
								t.Fatalf("oracle: failed %v start %d count %d: %v", failed, start, count, err)
							}
							got := score{p.TotalReads(), p.MaxLoad()}
							if got != want {
								t.Fatalf("failed %v start %d count %d: plan (reads, max) = %v, optimum %v",
									failed, start, count, got, want)
							}
							if st.nodes >= planNodeBudget {
								t.Fatalf("failed %v start %d count %d: node budget hit (%d nodes)",
									failed, start, count, st.nodes)
							}
							row.requests++
							row.maxNodes = max(row.maxNodes, st.nodes)
							if (score{st.greedyReads, st.greedyMax}) != got {
								row.suboptimal++
							}
							row.greedyMax += st.greedyMax
							row.exactMax += got.max
							row.exactReads += got.reads
							row.loadFirstMax += loadFirst.max
							row.loadFirstReads += loadFirst.reads
							if loadFirst.max < got.max {
								row.gainRows++
							}
						}
					}
				}
				t.Log("| scheme | failed | requests | greedy suboptimal | greedy max | exact max | load-first max | load-first lowers max | load-first reads | max nodes |")
				for f := 1; f <= 2; f++ {
					r := rows[f]
					q := float64(r.requests)
					t.Logf("| %s | %d | %d | %.2f%% | %.4f | %.4f | %.4f | %.2f%% | %+.2f%% | %d |",
						s.Name(), f, r.requests, 100*float64(r.suboptimal)/q,
						float64(r.greedyMax)/q, float64(r.exactMax)/q, float64(r.loadFirstMax)/q,
						100*float64(r.gainRows)/q, 100*(float64(r.loadFirstReads)/float64(r.exactReads)-1), r.maxNodes)
				}
			})
		}
	}
}

// TestRebuildPlanIsExact audits the planner on disk-rebuild targets
// against the same oracle: every cell of one disk in a stripe, with that
// disk failed alone or beside each other disk, on every Table-I
// configuration × layout form, in the first two stripes, full and padded
// (holding one element, and half a stripe).
func TestRebuildPlanIsExact(t *testing.T) {
	for _, code := range tableI() {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			s := MustScheme(code, form)
			t.Run(s.Name(), func(t *testing.T) {
				t.Parallel()
				lay := s.Layout()
				for d := 0; d < s.N(); d++ {
					for other := -1; other < s.N(); other++ {
						if other == d {
							continue
						}
						failed := []int{d}
						if other >= 0 {
							failed = append(failed, other)
						}
						for stripe := 0; stripe < 2; stripe++ {
							var targets []Access
							for row := 0; row < lay.Rows(); row++ {
								targets = append(targets, Access{Stripe: stripe, Pos: layout.Pos{Row: row, Col: lay.Col(stripe, d)}})
							}
							for _, fills := range [][]int{nil, {1, s.DataPerStripe() / 2}} {
								p, err := s.PlanCells(targets, failed, fills)
								if err != nil {
									t.Fatalf("disk %d failed %v stripe %d fills %v: %v", d, failed, stripe, fills, err)
								}
								want, _, err := oracleCells(s, targets, failed, fills)
								if err != nil {
									t.Fatalf("oracle: disk %d failed %v stripe %d fills %v: %v", d, failed, stripe, fills, err)
								}
								if got := (score{p.TotalReads(), p.MaxLoad()}); got != want {
									t.Fatalf("disk %d failed %v stripe %d fills %v: plan (reads, max) = %v, optimum %v",
										d, failed, stripe, fills, got, want)
								}
								for _, a := range p.Reads {
									if s.ZeroCell(fills, a.Stripe, a.Pos) {
										t.Fatalf("disk %d failed %v stripe %d fills %v: plan reads zero cell %+v", d, failed, stripe, fills, a)
									}
								}
								if p.Loads[d] != 0 || other >= 0 && p.Loads[other] != 0 {
									t.Fatalf("disk %d failed %v stripe %d fills %v: plan reads a failed disk", d, failed, stripe, fills)
								}
							}
						}
					}
				}
			})
		}
	}
}

// benchFailed are the disks the end-to-end benchmark's degraded workload
// fails.
var benchFailed = []int{3, 8}

// benchDegradedRequests is the end-to-end benchmark's degraded GET set: two
// sets of one object of each size 1–20 elements, in the order the benchmark
// writes them, each padded to its own stripe. Returns {start, count} pairs.
func benchDegradedRequests(s *Scheme) [][2]int {
	var reqs [][2]int
	for set := 0; set < 2; set++ {
		for q := 0; q < 5; q++ {
			for _, size := range []int{q + 1, 20 - q, 10 - q, 11 + q} {
				reqs = append(reqs, [2]int{len(reqs) * s.DataPerStripe(), size})
			}
		}
	}
	return reqs
}

// TestDegradedPlanBenchRequests pins the end-to-end benchmark's degraded
// counts: LRC(6,2,2)/ecfrm with disks 3 and 8 failed reads 452 cells for
// 420 requested elements (read amplification 1.0762) at a mean max load of
// 1.95 — greedy's is 2.05 at the same reads.
func TestDegradedPlanBenchRequests(t *testing.T) {
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	var reads, load, greedyReads, greedyLoad, asked int
	for _, r := range benchDegradedRequests(s) {
		p, st, err := s.planDegraded(r[0], r[1], benchFailed)
		if err != nil {
			t.Fatal(err)
		}
		reads += p.TotalReads()
		load += p.MaxLoad()
		greedyReads += st.greedyReads
		greedyLoad += st.greedyMax
		asked += r[1]
	}
	if asked != 420 || reads != 452 || load != 78 || greedyReads != 452 || greedyLoad != 82 {
		t.Fatalf("asked %d: reads %d max-load sum %d (greedy %d, %d); want 420: 452, 78 (452, 82)",
			asked, reads, load, greedyReads, greedyLoad)
	}
}

// TestDegradedPlanBudgetKeepsBestFound: a request that exhausts the node
// budget stops there and still gets a plan, no worse than greedy, that
// avoids the failed disks.
func TestDegradedPlanBudgetKeepsBestFound(t *testing.T) {
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	p, st, err := s.planDegraded(7, 1024, benchFailed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Loads[3] != 0 || p.Loads[8] != 0 {
		t.Fatal("plan reads a failed disk")
	}
	if got := (score{p.TotalReads(), p.MaxLoad()}); got.reads > st.greedyReads ||
		got.reads == st.greedyReads && got.max > st.greedyMax {
		t.Fatalf("plan %v worse than greedy (%d, %d)", got, st.greedyReads, st.greedyMax)
	}
	if st.nodes != planNodeBudget {
		t.Fatalf("%d nodes tried, want the budget of %d", st.nodes, planNodeBudget)
	}
}

// BenchmarkPlanDegraded times the degraded planner on the end-to-end
// benchmark's 40 degraded GETs and on one 1024-element request, both on
// LRC(6,2,2)/ecfrm with disks 3 and 8 failed. It reports the mean max load
// and reads per plan beside the greedy first leaf's, and the search nodes.
func BenchmarkPlanDegraded(b *testing.B) {
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	for _, c := range []struct {
		name string
		reqs [][2]int
	}{
		{"bench40", benchDegradedRequests(s)},
		{"elems1024", [][2]int{{0, 1024}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var load, reads, greedyLoad, greedyReads, nodes int
			for i := 0; i < b.N; i++ {
				load, reads, greedyLoad, greedyReads, nodes = 0, 0, 0, 0, 0
				for _, r := range c.reqs {
					p, st, err := s.planDegraded(r[0], r[1], benchFailed)
					if err != nil {
						b.Fatal(err)
					}
					load += p.MaxLoad()
					reads += p.TotalReads()
					greedyLoad += st.greedyMax
					greedyReads += st.greedyReads
					nodes += st.nodes
				}
			}
			q := float64(len(c.reqs))
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/q, "ns/plan")
			b.ReportMetric(float64(load)/q, "max_load")
			b.ReportMetric(float64(greedyLoad)/q, "greedy_max_load")
			b.ReportMetric(float64(reads)/q, "reads")
			b.ReportMetric(float64(greedyReads)/q, "greedy_reads")
			b.ReportMetric(float64(nodes)/q, "nodes")
		})
	}
}
