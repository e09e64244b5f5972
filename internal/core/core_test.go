package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/layout"
	"repro/internal/lrc"
)

// allSchemes builds every (code × form) combination the paper evaluates,
// at the smallest Table I parameters, plus an odd shape.
func allSchemes(t testing.TB) []*Scheme {
	t.Helper()
	var schemes []*Scheme
	codesList := []codes.Code{
		mustRS(6, 3), mustRS(8, 4), mustRS(10, 5),
		lrc.Must(6, 2, 2), lrc.Must(8, 2, 3), lrc.Must(10, 2, 4),
		mustRS(4, 3), // coprime shape: r = 1
	}
	for _, c := range codesList {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			schemes = append(schemes, MustScheme(c, form))
		}
	}
	return schemes
}

func randData(rng *rand.Rand, count, size int) [][]byte {
	d := make([][]byte, count)
	for i := range d {
		d[i] = make([]byte, size)
		rng.Read(d[i])
	}
	return d
}

func TestSchemeNames(t *testing.T) {
	c := mustRS(6, 3)
	cases := map[layout.Form]string{
		layout.FormStandard: "RS(6,3)",
		layout.FormRotated:  "R-RS(6,3)",
		layout.FormECFRM:    "EC-FRM-RS(6,3)",
	}
	for form, want := range cases {
		if got := MustScheme(c, form).Name(); got != want {
			t.Errorf("Name(%s) = %q, want %q", form, got, want)
		}
	}
	l := lrc.Must(6, 2, 2)
	if got := MustScheme(l, layout.FormECFRM).Name(); got != "EC-FRM-LRC(6,2,2)" {
		t.Errorf("Name = %q", got)
	}
}

func TestPropertiesInherited(t *testing.T) {
	// §IV-C and §V-B: EC-FRM keeps the candidate's fault tolerance and
	// storage overhead exactly.
	for _, c := range []codes.Code{mustRS(6, 3), lrc.Must(6, 2, 2)} {
		std := MustScheme(c, layout.FormStandard)
		frm := MustScheme(c, layout.FormECFRM)
		if std.FaultTolerance() != frm.FaultTolerance() {
			t.Errorf("%s: tolerance changed %d → %d", c.Name(),
				std.FaultTolerance(), frm.FaultTolerance())
		}
		if std.StorageOverhead() != frm.StorageOverhead() {
			t.Errorf("%s: overhead changed %v → %v", c.Name(),
				std.StorageOverhead(), frm.StorageOverhead())
		}
	}
}

func TestEncodeStripeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, s := range allSchemes(t) {
		data := randData(rng, s.DataPerStripe(), 31)
		cells, err := s.EncodeStripe(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(cells) != s.CellsPerStripe() {
			t.Fatalf("%s: %d cells, want %d", s.Name(), len(cells), s.CellsPerStripe())
		}
		for i, c := range cells {
			if len(c) != 31 {
				t.Fatalf("%s: cell %d size %d", s.Name(), i, len(c))
			}
		}
		// Data shards come back out in order.
		got := s.DataShards(cells)
		for e := range data {
			if !bytes.Equal(got[e], data[e]) {
				t.Fatalf("%s: data shard %d not preserved", s.Name(), e)
			}
		}
		if ok, err := s.VerifyStripe(new(Buffers), cells); err != nil || !ok {
			t.Fatalf("%s: fresh stripe fails verify: ok=%v err=%v", s.Name(), ok, err)
		}
	}
}

func TestEncodeStripeBadInput(t *testing.T) {
	s := MustScheme(mustRS(6, 3), layout.FormECFRM)
	if _, err := s.EncodeStripe(make([][]byte, 3)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

func TestReconstructStripeAllSingleDiskFailures(t *testing.T) {
	// Fail each disk in turn (erase its entire column) and rebuild.
	rng := rand.New(rand.NewSource(41))
	for _, s := range allSchemes(t) {
		data := randData(rng, s.DataPerStripe(), 17)
		cells, err := s.EncodeStripe(data)
		if err != nil {
			t.Fatal(err)
		}
		n := s.N()
		for disk := 0; disk < n; disk++ {
			broken := make([][]byte, len(cells))
			for i := range cells {
				if i%n == disk { // column == cell index mod n
					continue
				}
				broken[i] = cells[i]
			}
			if err := s.ReconstructStripe(broken); err != nil {
				t.Fatalf("%s disk %d: %v", s.Name(), disk, err)
			}
			for i := range cells {
				if !bytes.Equal(broken[i], cells[i]) {
					t.Fatalf("%s disk %d: cell %d mismatch", s.Name(), disk, i)
				}
			}
		}
	}
}

func TestReconstructStripeMaxTolerance(t *testing.T) {
	// Fail FaultTolerance() disks at once, 30 random combinations each.
	rng := rand.New(rand.NewSource(42))
	for _, s := range allSchemes(t) {
		data := randData(rng, s.DataPerStripe(), 9)
		cells, _ := s.EncodeStripe(data)
		f := s.FaultTolerance()
		n := s.N()
		for trial := 0; trial < 30; trial++ {
			perm := rng.Perm(n)
			failedSet := make(map[int]bool)
			for _, d := range perm[:f] {
				failedSet[d] = true
			}
			broken := make([][]byte, len(cells))
			for i := range cells {
				if !failedSet[i%n] {
					broken[i] = cells[i]
				}
			}
			if err := s.ReconstructStripe(broken); err != nil {
				t.Fatalf("%s failed=%v: %v", s.Name(), perm[:f], err)
			}
			for i := range cells {
				if !bytes.Equal(broken[i], cells[i]) {
					t.Fatalf("%s failed=%v: cell %d mismatch", s.Name(), perm[:f], i)
				}
			}
		}
	}
}

func TestReconstructStripeBeyondToleranceFails(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := MustScheme(mustRS(6, 3), layout.FormECFRM)
	cells, _ := s.EncodeStripe(randData(rng, s.DataPerStripe(), 8))
	n := s.N()
	broken := make([][]byte, len(cells))
	for i := range cells {
		if i%n >= 4 { // fail disks 0..3 > tolerance 3
			broken[i] = cells[i]
		}
	}
	if err := s.ReconstructStripe(broken); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestVerifyStripeDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	cells, _ := s.EncodeStripe(randData(rng, s.DataPerStripe(), 8))
	cells[len(cells)-1][0] ^= 0xff
	if ok, err := s.VerifyStripe(new(Buffers), cells); err != nil || ok {
		t.Fatalf("corruption not detected: ok=%v err=%v", ok, err)
	}
}

func TestPlanNormalReadPaperFigure3And7a(t *testing.T) {
	// (6,2,2) LRC, 8-element read from element 0:
	// standard and rotated load some disk twice; EC-FRM loads each disk
	// at most once (Figures 3a, 3b, 7a).
	c := lrc.Must(6, 2, 2)
	for form, wantMax := range map[layout.Form]int{
		layout.FormStandard: 2,
		layout.FormRotated:  2,
		layout.FormECFRM:    1,
	} {
		s := MustScheme(c, form)
		p, err := s.PlanNormalRead(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MaxLoad(); got != wantMax {
			t.Errorf("%s: max load = %d, want %d", s.Name(), got, wantMax)
		}
		if p.TotalReads() != 8 || p.Cost() != 1.0 {
			t.Errorf("%s: reads=%d cost=%v, want 8 reads cost 1", s.Name(), p.TotalReads(), p.Cost())
		}
	}
}

func TestPlanNormalReadNeverTouchesParity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, s := range allSchemes(t) {
		for trial := 0; trial < 40; trial++ {
			start := rng.Intn(3 * s.DataPerStripe())
			count := 1 + rng.Intn(20)
			p, err := s.PlanNormalRead(start, count)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range p.Reads {
				if !s.Layout().CellAt(a.Pos).IsData {
					t.Fatalf("%s: normal read touched parity cell %+v", s.Name(), a)
				}
			}
			if p.TotalReads() != count {
				t.Fatalf("%s: %d reads for %d elements", s.Name(), p.TotalReads(), count)
			}
			// Load conservation: sum of loads equals total reads.
			sum := 0
			for _, l := range p.Loads {
				sum += l
			}
			if sum != p.TotalReads() {
				t.Fatalf("%s: loads sum %d != reads %d", s.Name(), sum, p.TotalReads())
			}
		}
	}
}

func TestPlanNormalReadECFRMOptimallyBalanced(t *testing.T) {
	// EC-FRM places sequential data round-robin across all n disks, so a
	// count-element read has max load exactly ⌈count/n⌉.
	for _, c := range []codes.Code{mustRS(6, 3), lrc.Must(8, 2, 3)} {
		s := MustScheme(c, layout.FormECFRM)
		n := s.N()
		for count := 1; count <= 3*n; count++ {
			for start := 0; start < s.DataPerStripe(); start += 7 {
				p, err := s.PlanNormalRead(start, count)
				if err != nil {
					t.Fatal(err)
				}
				want := (count + n - 1) / n
				if got := p.MaxLoad(); got != want {
					t.Fatalf("%s start=%d count=%d: max load %d, want %d",
						s.Name(), start, count, got, want)
				}
			}
		}
	}
}

func TestPlanNormalReadBadInput(t *testing.T) {
	s := MustScheme(mustRS(6, 3), layout.FormStandard)
	for _, args := range [][2]int{{-1, 5}, {0, 0}, {3, -2}} {
		if _, err := s.PlanNormalRead(args[0], args[1]); !errors.Is(err, ErrBadRequest) {
			t.Errorf("PlanNormalRead(%d,%d) err = %v, want ErrBadRequest", args[0], args[1], err)
		}
	}
}

func TestPlanDegradedReadAvoidsFailedDisks(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, s := range allSchemes(t) {
		for trial := 0; trial < 60; trial++ {
			start := rng.Intn(2 * s.DataPerStripe())
			count := 1 + rng.Intn(20)
			failed := []int{rng.Intn(s.N())}
			p, err := s.PlanDegradedRead(start, count, failed)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			for _, a := range p.Reads {
				if a.Disk == failed[0] {
					t.Fatalf("%s: degraded plan reads failed disk %d", s.Name(), failed[0])
				}
			}
			if p.Loads[failed[0]] != 0 {
				t.Fatalf("%s: failed disk has load", s.Name())
			}
			if p.TotalReads() < count-((count+s.N()-1)/s.N()+1) {
				t.Fatalf("%s: suspiciously few reads %d for count %d", s.Name(), p.TotalReads(), count)
			}
		}
	}
}

func TestPlanDegradedReadCostLRCBelowRS(t *testing.T) {
	// LRC's reason to exist: repairing one data element costs k/l reads
	// instead of k. Compare average degraded cost on identical workloads.
	rsS := MustScheme(mustRS(6, 3), layout.FormECFRM)
	lrcS := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	rng := rand.New(rand.NewSource(47))
	var rsCost, lrcCost float64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		start := rng.Intn(60)
		count := 1 + rng.Intn(20)
		fr := rng.Intn(rsS.N())
		fl := rng.Intn(lrcS.N())
		pr, err := rsS.PlanDegradedRead(start, count, []int{fr})
		if err != nil {
			t.Fatal(err)
		}
		plc, err := lrcS.PlanDegradedRead(start, count, []int{fl})
		if err != nil {
			t.Fatal(err)
		}
		rsCost += pr.Cost()
		lrcCost += plc.Cost()
	}
	if lrcCost >= rsCost {
		t.Fatalf("LRC degraded cost %v not below RS %v", lrcCost/trials, rsCost/trials)
	}
}

func TestPlanDegradedReadNoFailuresEqualsNormal(t *testing.T) {
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	pd, err := s.PlanDegradedRead(5, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := s.PlanNormalRead(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pd.TotalReads() != pn.TotalReads() || pd.MaxLoad() != pn.MaxLoad() {
		t.Fatal("degraded plan with no failures must match normal plan")
	}
}

func TestPlanDegradedReadMultiFailure(t *testing.T) {
	// Up to FaultTolerance() failed disks must still plan successfully.
	rng := rand.New(rand.NewSource(48))
	for _, s := range allSchemes(t) {
		f := s.FaultTolerance()
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(s.N())
			failed := perm[:f]
			p, err := s.PlanDegradedRead(0, s.DataPerStripe(), failed)
			if err != nil {
				t.Fatalf("%s failed=%v: %v", s.Name(), failed, err)
			}
			fs := make(map[int]bool)
			for _, d := range failed {
				fs[d] = true
			}
			for _, a := range p.Reads {
				if fs[a.Disk] {
					t.Fatalf("%s: plan touches failed disk %d", s.Name(), a.Disk)
				}
			}
		}
	}
}

func TestPlanDegradedReadBeyondToleranceFails(t *testing.T) {
	s := MustScheme(mustRS(6, 3), layout.FormECFRM)
	// 4 failures beat RS(6,3); a full-stripe read must hit an
	// unrecoverable group.
	_, err := s.PlanDegradedRead(0, s.DataPerStripe(), []int{0, 1, 2, 3})
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestPlanDegradedReadBadInput(t *testing.T) {
	s := MustScheme(mustRS(6, 3), layout.FormStandard)
	if _, err := s.PlanDegradedRead(0, 1, []int{9}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range disk: err = %v", err)
	}
	if _, err := s.PlanDegradedRead(-1, 1, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative start: err = %v", err)
	}
}

func TestDegradedPlanRecoverySetsAreSufficient(t *testing.T) {
	// Execute a degraded plan end-to-end: read exactly the planned cells,
	// reconstruct, and check the requested bytes come back right. This
	// closes the loop between planner and decoder.
	rng := rand.New(rand.NewSource(49))
	for _, s := range allSchemes(t) {
		data := randData(rng, 2*s.DataPerStripe(), 13)
		stripes := make([][][]byte, 2)
		for st := 0; st < 2; st++ {
			var err error
			stripes[st], err = s.EncodeStripe(data[st*s.DataPerStripe() : (st+1)*s.DataPerStripe()])
			if err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 25; trial++ {
			start := rng.Intn(s.DataPerStripe())
			count := 1 + rng.Intn(20)
			if start+count > 2*s.DataPerStripe() {
				count = 2*s.DataPerStripe() - start
			}
			failed := rng.Intn(s.N())
			p, err := s.PlanDegradedRead(start, count, []int{failed})
			if err != nil {
				t.Fatal(err)
			}
			// Materialize only the planned reads.
			avail := make([][][]byte, 2)
			for st := range avail {
				avail[st] = make([][]byte, s.CellsPerStripe())
			}
			for _, a := range p.Reads {
				idx := a.Pos.Row*s.N() + a.Pos.Col
				avail[a.Stripe][idx] = stripes[a.Stripe][idx]
			}
			// Rebuild each requested element from the planned reads only.
			for x := start; x < start+count; x++ {
				st, e := x/s.DataPerStripe(), x%s.DataPerStripe()
				got, err := s.RebuildCellInto(new(Buffers), avail[st], s.Layout().DataPos(e))
				if err != nil {
					t.Fatalf("%s: rebuild element %d from planned reads: %v", s.Name(), x, err)
				}
				if !bytes.Equal(got, data[x]) {
					t.Fatalf("%s: element %d wrong after degraded read", s.Name(), x)
				}
			}
		}
	}
}

func TestContributingDisks(t *testing.T) {
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	p, err := s.PlanNormalRead(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ContributingDisks(); got != 10 {
		t.Fatalf("ContributingDisks = %d, want 10 (all disks)", got)
	}
	std := MustScheme(lrc.Must(6, 2, 2), layout.FormStandard)
	p, _ = std.PlanNormalRead(0, 10)
	if got := p.ContributingDisks(); got != 6 {
		t.Fatalf("standard ContributingDisks = %d, want 6 (data disks only)", got)
	}
}

func TestPlanCostZeroRequested(t *testing.T) {
	p := &Plan{}
	if p.Cost() != 0 {
		t.Fatal("empty plan cost must be 0")
	}
}

func TestDegradedPlanDedupesSharedReads(t *testing.T) {
	// When a requested element also serves as a recovery-set member, it is
	// read once: the Figure 7(b) scenario where a 14-element read on
	// EC-FRM-LRC with a failed disk costs exactly 14 reads (one recovery
	// read replaces the lost element's own read).
	s := MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	p, err := s.PlanDegradedRead(0, 14, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalReads() != 14 {
		t.Fatalf("total reads = %d, want 14 (full overlap)", p.TotalReads())
	}
	seen := make(map[Access]bool)
	for _, a := range p.Reads {
		if seen[a] {
			t.Fatalf("duplicate access %+v", a)
		}
		seen[a] = true
	}
}

func TestSchemeWithVerticalShapeParams(t *testing.T) {
	// Coprime (n,k) degenerates EC-FRM to a single-group-per-... actually
	// r=1 gives n rows and n groups; check geometry consistency anyway.
	s := MustScheme(mustRS(4, 3), layout.FormECFRM)
	lay := s.Layout()
	if lay.Rows() != 7 || lay.Groups() != 7 || s.DataPerStripe() != 28 {
		t.Fatalf("coprime geometry wrong: rows=%d groups=%d dps=%d",
			lay.Rows(), lay.Groups(), s.DataPerStripe())
	}
}

// TestZeroCellMatchesEncode checks ZeroCell against the bytes: for every
// fill of every scheme, a stripe of random user elements followed by zero
// padding encodes to all-zero bytes in exactly the cells ZeroCell names —
// so a cell it calls zero is zero, and one it does not reads user bytes.
func TestZeroCellMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, s := range allSchemes(t) {
		n, dps := s.N(), s.DataPerStripe()
		for fill := 0; fill <= dps; fill++ {
			data := make([][]byte, dps)
			for e := range data {
				data[e] = make([]byte, 16)
				if e < fill {
					rng.Read(data[e])
				}
			}
			cells, err := s.EncodeStripe(data)
			if err != nil {
				t.Fatal(err)
			}
			for idx, c := range cells {
				pos := layout.Pos{Row: idx / n, Col: idx % n}
				if zero := s.ZeroCell([]int{fill}, 0, pos); zero != bytes.Equal(c, make([]byte, 16)) {
					t.Fatalf("%s fill %d: cell %+v ZeroCell %v, bytes %x", s.Name(), fill, pos, zero, c)
				}
				if s.ZeroCell([]int{fill}, 1, pos) {
					t.Fatalf("%s: cell %+v of a stripe fills does not reach is zero", s.Name(), pos)
				}
			}
		}
	}
}
