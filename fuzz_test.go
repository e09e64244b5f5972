package ecfrm

// Fuzz targets for the library's externally reachable surfaces. Run the seed
// corpus as ordinary tests with `go test`, or explore with
// `go test -fuzz=FuzzStoreRoundTrip -fuzztime=30s`.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
)

// FuzzStoreRoundTrip drives the full write → fail → degraded-read path with
// fuzzer-chosen geometry and payload, asserting byte fidelity whenever the
// operation is within the store's documented domain.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte("hello erasure coded world"), uint8(1), uint8(3), uint16(7), uint16(11))
	f.Add([]byte{0}, uint8(0), uint8(0), uint16(0), uint16(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(2), uint8(9), uint16(100), uint16(50))
	f.Fuzz(func(t *testing.T, payload []byte, formSel, failSel uint8, off16, len16 uint16) {
		if len(payload) == 0 || len(payload) > 1<<12 {
			return
		}
		code, err := NewLRC(6, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		form := []Form{FormStandard, FormRotated, FormECFRM}[int(formSel)%3]
		scheme, err := NewScheme(code, form)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStore(scheme, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		st.FailDisk(int(failSel) % scheme.N())

		off := int64(off16) % int64(len(payload))
		length := int(len16)%(len(payload)-int(off)) + 1
		res, err := st.ReadAt(off, length)
		if err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", off, length, err)
		}
		if !bytes.Equal(res.Data, payload[off:off+int64(length)]) {
			t.Fatalf("payload mismatch at [%d,+%d) form %s", off, length, form)
		}
	})
}

// FuzzLayoutInversion checks the EC-FRM geometry invariants for arbitrary
// candidate shapes: CellAt∘GroupCell = id and the Lemma 1 column property.
func FuzzLayoutInversion(f *testing.F) {
	f.Add(uint8(10), uint8(6))
	f.Add(uint8(9), uint8(6))
	f.Add(uint8(7), uint8(3))
	f.Add(uint8(16), uint8(4))
	f.Fuzz(func(t *testing.T, rawN, rawK uint8) {
		n := int(rawN)%28 + 3
		k := int(rawK)%(n-1) + 1
		lay := layout.NewECFRM(n, k)
		for g := 0; g < lay.Groups(); g++ {
			cols := make(map[int]bool, n)
			for e := 0; e < n; e++ {
				p := lay.GroupCell(g, e)
				c := lay.CellAt(p)
				if c.Group != g || c.Element != e {
					t.Fatalf("(%d,%d): inversion failed at g=%d e=%d", n, k, g, e)
				}
				if cols[p.Col] {
					t.Fatalf("(%d,%d): group %d repeats column %d", n, k, g, p.Col)
				}
				cols[p.Col] = true
			}
		}
	})
}

// FuzzPlannerNeverTouchesFailedDisks throws arbitrary requests at the
// degraded planner with two failed disks (LRC(6,2,2) tolerates three), in
// the three shapes the store plans: a range of data elements (a GET), every
// cell of one failed disk in a stripe (a disk rebuild), and a run of one
// device's cells at consecutive on-disk offsets planned around that device
// (the store's around, which heals and rebuilds plan with). It asserts the planner's safety properties: no read on an
// avoided disk, loads that add up, and a plan that can decode — every target
// on an avoided disk has its group read on one of its usable recovery sets,
// or on every survivor when none is usable.
func FuzzPlannerNeverTouchesFailedDisks(f *testing.F) {
	f.Add(uint16(0), uint8(8), uint8(0), uint8(3))
	f.Add(uint16(55), uint8(20), uint8(9), uint8(0))
	f.Add(uint16(0), uint8(20), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, start16 uint16, count8, fail8, second8 uint8) {
		code, err := NewLRC(6, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := NewScheme(code, FormECFRM)
		if err != nil {
			t.Fatal(err)
		}
		lay := scheme.Layout()
		n, rows, dps := scheme.N(), lay.Rows(), scheme.DataPerStripe()
		start := int(start16) % 200
		count := int(count8)%40 + 1
		failed := []int{int(fail8) % n, (int(fail8) + 1 + int(second8)%(n-1)) % n}

		var rangeCells, diskCells, runCells []Access
		for x := start; x < start+count; x++ {
			rangeCells = append(rangeCells, Access{Stripe: x / dps, Pos: lay.DataPos(x % dps)})
		}
		plan, err := scheme.PlanDegradedRead(start, count, failed)
		checkPlan(t, code, scheme, rangeCells, failed, plan, err)

		stripe := start / dps
		for row := 0; row < rows; row++ {
			diskCells = append(diskCells, Access{Stripe: stripe, Pos: Pos{Row: row, Col: lay.Col(stripe, failed[0])}})
		}
		plan, err = scheme.PlanCells(diskCells, failed)
		checkPlan(t, code, scheme, diskCells, failed, plan, err)

		dev := (failed[1] + 1) % n
		if dev == failed[0] {
			dev = (dev + 1) % n
		}
		for slot := start; slot < start+count%(3*rows)+1; slot++ {
			runCells = append(runCells, Access{Stripe: slot / rows, Pos: Pos{Row: slot % rows, Col: lay.Col(slot/rows, dev)}})
		}
		avoid := append([]int{dev}, failed...)
		plan, err = scheme.PlanCells(runCells, avoid)
		checkPlan(t, code, scheme, runCells, avoid, plan, err)
	})
}

// checkPlan asserts a plan of targets around the avoided disks is safe: it
// was plannable (within LRC(6,2,2)'s tolerance), reads no avoided disk,
// reads every target on a surviving disk directly, and reads, for every
// other target, a usable recovery set of its group or every survivor.
func checkPlan(t *testing.T, code Code, scheme *Scheme, targets []Access, avoid []int, plan *Plan, err error) {
	t.Helper()
	if errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("%d avoided disks must always be plannable: %v", len(avoid), err)
	}
	if err != nil {
		t.Fatal(err)
	}
	lay := scheme.Layout()
	isAvoided := make(map[int]bool)
	for _, d := range avoid {
		isAvoided[d] = true
	}
	read := make(map[Access]bool, len(plan.Reads))
	sum := 0
	for _, a := range plan.Reads {
		if isAvoided[a.Disk] {
			t.Fatalf("plan touches avoided disk: %+v (avoid %v)", a, avoid)
		}
		read[a] = true
	}
	for _, l := range plan.Loads {
		sum += l
	}
	if sum != plan.TotalReads() {
		t.Fatalf("loads sum %d != %d reads", sum, plan.TotalReads())
	}
	for _, tg := range targets {
		stripe, pos := tg.Stripe, tg.Pos
		if d := lay.Disk(stripe, pos.Col); !isAvoided[d] {
			if !read[Access{Disk: d, Stripe: stripe, Pos: pos}] {
				t.Fatalf("target %+v on a surviving disk is not read directly", tg)
			}
			continue
		}
		cell := lay.CellAt(pos)
		// covered reports whether the plan reads set's elements of the
		// group; usable, whether none of them is on an avoided disk.
		check := func(set []int) (covered, usable bool) {
			covered, usable = true, true
			for _, el := range set {
				p := lay.GroupCell(cell.Group, el)
				a := Access{Disk: lay.Disk(stripe, p.Col), Stripe: stripe, Pos: p}
				usable = usable && !isAvoided[a.Disk]
				covered = covered && read[a]
			}
			return covered, usable
		}
		anyUsable, ok := false, false
		for _, set := range code.RecoverySets(cell.Element) {
			covered, usable := check(set)
			anyUsable = anyUsable || usable
			ok = ok || usable && covered
		}
		if !anyUsable {
			var survivors []int
			for el := 0; el < code.N(); el++ {
				if p := lay.GroupCell(cell.Group, el); !isAvoided[lay.Disk(stripe, p.Col)] {
					survivors = append(survivors, el)
				}
			}
			ok, _ = check(survivors)
		}
		if !ok {
			t.Fatalf("lost target %+v (group %d element %d, avoid %v): plan reads none of its recovery sets",
				tg, cell.Group, cell.Element, avoid)
		}
	}
}
