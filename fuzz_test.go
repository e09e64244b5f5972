package ecfrm

// Fuzz targets for the library's externally reachable surfaces. Run the seed
// corpus as ordinary tests with `go test`, or explore with
// `go test -fuzz=FuzzStoreRoundTrip -fuzztime=30s`.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
)

// FuzzStoreRoundTrip drives the full write → fail → degraded-read path with
// fuzzer-chosen geometry and payloads, asserting byte fidelity whenever the
// operation is within the store's documented domain. The payload is cut into
// one to four objects, each appended and flushed into stripes of its own,
// so stripes end at different fills; then one or two disks fail (LRC(6,2,2)
// tolerates three) and every object, and a fuzzer-chosen range of each,
// must read back intact.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte("hello erasure coded world"), uint8(1), uint8(3), uint8(10), uint16(7), uint16(11), uint8(0))
	f.Add([]byte{0}, uint8(0), uint8(0), uint8(0), uint16(0), uint16(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(2), uint8(9), uint8(4), uint16(100), uint16(50), uint8(2))
	f.Add(bytes.Repeat([]byte("ec-frm"), 200), uint8(2), uint8(3), uint8(8), uint16(5), uint16(900), uint8(3))
	// An object ending in all-zero elements, read around the disks that
	// hold them.
	f.Add(append(bytes.Repeat([]byte{0x5a}, 70), make([]byte, 130)...), uint8(2), uint8(3), uint8(4), uint16(60), uint16(140), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, formSel, failSel, fail2Sel uint8, off16, len16 uint16, cutSel uint8) {
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
		nObjs := min(int(cutSel)%4+1, len(payload))
		var objs [][]byte
		var offs []int64
		for i := 0; i < nObjs; i++ {
			obj := payload[len(payload)*i/nObjs : len(payload)*(i+1)/nObjs]
			offs = append(offs, st.NextOffset())
			objs = append(objs, obj)
			if err := st.Append(obj); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		st.FailDisk(int(failSel) % scheme.N())
		if d := int(fail2Sel) % (scheme.N() + 1); d < scheme.N() {
			st.FailDisk(d)
		}

		for i, obj := range objs {
			res, err := st.ReadAt(offs[i], len(obj))
			if err != nil {
				t.Fatalf("object %d: ReadAt(%d,%d): %v", i, offs[i], len(obj), err)
			}
			if !bytes.Equal(res.Data, obj) {
				t.Fatalf("object %d mismatch, form %s, failed %v", i, form, st.FailedDisks())
			}
			off := int(off16) % len(obj)
			length := int(len16)%(len(obj)-off) + 1
			res, err = st.ReadAt(offs[i]+int64(off), length)
			if err != nil {
				t.Fatalf("object %d: ReadAt(%d,%d): %v", i, offs[i]+int64(off), length, err)
			}
			if !bytes.Equal(res.Data, obj[off:off+length]) {
				t.Fatalf("object %d: payload mismatch at [%d,+%d) form %s, failed %v", i, off, length, form, st.FailedDisks())
			}
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
// (the store's around, which heals and rebuilds plan with). fill8 pads the
// stripes (0: every stripe full, where a GET's plan must be
// PlanDegradedRead's). It asserts the planner's safety properties: no read
// on an avoided disk or of a zero cell, loads that add up, a plan that can
// decode — every non-zero target on an avoided disk has its group read on
// one of its usable recovery sets, or on every survivor when none is
// usable — and one that does: the planned reads, with every zero cell
// handed in as zeros, decode each target to its encoded bytes.
func FuzzPlannerNeverTouchesFailedDisks(f *testing.F) {
	f.Add(uint16(0), uint8(8), uint8(0), uint8(3), uint8(0))
	f.Add(uint16(55), uint8(20), uint8(9), uint8(0), uint8(0))
	f.Add(uint16(0), uint8(20), uint8(3), uint8(5), uint8(0))
	f.Add(uint16(0), uint8(20), uint8(3), uint8(5), uint8(7))
	f.Add(uint16(31), uint8(39), uint8(1), uint8(4), uint8(29))
	f.Fuzz(func(t *testing.T, start16 uint16, count8, fail8, second8, fill8 uint8) {
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
		// Per stripe, the data elements holding user bytes; the runs reach
		// stripe (199+15)/rows, and a stripe past fills is full.
		fills := make([]int, 64)
		for i := range fills {
			fills[i] = dps - int(fill8)*(i+1)%(dps+1)
		}
		sc := &planCase{code: code, scheme: scheme, fills: fills, stripes: make(map[int][][]byte)}

		var rangeCells, diskCells, runCells []Access
		for x := start; x < start+count; x++ {
			rangeCells = append(rangeCells, Access{Stripe: x / dps, Pos: lay.DataPos(x % dps)})
		}
		plan, err := scheme.PlanCells(rangeCells, failed, fills)
		if fill8 == 0 {
			if want, werr := scheme.PlanDegradedRead(start, count, failed); werr == nil && !reflect.DeepEqual(plan, want) {
				t.Fatalf("full stripes: PlanCells read %v, PlanDegradedRead %v", plan.Reads, want.Reads)
			}
		}
		sc.check(t, rangeCells, failed, plan, err)

		stripe := start / dps
		for row := 0; row < rows; row++ {
			diskCells = append(diskCells, Access{Stripe: stripe, Pos: Pos{Row: row, Col: lay.Col(stripe, failed[0])}})
		}
		plan, err = scheme.PlanCells(diskCells, failed, fills)
		sc.check(t, diskCells, failed, plan, err)

		dev := (failed[1] + 1) % n
		if dev == failed[0] {
			dev = (dev + 1) % n
		}
		for slot := start; slot < start+count%(3*rows)+1; slot++ {
			runCells = append(runCells, Access{Stripe: slot / rows, Pos: Pos{Row: slot % rows, Col: lay.Col(slot/rows, dev)}})
		}
		avoid := append([]int{dev}, failed...)
		plan, err = scheme.PlanCells(runCells, avoid, fills)
		sc.check(t, runCells, avoid, plan, err)
	})
}

// planCase is one fuzzed geometry: the code, its scheme, the stripes'
// fills, and each stripe's encoded cells, made on first use.
type planCase struct {
	code    Code
	scheme  *Scheme
	fills   []int
	stripes map[int][][]byte
}

// encoded returns a stripe's cells: its user elements (bytes derived from
// stripe and element) and zero padding, encoded.
func (c *planCase) encoded(t *testing.T, stripe int) [][]byte {
	if cells, ok := c.stripes[stripe]; ok {
		return cells
	}
	fill := c.scheme.DataPerStripe()
	if stripe < len(c.fills) {
		fill = c.fills[stripe]
	}
	data := make([][]byte, c.scheme.DataPerStripe())
	for e := range data {
		data[e] = make([]byte, 8)
		if e < fill {
			for i := range data[e] {
				data[e][i] = byte(stripe*131 + e*17 + i*7 + 1)
			}
		}
	}
	cells, err := c.scheme.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	c.stripes[stripe] = cells
	return cells
}

// check asserts a plan of targets around the avoided disks is safe: it was
// plannable (within LRC(6,2,2)'s tolerance), reads no avoided disk and no
// zero cell, reads every non-zero target on a surviving disk directly, and
// reads, for every other non-zero target, a usable recovery set of its
// group or every survivor, zero cells aside — and that the planned reads,
// the zero cells handed in as zeros as the executor does, decode every
// target to its encoded bytes.
func (c *planCase) check(t *testing.T, targets []Access, avoid []int, plan *Plan, err error) {
	t.Helper()
	if errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("%d avoided disks must always be plannable: %v", len(avoid), err)
	}
	if err != nil {
		t.Fatal(err)
	}
	code, scheme, lay := c.code, c.scheme, c.scheme.Layout()
	zero := func(stripe int, pos Pos) bool { return scheme.ZeroCell(c.fills, stripe, pos) }
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
		if zero(a.Stripe, a.Pos) {
			t.Fatalf("plan reads zero cell %+v (fills %v)", a, c.fills[a.Stripe])
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
		if zero(stripe, pos) {
			continue
		}
		if d := lay.Disk(stripe, pos.Col); !isAvoided[d] {
			if !read[Access{Disk: d, Stripe: stripe, Pos: pos}] {
				t.Fatalf("target %+v on a surviving disk is not read directly", tg)
			}
			continue
		}
		cell := lay.CellAt(pos)
		// covered reports whether the plan reads set's non-zero elements of
		// the group; usable, whether none of those is on an avoided disk.
		check := func(set []int) (covered, usable bool) {
			covered, usable = true, true
			for _, el := range set {
				p := lay.GroupCell(cell.Group, el)
				if zero(stripe, p) {
					continue
				}
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

	// Decode as the executor serves: per stripe the cells read, and every
	// zero cell as zeros.
	n, cps := scheme.N(), scheme.CellsPerStripe()
	served := make(map[int][][]byte)
	cellsOf := func(stripe int) [][]byte {
		if served[stripe] == nil {
			served[stripe] = make([][]byte, cps)
			for idx := range served[stripe] {
				if zero(stripe, Pos{Row: idx / n, Col: idx % n}) {
					served[stripe][idx] = make([]byte, 8)
				}
			}
		}
		return served[stripe]
	}
	for _, a := range plan.Reads {
		idx := a.Pos.Row*n + a.Pos.Col
		cellsOf(a.Stripe)[idx] = c.encoded(t, a.Stripe)[idx]
	}
	for _, tg := range targets {
		got, err := scheme.RebuildCellInto(new(core.Buffers), cellsOf(tg.Stripe), tg.Pos)
		if err != nil {
			t.Fatalf("target %+v does not decode from the plan: %v", tg, err)
		}
		if want := c.encoded(t, tg.Stripe)[tg.Pos.Row*n+tg.Pos.Col]; !bytes.Equal(got, want) {
			t.Fatalf("target %+v decodes to %x, encoded %x", tg, got, want)
		}
	}
}
