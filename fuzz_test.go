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
	"repro/internal/store"
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
// degraded planner with two failed disks (LRC(6,2,2) tolerates three) and
// asserts its safety properties: no read on a failed disk, loads that add up,
// and a plan that can decode — every lost element's group is read on one of
// the element's usable recovery sets, or on every survivor when none is
// usable.
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
		n := scheme.N()
		start := int(start16) % 200
		count := int(count8)%40 + 1
		failed := []int{int(fail8) % n, (int(fail8) + 1 + int(second8)%(n-1)) % n}
		plan, err := scheme.PlanDegradedRead(start, count, failed)
		if errors.Is(err, core.ErrUnrecoverable) {
			t.Fatalf("two failures must always be plannable: %v", err)
		}
		if err != nil {
			t.Fatal(err)
		}
		isFailed := map[int]bool{failed[0]: true, failed[1]: true}
		read := make(map[Access]bool, len(plan.Reads))
		for _, a := range plan.Reads {
			if isFailed[a.Disk] {
				t.Fatalf("plan touches failed disk: %+v", a)
			}
			read[a] = true
		}
		// Loads must sum to total reads.
		sum := 0
		for _, l := range plan.Loads {
			sum += l
		}
		if sum != plan.TotalReads() {
			t.Fatalf("loads sum %d != %d reads", sum, plan.TotalReads())
		}

		lay := scheme.Layout()
		dps := scheme.DataPerStripe()
		for x := start; x < start+count; x++ {
			stripe, e := x/dps, x%dps
			pos := lay.DataPos(e)
			if !isFailed[lay.Disk(stripe, pos.Col)] {
				if !read[Access{Disk: lay.Disk(stripe, pos.Col), Stripe: stripe, Pos: pos}] {
					t.Fatalf("element %d on a surviving disk is not read directly", x)
				}
				continue
			}
			cell := lay.CellAt(pos)
			// covered reports whether the plan reads set's elements of the
			// group; usable, whether none of them is on a failed disk.
			check := func(set []int) (covered, usable bool) {
				covered, usable = true, true
				for _, el := range set {
					p := lay.GroupCell(cell.Group, el)
					a := Access{Disk: lay.Disk(stripe, p.Col), Stripe: stripe, Pos: p}
					usable = usable && !isFailed[a.Disk]
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
					if p := lay.GroupCell(cell.Group, el); !isFailed[lay.Disk(stripe, p.Col)] {
						survivors = append(survivors, el)
					}
				}
				ok, _ = check(survivors)
			}
			if !ok {
				t.Fatalf("lost element %d (group %d element %d, failed %v): plan reads none of its recovery sets",
					x, cell.Group, cell.Element, failed)
			}
		}
	})
}

// FuzzStoreWriteAt exercises the small-write path against a shadow copy.
func FuzzStoreWriteAt(f *testing.F) {
	f.Add(uint16(0), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(uint16(3), bytes.Repeat([]byte{7}, 64))
	f.Fuzz(func(t *testing.T, elem16 uint16, upd []byte) {
		const elemSize = 32
		if len(upd) == 0 || len(upd)%elemSize != 0 || len(upd) > 8*elemSize {
			return
		}
		code, err := NewRS(6, 3)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := NewScheme(code, FormECFRM)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStore(scheme, elemSize)
		if err != nil {
			t.Fatal(err)
		}
		total := 3 * scheme.DataPerStripe() * elemSize
		shadow := make([]byte, total)
		for i := range shadow {
			shadow[i] = byte(i * 31)
		}
		if err := st.Append(shadow); err != nil {
			t.Fatal(err)
		}
		maxStart := total/elemSize - len(upd)/elemSize
		off := int64(int(elem16)%(maxStart+1)) * elemSize
		if err := st.WriteAt(off, upd); err != nil {
			if errors.Is(err, store.ErrRange) {
				return
			}
			t.Fatal(err)
		}
		copy(shadow[off:], upd)
		res, err := st.ReadAt(0, total)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, shadow) {
			t.Fatal("store diverged from shadow after WriteAt")
		}
		if bad, err := st.Scrub(); err != nil || bad != nil {
			t.Fatalf("scrub after WriteAt: %v %v", bad, err)
		}
	})
}
