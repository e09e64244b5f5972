package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crs"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/workload"
)

func testStore(t testing.TB, form layout.Form) *Store {
	t.Helper()
	return MustNew(core.MustScheme(lrc.Must(6, 2, 2), form), 64)
}

func fill(t testing.TB, s *Store, nBytes int, seed int64) []byte {
	t.Helper()
	data := make([]byte, nBytes)
	rand.New(rand.NewSource(seed)).Read(data)
	if err := s.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestNewValidation(t *testing.T) {
	sch := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	if _, err := New(sch, 0); err == nil {
		t.Fatal("zero element size must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(sch, -1)
}

func TestAppendSealsFullStripes(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	if err := s.Append(make([]byte, stripeBytes-1)); err != nil {
		t.Fatal(err)
	}
	if s.Stripes() != 0 {
		t.Fatal("partial stripe sealed early")
	}
	if err := s.Append(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Stripes() != 1 {
		t.Fatalf("stripes = %d, want 1", s.Stripes())
	}
	if s.Len() != int64(stripeBytes) {
		t.Fatalf("Len = %d, want %d", s.Len(), stripeBytes)
	}
}

func TestFlushPadsPartial(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	if err := s.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Stripes() != 1 {
		t.Fatalf("stripes = %d, want 1", s.Stripes())
	}
	// Flushing again is a no-op.
	if err := s.Flush(); err != nil || s.Stripes() != 1 {
		t.Fatal("second flush misbehaved")
	}
	res, err := s.ReadAt(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != "hello" {
		t.Fatalf("read %q", res.Data)
	}
}

func TestNormalReadRoundTrip(t *testing.T) {
	for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
		s := testStore(t, form)
		data := fill(t, s, 5000, 60)
		rng := rand.New(rand.NewSource(61))
		for trial := 0; trial < 100; trial++ {
			off := rng.Intn(4500)
			ln := 1 + rng.Intn(500)
			res, err := s.ReadAt(int64(off), ln)
			if err != nil {
				t.Fatalf("%s: %v", form, err)
			}
			if !bytes.Equal(res.Data, data[off:off+ln]) {
				t.Fatalf("%s: payload mismatch at [%d,%d)", form, off, off+ln)
			}
			if res.Plan.Cost() != 1.0 {
				t.Fatalf("%s: normal read cost %v", form, res.Plan.Cost())
			}
		}
	}
}

func TestReadRangeErrors(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 1000, 62)
	sealed := int64(s.Stripes()) * int64(s.Scheme().DataPerStripe()*s.ElementSize())
	cases := []struct {
		off int64
		ln  int
	}{
		{-1, 10}, {0, -1}, {sealed, 1}, {sealed - 5, 10},
	}
	for _, c := range cases {
		if _, err := s.ReadAt(c.off, c.ln); !errors.Is(err, ErrRange) {
			t.Errorf("ReadAt(%d,%d) err = %v, want ErrRange", c.off, c.ln, err)
		}
	}
	// Zero-length read succeeds with empty payload.
	res, err := s.ReadAt(0, 0)
	if err != nil || len(res.Data) != 0 {
		t.Fatalf("zero-length read: %v, %d bytes", err, len(res.Data))
	}
}

func TestDegradedReadEveryDisk(t *testing.T) {
	for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
		s := testStore(t, form)
		data := fill(t, s, 8000, 63)
		rng := rand.New(rand.NewSource(64))
		for d := 0; d < s.Scheme().N(); d++ {
			s.FailDisk(d)
			for trial := 0; trial < 20; trial++ {
				off := rng.Intn(7000)
				ln := 1 + rng.Intn(900)
				res, err := s.ReadAt(int64(off), ln)
				if err != nil {
					t.Fatalf("%s disk %d: %v", form, d, err)
				}
				if !bytes.Equal(res.Data, data[off:off+ln]) {
					t.Fatalf("%s disk %d: payload mismatch", form, d)
				}
				if res.Plan.Loads[d] != 0 {
					t.Fatalf("%s: degraded plan loaded failed disk %d", form, d)
				}
			}
			// Restore for the next iteration.
			if _, err := s.RecoverDisk(d); err != nil {
				t.Fatalf("%s: recover disk %d: %v", form, d, err)
			}
		}
	}
}

func TestPlannedLoadsMatchObservedIO(t *testing.T) {
	// Invariant 5 of DESIGN.md: the plan's per-disk loads must equal the
	// devices' observed read counters exactly.
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 6000, 65)
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 50; trial++ {
		var failed int = -1
		if trial%2 == 1 {
			failed = rng.Intn(s.Scheme().N())
			s.FailDisk(failed)
		}
		s.ResetCounters()
		off := rng.Intn(5000)
		ln := 1 + rng.Intn(800)
		res, err := s.ReadAt(int64(off), ln)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < s.Scheme().N(); d++ {
			if got, want := s.Device(d).Reads(), res.Plan.Loads[d]; got != want {
				t.Fatalf("trial %d disk %d: observed %d reads, planned %d", trial, d, got, want)
			}
		}
		if failed >= 0 {
			if _, err := s.RecoverDisk(failed); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRecoverDiskRestoresContent(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	data := fill(t, s, 10000, 67)
	before := s.Device(3).Elements()
	s.FailDisk(3)
	cost, err := s.RecoverDisk(3)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("recovery read nothing")
	}
	if got := s.Device(3).Elements(); got != before {
		t.Fatalf("replacement has %d elements, want %d", got, before)
	}
	if s.Device(3).Failed() {
		t.Fatal("device still marked failed")
	}
	// All data must read back clean with zero failures.
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("data corrupted by recovery")
	}
	// And the parity must scrub clean.
	bad, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatalf("scrub found corrupt stripes %v after recovery", bad)
	}
}

func TestRecoverDiskNotFailed(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 100, 68)
	if _, err := s.RecoverDisk(0); err == nil {
		t.Fatal("recovering healthy disk must fail")
	}
}

func TestMultiFailureWithinTolerance(t *testing.T) {
	s := testStore(t, layout.FormECFRM) // LRC(6,2,2): tolerance 3
	data := fill(t, s, 4000, 69)
	for _, d := range []int{1, 5, 8} {
		s.FailDisk(d)
	}
	res, err := s.ReadAt(100, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data[100:2100]) {
		t.Fatal("triple-failure degraded read wrong")
	}
	// Recover all three.
	for _, d := range []int{1, 5, 8} {
		if _, err := s.RecoverDisk(d); err != nil {
			t.Fatalf("recover %d: %v", d, err)
		}
	}
	if bad, _ := s.Scrub(); bad != nil {
		t.Fatalf("scrub found %v after triple recovery", bad)
	}
}

func TestBeyondToleranceReadFails(t *testing.T) {
	s := MustNew(core.MustScheme(rs.Must(6, 3), layout.FormECFRM), 64)
	fill(t, s, 4000, 70)
	for _, d := range []int{0, 1, 2, 3} {
		s.FailDisk(d)
	}
	if _, err := s.ReadAt(0, 4000); !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want core.ErrUnrecoverable", err)
	}
}

func TestScrubFindsCorruption(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 4000, 71)
	if bad, err := s.Scrub(); err != nil || bad != nil {
		t.Fatalf("clean store scrubbed dirty: %v %v", bad, err)
	}
	if err := s.CorruptCell(1, layout.Pos{Row: 0, Col: 2}); err != nil {
		t.Fatal(err)
	}
	bad, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("scrub = %v, want [1]", bad)
	}
}

func TestCorruptCellMissing(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	if err := s.CorruptCell(0, layout.Pos{Row: 0, Col: 0}); err == nil {
		t.Fatal("corrupting unwritten cell must fail")
	}
}

func TestFailedDisksSorted(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	s.FailDisk(7)
	s.FailDisk(2)
	got := s.FailedDisks()
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("FailedDisks = %v", got)
	}
}

func TestRotatedLayoutBalancesDevices(t *testing.T) {
	// With many stripes, rotation must distribute stored elements evenly
	// across devices (each device gets the same cell count).
	s := MustNew(core.MustScheme(rs.Must(6, 3), layout.FormRotated), 16)
	fill(t, s, 16*6*9*3, 72) // 27 stripes
	want := s.Device(0).Elements()
	for d := 1; d < 9; d++ {
		if got := s.Device(d).Elements(); got != want {
			t.Fatalf("device %d has %d elements, device 0 has %d", d, got, want)
		}
	}
}

func TestReadAtUnalignedBoundaries(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	data := fill(t, s, 3000, 73)
	// Single byte at an element boundary, spanning boundary, etc.
	for _, c := range [][2]int{{63, 1}, {64, 1}, {63, 2}, {0, 3000}, {2999, 1}, {100, 1000}} {
		res, err := s.ReadAt(int64(c[0]), c[1])
		if err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", c[0], c[1], err)
		}
		if !bytes.Equal(res.Data, data[c[0]:c[0]+c[1]]) {
			t.Fatalf("ReadAt(%d,%d) mismatch", c[0], c[1])
		}
	}
}

func BenchmarkStoreNormalRead(b *testing.B) {
	s := MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 4096)
	data := make([]byte, 4096*30*4)
	rand.New(rand.NewSource(74)).Read(data)
	if err := s.Append(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(int64(i%16)*4096, 8*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreDegradedRead(b *testing.B) {
	s := MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 4096)
	data := make([]byte, 4096*30*4)
	rand.New(rand.NewSource(75)).Read(data)
	if err := s.Append(data); err != nil {
		b.Fatal(err)
	}
	s.FailDisk(0)
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(int64(i%16)*4096, 8*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZipfTraceReplay(t *testing.T) {
	// A Zipf-skewed element-range workload (workload.NewSkewed) replayed
	// against the store healthy, with disk 6 failed, and after its recovery,
	// byte-verified each time.
	s := testStore(t, layout.FormECFRM)
	const elements = 600
	payload := fill(t, s, elements*s.ElementSize(), 91)
	gen, err := workload.NewSkewed(
		workload.Config{TotalElements: elements, Disks: s.Scheme().N(), Seed: 92},
		workload.SkewConfig{Kind: workload.SkewZipf, ZipfS: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	trials := gen.Series(400)
	run := func(phase string) {
		for _, tr := range trials {
			off, size := tr.Start*s.ElementSize(), tr.Count*s.ElementSize()
			res, err := s.ReadAt(int64(off), size)
			if err != nil {
				t.Fatalf("%s: elements [%d,+%d): %v", phase, tr.Start, tr.Count, err)
			}
			if !bytes.Equal(res.Data, payload[off:off+size]) {
				t.Fatalf("%s: elements [%d,+%d) bytes wrong", phase, tr.Start, tr.Count)
			}
		}
	}
	run("healthy")
	s.FailDisk(6)
	run("disk 6 failed")
	if _, err := s.RecoverDisk(6); err != nil {
		t.Fatal(err)
	}
	run("recovered")
}

func TestWriteAtSmallWritePath(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	data := fill(t, s, 8000, 95)
	rng := rand.New(rand.NewSource(96))
	// Overwrite several aligned element runs and verify reads + scrub.
	for trial := 0; trial < 20; trial++ {
		elem := rng.Intn(100)
		count := 1 + rng.Intn(3)
		off := int64(elem * s.ElementSize())
		if off+int64(count*s.ElementSize()) > int64(len(data)) {
			continue
		}
		upd := make([]byte, count*s.ElementSize())
		rng.Read(upd)
		if err := s.WriteAt(off, upd); err != nil {
			t.Fatal(err)
		}
		copy(data[off:], upd)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("data wrong after in-place updates")
	}
	if bad, err := s.Scrub(); err != nil || bad != nil {
		t.Fatalf("scrub after updates: %v %v", bad, err)
	}
	// Degraded read still works after updates.
	s.FailDisk(4)
	res, err = s.ReadAt(100, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data[100:3100]) {
		t.Fatal("degraded read wrong after updates")
	}
}

func TestWriteAtValidation(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 4000, 97)
	es := s.ElementSize()
	if err := s.WriteAt(1, make([]byte, es)); !errors.Is(err, ErrRange) {
		t.Fatalf("unaligned offset: %v", err)
	}
	if err := s.WriteAt(0, make([]byte, es-1)); !errors.Is(err, ErrRange) {
		t.Fatalf("unaligned length: %v", err)
	}
	if err := s.WriteAt(1<<40, make([]byte, es)); !errors.Is(err, ErrRange) {
		t.Fatalf("beyond extent: %v", err)
	}
	s.FailDisk(0)
	if err := s.WriteAt(0, make([]byte, es)); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed disk: %v", err)
	}
}

func TestSelfHealingRead(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	data := fill(t, s, 4000, 98)
	// Silently corrupt a data cell the next read will touch.
	if err := s.CorruptCell(0, layout.Pos{Row: 0, Col: 3}); err != nil {
		t.Fatal(err)
	}
	// Element 3 lives at stripe 0 cell (0,3); read it.
	res, err := s.ReadAt(int64(3*s.ElementSize()), s.ElementSize())
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed != 1 {
		t.Fatalf("healed = %d, want 1", res.Healed)
	}
	if !bytes.Equal(res.Data, data[3*s.ElementSize():4*s.ElementSize()]) {
		t.Fatal("healed read returned wrong bytes")
	}
	// The cell is rewritten: scrub must be clean and a re-read heals nothing.
	if bad, err := s.Scrub(); err != nil || bad != nil {
		t.Fatalf("scrub after heal: %v %v", bad, err)
	}
	res, err = s.ReadAt(int64(3*s.ElementSize()), s.ElementSize())
	if err != nil || res.Healed != 0 {
		t.Fatalf("second read healed %d, err %v", res.Healed, err)
	}
}

func TestHealingUnderConcurrentFailure(t *testing.T) {
	// Corruption plus failed disks within tolerance: the heal must use the
	// surviving redundancy.
	s := testStore(t, layout.FormECFRM)
	data := fill(t, s, 4000, 99)
	s.FailDisk(7)
	s.FailDisk(8)
	if err := s.CorruptCell(0, layout.Pos{Row: 0, Col: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := s.ReadAt(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed == 0 {
		t.Fatal("no healing occurred")
	}
	if !bytes.Equal(res.Data, data[:2000]) {
		t.Fatal("payload wrong")
	}
}

func TestScrubReportsCorruptionViaChecksum(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 4000, 100)
	if err := s.CorruptCell(1, layout.Pos{Row: 4, Col: 9}); err != nil {
		t.Fatal(err) // a parity cell: only the checksum can finger it
	}
	bad, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("scrub = %v, want [1]", bad)
	}
}

func TestRecoverDiskSkipsCorruptCells(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	data := fill(t, s, 4000, 101)
	if err := s.CorruptCell(0, layout.Pos{Row: 1, Col: 5}); err != nil {
		t.Fatal(err)
	}
	s.FailDisk(2)
	if _, err := s.RecoverDisk(2); err != nil {
		t.Fatalf("recovery blocked by unrelated corruption: %v", err)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("data wrong after recovery with corruption present")
	}
}

func TestStoreWithCRSScheme(t *testing.T) {
	// CRS requires element sizes divisible by its packet width (8); with an
	// aligned element size the whole store pipeline works unchanged —
	// including the XOR decode path on degraded reads.
	s := MustNew(core.MustScheme(crs.Must(6, 3), layout.FormECFRM), 64)
	data := fill(t, s, 6000, 110)
	s.FailDisk(4)
	res, err := s.ReadAt(100, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data[100:3100]) {
		t.Fatal("CRS degraded read wrong")
	}
	if _, err := s.RecoverDisk(4); err != nil {
		t.Fatal(err)
	}
	if bad, _ := s.Scrub(); bad != nil {
		t.Fatalf("CRS scrub found %v", bad)
	}
	// Small writes use CRS's bit-matrix delta path.
	upd := make([]byte, 2*64)
	rand.New(rand.NewSource(111)).Read(upd)
	if err := s.WriteAt(int64(5*64), upd); err != nil {
		t.Fatal(err)
	}
	copy(data[5*64:], upd)
	res, err = s.ReadAt(0, len(data))
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("CRS after WriteAt: err=%v match=%v", err, bytes.Equal(res.Data, data))
	}
}

// TestConcurrentReadersWithMutation exercises the shared-read locking under
// -race: many goroutines read (normal, degraded, and healing reads) while
// others inject failures, recover, and corrupt cells. Every successful read
// must return exactly the written bytes, whatever the interleaving.
func TestConcurrentReadersWithMutation(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	data := fill(t, s, 4*stripeBytes, 42)

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				off := rng.Intn(len(data) - 1)
				n := 1 + rng.Intn(len(data)-off)
				res, err := s.ReadAt(int64(off), n)
				if err != nil {
					if errors.Is(err, core.ErrUnrecoverable) || errors.Is(err, ErrCorrupt) {
						continue // transiently beyond tolerance mid-chaos
					}
					report(err)
					return
				}
				if !bytes.Equal(res.Data, data[off:off+n]) {
					report(fmt.Errorf("read [%d,+%d) returned wrong bytes", off, n))
					return
				}
			}
		}(int64(g))
	}

	// Mutators, each owning one kind of damage so their sum stays within
	// the scheme's tolerance: the failure mutator keeps at most
	// FaultTolerance()-1 disks down (leaving erasure headroom), and the
	// corruption mutator keeps at most one corrupt cell outstanding —
	// exercising heal-on-read, then guaranteeing the heal with HealStripe
	// before corrupting again. Tolerance-many failed disks PLUS an
	// unhealed corrupt cell in the same stripe group is genuine data loss,
	// not chaos, and incremental rebuilds hold disks in the failed state
	// long enough to make that collision reachable.
	tol := s.Scheme().FaultTolerance()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1000))
		for i := 0; i < 30; i++ {
			if rng.Intn(2) == 0 && len(s.FailedDisks()) < tol-1 {
				s.FailDiskWithinTolerance(rng.Intn(s.Scheme().N()))
			} else {
				for _, d := range s.FailedDisks() {
					s.RecoverDisk(d)
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1001))
		lay := s.Scheme().Layout()
		for i := 0; i < 30; i++ {
			stripe := rng.Intn(s.Stripes())
			pos := layout.Pos{Row: rng.Intn(lay.Rows()), Col: rng.Intn(lay.N())}
			if err := s.CorruptCell(stripe, pos); err != nil {
				continue
			}
			// A data-cell read heals through the exclusive-retry path;
			// HealStripe then guarantees the cell (data or parity) is fixed
			// so the next corruption is never the second one outstanding.
			off := stripe * stripeBytes
			if res, err := s.ReadAt(int64(off), stripeBytes); err == nil {
				if !bytes.Equal(res.Data, data[off:off+stripeBytes]) {
					report(fmt.Errorf("heal read stripe %d returned wrong bytes", stripe))
					return
				}
			}
			if _, err := s.HealStripe(stripe); err != nil {
				report(fmt.Errorf("heal stripe %d: %v", stripe, err))
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Settle and verify the store is fully intact.
	for _, d := range s.FailedDisks() {
		if _, err := s.RecoverDisk(d); err != nil {
			t.Fatalf("settle recover %d: %v (failed=%v)", d, err, s.FailedDisks())
		}
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("data corrupted after concurrent chaos")
	}
}

// TestNextOffsetAccountsForPadding pins the multi-object placement contract:
// after a Flush pads a partial stripe, NextOffset (not Len) is where the
// next appended byte lands, and reading there returns the new bytes.
func TestNextOffsetAccountsForPadding(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	first := fill(t, s, 100, 1) // padded to a full stripe by Flush
	stripeBytes := int64(s.Scheme().DataPerStripe() * s.ElementSize())
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100 (padding is not user data)", s.Len())
	}
	if got := s.NextOffset(); got != stripeBytes {
		t.Fatalf("NextOffset = %d, want %d", got, stripeBytes)
	}
	off := s.NextOffset()
	second := fill(t, s, 200, 2)
	res, err := s.ReadAt(off, len(second))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, second) {
		t.Fatal("second object unreadable at NextOffset")
	}
	res, err = s.ReadAt(0, len(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, first) {
		t.Fatal("first object damaged by second append")
	}
}
