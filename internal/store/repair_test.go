package store

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/obs"
)

// TestScrubBatchedConcurrentRead proves the scrub's lock is released between
// batches: a full-store Scrub yields to a concurrent exclusive writer (and a
// reader) at every batch boundary instead of queueing them behind one
// store-length lock hold.
func TestScrubBatchedConcurrentRead(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	data := fill(t, s, (3*DefaultScrubBatch+5)*stripeBytes, 42)

	yields := 0
	s.testScrubYield = func(next int) {
		yields++
		done := make(chan error, 2)
		go func() {
			res, err := s.ReadAt(0, 100)
			if err == nil && !bytes.Equal(res.Data, data[:100]) {
				err = errors.New("stale read during scrub")
			}
			done <- err
		}()
		go func() {
			// Exclusive-lock op: blocked for the whole scrub if the
			// scrub held its lock across batches.
			done <- s.Append(data[:s.ElementSize()])
		}()
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("concurrent op during scrub batch %d: %v", yields, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("concurrent op deadlocked during scrub batch %d: scrub is holding the store lock across batches", yields)
			}
		}
	}
	bad, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean store scrubbed dirty: %v", bad)
	}
	if yields < 3 {
		t.Fatalf("scrub took %d batches, want >= 3 (batching broken)", yields)
	}
}

// TestRecoverDiskMetrics checks the rebuild records its read cost and
// duration in the store's obs bundle.
func TestRecoverDiskMetrics(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	reg := obs.NewRegistry()
	s.SetMetrics(NewMetrics(reg, s.Scheme().N()))
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	fill(t, s, 8*stripeBytes, 7)

	s.FailDisk(3)
	cost, err := s.RecoverDisk(3)
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("rebuild read no survivor elements")
	}
	m := s.Metrics()
	if got := m.RecoverReadElements(); got != int64(cost) {
		t.Fatalf("recover-read-elements counter = %d, want %d", got, cost)
	}
	if got := m.RecoverCount(); got != 1 {
		t.Fatalf("rebuild duration histogram count = %d, want 1", got)
	}
}

// TestIncrementalRebuildMatchesRecoverDisk drives a rebuild one stripe per
// Step and checks the result is indistinguishable from the synchronous
// wrapper: identical data, clean scrub, device healthy.
func TestIncrementalRebuildMatchesRecoverDisk(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	data := fill(t, s, 7*stripeBytes+13, 11)

	s.FailDisk(2)
	r, err := s.BeginDiskRebuild(2)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := r.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if steps != s.Stripes() {
		t.Fatalf("one-stripe steps = %d, want %d", steps, s.Stripes())
	}
	if got := s.FailedDisks(); len(got) != 0 {
		t.Fatalf("disks still failed after rebuild: %v", got)
	}
	if got := s.Rebuilding(); len(got) != 0 {
		t.Fatalf("rebuild still registered: %v", got)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("rebuilt store returned different data")
	}
	if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("post-rebuild scrub: bad=%v err=%v", bad, err)
	}
}

func TestBeginDiskRebuildValidation(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 1000, 3)
	if _, err := s.BeginDiskRebuild(0); err == nil {
		t.Fatal("rebuild of healthy disk must fail")
	}
	if _, err := s.BeginDiskRebuild(-1); err == nil {
		t.Fatal("rebuild of bogus disk must fail")
	}
	s.FailDisk(1)
	r, err := s.BeginDiskRebuild(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginDiskRebuild(1); err == nil {
		t.Fatal("double begin must fail")
	}
	r.Abort()
	if got := s.Rebuilding(); len(got) != 0 {
		t.Fatalf("abort left rebuild registered: %v", got)
	}
	// Abort leaves the disk failed; a fresh begin may start over.
	if _, err := s.BeginDiskRebuild(1); err != nil {
		t.Fatalf("begin after abort: %v", err)
	}
}

// TestConcurrentReadsDuringRebuild hammers reads while a rebuild steps
// through its batches — the shared-lock batching must keep every read
// succeeding with correct data (run under -race).
func TestConcurrentReadsDuringRebuild(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	data := fill(t, s, 20*stripeBytes, 23)

	s.FailDisk(4)
	r, err := s.BeginDiskRebuild(4)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			off := seed * 100
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.ReadAt(int64(off), 256)
				if err != nil {
					t.Errorf("read during rebuild: %v", err)
					return
				}
				if !bytes.Equal(res.Data, data[off:off+256]) {
					t.Error("stale data during rebuild")
					return
				}
			}
		}(i)
	}
	for {
		done, err := r.Step(2)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestScrubRangeBounds exercises the incremental scrub cursor arithmetic.
func TestScrubRangeBounds(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	fill(t, s, 5*stripeBytes, 17)

	bad, next, err := s.ScrubRange(0, 2)
	if err != nil || len(bad) != 0 || next != 2 {
		t.Fatalf("ScrubRange(0,2) = %v,%d,%v", bad, next, err)
	}
	// Count past the extent clamps.
	bad, next, err = s.ScrubRange(3, 100)
	if err != nil || len(bad) != 0 || next != 5 {
		t.Fatalf("ScrubRange(3,100) = %v,%d,%v", bad, next, err)
	}
	// At or past the extent: no-op, cursor unchanged.
	if _, next, _ = s.ScrubRange(5, 2); next != 5 {
		t.Fatalf("ScrubRange(5,2) next = %d, want 5", next)
	}
	if _, next, _ = s.ScrubRange(99, 2); next != 99 {
		t.Fatalf("ScrubRange(99,2) next = %d, want 99", next)
	}
}

// TestScrubRangeFindsAndHealStripeFixes corrupts cells in known stripes and
// drives the detect→heal cycle the background scrubber uses.
func TestScrubRangeFindsAndHealStripeFixes(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	data := fill(t, s, 6*stripeBytes, 19)

	for _, stripe := range []int{1, 4} {
		if err := s.CorruptCell(stripe, layout.Pos{Row: 0, Col: 2}); err != nil {
			t.Fatal(err)
		}
	}
	bad, _, err := s.ScrubRange(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 4 {
		t.Fatalf("bad stripes = %v, want [1 4]", bad)
	}
	total := 0
	for _, stripe := range bad {
		healed, err := s.HealStripe(stripe)
		if err != nil {
			t.Fatal(err)
		}
		total += healed
	}
	if total != 2 {
		t.Fatalf("healed %d cells, want 2", total)
	}
	if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("post-heal scrub: bad=%v err=%v", bad, err)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("healed store returned different data")
	}
}

// TestDeviceHealthSignals checks the detector input: error counts rise on
// injected faults.
func TestDeviceHealthSignals(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stripeBytes := s.Scheme().DataPerStripe() * s.ElementSize()
	fill(t, s, 4*stripeBytes, 29)

	errsBefore := s.DiskErrorCounts()
	// A backend's fail-stop counts as a hard error on every touch; the
	// degraded fallback still serves the read.
	stub(s, onlyDev(0, ErrFailed), nil)
	if _, err := s.ReadAt(0, 512); err != nil {
		t.Fatal(err)
	}
	errsAfter := s.DiskErrorCounts()
	if errsAfter[0] <= errsBefore[0] {
		t.Fatalf("disk 0 error count did not rise: %d -> %d", errsBefore[0], errsAfter[0])
	}
}

// countingDisk is a MemDisk that counts the runs it is handed: one run
// read or written is one pread or pwrite on a file disk.
type countingDisk struct {
	*MemDisk
	reads, writes atomic.Int64
}

func (c *countingDisk) ReadRuns(ctx context.Context, runs []Run) {
	c.reads.Add(int64(len(runs)))
	c.MemDisk.ReadRuns(ctx, runs)
}

func (c *countingDisk) WriteRuns(ctx context.Context, runs []Run, sync bool) error {
	for _, r := range runs {
		if len(r.CRCs) > 0 {
			c.writes.Add(1)
		}
	}
	return c.MemDisk.WriteRuns(ctx, runs, sync)
}

// countingStore fills a store over counting disks with stripes full stripes.
func countingStore(t *testing.T, sch *core.Scheme, stripes int) *Store {
	t.Helper()
	s, _, err := NewWithCellBackends(sch, 64, CellStoreConfig{}, func(int) (CellBackend, error) {
		return &countingDisk{MemDisk: NewMemDisk(64)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, stripes*s.stripeBytes(), 9)
	return s
}

// takeCalls returns each device's backend read and write calls since the
// last take, and resets them.
func takeCalls(s *Store) (reads, writes []int64) {
	for _, d := range s.devices {
		c := d.be.(*countingDisk)
		reads = append(reads, c.reads.Swap(0))
		writes = append(writes, c.writes.Swap(0))
	}
	return reads, writes
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestRepairBackendCallsPerStripe counts backend calls per stripe for
// recovery, scrub and rebuild, each of which reads a stripe as one executor
// job: recovering a clean store and scrub issue one read per device (and
// recovery no write), a rebuild one write and fewer reads than cells read. With one row per
// stripe (standard, rotated) every device holds one cell of a stripe, so the
// counts equal the cell counts. It logs rebuild read calls per stripe,
// averaged over every failed disk.
func TestRepairBackendCallsPerStripe(t *testing.T) {
	const stripes = 6
	for _, code := range []codes.Code{lrc.Must(6, 2, 2), mustRS(6, 3)} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			sch := core.MustScheme(code, form)
			t.Run(sch.Name(), func(t *testing.T) {
				s := countingStore(t, sch, stripes)
				n, rows := sch.N(), sch.Layout().Rows()
				takeCalls(s)
				// Reopen over the same disks, as a gateway restart does.
				rec, rep, err := NewWithCellBackends(sch, 64, CellStoreConfig{}, func(d int) (CellBackend, error) {
					return s.devices[d].be, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if *rep != (RecoveryReport{Stripes: stripes}) {
					t.Fatalf("recovery of a clean store: %+v", rep)
				}
				recReads, recWrites := takeCalls(rec)
				for d := range recReads {
					if recReads[d] != stripes {
						t.Fatalf("recovery read calls %v, want one per device per stripe (%d each)", recReads, stripes)
					}
				}
				if sum(recWrites) != 0 {
					t.Fatalf("recovery of a clean store wrote: %v", recWrites)
				}
				if bad, err := s.Scrub(); err != nil || bad != nil {
					t.Fatalf("scrub: %v %v", bad, err)
				}
				if reads, _ := takeCalls(s); sum(reads) != int64(n*stripes) {
					t.Fatalf("scrub read calls = %d, want one per device per stripe (%d)", sum(reads), n*stripes)
				}

				var rebuildCalls, rebuildCells int64
				for d := 0; d < n; d++ {
					s.FailDisk(d)
					takeCalls(s)
					cells, err := s.RecoverDisk(d)
					if err != nil {
						t.Fatal(err)
					}
					reads, writes := takeCalls(s)
					if sum(writes) != stripes || writes[d] != stripes {
						t.Fatalf("rebuild of disk %d: write calls %v, want one per stripe on the replacement", d, writes)
					}
					if reads[d] != 0 {
						t.Fatalf("rebuild of disk %d read the replacement", d)
					}
					if got := sum(reads); rows > 1 && got >= int64(cells) || rows == 1 && got != int64(cells) {
						t.Fatalf("rebuild of disk %d: %d read calls for %d cells read", d, got, cells)
					}
					rebuildCalls += sum(reads)
					rebuildCells += int64(cells)
				}
				t.Logf("%s: rebuild reads %.2f cells in %.2f calls per stripe (averaged over every disk)",
					sch.Name(), float64(rebuildCells)/float64(n*stripes), float64(rebuildCalls)/float64(n*stripes))
			})
		}
	}
}

// TestRecoverDiskReadCostAndBalance rebuilds every disk of every Table-I
// configuration × layout form and compares the survivor reads with the
// choice of each lost cell's first recovery set, which one failure never
// blocks: the exact planner must read no more cells, and spread them no
// worse — the max over the mean survivor load, averaged over every failed
// disk. It logs both balances.
func TestRecoverDiskReadCostAndBalance(t *testing.T) {
	const stripes = 4
	for _, code := range []codes.Code{mustRS(6, 3), mustRS(8, 4), mustRS(10, 5),
		lrc.Must(6, 2, 2), lrc.Must(8, 2, 3), lrc.Must(10, 2, 4)} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			sch := core.MustScheme(code, form)
			s := MustNew(sch, 64)
			fill(t, s, stripes*s.stripeBytes(), 13)
			n, lay := sch.N(), sch.Layout()
			var got, want float64
			for d := 0; d < n; d++ {
				firstSet := make([]int, n)
				cells := 0
				for stripe := 0; stripe < stripes; stripe++ {
					col := lay.Col(stripe, d)
					for row := 0; row < lay.Rows(); row++ {
						c := lay.CellAt(layout.Pos{Row: row, Col: col})
						for _, el := range code.RecoverySets(c.Element)[0] {
							firstSet[lay.Disk(stripe, lay.GroupCell(c.Group, el).Col)]++
							cells++
						}
					}
				}
				s.ResetCounters()
				s.FailDisk(d)
				cost, err := s.RecoverDisk(d)
				if err != nil {
					t.Fatal(err)
				}
				if cost != cells {
					t.Fatalf("%s disk %d: rebuild read %d cells, the first recovery sets %d", sch.Name(), d, cost, cells)
				}
				loads := make([]int, n)
				for i := range loads {
					loads[i] = s.Device(i).Reads()
				}
				got += maxOverMean(loads, d)
				want += maxOverMean(firstSet, d)
			}
			got, want = got/float64(n), want/float64(n)
			t.Logf("%s: survivor reads max/mean %.3f (first recovery sets %.3f)", sch.Name(), got, want)
			if got > want+1e-9 {
				t.Errorf("%s: rebuild spreads survivor reads worse than the first recovery sets: %.3f > %.3f",
					sch.Name(), got, want)
			}
		}
	}
}

// maxOverMean is the largest load over the mean load of every disk but
// skip.
func maxOverMean(loads []int, skip int) float64 {
	most, total := 0, 0
	for i, l := range loads {
		if i != skip {
			most, total = max(most, l), total+l
		}
	}
	return float64(most) * float64(len(loads)-1) / float64(total)
}

// TestRebuildNeverReadsZeroCells rebuilds each disk of the benchmark's
// object set in turn: the rebuild plans no read of a zero cell and records
// the device's zero cells as zero runs, so LRC(6,2,2) reads 1,232 cells
// per set instead of 3,600 and RS(6,3), whose two largest objects spill
// into a second stripe, 1,772 instead of 3,564 — and every rebuilt device
// holds exactly the cells and checksums it held before it failed.
func TestRebuildNeverReadsZeroCells(t *testing.T) {
	for _, tc := range []struct {
		code  codes.Code
		reads int
	}{
		{lrc.Must(6, 2, 2), 1232},
		{mustRS(6, 3), 1772},
	} {
		sch := core.MustScheme(tc.code, layout.FormECFRM)
		st := MustNew(sch, 64)
		objs, offs := paddedSet(t, st)
		handed := &handedCells{}
		st.WrapBackends(func(be CellBackend) CellBackend { return countingBackend{be, handed} })
		lay, rows := sch.Layout(), sch.Layout().Rows()
		reads := 0
		for d := 0; d < sch.N(); d++ {
			stored := func() Run {
				r := []Run{{Disk: d, Count: st.Stripes() * rows}}
				if st.Device(d).base.ReadRuns(context.Background(), r); r[0].Err != nil {
					t.Fatal(r[0].Err)
				}
				return r[0]
			}
			before := stored()
			handed.cells = handed.cells[:0]
			st.FailDisk(d)
			cost, err := st.RecoverDisk(d)
			if err != nil {
				t.Fatalf("%s: rebuild disk %d: %v", sch.Name(), d, err)
			}
			reads += cost
			if after := stored(); !bytes.Equal(after.Data, before.Data) || !slices.Equal(after.CRCs, before.CRCs) {
				t.Fatalf("%s: rebuilt disk %d differs from what it held", sch.Name(), d)
			}
			if len(handed.cells) != cost {
				t.Fatalf("%s: rebuild of disk %d planned %d reads, handed backends %d cells", sch.Name(), d, cost, len(handed.cells))
			}
			for _, c := range handed.cells {
				stripe := c.Stripe / rows
				if pos := (layout.Pos{Row: c.Stripe % rows, Col: lay.Col(stripe, c.Disk)}); sch.ZeroCell(st.fills, stripe, pos) {
					t.Fatalf("%s: rebuilding disk %d read zero cell %+v of stripe %d", sch.Name(), d, pos, stripe)
				}
			}
		}
		if reads != tc.reads {
			t.Fatalf("%s: rebuilding each disk in turn read %d cells, want %d", sch.Name(), reads, tc.reads)
		}
		for i, obj := range objs {
			if res, err := st.ReadAt(offs[i], len(obj)); err != nil || !bytes.Equal(res.Data, obj) {
				t.Fatalf("%s: object %d after the rebuilds: %v", sch.Name(), i, err)
			}
		}
	}
}

// TestRebuildAllocsPerStripe bounds what a rebuild allocates per stripe on
// file devices below one element: the device's cells and checksums are read
// and decoded into pooled buffers, and written from one the run pool lends.
// One processor and no collection keep every pool warm from the first
// rebuild to the measured one.
func TestRebuildAllocsPerStripe(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const elem, stripes = 16 << 10, 32
	st, _, err := OpenFileBacked(fileScheme(), elem, FileConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill(t, st, stripes*st.stripeBytes(), 52)
	rebuild := func(d int) {
		st.FailDisk(d)
		if _, err := st.RecoverDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	rebuild(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rebuild(1)
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / stripes; per >= elem {
		t.Fatalf("a rebuild allocates %d bytes per stripe; want less than one %d-byte element", per, elem)
	} else {
		t.Logf("a rebuild allocates %d bytes per stripe", per)
	}
}
