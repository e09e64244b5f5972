package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/obs"
)

// scribble overwrites b with a pattern no test payload contains.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// TestSealKeepsNoAlias: seal aliases its data shards into the pending buffer
// and hands devices its own reused runs, so no backend may keep what it is
// handed. After a commit, scribbling over the source, the pending buffer and
// every staging run must not change what reads back — on memory, file and
// remote (CellBackend) devices, through Append/Flush and through the WAL.
func TestSealKeepsNoAlias(t *testing.T) {
	stores := map[string]func(t *testing.T) *Store{
		"mem":  func(t *testing.T) *Store { return MustNew(fileScheme(), testElemSize) },
		"file": func(t *testing.T) *Store { st, _ := openFileStore(t, t.TempDir()); return st },
		"remote": func(t *testing.T) *Store {
			st, _ := newRemoteOverDisks(t, fileScheme(), testElemSize, CellStoreConfig{Sync: true})
			return st
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			rng := rand.New(rand.NewSource(5))
			src := make([]byte, 2*s.stripeBytes()+s.stripeBytes()/3+7)
			rng.Read(src)
			want := append([]byte(nil), src...)
			if err := s.Append(src); err != nil {
				t.Fatal(err)
			}
			scribble(src) // Append copies: the source is the caller's again
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}

			w := NewWAL(s, WALConfig{})
			obj := make([]byte, s.stripeBytes()/2+3)
			rng.Read(obj)
			wantObj := append([]byte(nil), obj...)
			off, err := w.Put(context.Background(), obj)
			if err != nil {
				t.Fatal(err)
			}
			scribble(obj) // a nil-error Put returns the buffer to the caller
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			scribble(s.pending[:cap(s.pending)])
			for _, run := range s.sealing.runs {
				scribble(run)
			}
			res, err := s.ReadAt(0, len(want))
			if err != nil || !bytes.Equal(res.Data, want) {
				t.Fatalf("appended bytes changed under scribbled buffers (err %v)", err)
			}
			res, err = s.ReadAt(off, len(wantObj))
			if err != nil || !bytes.Equal(res.Data, wantObj) {
				t.Fatalf("wal object changed under scribbled buffers (err %v)", err)
			}
			if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
				t.Fatalf("scrub after scribbling: corrupt stripes %v, err %v", bad, err)
			}
		})
	}
}

// failingDisk is a CellBackend whose writes fail while broken is set.
type failingDisk struct {
	*MemDisk
	broken *bool
}

func (d failingDisk) WriteRuns(ctx context.Context, runs []Run, sync bool) error {
	if *d.broken {
		return errors.New("disk write failed")
	}
	return d.MemDisk.WriteRuns(ctx, runs, sync)
}

// TestSealDeviceWriteFailureMidFanOut: the per-device writes of a seal run
// concurrently; when one of them fails the seal must return that error with
// the stripe counter not advanced and the pending tail retained, so a retry
// seals the same bytes — and nothing of the failed attempt is readable.
func TestSealDeviceWriteFailureMidFanOut(t *testing.T) {
	scheme := fileScheme()
	broken := true
	st, _, err := NewWithCellBackends(scheme, testElemSize, CellStoreConfig{Sync: true}, func(d int) (CellBackend, error) {
		if d == 4 {
			return failingDisk{NewMemDisk(testElemSize), &broken}, nil
		}
		return NewMemDisk(testElemSize), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := NewWAL(st, WALConfig{FlushInterval: time.Hour})

	data := make([]byte, st.stripeBytes()/2)
	rand.New(rand.NewSource(9)).Read(data)
	if _, err := w.Put(context.Background(), data); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put over a failing device got %v; want ErrUnavailable", err)
	}
	if st.Stripes() != 0 {
		t.Fatalf("failed seal advanced the stripe counter to %d", st.Stripes())
	}
	if got := st.NextOffset(); got != int64(len(data)) {
		t.Fatalf("failed seal dropped the pending tail: next offset %d, want %d", got, len(data))
	}
	if n, _ := w.Depth(); n != 1 {
		t.Fatalf("failed commit dropped the entry: depth %d", n)
	}
	if _, err := st.ReadAt(0, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("unsealed bytes readable after failed seal: %v", err)
	}

	broken = false
	if err := w.Close(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if st.Stripes() != 1 {
		t.Fatalf("retry sealed %d stripes; want 1", st.Stripes())
	}
	res, err := st.ReadAt(0, len(data))
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("retried object reads back wrong (err %v)", err)
	}
}

// TestWALLonePutCommitsAtOnce: a Put that finds the queue empty and no commit
// running leads its own commit — FlushInterval is for Puts with company.
func TestWALLonePutCommitsAtOnce(t *testing.T) {
	s := walStore(t)
	w := NewWAL(s, WALConfig{FlushInterval: time.Hour})
	defer w.Close()
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := w.Put(context.Background(), []byte{1, 2, 3})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("lone put %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lone put %d waited on the flush interval", i)
		}
	}
	if got := s.Stripes(); got != 3 {
		t.Fatalf("3 lone puts sealed %d stripes; want one commit each", got)
	}
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWALHoldsNothingAfterAck: the write path keeps no object bytes once a
// Put is acked — no resident log, no queue residue — so the live heap after
// 200 Puts is what it was after 20, not ten times it. (The file devices hold
// no cells in memory; the spill file is the only copy of the log.)
func TestWALHoldsNothingAfterAck(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenFileBacked(fileScheme(), 4096, FileConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := NewWAL(s, WALConfig{LogPath: filepath.Join(dir, "wal.log")})
	defer w.Close()
	obj := make([]byte, 64<<10)
	put := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := w.Put(context.Background(), obj); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(20)
	base := heapInUse()
	put(180)
	after := heapInUse()
	// 180 more objects are 11.25 MiB of user bytes; growth beyond a few
	// object sizes means something is still holding them.
	if after > base+4*uint64(len(obj)) {
		t.Fatalf("live heap grew from %d to %d bytes over 180 puts of %d", base, after, len(obj))
	}
}

// TestWALPutAllocatesLessThanObject: a Put borrows its buffer, the seal
// reuses the store's, and the spill writes a large object from where it
// lies — so a steady-state Put allocates less than the object's own size.
func TestWALPutAllocatesLessThanObject(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	dir := t.TempDir()
	s, _, err := OpenFileBacked(fileScheme(), 4096, FileConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := NewWAL(s, WALConfig{LogPath: filepath.Join(dir, "wal.log")})
	defer w.Close()
	obj := make([]byte, 10*4096)
	put := func() {
		if _, err := w.Put(context.Background(), obj); err != nil {
			t.Fatal(err)
		}
	}
	put() // warm: stripe buffer, seal runs, spill buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const puts = 20
	for i := 0; i < puts; i++ {
		put()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / puts; per > uint64(len(obj)) {
		t.Fatalf("a put of %d bytes allocates %d; want at most the object's size", len(obj), per)
	}
}

// TestSealElidesZeroCells pins what a lone object of s = 1..20 elements —
// the benchmark's object set — costs its devices, per set: LRC(6,2,2) and
// RS(6,3) under ecfrm write 375 and 342 cells of the 1,000 and 594 their
// stripes hold. Every cell is still recorded — element writes plus zero
// cells make up the full stripes — and each object reads back, healthy and
// degraded around a device that wrote nothing, from stripes that scrub
// clean.
func TestSealElidesZeroCells(t *testing.T) {
	const elem = 64
	for _, tc := range []struct {
		code            codes.Code
		writes, records int
	}{
		{lrc.Must(6, 2, 2), 375, 1000},
		{mustRS(6, 3), 342, 594},
	} {
		scheme := core.MustScheme(tc.code, layout.FormECFRM)
		writes, records, zeros := 0, 0, int64(0)
		for size := 1; size <= 20; size++ {
			st := MustNew(scheme, elem)
			m := NewMetrics(obs.NewRegistry(), scheme.N())
			st.SetMetrics(m)
			obj := fill(t, st, size*elem, int64(size))
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			idle := -1
			for d := 0; d < scheme.N(); d++ {
				dev := st.Device(d)
				writes += dev.Writes()
				records += st.DiskElements(d)
				if dev.Writes() == 0 && idle < 0 {
					idle = d
				}
			}
			zeros += m.zeros.Value()
			if bad, err := st.Scrub(); err != nil || len(bad) > 0 {
				t.Fatalf("%s, %d elements: scrub found %v (%v)", scheme.Name(), size, bad, err)
			}
			if idle >= 0 {
				st.FailDisk(idle)
			}
			if res, err := st.ReadAt(0, len(obj)); err != nil || !bytes.Equal(res.Data, obj) {
				t.Fatalf("%s, %d elements: read back with disk %d failed: %v", scheme.Name(), size, idle, err)
			}
		}
		if writes != tc.writes || records != tc.records || int64(records-writes) != zeros {
			t.Fatalf("%s: the set wrote %d cells and recorded %d (%d counted zero); want %d and %d",
				scheme.Name(), writes, records, zeros, tc.writes, tc.records)
		}
	}
}
