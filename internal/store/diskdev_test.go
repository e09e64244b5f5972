package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
)

const testElemSize = 64

func fileScheme() *core.Scheme {
	return core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
}

// openFileStore opens (or reopens) a file-backed store in dir and fails the
// test on error.
func openFileStore(t *testing.T, dir string) (*Store, *RecoveryReport) {
	t.Helper()
	st, rep, err := OpenFileBacked(fileScheme(), testElemSize, FileConfig{Dir: dir})
	if err != nil {
		t.Fatalf("OpenFileBacked(%s): %v", dir, err)
	}
	return st, rep
}

func readAll(t *testing.T, s *Store) []byte {
	t.Helper()
	if s.Len() == 0 {
		return nil
	}
	res, err := s.ReadAt(0, int(s.Len()))
	if err != nil {
		t.Fatalf("ReadAt(0, %d): %v", s.Len(), err)
	}
	return res.Data
}

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rep := openFileStore(t, dir)
	defer s.Close()
	if rep.Stripes != 0 || rep.HealedCells != 0 {
		t.Fatalf("fresh store reported recovery work: %+v", rep)
	}
	data := fill(t, s, 5000, 70)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		off := rng.Intn(4500)
		ln := 1 + rng.Intn(500)
		for _, opts := range []ReadOptions{
			{Sequential: true},
			{},
		} {
			res, err := s.ReadAtCtx(context.Background(), int64(off), ln, opts)
			if err != nil {
				t.Fatalf("opts %+v: %v", opts, err)
			}
			if !bytes.Equal(res.Data, data[off:off+ln]) {
				t.Fatalf("opts %+v: payload mismatch at [%d,%d)", opts, off, off+ln)
			}
		}
	}
}

func TestFileBackendReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	data := fill(t, s, 5000, 72) // not stripe-aligned: exercises the manifest length
	wantStripes := s.Stripes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	s2, rep := openFileStore(t, dir)
	defer s2.Close()
	if rep.Stripes != wantStripes || rep.HealedCells != 0 || rep.TruncatedStripes != 0 || rep.ReencodedStripes != 0 {
		t.Fatalf("reopen report %+v, want %d clean stripes", rep, wantStripes)
	}
	if s2.Len() != int64(len(data)) {
		t.Fatalf("Len after reopen = %d, want %d", s2.Len(), len(data))
	}
	if !bytes.Equal(readAll(t, s2), data) {
		t.Fatal("payload mismatch after reopen")
	}
}

// TestReopenKeepsZeroCells: open derives each stripe's fill from its
// verified data, so a file-backed store reopened — after Close, and after a
// stop without one — serves its objects around two failed disks
// byte-identical and from the same device reads as before, except that an
// object whose trailing elements are zero, which its seal wrote, now reads
// them as zero cells: its zeros come back from no more reads than before.
func TestReopenKeepsZeroCells(t *testing.T) {
	for _, clean := range []bool{true, false} {
		dir := t.TempDir()
		s, _ := openFileStore(t, dir)
		var objs [][]byte
		var offs []int64
		for size := 1; size <= 8; size++ {
			offs = append(offs, s.NextOffset())
			objs = append(objs, fill(t, s, size*testElemSize+size, int64(size)))
		}
		zeroTail := make([]byte, 12*testElemSize)
		rand.New(rand.NewSource(75)).Read(zeroTail[:7*testElemSize])
		offs = append(offs, s.NextOffset())
		objs = append(objs, zeroTail)
		if err := s.Append(zeroTail); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// degraded reads every object around disks 3 and 8 and returns the
		// device reads each took.
		degraded := func(s *Store) (reads []int) {
			s.FailDisk(3)
			s.FailDisk(8)
			for i, obj := range objs {
				s.ResetCounters()
				res, err := s.ReadAt(offs[i], len(obj))
				if err != nil || !bytes.Equal(res.Data, obj) {
					t.Fatalf("clean %v: object %d read back wrong around disks 3 and 8 (%v)", clean, i, err)
				}
				n := 0
				for d := 0; d < s.Scheme().N(); d++ {
					n += s.Device(d).Reads()
				}
				reads = append(reads, n)
			}
			return reads
		}
		before := degraded(s)
		if clean {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			t.Cleanup(func() { s.Close() })
		}
		s2, _ := openFileStore(t, dir)
		after := degraded(s2)
		s2.Close()
		last := len(objs) - 1
		if !slices.Equal(after[:last], before[:last]) || after[last] > before[last] {
			t.Fatalf("clean %v: device reads per object %v after the reopen, %v before", clean, after, before)
		}
	}
}

func TestFileBackendMatchesMemDegraded(t *testing.T) {
	dir := t.TempDir()
	fs, _ := openFileStore(t, dir)
	defer fs.Close()
	ms := MustNew(fileScheme(), testElemSize)
	var want []byte
	{
		data := make([]byte, 4000)
		rand.New(rand.NewSource(73)).Read(data)
		for _, s := range []*Store{fs, ms} {
			if err := s.Append(data); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		want = data
	}
	fs.FailDisk(2)
	ms.FailDisk(2)
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 30; trial++ {
		off := rng.Intn(3500)
		ln := 1 + rng.Intn(400)
		fres, err := fs.ReadAt(int64(off), ln)
		if err != nil {
			t.Fatalf("file degraded read: %v", err)
		}
		mres, err := ms.ReadAt(int64(off), ln)
		if err != nil {
			t.Fatalf("mem degraded read: %v", err)
		}
		if !bytes.Equal(fres.Data, want[off:off+ln]) || !bytes.Equal(fres.Data, mres.Data) {
			t.Fatalf("degraded payload mismatch at [%d,%d)", off, off+ln)
		}
	}
}

// rowsOf returns the rows-per-stripe of the test scheme, i.e. how many
// device-local records one stripe occupies.
func rowsOf(sch *core.Scheme) int { return sch.CellsPerStripe() / sch.N() }

func TestFileBackendTornCellHealed(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	data := fill(t, s, 5000, 75)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear one cell: flip a byte of device 0's first record. The sidecar
	// checksum now disagrees, so recovery must rebuild the cell.
	f, err := os.OpenFile(devDataFile(dir, 0), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xee, 0xdd}, 3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rep := openFileStore(t, dir)
	if rep.HealedCells == 0 {
		t.Fatalf("torn cell not healed: %+v", rep)
	}
	if !bytes.Equal(readAll(t, s2), data) {
		t.Fatal("payload mismatch after heal")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The heal was persisted: a third open finds nothing to do.
	s3, rep := openFileStore(t, dir)
	defer s3.Close()
	if rep.HealedCells != 0 || rep.TruncatedStripes != 0 {
		t.Fatalf("heal did not stick: %+v", rep)
	}
}

func TestFileBackendTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	sch := s.Scheme()
	stripeBytes := sch.DataPerStripe() * testElemSize
	data := fill(t, s, 5*stripeBytes, 76)
	if s.Stripes() != 5 {
		t.Fatalf("stripes = %d, want 5", s.Stripes())
	}
	// Killed: Close never runs, so the manifest still records the empty
	// store open found.
	if err := s.closeBackends(); err != nil {
		t.Fatal(err)
	}

	// Garbage the last TWO stripes on every device — the multi-stripe torn
	// tail one crashed group commit leaves. Both must be truncated.
	rows := rowsOf(sch)
	garbage := bytes.Repeat([]byte{0x5a}, 2*rows*testElemSize)
	for d := 0; d < sch.N(); d++ {
		f, err := os.OpenFile(devDataFile(dir, d), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(garbage, int64(3*rows*testElemSize)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	s2, rep := openFileStore(t, dir)
	defer s2.Close()
	if rep.TruncatedStripes != 2 {
		t.Fatalf("TruncatedStripes = %d, want 2 (%+v)", rep.TruncatedStripes, rep)
	}
	if s2.Stripes() != 3 {
		t.Fatalf("stripes after truncation = %d, want 3", s2.Stripes())
	}
	want := int64(3 * stripeBytes)
	if s2.Len() != want {
		t.Fatalf("Len = %d, want %d", s2.Len(), want)
	}
	if !bytes.Equal(readAll(t, s2), data[:want]) {
		t.Fatal("surviving prefix mismatch")
	}
}

// TestFileBackendDurableStripesNeverTruncated: the stripes a Close recorded
// in the manifest were fsynced first, so no crash can tear them. Damage
// there beyond the code's tolerance — garbage over the last two stripes on
// every device, or f+1 devices' files gone — is lost data, not a torn tail:
// the open must refuse, naming the stripe, and leave every file as it was.
func TestFileBackendDurableStripesNeverTruncated(t *testing.T) {
	sch := fileScheme()
	rows := rowsOf(sch)
	for _, tc := range []struct {
		name   string
		stripe int // the first stripe lost
		damage func(dir string)
	}{
		{"torn-below-manifest", 3, func(dir string) {
			garbage := bytes.Repeat([]byte{0x5a}, 2*rows*testElemSize)
			for d := 0; d < sch.N(); d++ {
				f, err := os.OpenFile(devDataFile(dir, d), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(garbage, int64(3*rows*testElemSize)); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
		}},
		{"devices-beyond-tolerance", 0, func(dir string) {
			for d := 0; d <= sch.FaultTolerance(); d++ {
				os.Remove(devDataFile(dir, d))
				os.Remove(devCRCFile(dir, d))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openFileStore(t, dir)
			fill(t, s, 5*sch.DataPerStripe()*testElemSize, 79)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(dir)
			before := map[string][]byte{}
			names, _ := filepath.Glob(filepath.Join(dir, "*"))
			for _, p := range names {
				raw, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				before[p] = raw
			}

			_, _, err := OpenFileBacked(sch, testElemSize, FileConfig{Dir: dir})
			if want := fmt.Sprintf("stripe %d unrecoverable", tc.stripe); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("open over damaged durable stripes: %v, want a refusal naming %q", err, want)
			}
			for p, raw := range before {
				got, err := os.ReadFile(p)
				if err != nil || !bytes.Equal(got, raw) {
					t.Fatalf("refused open changed %s (%d bytes, was %d): %v", filepath.Base(p), len(got), len(raw), err)
				}
			}
		})
	}
}

func TestFileBackendMidStoreHoleRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	sch := s.Scheme()
	stripeBytes := sch.DataPerStripe() * testElemSize
	fill(t, s, 3*stripeBytes, 77)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy stripe 0 on every device. Stripes 1 and 2 still decode, so
	// this is NOT a torn tail and recovery must refuse rather than truncate
	// sealed data away.
	rows := rowsOf(sch)
	garbage := bytes.Repeat([]byte{0x5a}, rows*testElemSize)
	for d := 0; d < sch.N(); d++ {
		f, err := os.OpenFile(devDataFile(dir, d), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(garbage, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	_, _, err := OpenFileBacked(fileScheme(), testElemSize, FileConfig{Dir: dir})
	if err == nil {
		t.Fatal("mid-store hole silently accepted")
	}
	if !strings.Contains(err.Error(), "not a torn tail") {
		t.Fatalf("unexpected refusal: %v", err)
	}
}

func TestFileBackendWriteHoleReencoded(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	sch := s.Scheme()
	stripeBytes := sch.DataPerStripe() * testElemSize
	data := fill(t, s, 2*stripeBytes, 78)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a write hole: overwrite a DATA cell and fix its sidecar
	// checksum, leaving the stripe checksum-clean but parity-inconsistent.
	// Recovery must take the data as truth and re-encode the parity.
	lay := sch.Layout()
	pos := lay.DataPos(0)
	disk := lay.Disk(0, pos.Col)
	slot := pos.Row // stripe 0
	cell := make([]byte, testElemSize)
	rand.New(rand.NewSource(79)).Read(cell)
	df, err := os.OpenFile(devDataFile(dir, disk), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.WriteAt(cell, int64(slot*testElemSize)); err != nil {
		t.Fatal(err)
	}
	df.Close()
	var crcRec [4]byte
	binary.LittleEndian.PutUint32(crcRec[:], crc32.Checksum(cell, castagnoli))
	cf, err := os.OpenFile(devCRCFile(dir, disk), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.WriteAt(crcRec[:], int64(slot*4)); err != nil {
		t.Fatal(err)
	}
	cf.Close()

	s2, rep := openFileStore(t, dir)
	if rep.ReencodedStripes != 1 || rep.HealedCells != 0 {
		t.Fatalf("report %+v, want exactly one re-encoded stripe", rep)
	}
	// Data element 0 of stripe 0 occupies user offsets [0, elemSize): the
	// overwritten content — not the original — is what the store now serves.
	want := append([]byte(nil), cell...)
	want = append(want, data[testElemSize:]...)
	if !bytes.Equal(readAll(t, s2), want) {
		t.Fatal("payload mismatch after re-encode")
	}
	if bad, err := s2.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("scrub after re-encode: bad=%v err=%v", bad, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, rep := openFileStore(t, dir)
	defer s3.Close()
	if rep.ReencodedStripes != 0 {
		t.Fatalf("re-encode did not stick: %+v", rep)
	}
}

func TestFileBackendFailRecoverDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	data := fill(t, s, 5000, 82)

	s.FailDisk(1)
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("degraded payload mismatch")
	}

	if _, err := s.RecoverDisk(1); err != nil {
		t.Fatalf("RecoverDisk: %v", err)
	}
	if !bytes.Equal(readAll(t, s), data) {
		t.Fatal("payload mismatch after rebuild")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebuilt device file must hold the full complement of cells.
	s2, rep := openFileStore(t, dir)
	defer s2.Close()
	if rep.HealedCells != 0 || rep.TruncatedStripes != 0 {
		t.Fatalf("rebuild left holes: %+v", rep)
	}
	if !bytes.Equal(readAll(t, s2), data) {
		t.Fatal("payload mismatch after rebuild + reopen")
	}
}

func TestFileBackendCorruptCellHealOnRead(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	defer s.Close()
	data := fill(t, s, 5000, 83)

	pos := s.Scheme().Layout().DataPos(0)
	if err := s.CorruptCell(0, pos); err != nil {
		t.Fatal(err)
	}
	res, err := s.ReadAt(0, testElemSize)
	if err != nil {
		t.Fatalf("read over corrupt cell: %v", err)
	}
	if !bytes.Equal(res.Data, data[:testElemSize]) {
		t.Fatal("corrupt cell not reconstructed")
	}
}

// TestWALSpillSkippedAfterDeviceRecovery: under FsyncAlways the device
// barrier runs before any PUT is acked, so the device files alone recover
// every acked object at its acked offset. With a log its replay must skip
// every commit; with none — ecfrmd's -fsync=always — the store is reopened
// without Close, as after a SIGKILL: no manifest save, no final sync.
func TestWALSpillSkippedAfterDeviceRecovery(t *testing.T) {
	for _, spill := range []bool{true, false} {
		name := "log"
		if !spill {
			name = "no log, killed"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			logPath := filepath.Join(dir, "wal.log")
			s, _ := openFileStore(t, dir)
			cfg := WALConfig{}
			if spill {
				cfg.LogPath = logPath
			}
			w := NewWAL(s, cfg)
			var objs [][]byte
			var offs []int64
			for i := 0; i < 5; i++ {
				obj := bytes.Repeat([]byte{byte('a' + i)}, 200+i)
				off, err := w.Put(context.Background(), obj)
				if err != nil {
					t.Fatal(err)
				}
				objs = append(objs, obj)
				offs = append(offs, off)
			}
			if !spill {
				t.Cleanup(func() { s.Close() })
				s2, _ := openFileStore(t, dir)
				defer s2.Close()
				for i, obj := range objs {
					res, err := s2.ReadAt(offs[i], len(obj))
					if err != nil {
						t.Fatalf("acked object %d at %d after the kill: %v", i, offs[i], err)
					}
					if !bytes.Equal(res.Data, obj) {
						t.Fatalf("acked object %d at %d does not read back after the kill", i, offs[i])
					}
				}
				return
			}
			if err := w.SpillErr(); err != nil {
				t.Fatalf("spill failed: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(logPath); err != nil || fi.Size() == 0 {
				t.Fatalf("log not spilled: %v size=%v", err, fi)
			}

			// The devices hardened before every commit record, so reopening
			// recovers everything from the device files and the log replay
			// must skip every commit without touching the store.
			s2, _ := openFileStore(t, dir)
			defer s2.Close()
			sealed := s2.NextOffset()
			extents, dropped, err := RecoverWALFile(logPath, s2)
			if err != nil {
				t.Fatalf("RecoverWALFile: %v", err)
			}
			if len(extents) != 5 || dropped != 0 {
				t.Fatalf("extents=%d dropped=%d, want 5/0", len(extents), dropped)
			}
			if s2.NextOffset() != sealed {
				t.Fatal("skip path mutated the store")
			}
			for i, e := range extents {
				if e.Off != offs[i] || e.Size != len(objs[i]) {
					t.Fatalf("extent %d = %+v, want {%d %d}", i, e, offs[i], len(objs[i]))
				}
				res, err := s2.ReadAt(e.Off, e.Size)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.Data, objs[i]) {
					t.Fatalf("object %d mismatch after recovery", i)
				}
			}
			if fi, err := os.Stat(logPath); err != nil || fi.Size() != 0 {
				t.Fatalf("log not truncated after recovery: %v", fi.Size())
			}
		})
	}
}

func TestWALSpillReplaysIntoFreshStore(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "wal.log")
	src := MustNew(fileScheme(), testElemSize)
	w := NewWAL(src, WALConfig{LogPath: logPath})
	var objs [][]byte
	for i := 0; i < 4; i++ {
		obj := bytes.Repeat([]byte{byte('k' + i)}, 150+10*i)
		off, err := w.Put(context.Background(), obj)
		if err != nil {
			t.Fatal(err)
		}
		_ = off
		objs = append(objs, obj)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The FsyncNever crash window: the log hardened but the devices are
	// gone. Replaying the spilled file into an empty store re-applies every
	// commit and reproduces the source byte-for-byte.
	dst := MustNew(fileScheme(), testElemSize)
	extents, dropped, err := RecoverWALFile(logPath, dst)
	if err != nil {
		t.Fatalf("RecoverWALFile: %v", err)
	}
	if len(extents) != 4 || dropped != 0 {
		t.Fatalf("extents=%d dropped=%d, want 4/0", len(extents), dropped)
	}
	if dst.NextOffset() != src.NextOffset() {
		t.Fatalf("NextOffset %d, want %d", dst.NextOffset(), src.NextOffset())
	}
	for i, e := range extents {
		res, err := dst.ReadAt(e.Off, e.Size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, objs[i]) {
			t.Fatalf("object %d mismatch after replay", i)
		}
	}
}

// syncLogSizes decorates a device's backend: each synced write records, for
// every device it names, the size the WAL log at path has at that moment.
type syncLogSizes struct {
	CellBackend
	path  string
	mu    *sync.Mutex
	sizes map[int][]int64
}

func (b syncLogSizes) WriteRuns(ctx context.Context, runs []Run, sync bool) error {
	if sync {
		fi, err := os.Stat(b.path)
		if err != nil {
			return err
		}
		b.mu.Lock()
		for _, r := range runs {
			b.sizes[r.Disk] = append(b.sizes[r.Disk], fi.Size())
		}
		b.mu.Unlock()
	}
	return b.CellBackend.WriteRuns(ctx, runs, sync)
}

// TestRecoverWALFileSyncsBeforeTruncating: under FsyncNever a replayed
// commit writes no barrier of its own, and the log is its only durable
// record, so every device must be synced while the log is still whole —
// else a crash right after recovery loses acked objects from both.
func TestRecoverWALFileSyncsBeforeTruncating(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	src := MustNew(fileScheme(), testElemSize)
	w := NewWAL(src, WALConfig{LogPath: logPath})
	for i := 0; i < 4; i++ {
		if _, err := w.Put(context.Background(), bytes.Repeat([]byte{byte(i + 1)}, 3*testElemSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	dst, _, err := OpenFileBacked(fileScheme(), testElemSize, FileConfig{Dir: filepath.Join(dir, "dst"), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	var mu sync.Mutex
	sizes := make(map[int][]int64)
	dst.WrapBackends(func(be CellBackend) CellBackend { return syncLogSizes{be, logPath, &mu, sizes} })
	extents, _, err := RecoverWALFile(logPath, dst)
	if err != nil {
		t.Fatalf("RecoverWALFile: %v", err)
	}
	if len(extents) != 4 || dst.NextOffset() != src.NextOffset() {
		t.Fatalf("replayed %d objects to offset %d, want 4 to %d", len(extents), dst.NextOffset(), src.NextOffset())
	}
	for d := 0; d < dst.Scheme().N(); d++ {
		if !slices.Contains(sizes[d], fi.Size()) {
			t.Errorf("device %d: log sizes at its synced writes %v, want one at the whole log's %d bytes", d, sizes[d], fi.Size())
		}
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated after recovery: %v", err)
	}
}

func TestWALSpillTornCommitDropsPending(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "wal.log")
	src := MustNew(fileScheme(), testElemSize)
	w := NewWAL(src, WALConfig{LogPath: logPath})
	// Sequential Puts each lead their own group commit, so the file is a
	// deterministic (put, commit)* sequence.
	for i := 0; i < 3; i++ {
		if _, err := w.Put(context.Background(), bytes.Repeat([]byte{byte(i + 1)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final commit record: its object was logged but never
	// committed, so recovery must drop it (the Put was never acked).
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	dst := MustNew(fileScheme(), testElemSize)
	extents, dropped, err := RecoverWALFile(logPath, dst)
	if err != nil {
		t.Fatalf("RecoverWALFile: %v", err)
	}
	if len(extents) != 2 || dropped != 1 {
		t.Fatalf("extents=%d dropped=%d, want 2/1", len(extents), dropped)
	}
}

// TestReopenRefusesOtherGeometry: a data dir written as RS(6,3)/ecfrm must
// not reopen under another code, layout or element size — recovery would
// re-seal every stripe under the wrong geometry and the acked bytes would be
// gone. The manifest is written at open, so a store killed before Close is
// guarded too; a dir with no manifest is accepted and gets one; after every
// refusal the original geometry reads back the same bytes.
func TestReopenRefusesOtherGeometry(t *testing.T) {
	written := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	others := []struct {
		scheme *core.Scheme
		elem   int
	}{
		{core.MustScheme(lrc.Must(6, 2, 1), layout.FormECFRM), testElemSize},
		{core.MustScheme(mustRS(6, 3), layout.FormStandard), testElemSize},
		{written, 2 * testElemSize},
	}
	refuses := func(t *testing.T, dir string) {
		t.Helper()
		for _, o := range others {
			_, _, err := OpenFileBacked(o.scheme, o.elem, FileConfig{Dir: dir})
			if err == nil {
				t.Fatalf("%s with %d-byte elements opened a dir written as %s", o.scheme.Name(), o.elem, written.Name())
			}
			for _, name := range []string{written.Name(), o.scheme.Name(), fmt.Sprintf("%d-byte", testElemSize), fmt.Sprintf("%d-byte", o.elem)} {
				if !strings.Contains(err.Error(), name) {
					t.Fatalf("refusal %q does not name %q", err, name)
				}
			}
		}
	}
	reopen := func(t *testing.T, dir string, want []byte) {
		t.Helper()
		s, rep, err := OpenFileBacked(written, testElemSize, FileConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if rep.ReencodedStripes != 0 || rep.TruncatedStripes != 0 {
			t.Fatalf("reopen under the written geometry rewrote stripes: %+v", rep)
		}
		if !bytes.Equal(readAll(t, s), want) {
			t.Fatal("bytes changed across the refused opens")
		}
	}
	for _, closed := range []bool{true, false} {
		t.Run(fmt.Sprintf("closed=%v", closed), func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := OpenFileBacked(written, testElemSize, FileConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			data := fill(t, s, 3*s.stripeBytes(), 90)
			if closed {
				err = s.Close()
			} else {
				err = s.closeBackends() // killed: Close never runs
			}
			if err != nil {
				t.Fatal(err)
			}
			refuses(t, dir)
			reopen(t, dir, data)
		})
	}
	t.Run("no manifest", func(t *testing.T) {
		dir := t.TempDir()
		s, _, err := OpenFileBacked(written, testElemSize, FileConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		data := fill(t, s, 3*s.stripeBytes(), 91)
		if err := s.closeBackends(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, backendManifestName)); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, data)
		refuses(t, dir)
	})
}

// TestParentBackendManifestOpens: a backend.json as the commit before the
// shared manifest seam wrote it — every field, byte for byte — still opens,
// its length still caps the extent, and a Close writes it back in the same
// format.
func TestParentBackendManifestOpens(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	data := fill(t, s, 5000, 93)
	stripes := s.Stripes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sch := fileScheme()
	parent := fmt.Sprintf("{\n  \"scheme\": %q,\n  \"disks\": %d,\n  \"rows\": %d,\n  \"elem_size\": %d,\n  \"stripes\": %d,\n  \"length\": 5000\n}",
		sch.Name(), sch.N(), rowsOf(sch), testElemSize, stripes)
	path := filepath.Join(dir, backendManifestName)
	if err := os.WriteFile(path, []byte(parent), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rep := openFileStore(t, dir)
	if rep.Stripes != stripes || s.Len() != 5000 || !bytes.Equal(readAll(t, s), data) {
		t.Fatalf("reopen over the parent's manifest: %d stripes, length %d (or other bytes)", rep.Stripes, s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != parent {
		t.Fatalf("Close wrote %q (%v), want the parent's format %q", raw, err, parent)
	}
}
