package repair

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/layout"
	"repro/internal/store"
)

// FuzzScrubCursor crash-tests the incremental scrub the way FuzzDiskRecovery
// crash-tests the file backend: corrupt a handful of cells, then drive
// ScrubStep with fuzz-chosen "daemon crashes" — at each crash the in-memory
// cursor is thrown away and reloaded from its file, while the store (the
// disks) keeps its state. Whatever the crash schedule:
//
//   - no stripe is skipped: after the reloaded cursor completes a full pass,
//     every corruption is healed and a full Scrub comes back clean;
//   - no stripe is double-healed: heals across all steps equal the number of
//     corrupted cells, because re-scrubbing the in-flight batch after a
//     crash finds already-healed stripes clean;
//   - the persisted batch ranges of the first pass tile [0, stripes) with
//     overlaps only at crash points, never gaps.
func FuzzScrubCursor(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1))
	f.Add([]byte{0x13, 0x52, 0x07}, uint8(3))
	f.Add([]byte{0xff, 0x00, 0xa5, 0x3c, 0x77}, uint8(7))
	f.Add([]byte{0x21, 0x21, 0x21, 0x21, 0x21, 0x21, 0x21, 0x21}, uint8(5))

	f.Fuzz(func(t *testing.T, plan []byte, corruptions uint8) {
		const stripes = 11
		const batch = 2
		s := testStore(t)
		defer s.Close()
		data := fillStripes(t, s, stripes, 77)

		// Corrupt one cell in each of up to 8 distinct stripes — one per
		// stripe keeps every heal within any code tolerance.
		n := s.Scheme().N()
		rows := s.Scheme().Layout().Rows()
		want := int(corruptions) % 8
		for i := 0; i < want; i++ {
			stripe := (i*3 + int(corruptions)) % stripes
			pos := layout.Pos{Row: i % rows, Col: (i*5 + 1) % n}
			if err := s.CorruptCell(stripe, pos); err != nil {
				t.Fatal(err)
			}
		}

		path := filepath.Join(t.TempDir(), "scrub.cursor")
		cur, err := LoadCursor(path)
		if err != nil {
			t.Fatal(err)
		}
		healed := 0
		var ranges [][2]int // verified [start,end) in scrub order
		step := func() {
			next, rep, err := ScrubStep([]*store.Store{s}, cur, batch, path)
			if err != nil {
				t.Fatal(err)
			}
			healed += rep.Healed
			if rep.End > rep.Start {
				ranges = append(ranges, [2]int{rep.Start, rep.End})
			}
			cur = next
		}

		// The fuzz plan interleaves scrub batches with crashes: each byte
		// runs (b&7) batches, then crashes — the in-memory cursor is lost
		// and reloaded from disk, exactly a daemon restart.
		for _, b := range plan {
			for i := 0; i < int(b&7); i++ {
				step()
			}
			cur, err = LoadCursor(path)
			if err != nil {
				t.Fatalf("cursor reload after crash: %v", err)
			}
		}
		// Finish: run until two full passes complete, so the tail of the
		// first pass and one clean pass both happen whatever the plan did.
		for cur.Cycle < 2 {
			step()
		}

		if healed != want {
			t.Fatalf("healed %d cells across all steps, want exactly %d (skipped or double-healed)", healed, want)
		}
		if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
			t.Fatalf("final scrub: bad=%v err=%v", bad, err)
		}
		res, err := s.ReadAt(0, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatal("data changed across crash-interrupted scrubs")
		}

		// Coverage check: walking the recorded ranges in order, each one
		// starts at or before the furthest point seen (no gap), and the
		// union reaches the full extent at least twice (two passes).
		covered := 0 // stripes covered in the current pass
		passes := 0
		for _, r := range ranges {
			if r[0] > covered {
				t.Fatalf("coverage gap: batch starts at %d but pass only covered [0,%d)", r[0], covered)
			}
			if r[1] > covered {
				covered = r[1]
			}
			if covered >= stripes {
				passes++
				covered = 0
			}
		}
		if passes < 2 {
			t.Fatalf("completed %d full passes, want >= 2", passes)
		}
	})
}
