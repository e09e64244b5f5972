package store

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
)

// FuzzWALReplay drives a WAL with a fuzzer-chosen object stream and batch
// shape, then "crashes" by truncating the spilled log file at a fuzzer-chosen
// point and replays it into a fresh store. The invariants:
//
//   - replay never errors on any truncation (torn tails end the log cleanly);
//   - every extent replay reports was committed live at the same offset with
//     the same bytes;
//   - replaying the full log reproduces the live store's sealed extent
//     byte-for-byte.
func FuzzWALReplay(f *testing.F) {
	f.Add(int64(1), uint8(9), uint16(0))
	f.Add(int64(2), uint8(3), uint16(40))
	f.Add(int64(99), uint8(17), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, objects uint8, cut uint16) {
		if objects == 0 {
			objects = 1
		}
		if objects > 40 {
			objects = 40
		}
		rng := rand.New(rand.NewSource(seed))
		s := MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 64)
		w := NewWAL(s, WALConfig{
			// Fuzzed batch threshold: from "every put is its own batch" to
			// "several stripes per batch".
			BatchBytes:    1 + rng.Intn(4*s.stripeBytes()),
			FlushInterval: 0,
			LogPath:       filepath.Join(t.TempDir(), "wal.log"),
		})

		var sent [][]byte
		var offs []int64
		for i := 0; i < int(objects); i++ {
			data := make([]byte, 1+rng.Intn(2*s.stripeBytes()))
			rng.Read(data)
			off, err := w.Put(context.Background(), data)
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			sent = append(sent, data)
			offs = append(offs, off)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		log, err := os.ReadFile(w.cfg.LogPath)
		if err != nil {
			t.Fatalf("read spilled log: %v", err)
		}
		// Crash point: replay an arbitrary prefix of the log. A prefix may
		// end mid-record (torn write); replay must stop cleanly there.
		n := int(cut) % (len(log) + 1)
		replay := MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 64)
		extents, _, err := ReplayWAL(log[:n], replay)
		if err != nil {
			t.Fatalf("replay of %d/%d log bytes: %v", n, len(log), err)
		}
		if len(extents) > len(sent) {
			t.Fatalf("replay produced %d extents from %d puts", len(extents), len(sent))
		}
		for i, e := range extents {
			if e.Off != offs[i] {
				t.Fatalf("extent %d replayed at %d; committed live at %d", i, e.Off, offs[i])
			}
			if e.Size != len(sent[i]) {
				t.Fatalf("extent %d replayed %d bytes; put %d", i, e.Size, len(sent[i]))
			}
			res, err := replay.ReadAt(e.Off, e.Size)
			if err != nil {
				t.Fatalf("read extent %d: %v", i, err)
			}
			if !bytes.Equal(res.Data, sent[i]) {
				t.Fatalf("extent %d bytes differ after replay", i)
			}
		}

		// Full-log replay reproduces the live store exactly.
		full := MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 64)
		extents, orphans, err := ReplayWAL(log, full)
		if err != nil {
			t.Fatalf("full replay: %v", err)
		}
		if len(extents) != len(sent) || orphans != 0 {
			t.Fatalf("full replay committed %d objects, orphaned %d; want %d and 0", len(extents), orphans, len(sent))
		}
		if lw, lr := s.NextOffset(), full.NextOffset(); lw != lr {
			t.Fatalf("full replay extent %d != live %d", lr, lw)
		}
		if s.Stripes() != full.Stripes() {
			t.Fatalf("full replay sealed %d stripes; live sealed %d", full.Stripes(), s.Stripes())
		}
		sealed := int(s.NextOffset())
		if sealed == 0 {
			return
		}
		lres, err := s.ReadAt(0, sealed)
		if err != nil {
			t.Fatalf("live read: %v", err)
		}
		rres, err := full.ReadAt(0, sealed)
		if err != nil {
			t.Fatalf("replay read: %v", err)
		}
		if !bytes.Equal(lres.Data, rres.Data) {
			t.Fatal("full replay differs from live store byte-for-byte")
		}
	})
}
