// Package storetest checks that a store.CellBackend keeps the contract the
// store relies on, the way testing/fstest checks an fs.FS: every disk
// implementation — the memory and file disks in internal/store, the
// data-node client in internal/gateway — runs the same cases.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/store"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TestCellBackend runs the contract cases against fresh empty backends of
// elem-byte cells, one per case, from open. Every batch names device 0: the
// backend open returns holds that device's extent. Its reopen, called once
// that backend is closed, returns a backend over the same stored extent —
// what a restarted process finds.
func TestCellBackend(t *testing.T, elem int, open func(t *testing.T) (cb store.CellBackend, reopen func() store.CellBackend)) {
	cell := func(b byte) []byte { return bytes.Repeat([]byte{b}, elem) }
	sum := func(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
	runOf := func(slot int, data []byte, crcs ...uint32) store.Run {
		return store.Run{Slot: slot, Count: len(crcs), Data: data, CRCs: crcs}
	}
	zeroRun := func(slot, count int) store.Run { return store.Run{Slot: slot, Count: count} }
	zeroSum := sum(cell(0))
	batch := func(t *testing.T, cb store.CellBackend, sync bool, runs ...store.Run) {
		t.Helper()
		if err := cb.WriteRuns(context.Background(), runs, sync); err != nil {
			t.Fatalf("WriteRuns(%d runs): %v", len(runs), err)
		}
	}
	write := func(t *testing.T, cb store.CellBackend, slot int, data []byte, crcs ...uint32) {
		t.Helper()
		if err := cb.WriteRuns(context.Background(), []store.Run{runOf(slot, data, crcs...)}, false); err != nil {
			t.Fatalf("WriteRuns(%d, %d cells): %v", slot, len(crcs), err)
		}
	}
	readErr := func(cb store.CellBackend, slot, count int) error {
		runs := []store.Run{{Slot: slot, Count: count}}
		cb.ReadRuns(context.Background(), runs)
		return runs[0].Err
	}
	read := func(t *testing.T, cb store.CellBackend, slot, count int) ([]byte, []uint32) {
		t.Helper()
		runs := []store.Run{{Slot: slot, Count: count}}
		cb.ReadRuns(context.Background(), runs)
		data, crcs, err := runs[0].Data, runs[0].CRCs, runs[0].Err
		if err != nil {
			t.Fatalf("ReadRuns(%d, %d): %v", slot, count, err)
		}
		if len(data) != count*elem || len(crcs) != count {
			t.Fatalf("ReadRuns(%d, %d) = %d bytes, %d checksums", slot, count, len(data), len(crcs))
		}
		return data, crcs
	}
	// holds checks what slots [slot, slot+len(want)) read back: each cell's
	// bytes and the checksum recorded for them.
	holds := func(t *testing.T, cb store.CellBackend, slot int, want ...[]byte) {
		t.Helper()
		data, crcs := read(t, cb, slot, len(want))
		for i, w := range want {
			if !bytes.Equal(data[i*elem:(i+1)*elem], w) || crcs[i] != sum(w) {
				t.Fatalf("slot %d holds the wrong cell or checksum (%#x)", slot+i, crcs[i])
			}
		}
	}
	geometry := func(t *testing.T, cb store.CellBackend, slots, elements int) {
		t.Helper()
		if s, e := cb.Slots(), cb.Elements(); s != slots || e != elements {
			t.Fatalf("Slots %d, Elements %d; want %d and %d", s, e, slots, elements)
		}
	}
	run := func(name string, body func(t *testing.T, cb store.CellBackend)) {
		t.Run(name, func(t *testing.T) {
			cb, _ := open(t)
			defer cb.Close()
			body(t, cb)
		})
	}

	run("never-written slot is ErrCellMissing", func(t *testing.T, cb store.CellBackend) {
		if err := readErr(cb, 3, 1); !errors.Is(err, store.ErrCellMissing) {
			t.Fatalf("read of an empty disk: %v, want ErrCellMissing", err)
		}
		write(t, cb, 0, cell(1), sum(cell(1)))
		if err := readErr(cb, 0, 2); !errors.Is(err, store.ErrCellMissing) {
			t.Fatalf("run past the last written slot: %v, want ErrCellMissing", err)
		}
	})

	run("WriteRun only borrows its buffer", func(t *testing.T, cb store.CellBackend) {
		buf := append(cell(7), cell(8)...)
		write(t, cb, 0, buf, sum(cell(7)), sum(cell(8)))
		for i := range buf {
			buf[i] = 0xee
		}
		if data, _ := read(t, cb, 0, 2); !bytes.Equal(data, append(cell(7), cell(8)...)) {
			t.Fatal("scribbling the written buffer changed the stored cells")
		}
	})

	run("ReadRun results belong to the caller", func(t *testing.T, cb store.CellBackend) {
		write(t, cb, 0, cell(1), sum(cell(1)))
		data, crcs := read(t, cb, 0, 1)
		write(t, cb, 0, cell(2), sum(cell(2)))
		if crcs[0] != sum(data) || !bytes.Equal(data, cell(1)) {
			t.Fatal("a rewrite changed what an earlier read returned")
		}
		for i := range data {
			data[i] = 0xee
		}
		crcs[0] = 0
		if again, againCRCs := read(t, cb, 0, 1); !bytes.Equal(again, cell(2)) || againCRCs[0] != sum(cell(2)) {
			t.Fatal("scribbling a read's results changed the stored cell")
		}
	})

	run("a run handed buffers of its size is read into them", func(t *testing.T, cb store.CellBackend) {
		write(t, cb, 0, append(cell(4), cell(5)...), sum(cell(4)), sum(cell(5)))
		data, crcs := make([]byte, 2*elem), make([]uint32, 2)
		runs := []store.Run{{Count: 2, Data: data, CRCs: crcs}, {Slot: 1, Count: 1, Data: make([]byte, elem+1)}}
		if cb.ReadRuns(context.Background(), runs); runs[0].Err != nil || &runs[0].Data[0] != &data[0] || &runs[0].CRCs[0] != &crcs[0] ||
			!bytes.Equal(data, append(cell(4), cell(5)...)) || crcs[0] != sum(cell(4)) || crcs[1] != sum(cell(5)) {
			t.Fatalf("a run handed buffers of its size was not read into them: %v", runs[0].Err)
		}
		if r := runs[1]; r.Err != nil || !bytes.Equal(r.Data, cell(5)) || len(r.CRCs) != 1 || r.CRCs[0] != sum(cell(5)) {
			t.Fatalf("a run handed a misfit buffer read %d bytes, %d checksums: %v", len(r.Data), len(r.CRCs), r.Err)
		}
	})

	run("a batch whose context ended fails and stores nothing", func(t *testing.T, cb store.CellBackend) {
		write(t, cb, 0, cell(1), sum(cell(1)))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		runs := []store.Run{{Count: 1}}
		if cb.ReadRuns(ctx, runs); runs[0].Err == nil || runs[0].Data != nil {
			t.Fatalf("read under an ended context: err %v, %d bytes; want a failed run", runs[0].Err, len(runs[0].Data))
		}
		if err := cb.WriteRuns(ctx, []store.Run{runOf(0, cell(2), sum(cell(2)))}, false); err == nil {
			t.Fatal("write under an ended context succeeded")
		}
		holds(t, cb, 0, cell(1))
	})

	run("a wrong checksum round-trips verbatim", func(t *testing.T, cb store.CellBackend) {
		const wrong = 0xdeadbeef
		write(t, cb, 4, cell(3), wrong)
		if _, crcs := read(t, cb, 4, 1); crcs[0] != wrong {
			t.Fatalf("stored checksum %#x came back as %#x", uint32(wrong), crcs[0])
		}
	})

	run("Truncate, Slots and Elements agree", func(t *testing.T, cb store.CellBackend) {
		write(t, cb, 0, append(cell(1), cell(2)...), sum(cell(1)), sum(cell(2)))
		write(t, cb, 5, cell(3), sum(cell(3))) // slots 2..4 stay a hole
		if s, e := cb.Slots(), cb.Elements(); s != 6 || e != 3 {
			t.Fatalf("after writes: Slots %d, Elements %d; want 6 and 3", s, e)
		}
		if err := cb.Truncate(1); err != nil {
			t.Fatal(err)
		}
		if s, e := cb.Slots(), cb.Elements(); s != 1 || e != 1 {
			t.Fatalf("after Truncate(1): Slots %d, Elements %d; want 1 and 1", s, e)
		}
		if err := readErr(cb, 1, 1); !errors.Is(err, store.ErrCellMissing) {
			t.Fatalf("truncated slot: %v, want ErrCellMissing", err)
		}
		read(t, cb, 0, 1)
		if err := cb.WriteRuns(context.Background(), []store.Run{{}}, true); err != nil {
			t.Fatalf("a barrier-only batch: %v", err)
		}
	})

	run("a batch settles run by run, in list order", func(t *testing.T, cb store.CellBackend) {
		// One write batch of two runs and a barrier-only entry, synced.
		if err := cb.WriteRuns(context.Background(), []store.Run{
			runOf(0, append(cell(1), cell(2)...), sum(cell(1)), sum(cell(2))),
			{},
			runOf(6, cell(3), sum(cell(3))),
		}, true); err != nil {
			t.Fatalf("WriteRuns(two runs and a barrier, sync): %v", err)
		}
		runs := []store.Run{{Slot: 6, Count: 1}, {Slot: 2, Count: 1}, {Slot: 0, Count: 2}, {Slot: 5, Count: 2}}
		cb.ReadRuns(context.Background(), runs)
		want := [][]byte{cell(3), nil, append(cell(1), cell(2)...), nil}
		for i, r := range runs {
			if want[i] == nil {
				if !errors.Is(r.Err, store.ErrCellMissing) || r.Data != nil || r.CRCs != nil {
					t.Fatalf("run %d (slot %d): err %v, %d bytes; want ErrCellMissing and nothing else", i, r.Slot, r.Err, len(r.Data))
				}
				continue
			}
			if r.Err != nil || !bytes.Equal(r.Data, want[i]) || len(r.CRCs) != r.Count || r.CRCs[0] != sum(want[i][:elem]) {
				t.Fatalf("run %d (slot %d): err %v; wrong cells or checksums", i, r.Slot, r.Err)
			}
		}
		// The runs' buffers are distinct: scribbling one leaves the other.
		for i := range runs[0].Data {
			runs[0].Data[i] = 0xee
		}
		if !bytes.Equal(runs[2].Data, append(cell(1), cell(2)...)) {
			t.Fatal("scribbling one run's cells changed another's")
		}
	})

	run("a zero run reads back as zeros under the zero checksum", func(t *testing.T, cb store.CellBackend) {
		batch(t, cb, false, zeroRun(2, 3))
		holds(t, cb, 2, cell(0), cell(0), cell(0))
		if _, crcs := read(t, cb, 3, 1); crcs[0] != zeroSum {
			t.Fatalf("zero cell recorded under %#x, want %#x", crcs[0], zeroSum)
		}
		geometry(t, cb, 5, 3) // Elements counts zero cells
		if err := readErr(cb, 1, 2); !errors.Is(err, store.ErrCellMissing) {
			t.Fatalf("slot below a zero run: %v, want ErrCellMissing", err)
		}
	})

	run("a zero run over a written slot reads zeros, not the stale cell", func(t *testing.T, cb store.CellBackend) {
		write(t, cb, 0, bytes.Join([][]byte{cell(1), cell(2), cell(3)}, nil), sum(cell(1)), sum(cell(2)), sum(cell(3)))
		batch(t, cb, true, zeroRun(1, 1))
		holds(t, cb, 0, cell(1), cell(0), cell(3))
		geometry(t, cb, 3, 3)
	})

	t.Run("a trailing zero run past the end survives reopen", func(t *testing.T) {
		cb, reopen := open(t)
		write(t, cb, 0, cell(4), sum(cell(4)))
		batch(t, cb, true, zeroRun(1, 3))
		if err := cb.Close(); err != nil {
			t.Fatal(err)
		}
		cb = reopen()
		defer cb.Close()
		geometry(t, cb, 4, 4)
		holds(t, cb, 0, cell(4), cell(0), cell(0), cell(0))
	})

	run("one batch mixes payload, zero and barrier-only runs", func(t *testing.T, cb store.CellBackend) {
		batch(t, cb, true,
			runOf(0, cell(1), sum(cell(1))),
			zeroRun(1, 2),
			store.Run{},
			runOf(3, append(cell(2), cell(3)...), sum(cell(2)), sum(cell(3))),
			zeroRun(5, 1))
		geometry(t, cb, 6, 6)
		holds(t, cb, 0, cell(1), cell(0), cell(0), cell(2), cell(3), cell(0))
	})

	run("concurrent runs on distinct slots", func(t *testing.T, cb store.CellBackend) {
		const workers, rounds = 4, 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					c := cell(byte(slot*rounds + r))
					if err := cb.WriteRuns(context.Background(), []store.Run{runOf(slot, c, sum(c))}, false); err != nil {
						errs <- err
						return
					}
					runs := []store.Run{{Slot: slot, Count: 1}}
					cb.ReadRuns(context.Background(), runs)
					data, crcs, err := runs[0].Data, runs[0].CRCs, runs[0].Err
					if err == nil && (!bytes.Equal(data, c) || crcs[0] != sum(c)) {
						err = fmt.Errorf("slot %d round %d read back another write", slot, r)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(2 * w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}
