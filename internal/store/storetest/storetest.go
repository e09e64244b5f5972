// Package storetest checks that a store.CellBackend keeps the contract the
// store relies on, the way testing/fstest checks an fs.FS: every disk
// implementation — the memory and file disks in internal/store, the
// data-node client in internal/gateway — runs the same cases.
package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/store"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TestCellBackend runs the contract cases against fresh empty backends of
// elem-byte cells, one per case, from open.
func TestCellBackend(t *testing.T, elem int, open func(t *testing.T) store.CellBackend) {
	cell := func(b byte) []byte { return bytes.Repeat([]byte{b}, elem) }
	sum := func(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
	write := func(t *testing.T, cb store.CellBackend, slot int, data []byte, crcs ...uint32) {
		t.Helper()
		if err := cb.WriteRun(slot, data, crcs); err != nil {
			t.Fatalf("WriteRun(%d, %d cells): %v", slot, len(crcs), err)
		}
	}
	read := func(t *testing.T, cb store.CellBackend, slot, count int) ([]byte, []uint32) {
		t.Helper()
		data, crcs, err := cb.ReadRun(slot, count)
		if err != nil {
			t.Fatalf("ReadRun(%d, %d): %v", slot, count, err)
		}
		if len(data) != count*elem || len(crcs) != count {
			t.Fatalf("ReadRun(%d, %d) = %d bytes, %d checksums", slot, count, len(data), len(crcs))
		}
		return data, crcs
	}
	run := func(name string, body func(t *testing.T, cb store.CellBackend)) {
		t.Run(name, func(t *testing.T) {
			cb := open(t)
			defer cb.Close()
			body(t, cb)
		})
	}

	run("never-written slot is ErrCellMissing", func(t *testing.T, cb store.CellBackend) {
		if _, _, err := cb.ReadRun(3, 1); !errors.Is(err, store.ErrCellMissing) {
			t.Fatalf("read of an empty disk: %v, want ErrCellMissing", err)
		}
		write(t, cb, 0, cell(1), sum(cell(1)))
		if _, _, err := cb.ReadRun(0, 2); !errors.Is(err, store.ErrCellMissing) {
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
		if _, _, err := cb.ReadRun(1, 1); !errors.Is(err, store.ErrCellMissing) {
			t.Fatalf("truncated slot: %v, want ErrCellMissing", err)
		}
		read(t, cb, 0, 1)
		if err := cb.Sync(); err != nil {
			t.Fatal(err)
		}
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
					if err := cb.WriteRun(slot, c, []uint32{sum(c)}); err != nil {
						errs <- err
						return
					}
					data, crcs, err := cb.ReadRun(slot, 1)
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
