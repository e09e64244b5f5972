package store_test

import (
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestCellBackendContract runs the CellBackend contract against both local
// disks; internal/gateway runs it against the data-node client.
func TestCellBackendContract(t *testing.T) {
	const elem = 64
	t.Run("mem", func(t *testing.T) {
		storetest.TestCellBackend(t, elem, func(t *testing.T) (store.CellBackend, func() store.CellBackend) {
			md := store.NewMemDisk(elem)
			return md, func() store.CellBackend { return md }
		})
	})
	t.Run("file", func(t *testing.T) {
		storetest.TestCellBackend(t, elem, func(t *testing.T) (store.CellBackend, func() store.CellBackend) {
			dir := t.TempDir()
			open := func() store.CellBackend {
				ds, err := store.OpenFileDisk(filepath.Join(dir, "d.data"), filepath.Join(dir, "d.crc"), elem, store.FileConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}
			return open(), open
		})
	})
}
