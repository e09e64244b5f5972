package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/layout"
)

// ErrManifest flags a missing, malformed, or mismatched persistence
// manifest.
var ErrManifest = errors.New("store: bad manifest")

// persistManifest records the geometry a saved store directory was written
// with, so Load can refuse a mismatched scheme instead of decoding garbage.
type persistManifest struct {
	Scheme   string `json:"scheme"`
	Disks    int    `json:"disks"`
	Rows     int    `json:"rows"`
	ElemSize int    `json:"elem_size"`
	Stripes  int    `json:"stripes"`
	Length   int64  `json:"length"`
}

const manifestName = "store.json"

// deviceFile names device d's backing file inside a save directory.
func deviceFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("device_%02d.dat", d))
}

// Save persists the store into dir: one binary file per device (cells in
// stripe/row order, each followed by its CRC32C) plus a JSON manifest.
// Buffered partial stripes must be flushed and no device may be failed —
// recover first, so the saved image is always complete and consistent.
//
// Save is durable when it returns: every device file is fsynced, the
// manifest is written via temp-file + fsync + rename, and the containing
// directory is fsynced, so a snapshot that reports success survives power
// loss. Checksums are copied verbatim from the live devices (not
// recomputed), so corruption present at save time remains detectable after
// a round trip.
func (s *Store) Save(dir string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.pending) > 0 {
		return fmt.Errorf("store: flush the %d pending bytes before saving", len(s.pending))
	}
	if failed := s.failedDisksLocked(); len(failed) > 0 {
		return fmt.Errorf("%w: %v (recover before saving)", ErrFailed, failed)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for d, dev := range s.devices {
		buf := make([]byte, 0, s.stripes*s.rows*(s.elemSize+4))
		var crcBytes [4]byte
		for slot := 0; slot < s.stripes*s.rows; slot++ {
			cell, crc, err := dev.be.readCell(slot)
			if err != nil {
				return fmt.Errorf("store: device %d save slot %d: %w", d, slot, err)
			}
			buf = append(buf, cell...)
			binary.LittleEndian.PutUint32(crcBytes[:], crc)
			buf = append(buf, crcBytes[:]...)
		}
		f, err := os.OpenFile(deviceFile(dir, d), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	man := persistManifest{
		Scheme:   s.scheme.Name(),
		Disks:    s.scheme.N(),
		Rows:     s.rows,
		ElemSize: s.elemSize,
		Stripes:  s.stripes,
		Length:   s.length,
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	// atomicWriteFile fsyncs the manifest and the directory, making the
	// device files' creation durable along with it.
	return atomicWriteFile(filepath.Join(dir, manifestName), mb)
}

// Load restores a store saved by Save. The caller supplies the scheme (the
// manifest's geometry and scheme name must match) and the directory. Saved
// checksums are preserved verbatim, so corruption that happened on disk
// remains detectable after a round trip.
func Load(scheme *core.Scheme, dir string) (*Store, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	var man persistManifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	lay := scheme.Layout()
	if man.Scheme != scheme.Name() || man.Disks != scheme.N() || man.Rows != lay.Rows() {
		return nil, fmt.Errorf("%w: saved as %s (%d disks × %d rows), loading as %s (%d × %d)",
			ErrManifest, man.Scheme, man.Disks, man.Rows, scheme.Name(), scheme.N(), lay.Rows())
	}
	if man.ElemSize < 1 || man.Stripes < 0 || man.Length < 0 {
		return nil, fmt.Errorf("%w: nonsensical geometry %+v", ErrManifest, man)
	}
	st, err := New(scheme, man.ElemSize)
	if err != nil {
		return nil, err
	}
	recSize := man.ElemSize + 4
	want := man.Stripes * lay.Rows() * recSize
	for d := range st.devices {
		buf, err := os.ReadFile(deviceFile(dir, d))
		if err != nil {
			return nil, err
		}
		if len(buf) != want {
			return nil, fmt.Errorf("%w: device %d has %d bytes, want %d", ErrManifest, d, len(buf), want)
		}
		off := 0
		for slot := 0; slot < man.Stripes*lay.Rows(); slot++ {
			cell := buf[off : off+man.ElemSize]
			crc := binary.LittleEndian.Uint32(buf[off+man.ElemSize : off+recSize])
			off += recSize
			// Backend-direct write: checksums restore verbatim (no recompute)
			// and the load does not count as device write traffic.
			if err := st.devices[d].be.writeRun(slot, cell, []uint32{crc}); err != nil {
				return nil, err
			}
		}
	}
	st.stripes = man.Stripes
	st.length = man.Length
	return st, nil
}

// VerifyChecksums re-checks every stored cell against its recorded CRC32C
// without counting I/O, returning the locations that fail.
func (s *Store) VerifyChecksums() []core.Access {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lay := s.scheme.Layout()
	var bad []core.Access
	for d, dev := range s.devices {
		for slot := 0; slot < dev.be.slots(); slot++ {
			cell, crc, err := dev.be.readCell(slot)
			if err != nil {
				continue // absent slot
			}
			if crc32.Checksum(cell, castagnoli) != crc {
				stripe, row := slot/s.rows, slot%s.rows
				bad = append(bad, core.Access{Disk: d, Stripe: stripe,
					Pos: layout.Pos{Row: row, Col: lay.Col(stripe, d)}})
			}
		}
	}
	return bad
}
