// Package shardio encodes files into per-disk shard directories and decodes
// them back — the durable, file-system-visible form of an EC-FRM stripe set.
// A shard directory holds one binary file per disk (that disk's cells in
// stripe/row order) plus a JSON manifest describing the scheme, element
// size, stripe count, and original payload length.
//
// Decoding tolerates up to the scheme's fault tolerance in missing disk
// files; Verify parity-checks every stripe of a complete directory. This is
// the library behind cmd/ecfrm.
package shardio

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// ErrManifest flags a missing or malformed shard-directory manifest.
var ErrManifest = errors.New("shardio: bad manifest")

// ErrCorrupt is returned by Verify when stripes fail their parity check.
var ErrCorrupt = errors.New("shardio: parity verification failed")

// Manifest records everything needed to decode a shard directory. Scheme
// construction parameters are stored so callers can rebuild the scheme; the
// decode functions take the scheme explicitly and validate against Name.
type Manifest struct {
	Code     string `json:"code"` // "rs" or "lrc"
	K        int    `json:"k"`
	L        int    `json:"l,omitempty"`
	M        int    `json:"m"`
	Form     string `json:"form"`
	Scheme   string `json:"scheme"` // scheme.Name(), for validation
	ElemSize int    `json:"elem_size"`
	Stripes  int    `json:"stripes"`
	Length   int64  `json:"length"`
}

// DiskFile returns the path of disk d's shard file within dir.
func DiskFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("disk_%02d.shard", d))
}

const manifestFile = "manifest.json"

// ReadManifest loads and parses a shard directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	var man Manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return man, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if man.ElemSize < 1 || man.Stripes < 0 || man.Length < 0 {
		return man, fmt.Errorf("%w: nonsensical geometry %+v", ErrManifest, man)
	}
	return man, nil
}

// Encode writes payload into dir as a shard directory under the scheme with
// elemSize-byte elements, returning the manifest it wrote. The extra
// manifest fields (Code, K, L, M, Form) identify the scheme for tools that
// reconstruct it from the directory alone.
func Encode(scheme *core.Scheme, payload []byte, dir string, elemSize int, man Manifest) (Manifest, error) {
	if elemSize < 1 {
		return man, fmt.Errorf("shardio: element size %d must be positive", elemSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return man, err
	}
	lay := scheme.Layout()
	n := scheme.N()
	stripeBytes := scheme.DataPerStripe() * elemSize
	stripes := (len(payload) + stripeBytes - 1) / stripeBytes
	if stripes == 0 {
		stripes = 1
	}
	// Each disk image is preallocated to its exact final size, and one cells
	// slice carries across stripes so EncodeStripeInto reuses the parity
	// buffers it placed there (full-size data elements alias the payload,
	// which is safe: appends below copy them out before the next stripe).
	disks := make([][]byte, n)
	perDisk := stripes * lay.Rows() * elemSize
	for d := range disks {
		disks[d] = make([]byte, 0, perDisk)
	}
	var bufs core.Buffers
	cells := make([][]byte, scheme.CellsPerStripe())
	data := make([][]byte, scheme.DataPerStripe())
	for st := 0; st < stripes; st++ {
		for e := range data {
			off := st*stripeBytes + e*elemSize
			if end := off + elemSize; end <= len(payload) {
				data[e] = payload[off:end]
			} else {
				// Zero-padded tail element (at most one stripe's worth).
				shard := make([]byte, elemSize)
				if off < len(payload) {
					copy(shard, payload[off:])
				}
				data[e] = shard
			}
		}
		if err := scheme.EncodeStripeInto(&bufs, cells, data); err != nil {
			return man, err
		}
		for row := 0; row < lay.Rows(); row++ {
			for col := 0; col < n; col++ {
				d := lay.Disk(st, col)
				disks[d] = append(disks[d], cells[row*n+col]...)
			}
		}
	}
	for d := range disks {
		if err := os.WriteFile(DiskFile(dir, d), disks[d], 0o644); err != nil {
			return man, err
		}
	}
	man.Scheme = scheme.Name()
	man.ElemSize = elemSize
	man.Stripes = stripes
	man.Length = int64(len(payload))
	return man, writeManifest(dir, man)
}

// loadDisks reads the present disk files, returning nil entries for missing
// ones and the count of missing files.
func loadDisks(scheme *core.Scheme, dir string, man Manifest) ([][]byte, int, error) {
	if man.Scheme != "" && man.Scheme != scheme.Name() {
		return nil, 0, fmt.Errorf("%w: directory encoded as %s, scheme is %s",
			ErrManifest, man.Scheme, scheme.Name())
	}
	lay := scheme.Layout()
	want := man.Stripes * lay.Rows() * man.ElemSize
	disks := make([][]byte, scheme.N())
	missing := 0
	for d := range disks {
		b, err := os.ReadFile(DiskFile(dir, d))
		if err != nil {
			if os.IsNotExist(err) {
				missing++
				continue
			}
			return nil, 0, err
		}
		if len(b) != want {
			return nil, 0, fmt.Errorf("shardio: disk %d has %d bytes, want %d", d, len(b), want)
		}
		disks[d] = b
	}
	return disks, missing, nil
}

// stripeCells slices stripe st's cells out of the disk files (nil for
// missing disks).
func stripeCells(scheme *core.Scheme, disks [][]byte, man Manifest, st int) [][]byte {
	lay := scheme.Layout()
	n := scheme.N()
	perStripe := lay.Rows() * man.ElemSize
	cells := make([][]byte, scheme.CellsPerStripe())
	for row := 0; row < lay.Rows(); row++ {
		for col := 0; col < n; col++ {
			d := lay.Disk(st, col)
			if disks[d] == nil {
				continue
			}
			off := st*perStripe + row*man.ElemSize
			cells[row*n+col] = disks[d][off : off+man.ElemSize]
		}
	}
	return cells
}

// Decode reconstructs the original payload from dir, tolerating missing
// disk files up to the scheme's fault tolerance. It returns the payload and
// the number of missing disks it decoded through.
func Decode(scheme *core.Scheme, dir string) ([]byte, int, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	disks, missing, err := loadDisks(scheme, dir, man)
	if err != nil {
		return nil, 0, err
	}
	// Capacity covers the padded final stripe too, so the append loop never
	// reallocates (man.Length alone falls short by the padding).
	payload := make([]byte, 0, man.Stripes*scheme.DataPerStripe()*man.ElemSize)
	for st := 0; st < man.Stripes; st++ {
		cells := stripeCells(scheme, disks, man, st)
		if missing > 0 {
			if err := scheme.ReconstructStripe(cells); err != nil {
				return nil, missing, fmt.Errorf("stripe %d: %w", st, err)
			}
		}
		for _, shard := range scheme.DataShards(cells) {
			payload = append(payload, shard...)
		}
	}
	if int64(len(payload)) < man.Length {
		return nil, missing, fmt.Errorf("shardio: decoded %d bytes, manifest says %d", len(payload), man.Length)
	}
	return payload[:man.Length], missing, nil
}
