// Package shardio encodes a payload into a shard directory: one binary file
// per disk (that disk's cells in stripe/row order) plus a JSON manifest
// describing the scheme, element size, stripe count and payload length.
//
// Nothing in the module reads a shard directory. The one on-disk format is
// the store's file backend (internal/store), which cmd/ecfrm writes and
// decodes and ecfrmd serves. EncodeStream stays only because the end-to-end
// benchmark times it (bench/layers.go, the shardio.encode_stream_mb_per_s_w*
// rows); the package goes with those rows.
package shardio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest records the geometry of a shard directory. Scheme construction
// parameters are stored so a reader could rebuild the scheme; Scheme is its
// name, for validation.
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

// writeManifest finalizes and writes a shard directory's manifest.
func writeManifest(dir string, man Manifest) error {
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), mb, 0o644)
}
