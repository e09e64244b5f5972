// Package nodeapi defines the wire protocol between the access gateway and
// the data nodes: URL shapes, the binary cell-run framing, and the JSON
// status types. Both internal/datanode (server) and internal/gateway
// (client) import it, so the two sides cannot drift.
//
// Cells travel in batches, one request per node per read pass or seal: the
// run list — (group, disk, slot, count) per run — goes in the URL, and the
// cells of every run travel in one fixed little-endian binary frame, in list
// order, rather than JSON — a run is raw device bytes plus checksums, and
// base64ing megabytes of cells through a JSON encoder would dominate the
// read path:
//
//	offset  size          field
//	0       4             magic "ECRN"
//	4       4             element size (uint32 LE)
//	8       4             cell count   (uint32 LE)
//	12      4*count       per-cell CRC32-C (uint32 LE each)
//	12+4c   elem*count    cell payloads, concatenated in slot order
//
// A write's zero runs — cells zero by construction, which the node records
// as the all-zero element under its checksum — are named by their indices
// in a second URL list (&zero=1,4, spelled like MissingHeader) and carry
// nothing in the frame: neither payload nor checksums.
//
// Checksums ride beside the data end to end: the node stores them verbatim
// and the gateway verifies them, so a torn write on a node disk or a flipped
// bit on the wire both surface as ErrCorrupt at the store layer, never as
// silently wrong object bytes.
package nodeapi

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Magic starts every cell-run frame.
const Magic = "ECRN"

// runHeaderLen is the fixed prefix before the CRC array.
const runHeaderLen = 12

// MaxBatchBytes bounds one batch's frame (64 MiB), header included: a node
// refuses a run list or body that would exceed it, so a bad client cannot
// balloon node memory, and the gateway cuts its batches to fit. Zero runs
// ship no frame bytes, so they do not count against it.
const MaxBatchBytes = 64 << 20

// MaxBatchRuns bounds the run list of one batch.
const MaxBatchRuns = 1024

// MissingHeader names the runs of a batch read the node never stored — as
// opposed to a failed request — by their indices in the run list, comma
// separated and ascending, so the client can map them to
// store.ErrCellMissing (reconstruct from the group) instead of
// ErrUnavailable (replan around the node). Their cells are absent from the
// frame; a read of which no run is present answers 404.
const MissingHeader = "X-Ecfrm-Missing"

// MaxCells is the most cells of elem bytes one batch frame may carry.
func MaxCells(elem int) int { return (MaxBatchBytes - runHeaderLen) / (elem + 4) }

// FrameHead returns a frame's header and checksum array for the cells whose
// checksums crcs lists, run by run; the cells' payloads follow it on the
// wire in the same order, sent from wherever they lie.
func FrameHead(elem int, crcs [][]uint32) []byte {
	count := 0
	for _, c := range crcs {
		count += len(c)
	}
	out := make([]byte, runHeaderLen, runHeaderLen+4*count)
	copy(out, Magic)
	binary.LittleEndian.PutUint32(out[4:], uint32(elem))
	binary.LittleEndian.PutUint32(out[8:], uint32(count))
	for _, run := range crcs {
		for _, c := range run {
			out = binary.LittleEndian.AppendUint32(out, c)
		}
	}
	return out
}

// EncodeRun frames count cells (flattened into data, count == len(crcs))
// with their checksums, as one buffer.
func EncodeRun(elem int, data []byte, crcs []uint32) []byte {
	head := FrameHead(elem, [][]uint32{crcs})
	return append(append(make([]byte, 0, len(head)+len(data)), head...), data...)
}

// DecodeRun parses a cell-run frame, validating the framing invariants
// (magic, element size agreement, a count within MaxBatchBytes, exact
// length). The slices it returns alias body.
func DecodeRun(body []byte, wantElem int) (data []byte, crcs []uint32, err error) {
	count := 0
	if len(body) >= runHeaderLen {
		count = int(binary.LittleEndian.Uint32(body[8:]))
	}
	if count < 1 || wantElem < 1 || count > MaxCells(wantElem) || len(body) != HeadLen(count)+count*wantElem {
		return nil, nil, fmt.Errorf("nodeapi: bad cell-run frame of %d bytes (%d cells of %d)", len(body), count, wantElem)
	}
	crcs = make([]uint32, count)
	if err := DecodeHead(body[:HeadLen(count)], wantElem, [][]uint32{crcs}); err != nil {
		return nil, nil, err
	}
	return body[HeadLen(count):], crcs, nil
}

// HeadLen is the size of a frame's header and checksum array for cells
// cells: what FrameHead returns, and the payloads follow.
func HeadLen(cells int) int { return runHeaderLen + 4*cells }

// DecodeHead is FrameHead's inverse: it checks head — magic, element size,
// a count of exactly the cells crcs has room for — and fills crcs run by
// run, so a reader that knows its frame's cells reads the payloads that
// follow straight to where they belong.
func DecodeHead(head []byte, elem int, crcs [][]uint32) error {
	cells := 0
	for _, c := range crcs {
		cells += len(c)
	}
	if len(head) != HeadLen(cells) || string(head[:4]) != Magic ||
		binary.LittleEndian.Uint32(head[4:]) != uint32(elem) || binary.LittleEndian.Uint32(head[8:]) != uint32(cells) {
		return fmt.Errorf("nodeapi: bad frame head of %d bytes for %d cells of %d", len(head), cells, elem)
	}
	head = head[runHeaderLen:]
	for _, run := range crcs {
		for i := range run {
			run[i], head = binary.LittleEndian.Uint32(head), head[4:]
		}
	}
	return nil
}

// RunRef names one run of a batch: Count cells of the (Group, Disk) extent
// from Slot. A write may name a run of no cells: it writes nothing, and puts
// its extent under the batch's barrier. A write's Zero run records its Count
// cells as zeros and carries nothing in the frame.
type RunRef struct {
	Group, Disk, Slot, Count int
	Zero                     bool
}

// RunsPath is the batch endpoint for a run list: GET reads the runs, PUT
// writes them from the framed body, and with sync the node fsyncs every
// extent the list names before it answers.
func RunsPath(refs []RunRef, sync bool) string {
	b := append([]byte(nil), "/cells/runs?runs="...)
	b = AppendRuns(b, refs)
	if z := AppendZeros(nil, refs); len(z) > 0 {
		b = append(append(b, "&zero="...), z...)
	}
	if sync {
		b = append(b, "&sync=1"...)
	}
	return string(b)
}

// AppendRuns appends the run list as it travels in the URL:
// group.disk.slot.count per run, comma separated.
func AppendRuns(b []byte, refs []RunRef) []byte {
	for i, r := range refs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUints(b, '.', r.Group, r.Disk, r.Slot, r.Count)
	}
	return b
}

// AppendZeros appends the indices of refs' zero runs as they travel in the
// URL: ascending, comma separated; nothing when there are none.
func AppendZeros(b []byte, refs []RunRef) []byte {
	var idx []int
	for i, r := range refs {
		if r.Zero {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return b
	}
	return appendUints(b, ',', idx...)
}

// ParseRuns parses a run list and its zero-run list (empty for none),
// rejecting any spelling AppendRuns and AppendZeros would not produce (so
// what it accepts re-encodes byte-identically) — a zero list must be
// strictly ascending, in range, and name no run of no cells — more than
// MaxBatchRuns runs, and more payload cells of elem bytes than one frame
// may carry.
func ParseRuns(list, zero string, elem int) ([]RunRef, error) {
	fields := strings.Split(list, ",")
	if len(fields) > MaxBatchRuns {
		return nil, fmt.Errorf("nodeapi: %d runs, at most %d", len(fields), MaxBatchRuns)
	}
	refs := make([]RunRef, len(fields))
	for i, f := range fields {
		v, ok := uints(f, ".")
		if !ok || len(v) != 4 {
			return nil, fmt.Errorf("nodeapi: bad run %q", f)
		}
		refs[i] = RunRef{Group: v[0], Disk: v[1], Slot: v[2], Count: v[3]}
	}
	if zero != "" {
		idx, ok := uints(zero, ",")
		for i, x := range idx {
			if ok = ok && x < len(refs) && (i == 0 || x > idx[i-1]) && refs[x].Count > 0; ok {
				refs[x].Zero = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("nodeapi: bad zero-run list %q for %d runs", zero, len(refs))
		}
	}
	cells := 0
	for _, r := range refs {
		if r.Zero {
			continue
		}
		if cells += r.Count; elem < 1 || cells > MaxCells(elem) {
			return nil, fmt.Errorf("nodeapi: batch of %d+ cells of %d bytes exceeds %d bytes", cells, elem, MaxBatchBytes)
		}
	}
	return refs, nil
}

// FormatMissing spells the MissingHeader value for the given run indices.
func FormatMissing(idx []int) string { return string(appendUints(nil, ',', idx...)) }

// ParseMissing parses a MissingHeader value naming runs of a runs-long
// batch: indices strictly ascending and in range.
func ParseMissing(v string, runs int) ([]int, error) {
	idx, ok := uints(v, ",")
	for i, x := range idx {
		ok = ok && x < runs && (i == 0 || x > idx[i-1])
	}
	if !ok {
		return nil, fmt.Errorf("nodeapi: bad %s %q for %d runs", MissingHeader, v, runs)
	}
	return idx, nil
}

// appendUints appends xs in decimal, sep separated.
func appendUints(b []byte, sep byte, xs ...int) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// uints parses a sep-separated list of decimals below 2^31 spelled as
// appendUints spells them: no sign, no leading zero.
func uints(s, sep string) ([]int, bool) {
	fields := strings.Split(s, sep)
	out := make([]int, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 || n >= 1<<31 || strconv.Itoa(n) != f {
			return nil, false
		}
		out[i] = n
	}
	return out, true
}

// TruncatePath is the truncation endpoint (POST ?slots=).
func TruncatePath(group, disk int) string {
	return fmt.Sprintf("/truncate/%d/%d", group, disk)
}

// MetaPath is the per-extent geometry endpoint (GET → DiskMeta).
func MetaPath(group, disk int) string {
	return fmt.Sprintf("/cells/%d/%d/meta", group, disk)
}

// ManifestPath is a group's manifest copy: PUT stores the body verbatim,
// GET returns it (empty before the first PUT).
func ManifestPath(group int) string { return fmt.Sprintf("/manifest/%d", group) }

// StatusPath is the whole-node status endpoint (GET → NodeStatus).
const StatusPath = "/node/status"

// DiskMeta is one extent's geometry.
type DiskMeta struct {
	Group    int `json:"group"`
	Disk     int `json:"disk"`
	Slots    int `json:"slots"`    // exclusive upper bound of occupied slots
	Elements int `json:"elements"` // slots actually holding a cell
}

// NodeStatus is the node's self-description.
type NodeStatus struct {
	Backend  string     `json:"backend"` // "mem" or "file"
	ElemSize int        `json:"elem_size"`
	Draining bool       `json:"draining"`
	Disks    []DiskMeta `json:"disks"`
}
