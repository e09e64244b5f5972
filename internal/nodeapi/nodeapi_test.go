package nodeapi

import (
	"bytes"
	"testing"
)

// goldenRun is the frame for two 3-byte cells {1,2,3} and {4,5,6} with
// checksums 0x0A0B0C0D and 0x01020304, spelled out from the layout in the
// package comment — the bytes a gateway of any earlier commit puts on the
// wire and a node of any earlier commit expects.
var goldenRun = []byte{
	'E', 'C', 'R', 'N',
	3, 0, 0, 0, // element size
	2, 0, 0, 0, // cell count
	0x0D, 0x0C, 0x0B, 0x0A,
	0x04, 0x03, 0x02, 0x01,
	1, 2, 3, 4, 5, 6,
}

// TestRunFrameGoldenBytes pins the cell-run wire format: the write path's
// callers changed (flat runs end to end), the frame must not have.
func TestRunFrameGoldenBytes(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6}
	crcs := []uint32{0x0A0B0C0D, 0x01020304}
	if got := EncodeRun(3, data, crcs); !bytes.Equal(got, goldenRun) {
		t.Fatalf("EncodeRun = % x\nwant        % x", got, goldenRun)
	}
	gotData, gotCRCs, err := DecodeRun(goldenRun, 3)
	if err != nil {
		t.Fatalf("DecodeRun(golden): %v", err)
	}
	if !bytes.Equal(gotData, data) || len(gotCRCs) != 2 || gotCRCs[0] != crcs[0] || gotCRCs[1] != crcs[1] {
		t.Fatalf("DecodeRun(golden) = % x %x; want % x %x", gotData, gotCRCs, data, crcs)
	}
}

// TestDecodeRunRejectsMalformed: every framing invariant is checked.
func TestDecodeRunRejectsMalformed(t *testing.T) {
	bad := map[string][]byte{
		"short":         goldenRun[:8],
		"magic":         append([]byte("ECRX"), goldenRun[4:]...),
		"truncated":     goldenRun[:len(goldenRun)-1],
		"trailing":      append(append([]byte(nil), goldenRun...), 0),
		"zero cells":    {'E', 'C', 'R', 'N', 3, 0, 0, 0, 0, 0, 0, 0},
		"wrong element": goldenRun,
	}
	for name, frame := range bad {
		elem := 3
		if name == "wrong element" {
			elem = 4
		}
		if _, _, err := DecodeRun(frame, elem); err == nil {
			t.Errorf("%s frame decoded without error", name)
		}
	}
}

// FuzzDecodeRun feeds the three things a node parses from the network — a
// cell-run frame, a batch's run list and its zero-run list — arbitrary
// bytes: no parser panics, whatever one accepts re-encodes byte-identically,
// and nothing past the node's bounds is accepted: a zero list names only
// runs of cells, and the frame bound counts payload cells alone.
func FuzzDecodeRun(f *testing.F) {
	f.Add(goldenRun, "0.1.0.3,0.4.0.3", "", uint16(3))
	for _, frame := range [][]byte{
		goldenRun[:8],
		append([]byte("ECRX"), goldenRun[4:]...),
		goldenRun[:len(goldenRun)-1],
		append(append([]byte(nil), goldenRun...), 0),
		{'E', 'C', 'R', 'N', 3, 0, 0, 0, 0, 0, 0, 0},
	} {
		f.Add(frame, "2.1.4.3", "", uint16(3))
	}
	f.Add(goldenRun, "01.1.1.1,+1.1.1.1", "", uint16(4))
	f.Add([]byte{'E', 'C', 'R', 'N', 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, "0.0.0.4294967295", "", uint16(1))
	f.Add(goldenRun, "0.1.0.2,0.1.2.3,0.4.0.0", "1", uint16(3))
	for _, zero := range []string{"1,1", "1,0", "2", "3", "01", "-1", ",1", "0,"} {
		f.Add(goldenRun, "0.1.0.2,0.1.2.3,0.4.0.0", zero, uint16(3))
	}
	f.Add([]byte(nil), "0.0.0.1000000000,0.0.0.1", "0", uint16(4096))
	f.Fuzz(func(t *testing.T, body []byte, list, zero string, elem uint16) {
		e := int(elem)
		if data, crcs, err := DecodeRun(body, e); err == nil {
			if len(crcs) < 1 || len(crcs) > MaxCells(e) {
				t.Fatalf("accepted a frame of %d cells of %d bytes", len(crcs), e)
			}
			if again := EncodeRun(e, data, crcs); !bytes.Equal(again, body) {
				t.Fatalf("frame re-encodes as % x, was % x", again, body)
			}
		}
		if refs, err := ParseRuns(list, zero, e); err == nil {
			cells := 0
			for _, r := range refs {
				if r.Zero && r.Count < 1 {
					t.Fatalf("zero list %q names a run of no cells in %q", zero, list)
				}
				if !r.Zero {
					cells += r.Count
				}
			}
			if len(refs) > MaxBatchRuns || cells > MaxCells(e) {
				t.Fatalf("accepted %d runs of %d payload cells of %d bytes", len(refs), cells, e)
			}
			if again := string(AppendRuns(nil, refs)); again != list {
				t.Fatalf("run list re-encodes as %q, was %q", again, list)
			}
			if again := string(AppendZeros(nil, refs)); again != zero {
				t.Fatalf("zero list re-encodes as %q, was %q", again, zero)
			}
		}
	})
}
