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
