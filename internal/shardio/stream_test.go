package shardio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

func scheme622() *core.Scheme { return core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM) }

func mustRS(k, m int) *rs.Code {
	c, err := rs.New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}

// readDisks reads every disk file of a shard directory.
func readDisks(t *testing.T, scheme *core.Scheme, dir string) [][]byte {
	t.Helper()
	disks := make([][]byte, scheme.N())
	for d := range disks {
		b, err := os.ReadFile(DiskFile(dir, d))
		if err != nil {
			t.Fatal(err)
		}
		disks[d] = b
	}
	return disks
}

// stripeCells slices stripe st's cells out of the disk files, leaving the
// erased disks' cells nil.
func stripeCells(scheme *core.Scheme, disks [][]byte, elemSize, st int, erased map[int]bool) [][]byte {
	lay, n := scheme.Layout(), scheme.N()
	cells := make([][]byte, scheme.CellsPerStripe())
	for row := 0; row < lay.Rows(); row++ {
		for col := 0; col < n; col++ {
			if d := lay.Disk(st, col); !erased[d] {
				off := (st*lay.Rows() + row) * elemSize
				cells[row*n+col] = disks[d][off : off+elemSize]
			}
		}
	}
	return cells
}

// TestStreamMatchesBufferedProperty is the central equivalence property:
// across layouts, codes, element sizes, odd payload sizes and worker
// counts, every stripe EncodeStream writes — each cell in its disk's file
// at its row — is the stripe core.Scheme.EncodeStripe computes from the
// zero-padded payload, and with up to f disk files erased,
// core.Scheme.ReconstructStripe gets the payload back from the rest.
func TestStreamMatchesBufferedProperty(t *testing.T) {
	schemes := map[string]*core.Scheme{
		"lrc-standard": core.MustScheme(lrc.Must(6, 2, 2), layout.FormStandard),
		"lrc-rotated":  core.MustScheme(lrc.Must(6, 2, 2), layout.FormRotated),
		"lrc-ecfrm":    scheme622(),
		"rs-ecfrm":     core.MustScheme(mustRS(6, 3), layout.FormECFRM),
	}
	rng := rand.New(rand.NewSource(99))
	for name, scheme := range schemes {
		dps := scheme.DataPerStripe()
		for _, elemSize := range []int{64, 512} {
			stripeBytes := dps * elemSize
			for _, size := range []int{0, 1, elemSize - 1, stripeBytes,
				stripeBytes + 1, 3*stripeBytes - 17, 4 * stripeBytes} {
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("%s/elem%d/size%d/w%d", name, elemSize, size, workers)
					payload := make([]byte, size)
					rng.Read(payload)
					dir := t.TempDir()
					man, err := EncodeStream(scheme, bytes.NewReader(payload), dir, elemSize, Manifest{}, workers)
					if err != nil {
						t.Fatalf("%s: encode: %v", label, err)
					}
					stripes := max(1, (size+stripeBytes-1)/stripeBytes)
					if want := (Manifest{Scheme: scheme.Name(), ElemSize: elemSize, Stripes: stripes, Length: int64(size)}); man != want {
						t.Fatalf("%s: manifest %+v, want %+v", label, man, want)
					}
					padded := append(payload, make([]byte, stripes*stripeBytes-size)...)
					disks := readDisks(t, scheme, dir)
					erased := map[int]bool{}
					for _, d := range rng.Perm(scheme.N())[:1+rng.Intn(scheme.FaultTolerance())] {
						erased[d] = true
					}
					for st := 0; st < stripes; st++ {
						data := make([][]byte, dps)
						for e := range data {
							off := st*stripeBytes + e*elemSize
							data[e] = padded[off : off+elemSize]
						}
						want, err := scheme.EncodeStripe(data)
						if err != nil {
							t.Fatal(err)
						}
						for i, c := range stripeCells(scheme, disks, elemSize, st, nil) {
							if !bytes.Equal(c, want[i]) {
								t.Fatalf("%s: stripe %d cell %d differs from EncodeStripe's", label, st, i)
							}
						}
						cells := stripeCells(scheme, disks, elemSize, st, erased)
						if err := scheme.ReconstructStripe(cells); err != nil {
							t.Fatalf("%s: stripe %d with disks %v erased: %v", label, st, erased, err)
						}
						if got := bytes.Join(scheme.DataShards(cells), nil); !bytes.Equal(got, padded[st*stripeBytes:(st+1)*stripeBytes]) {
							t.Fatalf("%s: stripe %d reconstructed around disks %v differs from the payload", label, st, erased)
						}
					}
				}
			}
		}
	}
}

// TestEncodeValidation: a non-positive element size is refused.
func TestEncodeValidation(t *testing.T) {
	if _, err := EncodeStream(scheme622(), bytes.NewReader([]byte("x")), t.TempDir(), 0, Manifest{}, 1); err == nil {
		t.Fatal("zero element size must fail")
	}
}

// TestEncodeStreamPropagatesReadError checks a failing reader aborts the
// pipeline cleanly (no hang, no partial manifest confusion).
func TestEncodeStreamPropagatesReadError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(bytes.NewReader(make([]byte, 10_000)), errReader{boom})
	_, err := EncodeStream(scheme622(), r, t.TempDir(), 512, Manifest{}, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestEncodeStreamEmptyPayload pins the one-zero-stripe rule for empty
// input: every disk file holds one stripe's rows of zeros.
func TestEncodeStreamEmptyPayload(t *testing.T) {
	scheme := scheme622()
	dir := t.TempDir()
	man, err := EncodeStream(scheme, bytes.NewReader(nil), dir, 512, Manifest{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if man.Stripes != 1 || man.Length != 0 {
		t.Fatalf("manifest %+v, want 1 stripe / length 0", man)
	}
	zeros := make([]byte, scheme.Layout().Rows()*512)
	for d, b := range readDisks(t, scheme, dir) {
		if !bytes.Equal(b, zeros) {
			t.Fatalf("disk %d holds %d bytes, want one stripe of zeros", d, len(b))
		}
	}
}

// TestEmptyPayloadStillOneStripe: the manifest written for an empty payload
// records one stripe of length 0, and that stripe still decodes — around f
// erased disks — to zeros, of which the payload is the empty prefix.
func TestEmptyPayloadStillOneStripe(t *testing.T) {
	scheme, dir := scheme622(), t.TempDir()
	if _, err := EncodeStream(scheme, bytes.NewReader(nil), dir, 64, Manifest{}, 1); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		t.Fatal(err)
	}
	if man.Stripes != 1 || man.Length != 0 {
		t.Fatalf("empty payload manifest on disk: %+v", man)
	}
	erased := map[int]bool{}
	for d := 0; d < scheme.FaultTolerance(); d++ {
		erased[d] = true
	}
	cells := stripeCells(scheme, readDisks(t, scheme, dir), 64, 0, erased)
	if err := scheme.ReconstructStripe(cells); err != nil {
		t.Fatalf("empty payload's stripe with disks %v erased: %v", erased, err)
	}
	data := bytes.Join(scheme.DataShards(cells), nil)
	if !bytes.Equal(data, make([]byte, scheme.DataPerStripe()*64)) {
		t.Fatalf("empty payload's stripe decodes to %d non-zero bytes", len(bytes.Trim(data, "\x00")))
	}
}
