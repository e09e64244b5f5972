package shardio

import (
	"bytes"
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
)

// readDir reads every disk file and the manifest of a shard directory for
// byte-level comparison between the buffered and streaming encoders.
func readDir(t *testing.T, scheme *core.Scheme, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for d := 0; d < scheme.N(); d++ {
		b, err := os.ReadFile(DiskFile(dir, d))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("disk%02d", d)] = b
	}
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	out["manifest"] = b
	return out
}

// TestStreamMatchesBufferedProperty is the central equivalence property:
// across layouts, codes, element sizes, odd payload sizes, and worker
// counts, EncodeStream writes byte-identical shard directories to Encode,
// and DecodeStream returns byte-identical payloads to Decode — including
// decodes through missing disks.
func TestStreamMatchesBufferedProperty(t *testing.T) {
	schemes := map[string]*core.Scheme{
		"lrc-standard": core.MustScheme(lrc.Must(6, 2, 2), layout.FormStandard),
		"lrc-rotated":  core.MustScheme(lrc.Must(6, 2, 2), layout.FormRotated),
		"lrc-ecfrm":    core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM),
		"rs-ecfrm":     core.MustScheme(mustRS(6, 3), layout.FormECFRM),
	}
	rng := rand.New(rand.NewSource(99))
	for name, scheme := range schemes {
		for _, elemSize := range []int{64, 512} {
			stripeBytes := scheme.DataPerStripe() * elemSize
			for _, size := range []int{0, 1, elemSize - 1, stripeBytes,
				stripeBytes + 1, 3*stripeBytes - 17, 4 * stripeBytes} {
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("%s/elem%d/size%d/w%d", name, elemSize, size, workers)
					payload := make([]byte, size)
					rng.Read(payload)

					bufDir, strDir := t.TempDir(), t.TempDir()
					manBuf, err := Encode(scheme, payload, bufDir, elemSize, Manifest{})
					if err != nil {
						t.Fatalf("%s: buffered encode: %v", label, err)
					}
					manStr, err := EncodeStream(scheme, bytes.NewReader(payload), strDir, elemSize, Manifest{}, workers)
					if err != nil {
						t.Fatalf("%s: stream encode: %v", label, err)
					}
					if manBuf != manStr {
						t.Fatalf("%s: manifests differ:\n%+v\n%+v", label, manBuf, manStr)
					}
					want, got := readDir(t, scheme, bufDir), readDir(t, scheme, strDir)
					for k := range want {
						if !bytes.Equal(want[k], got[k]) {
							t.Fatalf("%s: %s differs between buffered and streaming encode", label, k)
						}
					}

					// Decode the streamed directory both ways, complete.
					var out bytes.Buffer
					missing, err := DecodeStream(scheme, strDir, &out, workers)
					if err != nil || missing != 0 {
						t.Fatalf("%s: stream decode: missing=%d err=%v", label, missing, err)
					}
					if !bytes.Equal(out.Bytes(), payload) {
						t.Fatalf("%s: stream decode payload differs", label)
					}

					// Knock out a tolerated set of disks and decode again.
					rmDisks := rng.Perm(scheme.N())[:scheme.FaultTolerance()]
					for _, d := range rmDisks {
						if err := os.Remove(DiskFile(strDir, d)); err != nil {
							t.Fatal(err)
						}
					}
					out.Reset()
					missing, err = DecodeStream(scheme, strDir, &out, workers)
					if err != nil {
						t.Fatalf("%s: degraded stream decode (missing %v): %v", label, rmDisks, err)
					}
					if missing != len(rmDisks) || !bytes.Equal(out.Bytes(), payload) {
						t.Fatalf("%s: degraded stream decode wrong (missing=%d)", label, missing)
					}
					bufPayload, bufMissing, err := Decode(scheme, strDir)
					if err != nil || bufMissing != missing || !bytes.Equal(bufPayload, out.Bytes()) {
						t.Fatalf("%s: buffered decode of degraded dir disagrees: %v", label, err)
					}
				}
			}
		}
	}
}

// TestDecodeStreamBeyondTolerance mirrors the buffered error contract when
// too many disks are gone.
func TestDecodeStreamBeyondTolerance(t *testing.T) {
	scheme := scheme622(t)
	dir := t.TempDir()
	encodeSample(t, dir, 50_000, 5)
	for d := 0; d <= scheme.FaultTolerance(); d++ {
		if err := os.Remove(DiskFile(dir, d)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := DecodeStream(scheme, dir, io.Discard, 2)
	if !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

// TestVerifyStreamDetectsCorruption checks the parallel verifier reports
// exactly the stripes whose cells were flipped, in order.
func TestVerifyStreamDetectsCorruption(t *testing.T) {
	scheme := scheme622(t)
	dir := t.TempDir()
	_, man := encodeSample(t, dir, 6*scheme.DataPerStripe()*512, 7)
	if man.Stripes < 6 {
		t.Fatalf("want ≥6 stripes, got %d", man.Stripes)
	}
	if err := VerifyStream(scheme, dir, 3); err != nil {
		t.Fatalf("clean dir: %v", err)
	}
	// Flip one byte in stripes 1 and 4 on disk 0.
	path := DiskFile(dir, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perStripe := scheme.Layout().Rows() * man.ElemSize
	b[1*perStripe] ^= 0xff
	b[4*perStripe] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = VerifyStream(scheme, dir, 3)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if want := "stripes [1 4]"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err %q does not list %q", err, want)
	}
}

// TestEncodeStreamPropagatesReadError checks a failing reader aborts the
// pipeline cleanly (no hang, no partial manifest confusion).
func TestEncodeStreamPropagatesReadError(t *testing.T) {
	scheme := scheme622(t)
	boom := errors.New("boom")
	r := io.MultiReader(bytes.NewReader(make([]byte, 10_000)), errReader{boom})
	_, err := EncodeStream(scheme, r, t.TempDir(), 512, Manifest{}, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestEncodeStreamEmptyPayload pins the one-zero-stripe rule for empty
// input, matching the buffered encoder.
func TestEncodeStreamEmptyPayload(t *testing.T) {
	scheme := scheme622(t)
	dir := t.TempDir()
	man, err := EncodeStream(scheme, bytes.NewReader(nil), dir, 512, Manifest{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if man.Stripes != 1 || man.Length != 0 {
		t.Fatalf("manifest %+v, want 1 stripe / length 0", man)
	}
	var out bytes.Buffer
	if _, err := DecodeStream(scheme, dir, &out, 1); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("decoded %d bytes from empty payload", out.Len())
	}
}
