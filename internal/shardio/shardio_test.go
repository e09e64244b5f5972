package shardio

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
)

func scheme622(t testing.TB) *core.Scheme {
	t.Helper()
	return core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
}

func encodeSample(t *testing.T, dir string, size int, seed int64) ([]byte, Manifest) {
	t.Helper()
	payload := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(payload)
	man, err := Encode(scheme622(t), payload, dir, 512,
		Manifest{Code: "lrc", K: 6, L: 2, M: 2, Form: "ecfrm"})
	if err != nil {
		t.Fatal(err)
	}
	return payload, man
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload, man := encodeSample(t, dir, 100_000, 1)
	if man.Length != 100_000 || man.Stripes < 1 || man.Scheme != "EC-FRM-LRC(6,2,2)" {
		t.Fatalf("manifest wrong: %+v", man)
	}
	got, missing, err := Decode(scheme622(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: missing=%d equal=%v", missing, bytes.Equal(got, payload))
	}
}

func TestDecodeWithMissingDisks(t *testing.T) {
	dir := t.TempDir()
	payload, _ := encodeSample(t, dir, 50_000, 2)
	// Remove the full fault tolerance (3 disks).
	for _, d := range []int{1, 4, 8} {
		if err := os.Remove(DiskFile(dir, d)); err != nil {
			t.Fatal(err)
		}
	}
	got, missing, err := Decode(scheme622(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("triple-loss decode failed: missing=%d", missing)
	}
	// A fourth loss must fail.
	if err := os.Remove(DiskFile(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(scheme622(t), dir); err == nil {
		t.Fatal("4 missing disks must fail for tolerance 3")
	}
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	encodeSample(t, dir, 40_000, 3)
	if err := VerifyStream(scheme622(t), dir, 1); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in a shard file.
	path := DiskFile(dir, 5)
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyStream(scheme622(t), dir, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not flagged: %v", err)
	}
	// Verify with a missing disk refuses.
	if err := os.Remove(DiskFile(dir, 2)); err != nil {
		t.Fatal(err)
	}
	if err := VerifyStream(scheme622(t), dir, 1); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify with missing disk: %v", err)
	}
}

func TestDecodeRejectsWrongScheme(t *testing.T) {
	dir := t.TempDir()
	encodeSample(t, dir, 10_000, 4)
	wrong := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	if _, _, err := Decode(wrong, dir); !errors.Is(err, ErrManifest) {
		t.Fatalf("wrong scheme: %v", err)
	}
}

func TestReadManifestErrors(t *testing.T) {
	if _, err := ReadManifest(t.TempDir()); !errors.Is(err, ErrManifest) {
		t.Fatalf("missing manifest: %v", err)
	}
	dir := t.TempDir()
	os.WriteFile(dir+"/manifest.json", []byte("{nonsense"), 0o644)
	if _, err := ReadManifest(dir); !errors.Is(err, ErrManifest) {
		t.Fatalf("malformed manifest: %v", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(scheme622(t), []byte("x"), t.TempDir(), 0, Manifest{}); err == nil {
		t.Fatal("zero element size must fail")
	}
}

func TestTruncatedShardFileRejected(t *testing.T) {
	dir := t.TempDir()
	encodeSample(t, dir, 20_000, 5)
	path := DiskFile(dir, 3)
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-10], 0o644)
	if _, _, err := Decode(scheme622(t), dir); err == nil {
		t.Fatal("truncated shard file must fail")
	}
}

func TestEmptyPayloadStillOneStripe(t *testing.T) {
	dir := t.TempDir()
	man, err := Encode(scheme622(t), nil, dir, 64, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if man.Stripes != 1 || man.Length != 0 {
		t.Fatalf("empty payload manifest: %+v", man)
	}
	got, _, err := Decode(scheme622(t), dir)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decode: %v, %d bytes", err, len(got))
	}
}
