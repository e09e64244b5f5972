package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// testElem keeps the default LRC(6,2,2)/ecfrm stripe — 30 data elements —
// at stripeData bytes.
const (
	testElem   = "512"
	stripeData = 30 * 512
)

// encodeFile writes size random bytes to a file and encodes it into a fresh
// data directory under the default scheme, returning the payload, the
// directory and the scheme the default flags name.
func encodeFile(t *testing.T, size int) ([]byte, string, *core.Scheme) {
	t.Helper()
	tmp := t.TempDir()
	payload := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(payload)
	in, dir := filepath.Join(tmp, "in.bin"), filepath.Join(tmp, "data")
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := cmdEncode([]string{"-in", in, "-out", dir, "-elem", testElem}, &out); err != nil {
		t.Fatal(err)
	}
	scheme, err := core.SchemeFor("lrc", 6, 2, 2, "ecfrm")
	if err != nil {
		t.Fatal(err)
	}
	return payload, dir, scheme
}

// decode decodes dir under the default scheme (plus extra flags) and
// returns the file it wrote.
func decode(t *testing.T, dir string, extra ...string) ([]byte, error) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "out.bin")
	args := append([]string{"-in", dir, "-out", outPath, "-elem", testElem}, extra...)
	if err := cmdDecode(args, &bytes.Buffer{}); err != nil {
		return nil, err
	}
	return os.ReadFile(outPath)
}

// verify runs verify on dir under the default scheme and returns its output.
func verify(t *testing.T, dir string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmdVerify([]string{"-in", dir, "-elem", testElem}, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// removePairs deletes devices' data/checksum file pairs.
func removePairs(t *testing.T, dir string, devs ...int) {
	t.Helper()
	for _, d := range devs {
		for _, ext := range []string{"data", "crc"} {
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("dev_%02d.%s", d, ext))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// snapshot reads every file in dir.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, p := range names {
		if files[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// unchanged fails the test unless every snapshotted file still holds the
// same bytes.
func unchanged(t *testing.T, before map[string][]byte) {
	t.Helper()
	for p, raw := range before {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("%s changed (%d bytes, was %d): %v", filepath.Base(p), len(got), len(raw), err)
		}
	}
}

// TestEncodeDecodeRoundTrip: a multi-stripe file whose last stripe is
// partial decodes byte-identically, and verify finds nothing to fix.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, dir, _ := encodeFile(t, 0)
	if got, err := decode(t, dir); err != nil || len(got) != 0 {
		t.Fatalf("empty file: %d bytes, %v", len(got), err)
	}
	payload, dir, _ := encodeFile(t, 10*stripeData+1234)
	got, err := decode(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("decoded %d bytes differ from the %d encoded", len(got), len(payload))
	}
	if out := verify(t, dir); !strings.Contains(out, "11 stripes") || !strings.Contains(out, "healed 0 cells") {
		t.Fatalf("verify of a clean directory: %s", out)
	}
}

// TestDecodeWithMissingDisks: with f devices' file pairs gone, decode heals
// them in place and the file decodes identically; a second verify finds
// nothing left to heal.
func TestDecodeWithMissingDisks(t *testing.T) {
	payload, dir, scheme := encodeFile(t, 3*stripeData+77)
	devs := rand.New(rand.NewSource(1)).Perm(scheme.N())[:scheme.FaultTolerance()]
	removePairs(t, dir, devs...)
	got, err := decode(t, dir)
	if err != nil {
		t.Fatalf("decode with devices %v lost: %v", devs, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("decode with devices %v lost differs from the payload", devs)
	}
	if out := verify(t, dir); !strings.Contains(out, "healed 0 cells") {
		t.Fatalf("second verify after the heal: %s", out)
	}
}

// TestVerifyCleanAndCorrupt: a flipped byte in a device's data file is a
// torn cell: verify heals it (one cell), a second verify finds nothing, and
// the file still decodes identically.
func TestVerifyCleanAndCorrupt(t *testing.T) {
	payload, dir, _ := encodeFile(t, 2*stripeData)
	path := filepath.Join(dir, "dev_05.data")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := verify(t, dir); !strings.Contains(out, "healed 1 cells") {
		t.Fatalf("verify over a torn cell: %s", out)
	}
	if out := verify(t, dir); !strings.Contains(out, "healed 0 cells") {
		t.Fatalf("second verify: %s", out)
	}
	if got, err := decode(t, dir); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode after the heal: %v", err)
	}
}

// TestDecodeRejectsWrongScheme: a directory opened under another scheme is
// refused, naming both geometries.
func TestDecodeRejectsWrongScheme(t *testing.T) {
	_, dir, _ := encodeFile(t, 1000)
	_, err := decode(t, dir, "-code", "rs", "-m", "3")
	if err == nil {
		t.Fatal("decode under RS(6,3) of a directory written as LRC(6,2,2) succeeded")
	}
	for _, name := range []string{"EC-FRM-LRC(6,2,2)", "EC-FRM-RS(6,3)"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("refusal %q does not name %s", err, name)
		}
	}
}

// TestDecodeBeyondTolerance: with f+1 devices' file pairs gone the stripes
// the directory recorded are lost; decode fails and changes no file that
// remains.
func TestDecodeBeyondTolerance(t *testing.T) {
	_, dir, scheme := encodeFile(t, 3*stripeData)
	removePairs(t, dir, rand.New(rand.NewSource(2)).Perm(scheme.N())[:scheme.FaultTolerance()+1]...)
	before := snapshot(t, dir)
	if _, err := decode(t, dir); err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("decode beyond tolerance: %v, want unrecoverable", err)
	}
	unchanged(t, before)
}

// TestEncodeRefusesNonEmptyDir: encode never appends to a directory that
// already holds stripes.
func TestEncodeRefusesNonEmptyDir(t *testing.T) {
	_, dir, _ := encodeFile(t, 1000)
	in := filepath.Join(t.TempDir(), "again.bin")
	if err := os.WriteFile(in, []byte("more"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, dir)
	err := cmdEncode([]string{"-in", in, "-out", dir, "-elem", testElem}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "already holds 1 stripes") {
		t.Fatalf("encode into a non-empty directory: %v", err)
	}
	unchanged(t, before)
}
