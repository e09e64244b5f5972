package shardio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rs"
)

// TestStreamStageMetrics: with a registry enabled, every stage of every
// streaming op observes once per stripe; with metrics disabled again, no
// further observations land.
func TestStreamStageMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	scheme := core.MustScheme(mustRS(4, 2), layout.FormECFRM)
	elem := 512
	stripes := 5
	payload := make([]byte, stripes*scheme.DataPerStripe()*elem)
	rand.New(rand.NewSource(1)).Read(payload)

	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := EncodeStream(scheme, bytes.NewReader(payload), dir, elem, Manifest{}, 2); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := DecodeStream(scheme, dir, &out, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("round trip mismatch")
	}
	if err := VerifyStream(scheme, dir, 2); err != nil {
		t.Fatal(err)
	}

	hist := func(op, stage string) *obs.Histogram {
		return reg.Histogram("ecfrm_shardio_stage_seconds", "", nil,
			obs.L("op", op), obs.L("stage", stage))
	}
	for _, op := range []string{"encode", "decode", "verify"} {
		for _, stage := range []string{"produce", "work", "commit"} {
			want := int64(stripes)
			if op == "encode" && stage == "produce" {
				// The encode producer's final read probes for EOF; that probe
				// is a real source read and is timed like any other.
				want++
			}
			if got := hist(op, stage).Count(); got != want {
				t.Errorf("%s/%s observed %d stripes, want %d", op, stage, got, want)
			}
		}
	}

	// Disabled: spans become no-ops.
	EnableMetrics(nil)
	if _, err := DecodeStream(scheme, dir, &bytes.Buffer{}, 2); err != nil {
		t.Fatal(err)
	}
	if got := hist("decode", "work").Count(); got != int64(stripes) {
		t.Fatalf("disabled metrics still observed: count %d, want %d", got, int64(stripes))
	}
	_ = os.RemoveAll(dir)
}

// mustRS is rs.New for parameters the test knows are valid.
func mustRS(k, m int) *rs.Code {
	c, err := rs.New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}
