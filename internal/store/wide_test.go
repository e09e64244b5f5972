package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
)

// wideGrid is the wide-stripe sweep the store end-to-end tests cover:
// stripes of k=32/64 data elements, past the paper's Table I widths.
func wideGrid(t testing.TB) map[string]*core.Scheme {
	t.Helper()
	cells := make(map[string]*core.Scheme)
	for cname, c := range map[string]codes.Code{
		"rs-64":  mustRS(64, 4),
		"lrc-32": lrc.Must(32, 4, 2),
	} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			cells[fmt.Sprintf("%s-%s", cname, form)] = core.MustScheme(c, form)
		}
	}
	return cells
}

// TestWideStripeStoreEndToEnd proves the wide-stripe hot path through the
// full store: append, seal, flush, normal reads, in-tolerance disk failures
// with degraded reads, and every read option — all at k=32/64, where
// decodes key the cache with multi-word erasure masks. Runs under -race via
// `make race-io`.
func TestWideStripeStoreEndToEnd(t *testing.T) {
	for name, scheme := range wideGrid(t) {
		t.Run(name, func(t *testing.T) {
			const elem = 64
			st := MustNew(scheme, elem)
			rng := rand.New(rand.NewSource(int64(len(name))))
			payload := make([]byte, 3*scheme.DataPerStripe()*elem+elem/2)
			rng.Read(payload)
			if err := st.Append(payload); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}

			// Normal reads across random ranges.
			for trial := 0; trial < 12; trial++ {
				off := rng.Intn(len(payload) - 1)
				ln := 1 + rng.Intn(len(payload)-off)
				res, err := st.ReadAt(int64(off), ln)
				if err != nil {
					t.Fatalf("normal read [%d,%d): %v", off, off+ln, err)
				}
				if !bytes.Equal(res.Data, payload[off:off+ln]) {
					t.Fatalf("normal read [%d,%d): wrong bytes", off, off+ln)
				}
			}

			// Fail FaultTolerance() disks; every read must still return the
			// exact payload, under every read option.
			for i := 0; i < scheme.FaultTolerance(); i++ {
				st.FailDiskWithinTolerance(rng.Intn(scheme.N()))
			}
			for trial := 0; trial < 12; trial++ {
				off := rng.Intn(len(payload) - 1)
				ln := 1 + rng.Intn(len(payload)-off)
				opts := readOptionsGrid[trial%len(readOptionsGrid)]
				res, err := st.ReadAtCtx(context.Background(), int64(off), ln, opts)
				if err != nil {
					t.Fatalf("degraded read [%d,%d) opts %+v: %v", off, off+ln, opts, err)
				}
				if !bytes.Equal(res.Data, payload[off:off+ln]) {
					t.Fatalf("degraded read [%d,%d) opts %+v: wrong bytes", off, off+ln, opts)
				}
			}

			// Full disk recovery brings the store back to verifying clean.
			for _, d := range st.FailedDisks() {
				if _, err := st.RecoverDisk(d); err != nil {
					t.Fatalf("recover disk %d: %v", d, err)
				}
			}
			res, err := st.ReadAt(0, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Data, payload) {
				t.Fatal("payload mismatch after repair")
			}
		})
	}
}
