package faultinject

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/store"
)

// parentGateDigest is the SHA-256 of every write-gate decision — device and
// verdict, in order — that the commit before the single-copy write path
// (b6b68ce) drew from the plan below for the scenario below.
const parentGateDigest = "09c9e20cf13dfc6a4858ab37571b3c713e37d72b4fcc6dc6cb29aba5f8fa006c faulted=47 stripes=51"

// gateRecorder forwards to a seeded injector and hashes each write verdict
// in the order the store asks for them.
type gateRecorder struct {
	*Injector
	mu sync.Mutex
	h  hash.Hash
}

func (g *gateRecorder) WriteFault(dev int) store.Fault {
	f := g.Injector.WriteFault(dev)
	g.mu.Lock()
	fmt.Fprintf(g.h, "%d %s\n", dev, faultString(f))
	g.mu.Unlock()
	return f
}

// TestSealGateOrderMatchesParent: seals now write their devices
// concurrently, but the fault gates in front of those writes must still be
// consulted serially and in the old order — a seeded plan replays against
// the new write path verdict for verdict, faulted seals and retries
// included, through Append/Flush and through lone WAL commits.
func TestSealGateOrderMatchesParent(t *testing.T) {
	st := store.MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 64)
	st.SetRetryPolicy(200*time.Microsecond, 1)
	plan := Plan{Seed: 20, Policies: []Policy{
		{Device: 2, WriteErrProb: 0.2},
		{Device: 5, WriteErrProb: 0.1, StuckProb: 0.05},
		{Device: 9, WriteErrProb: 0.25},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := &gateRecorder{Injector: New(plan), h: sha256.New()}
	st.SetFaultInjector(rec)

	rng := rand.New(rand.NewSource(20))
	sb := st.Scheme().DataPerStripe() * st.ElementSize()
	// A faulted Append is retried by Append, never by Flush, and WAL objects
	// stay below a stripe: the parent's Flush kept only the first stripe of a
	// longer pending buffer, so a scenario that let it see one could not be
	// compared at all.
	faulted := 0
	for i := 0; i < 12; i++ {
		data := make([]byte, 1+rng.Intn(3*sb))
		rng.Read(data)
		for err := st.Append(data); err != nil; err = st.Append(nil) {
			faulted++
		}
		for st.Flush() != nil {
			faulted++
		}
	}
	// Every Put leads its own commit (before and after the lone-leader rule:
	// any object fills a one-byte batch) and only Sync retries a faulted
	// one, so no timer decides what a batch holds.
	w := store.NewWAL(st, store.WALConfig{BatchBytes: 1, FlushInterval: time.Hour})
	walFaulted := 0
	for i := 0; i < 24; i++ {
		data := make([]byte, 1+rng.Intn(sb-1))
		rng.Read(data)
		if _, err := w.Put(context.Background(), data); err != nil {
			walFaulted++
			faulted++
			for w.Sync() != nil {
				faulted++
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if faulted == walFaulted || walFaulted == 0 {
		t.Fatalf("the plan faulted %d seals, %d of them WAL commits: the scenario must exercise retries on both paths", faulted, walFaulted)
	}
	got := fmt.Sprintf("%s faulted=%d stripes=%d", hex.EncodeToString(rec.h.Sum(nil)), faulted, st.Stripes())
	if got != parentGateDigest {
		t.Fatalf("write-gate sequence differs from the parent commit's:\n got %s\nwant %s", got, parentGateDigest)
	}
}
