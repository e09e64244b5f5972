package shardio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
)

// Fault-propagation tests for the streaming pipeline: an erroring or
// stalling source must surface its first error promptly — no deadlock, no
// goroutine leak, no poisoned buffer arenas.

var errBoom = errors.New("boom")

// streamLeakCheck fails the test if it leaves goroutines behind, giving
// pipeline workers a grace window to observe shutdown.
func streamLeakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

// withTimeout fails the test if fn does not return within d — the
// deadlock detector for every fault path here.
func withTimeout(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("stream did not return within %v (deadlocked?)", d)
		return nil
	}
}

// faultyReader serves limit bytes (stalling stall per Read) then errors.
type faultyReader struct {
	r     io.Reader
	limit int
	stall time.Duration
}

func (f *faultyReader) Read(p []byte) (int, error) {
	if f.stall > 0 {
		time.Sleep(f.stall)
	}
	if f.limit <= 0 {
		return 0, errBoom
	}
	if len(p) > f.limit {
		p = p[:f.limit]
	}
	n, err := f.r.Read(p)
	f.limit -= n
	return n, err
}

func faultScheme() *core.Scheme { return core.MustScheme(mustRS(4, 2), layout.FormECFRM) }

// TestEncodeStreamSourceFaults: a source that errors (or crawls, then
// errors) mid-payload fails the encode with that exact error, promptly,
// with all workers reaped.
func TestEncodeStreamSourceFaults(t *testing.T) {
	scheme := faultScheme()
	stripeBytes := scheme.DataPerStripe() * 64
	payload := make([]byte, 8*stripeBytes)
	rand.New(rand.NewSource(1)).Read(payload)
	for name, stall := range map[string]time.Duration{"erroring": 0, "stalling": 2 * time.Millisecond} {
		t.Run(name, func(t *testing.T) {
			streamLeakCheck(t)
			src := &faultyReader{r: bytes.NewReader(payload), limit: 3*stripeBytes + 7, stall: stall}
			err := withTimeout(t, 10*time.Second, func() error {
				_, err := EncodeStream(scheme, src, t.TempDir(), 64, Manifest{}, 3)
				return err
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want the source's error", err)
			}
		})
	}
}

// TestPipelineDiscardExactlyOnce pins the discard contract at the pipeline
// layer: after the first error, every emitted job is either consumed or
// discarded — exactly one of the two, never both, none dropped. A job
// double-released to a buffer arena would alias two future GetShards.
func TestPipelineDiscardExactlyOnce(t *testing.T) {
	streamLeakCheck(t)
	var mu sync.Mutex
	emitted, consumed, discarded := []int{}, map[int]int{}, map[int]int{}
	err := pipeline(4,
		func(emit func(int) bool) error {
			for i := 0; i < 100; i++ {
				if !emit(i) {
					return nil
				}
				mu.Lock()
				emitted = append(emitted, i)
				mu.Unlock()
			}
			return nil
		},
		func(i int) error {
			if i == 13 {
				return fmt.Errorf("job %d: %w", i, errBoom)
			}
			return nil
		},
		func(i int) error { consumed[i]++; return nil },
		func(i int) { discarded[i]++ },
	)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the worker's error", err)
	}
	for _, i := range emitted {
		if consumed[i]+discarded[i] != 1 {
			t.Fatalf("job %d consumed %d times, discarded %d times; want exactly one release",
				i, consumed[i], discarded[i])
		}
	}
	for i := 0; i < 13; i++ {
		if consumed[i] != 1 {
			t.Fatalf("job %d precedes the failure but was not consumed", i)
		}
	}
	if discarded[13] != 1 {
		t.Fatal("the failing job itself must be discarded, not consumed")
	}
}

// TestEncodeStreamAbortLeavesNoPartialManifest: a faulted encode must not
// leave a manifest behind — a half-written directory that parses as
// complete would decode garbage.
func TestEncodeStreamAbortLeavesNoPartialManifest(t *testing.T) {
	streamLeakCheck(t)
	scheme := faultScheme()
	stripeBytes := scheme.DataPerStripe() * 64
	dir := t.TempDir()
	src := &faultyReader{r: rand.New(rand.NewSource(5)), limit: 2 * stripeBytes}
	if _, err := EncodeStream(scheme, src, dir, 64, Manifest{}, 3); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if _, err := os.Stat(DiskFile(dir, 0)); err != nil {
		t.Skipf("no disk files written before abort: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		t.Fatal("aborted encode left a manifest")
	}
}
