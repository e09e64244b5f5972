package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/obs"
)

// walStore builds a small-element store so a handful of small objects spans
// stripe boundaries interestingly.
func walStore(t testing.TB) *Store {
	t.Helper()
	return MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 64)
}

// holdGate is a fault injector that parks the first device write gate it is
// asked about until release is closed — how tests hold a commit in flight now
// that a lone Put leads its own commit at once. entered closes when the
// commit has reached the gate (it then holds the store's exclusive lock).
type holdGate struct {
	once             sync.Once
	entered, release chan struct{}
}

func newHoldGate() *holdGate {
	return &holdGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *holdGate) ReadFault(int) Fault { return Fault{} }

func (g *holdGate) WriteFault(int) Fault {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return Fault{}
}

// TestWALPutAcksWithReadableOffset: every Put's returned offset must read
// back the object's exact bytes once the ack fires.
func TestWALPutAcksWithReadableOffset(t *testing.T) {
	s := walStore(t)
	w := NewWAL(s, WALConfig{FlushInterval: time.Millisecond})
	defer w.Close()

	rng := rand.New(rand.NewSource(1))
	type put struct {
		data []byte
		off  int64
	}
	var puts []put
	for i := 0; i < 20; i++ {
		data := make([]byte, 1+rng.Intn(3*s.ElementSize()))
		rng.Read(data)
		off, err := w.Put(context.Background(), data)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		puts = append(puts, put{data, off})
	}
	for i, p := range puts {
		res, err := s.ReadAt(p.off, len(p.data))
		if err != nil {
			t.Fatalf("read back put %d at %d: %v", i, p.off, err)
		}
		if !bytes.Equal(res.Data, p.data) {
			t.Fatalf("put %d read back wrong bytes at offset %d", i, p.off)
		}
	}
}

// TestWALPacksSmallObjects: many sub-stripe objects committed through the
// WAL must seal far fewer stripes than the one-stripe-per-object Flush path.
func TestWALPacksSmallObjects(t *testing.T) {
	s := walStore(t)
	w := NewWAL(s, WALConfig{})
	objBytes, objects := 64, 64 // one element each; a stripe holds dps of them

	var wg sync.WaitGroup
	errs := make([]error, objects)
	for i := 0; i < objects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(i + 1)}, objBytes)
			_, errs[i] = w.Put(context.Background(), data)
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	perObject := objects // the old path: one padded stripe per object
	if got := s.Stripes(); got >= perObject/2 {
		t.Fatalf("wal sealed %d stripes for %d one-element objects; packing should need far fewer than %d",
			got, objects, perObject)
	}
}

// TestWALConcurrentPutsBatch: concurrent Puts must share group commits — the
// successful-commit count must be well below the object count.
func TestWALConcurrentPutsBatch(t *testing.T) {
	s := walStore(t)
	reg := obs.NewRegistry()
	s.SetMetrics(NewMetrics(reg, s.Scheme().N()))
	w := NewWAL(s, WALConfig{FlushInterval: 2 * time.Millisecond})
	objects := 48

	var wg sync.WaitGroup
	for i := 0; i < objects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(i + 1)}, 64)
			if _, err := w.Put(context.Background(), data); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	commits := reg.Counter("ecfrm_wal_commits_total", "", obs.L("outcome", "ok")).Value()
	if commits == 0 || commits >= int64(objects) {
		t.Fatalf("%d objects committed in %d batches; want 1 <= batches < objects", objects, commits)
	}
	if obj, bts := w.Depth(); obj != 0 || bts != 0 {
		t.Fatalf("closed wal still holds %d objects / %d bytes", obj, bts)
	}
}

// TestWALFaultedCommitRetainsAndRetries: a group commit that trips the fault
// injector must tell its waiters ErrUnavailable, keep the objects queued,
// and commit them on the next (healthy) attempt — the write-path analog of
// the read path's 503-then-retry contract.
func TestWALFaultedCommitRetainsAndRetries(t *testing.T) {
	s := walStore(t)
	fastRetries(s)
	w := NewWAL(s, WALConfig{FlushInterval: time.Hour}) // no timer rescue of the retained entry: explicit Sync drives
	var faulting sync.Mutex
	active := true
	s.SetFaultInjector(stubInjector{write: func(d int) Fault {
		faulting.Lock()
		defer faulting.Unlock()
		if active {
			return Fault{Err: errors.New("injected write fault")}
		}
		return Fault{}
	}})

	data := bytes.Repeat([]byte{0xab}, 3*s.ElementSize())
	// The lone put leads its own commit straight into the faulting plan.
	if _, err := w.Put(context.Background(), data); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put got %v; want ErrUnavailable", err)
	}
	if n, b := w.Depth(); n != 1 || b != len(data) {
		t.Fatalf("faulted commit dropped the entry: depth %d objects / %d bytes", n, b)
	}
	// A forced retry against the same plan faults again and still retains it.
	if err := w.Sync(); err == nil {
		t.Fatal("faulted group commit reported success")
	}
	if n, b := w.Depth(); n != 1 || b != len(data) {
		t.Fatalf("faulted retry dropped the entry: depth %d objects / %d bytes", n, b)
	}

	// Clear the faults; the retained entry must commit on the next attempt.
	faulting.Lock()
	active = false
	faulting.Unlock()
	if err := w.Sync(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if n, _ := w.Depth(); n != 0 {
		t.Fatalf("retry left %d entries queued", n)
	}
	s.SetFaultInjector(nil)
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatalf("read back retained object: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("retained object committed with wrong bytes")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALFaultedCommitNeverDoubleAppends: when Append seals some stripes and
// then faults, the retry must hand the store only the un-handed delta —
// the committed bytes must contain exactly one copy of every object.
func TestWALFaultedCommitNeverDoubleAppends(t *testing.T) {
	s := walStore(t)
	fastRetries(s)
	w := NewWAL(s, WALConfig{FlushInterval: time.Hour})

	// First object fills several stripes; fault the seal partway through by
	// failing writes on device 5 after a few clean gates.
	var mu sync.Mutex
	gates, failFrom, active := 0, 30, true
	s.SetFaultInjector(stubInjector{write: func(d int) Fault {
		mu.Lock()
		defer mu.Unlock()
		if !active {
			return Fault{}
		}
		gates++
		if gates > failFrom {
			return Fault{Err: errors.New("seal fault")}
		}
		return Fault{}
	}})

	rng := rand.New(rand.NewSource(7))
	first := make([]byte, 3*s.stripeBytes()+s.ElementSize())
	rng.Read(first)
	if _, err := w.Put(context.Background(), first); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put got %v; want ErrUnavailable", err)
	}

	// Heal the plan and queue a second object; the retry commits both.
	mu.Lock()
	active = false
	mu.Unlock()
	second := make([]byte, 2*s.ElementSize())
	rng.Read(second)
	off2, err := w.Put(context.Background(), second)
	if err == nil {
		err = w.Sync()
	}
	if err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	s.SetFaultInjector(nil)

	if want := int64(len(first)); off2 != want {
		t.Fatalf("second object at offset %d; want %d (exactly one copy of the first)", off2, want)
	}
	res, err := s.ReadAt(0, len(first)+len(second))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(res.Data[:len(first)], first) || !bytes.Equal(res.Data[len(first):], second) {
		t.Fatal("committed bytes are not exactly first‖second")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALFaultedMultiStripeCommitRetriedBySync: a faulted commit of an object
// longer than a stripe leaves more than a stripe buffered in the store. A
// retry with nothing new to hand over (Sync alone) must seal all of it,
// oldest stripe first — not the first stripe's worth and drop the rest.
func TestWALFaultedMultiStripeCommitRetriedBySync(t *testing.T) {
	s := walStore(t)
	fastRetries(s)
	w := NewWAL(s, WALConfig{FlushInterval: time.Hour})
	var mu sync.Mutex
	failing := true
	s.SetFaultInjector(stubInjector{write: func(int) Fault {
		mu.Lock()
		defer mu.Unlock()
		if failing {
			return Fault{Err: errors.New("seal fault")}
		}
		return Fault{}
	}})
	data := make([]byte, 2*s.stripeBytes()+3*s.ElementSize()+5)
	rand.New(rand.NewSource(8)).Read(data)
	if _, err := w.Put(context.Background(), data); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put got %v; want ErrUnavailable", err)
	}
	mu.Lock()
	failing = false
	mu.Unlock()
	if err := w.Sync(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	s.SetFaultInjector(nil)
	if got := s.Stripes(); got != 3 {
		t.Fatalf("retry sealed %d stripes; want 3", got)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("retried object reads back wrong (err %v)", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALClosedRejectsPuts: Put after Close fails with ErrWALClosed.
func TestWALClosedRejectsPuts(t *testing.T) {
	s := walStore(t)
	w := NewWAL(s, WALConfig{})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := w.Put(context.Background(), []byte{1}); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("put after close: %v; want ErrWALClosed", err)
	}
}

// TestWALPutContextCancel: an abandoned Put returns the context error, and
// the entry still commits (the bytes were accepted into the queue). Only a
// Put waiting behind another commit can be abandoned — a leader is busy
// committing — so the first put's commit is held at a write gate.
func TestWALPutContextCancel(t *testing.T) {
	s := walStore(t)
	w := NewWAL(s, WALConfig{FlushInterval: time.Hour})
	gate := newHoldGate()
	s.SetFaultInjector(gate)
	first := bytes.Repeat([]byte{3}, 64)
	led := make(chan error, 1)
	go func() {
		_, err := w.Put(context.Background(), first)
		led <- err
	}()
	<-gate.entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := bytes.Repeat([]byte{7}, 128)
	if _, err := w.Put(ctx, data); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled put: %v; want context.Canceled", err)
	}
	close(gate.release)
	if err := <-led; err != nil {
		t.Fatalf("leading put: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The abandoned put committed in the batch after the leader's own.
	res, err := s.ReadAt(int64(s.stripeBytes()), len(data))
	if err != nil {
		t.Fatalf("read back abandoned put: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("abandoned put's bytes were not committed")
	}
}

// TestWALReplayMatchesLive: replaying the log into a fresh store reproduces
// the live store's committed extent byte-for-byte, across multiple batches.
func TestWALReplayMatchesLive(t *testing.T) {
	s := walStore(t)
	logPath := filepath.Join(t.TempDir(), "wal.log")
	w := NewWAL(s, WALConfig{FlushInterval: time.Millisecond, LogPath: logPath})
	rng := rand.New(rand.NewSource(3))
	var all [][]byte
	for i := 0; i < 17; i++ {
		data := make([]byte, 1+rng.Intn(2*s.stripeBytes()))
		rng.Read(data)
		all = append(all, data)
		if _, err := w.Put(context.Background(), data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read spilled log: %v", err)
	}
	replay := walStore(t)
	extents, orphans, err := ReplayWAL(log, replay)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(extents) != len(all) || orphans != 0 {
		t.Fatalf("replay committed %d objects, orphaned %d; want %d and 0", len(extents), orphans, len(all))
	}
	if lw, lr := s.NextOffset(), replay.NextOffset(); lw != lr {
		t.Fatalf("replayed extent %d != live extent %d", lr, lw)
	}
	sealed := int(s.NextOffset())
	lres, err := s.ReadAt(0, sealed)
	if err != nil {
		t.Fatalf("live read: %v", err)
	}
	rres, err := replay.ReadAt(0, sealed)
	if err != nil {
		t.Fatalf("replay read: %v", err)
	}
	if !bytes.Equal(lres.Data, rres.Data) {
		t.Fatal("replayed store differs from live store")
	}
	for i, e := range extents {
		res, err := replay.ReadAt(e.Off, e.Size)
		if err != nil {
			t.Fatalf("replay extent %d: %v", i, err)
		}
		if !bytes.Equal(res.Data, all[i]) {
			t.Fatalf("replay extent %d holds wrong bytes", i)
		}
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWALDepthGaugeMoves: the queue-depth gauges must reflect queued entries
// and drain to zero after commit.
func TestWALDepthGaugeMoves(t *testing.T) {
	s := walStore(t)
	reg := obs.NewRegistry()
	s.SetMetrics(NewMetrics(reg, s.Scheme().N()))
	w := NewWAL(s, WALConfig{FlushInterval: time.Hour})
	gauge := reg.Gauge("ecfrm_wal_queued_objects", "")
	gate := newHoldGate()
	s.SetFaultInjector(gate)

	done := make(chan error, 1)
	go func() {
		_, err := w.Put(context.Background(), []byte{1, 2, 3})
		done <- err
	}()
	<-gate.entered // the put's own commit is in flight: still queued
	if v := gauge.Value(); v != 1 {
		t.Fatalf("depth gauge %v with one commit in flight; want 1", v)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("put: %v", err)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("depth gauge %v after drain; want 0", v)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// BenchmarkWALSmallPuts measures batched small-object throughput against the
// per-object Append+Flush path.
func BenchmarkWALSmallPuts(b *testing.B) {
	for _, batched := range []bool{false, true} {
		name := "per-object"
		if batched {
			name = "wal"
		}
		b.Run(name, func(b *testing.B) {
			s := MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 4096)
			obj := bytes.Repeat([]byte{0x5a}, 4096)
			b.SetBytes(int64(len(obj)))
			b.ResetTimer()
			if batched {
				w := NewWAL(s, WALConfig{})
				var wg sync.WaitGroup
				workers := 8
				per := b.N / workers
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							if _, err := w.Put(context.Background(), obj); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			} else {
				for i := 0; i < b.N; i++ {
					if err := s.Append(obj); err != nil {
						b.Fatal(err)
					}
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
