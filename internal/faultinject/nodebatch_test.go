package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/store"
)

// nodeDisk serves the runs of every device it is handed from that device's
// own MemDisk, as a data node serves every extent it holds.
type nodeDisk struct {
	*store.MemDisk // Slots, Elements, Truncate and Close of its own extent
	disks          []*store.MemDisk
}

func (nd nodeDisk) ReadRuns(ctx context.Context, runs []store.Run) {
	for i := range runs {
		nd.disks[runs[i].Disk].ReadRuns(ctx, runs[i:i+1])
	}
}

func (nd nodeDisk) WriteRuns(ctx context.Context, runs []store.Run, sync bool) error {
	for i := range runs {
		if err := nd.disks[runs[i].Disk].WriteRuns(ctx, runs[i:i+1], sync); err != nil {
			return err
		}
	}
	return nil
}

// runLog records, per device, every run a backend decorator is handed —
// read or write, slot and count — and, for a read, whether it came back:
// reads settle run by run, so a read's outcome is its own device's.
type runLog struct {
	mu   sync.Mutex
	devs map[int][]string
}

// wrap puts the log above inner's decorator.
func (l *runLog) wrap(inner func(store.CellBackend) store.CellBackend) func(store.CellBackend) store.CellBackend {
	return func(be store.CellBackend) store.CellBackend { return loggedBackend{inner(be), l} }
}

type loggedBackend struct {
	store.CellBackend
	log *runLog
}

func (b loggedBackend) ReadRuns(ctx context.Context, runs []store.Run) {
	b.CellBackend.ReadRuns(ctx, runs)
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	for _, r := range runs {
		b.log.devs[r.Disk] = append(b.log.devs[r.Disk], fmt.Sprintf("r %d+%d ok=%v", r.Slot, r.Count, r.Err == nil))
	}
}

func (b loggedBackend) WriteRuns(ctx context.Context, runs []store.Run, sync bool) error {
	b.log.mu.Lock()
	for _, r := range runs {
		b.log.devs[r.Disk] = append(b.log.devs[r.Disk], fmt.Sprintf("w %d+%d", r.Slot, r.Count))
	}
	b.log.mu.Unlock()
	return b.CellBackend.WriteRuns(ctx, runs, sync)
}

// TestSealVerdictsAcrossNodeBatches: one seeded plan driven through the same
// single-threaded schedule — faulted seals retried by Append, lone WAL
// commits retried by Sync, reads over faulted devices — draws the identical
// per-device verdict sequence whether every device is its own batch or
// CellStoreConfig.NodeOf puts three devices in each node's batch. Each
// device is handed the same runs in the same order, reads settle the same
// way run by run, and every device's stream is drawn the same number of
// times; the injector draws one verdict per run from its own device's
// stream, so the verdicts match one for one.
func TestSealVerdictsAcrossNodeBatches(t *testing.T) {
	// Faulted devices lead, sit inside and close their nodes' batches.
	plan := Plan{Seed: 20, Policies: []Policy{
		{Device: 0, WriteErrProb: 0.2, ReadErrProb: 0.1, CorruptProb: 0.1},
		{Device: 3, WriteErrProb: 0.1, StuckProb: 0.05},
		{Device: 4, CorruptProb: 0.15, ReadErrProb: 0.05},
		{Device: 7, WriteErrProb: 0.15, ReadErrProb: 0.2},
		{Device: 8, WriteErrProb: 0.1},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	scheme := core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	run := func(nodeOf []int) (string, map[int][]string, []int) {
		disks := make([]*store.MemDisk, scheme.N())
		for d := range disks {
			disks[d] = store.NewMemDisk(64)
		}
		st, _, err := store.NewWithCellBackends(scheme, 64, store.CellStoreConfig{NodeOf: nodeOf},
			func(d int) (store.CellBackend, error) { return nodeDisk{disks[d], disks}, nil })
		if err != nil {
			t.Fatal(err)
		}
		in := New(plan)
		in.StuckTimeout = 200 * time.Microsecond
		log := &runLog{devs: make(map[int][]string)}
		st.WrapBackends(log.wrap(in.Wrap))

		rng := rand.New(rand.NewSource(20))
		sb := scheme.DataPerStripe() * st.ElementSize()
		var model []byte
		faulted, walFaulted, readErrs := 0, 0, 0
		for i := 0; i < 12; i++ {
			data := make([]byte, 1+rng.Intn(3*sb))
			rng.Read(data)
			model = append(model, data...)
			for err := st.Append(data); err != nil; err = st.Append(nil) {
				faulted++
			}
			for st.Flush() != nil {
				faulted++
			}
			model = append(model, make([]byte, int(st.NextOffset())-len(model))...) // Flush's padding
		}
		w := store.NewWAL(st, store.WALConfig{BatchBytes: 1, FlushInterval: time.Hour})
		for i := 0; i < 24; i++ {
			data := make([]byte, 1+rng.Intn(sb-1))
			rng.Read(data)
			if _, err := w.Put(context.Background(), data); err != nil {
				walFaulted++
				for w.Sync() != nil {
					walFaulted++
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ { // over the Append-written extent
			off := rng.Intn(len(model) - 512)
			res, err := st.ReadAt(int64(off), 512)
			switch {
			case err != nil:
				readErrs++
			case string(res.Data) != string(model[off:off+512]):
				t.Fatalf("read %d: silent wrong bytes at [%d,+512)", i, off)
			}
		}
		drawn := make([]int, scheme.N())
		for d := range drawn {
			drawn[d] = ops(in, d)
		}
		if faulted == 0 || walFaulted == 0 {
			t.Fatalf("the plan faulted %d seals and %d WAL commits: the scenario must exercise both", faulted, walFaulted)
		}
		return fmt.Sprintf("faulted=%d wal=%d readErrs=%d stripes=%d", faulted, walFaulted, readErrs, st.Stripes()), log.devs, drawn
	}
	soloSum, soloLog, soloOps := run(nil)
	grouped := make([]int, scheme.N())
	for d := range grouped {
		grouped[d] = d / 3
	}
	nodeSum, nodeLog, nodeOps := run(grouped)
	t.Logf("one device per batch: %s; three per node: %s", soloSum, nodeSum)
	if soloSum != nodeSum {
		t.Fatalf("outcomes differ: one device per batch %s, three per node %s", soloSum, nodeSum)
	}
	if !slices.Equal(soloOps, nodeOps) {
		t.Fatalf("verdicts drawn per device differ: one device per batch %v, three per node %v", soloOps, nodeOps)
	}
	for d := 0; d < scheme.N(); d++ {
		if a, b := strings.Join(soloLog[d], "\n"), strings.Join(nodeLog[d], "\n"); a != b {
			t.Fatalf("device %d was handed different runs:\n--- one device per batch ---\n%s\n--- three per node ---\n%s", d, a, b)
		}
	}
}
