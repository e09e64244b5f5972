// Incremental disk repair: batched rebuild that interleaves with foreground
// traffic, and the batched scrub.
//
// Recovery is split into bounded stripe batches:
//
//   - BeginDiskRebuild installs the (still-failed) replacement device
//     immediately, so stripes sealed during the rebuild are written straight
//     into it by the normal seal path and only the stripes sealed before
//     Begin need reconstruction.
//   - Step reconstructs one batch of stripes under the *shared* lock:
//     survivors are read through the read executor and the rebuilt cells
//     written directly to the replacement backend, which no reader touches
//     while the device is marked failed. Foreground reads proceed
//     concurrently with every batch.
//   - The final Step takes the exclusive lock briefly to fsync the
//     replacement, clear the failed flag, and bump the epoch.
//
// Every stripe a rebuild, scrub, heal or startup recovery (diskdev.go)
// touches is one executor job (fanout.go) over that stripe's cells: the
// device's share of it is one coalesced run, and the replacement takes one
// write per stripe.
//
// Scrub is batched the same way: ScrubRange verifies one section per shared
// lock hold, Scrub stitches sections together releasing the lock between
// them, and HealStripe repairs what a scrub flagged under a short exclusive
// hold. internal/repair drives all three from its background scheduler.
package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// DefaultRebuildBatch is the stripes one rebuild Step covers when the caller
// does not choose a batch size.
const DefaultRebuildBatch = 64

// DefaultScrubBatch is the stripes one shared-lock hold verifies when Scrub
// batches its full-store walk.
const DefaultScrubBatch = 32

// ErrNotFailed is BeginDiskRebuild's answer for a device that is not failed
// — one that came back between a failure detector's verdict and the rebuild.
var ErrNotFailed = errors.New("store: device not failed")

// DiskRebuild is an in-progress incremental reconstruction of one failed
// device. Obtain one with BeginDiskRebuild and drive it with Step until
// done; Abort abandons it (the device stays failed). Methods are safe for
// concurrent use, but Steps serialize internally — the intended driver is
// one scheduler goroutine.
type DiskRebuild struct {
	s           *Store
	dev         int
	replacement *Device
	started     time.Time

	mu       sync.Mutex
	total    int // stripes sealed at Begin
	next     int // first stripe not yet reconstructed
	readCost int // distinct survivor elements read
	done     bool
	aborted  bool
}

// Started returns when the rebuild began.
func (r *DiskRebuild) Started() time.Time { return r.started }

// Progress reports stripes completed so far, the total the rebuild covers,
// and the survivor elements read.
func (r *DiskRebuild) Progress() (next, total, readCost int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next, r.total, r.readCost
}

// Abort abandons an unfinished rebuild so a later BeginDiskRebuild (or
// RecoverDisk) can start over. A rebuilt-but-unfinalized device stays failed
// with the replacement backend installed, exactly like a mid-rebuild error.
func (r *DiskRebuild) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || r.aborted {
		return
	}
	r.aborted = true
	r.s.endRebuild(r.dev)
}

// BeginDiskRebuild starts the incremental reconstruction of failed device d.
// The replacement device is created and installed immediately (still marked
// failed): stripes sealed while the rebuild runs are written straight into
// it by the normal seal path, so Step only has to reconstruct the stripes
// sealed before this call. On file backends the old device's files are
// closed and reopened truncated, like RecoverDisk always did.
func (s *Store) BeginDiskRebuild(d int) (*DiskRebuild, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if d < 0 || d >= len(s.devices) {
		return nil, fmt.Errorf("store: no device %d", d)
	}
	dev := s.devices[d]
	if !dev.failed {
		return nil, fmt.Errorf("%w: device %d", ErrNotFailed, d)
	}
	if s.rebuilding[d] {
		return nil, fmt.Errorf("store: device %d rebuild already in progress", d)
	}
	var be CellBackend = NewMemDisk(s.elemSize)
	if s.newBackendFn != nil {
		// File backend: the replacement writes to the same dev_NN files, so
		// the failed device's handles must close before the factory reopens
		// them truncated. The old contents are untrusted anyway — that is
		// what "failed" means — and the device stays marked failed until the
		// rebuild completes, so no reader touches the half-built files.
		err := dev.base.Close()
		s.plug(dev, be) // dead placeholder; keeps later Close safe
		if err != nil {
			return nil, fmt.Errorf("store: recover device %d: close old backend: %w", d, err)
		}
		if be, err = s.newBackendFn(d); err != nil {
			return nil, fmt.Errorf("store: recover device %d: open replacement: %w", d, err)
		}
	}
	replacement := newDevice(d, s.rows, be)
	s.plug(replacement, be)
	replacement.failed = true // cleared by the final Step
	// The replacement reports to the failed device's metric series: to the
	// registry it is the same disk slot.
	s.Metrics().wire(d, replacement)
	s.devices[d] = replacement
	if s.rebuilding == nil {
		s.rebuilding = make(map[int]bool)
	}
	s.rebuilding[d] = true
	return &DiskRebuild{
		s:           s,
		dev:         d,
		replacement: replacement,
		started:     time.Now(),
		total:       s.stripes,
	}, nil
}

// Step advances the rebuild by up to batch stripes (DefaultRebuildBatch when
// batch < 1) and reports whether the device is now healthy. Batches run
// under the shared lock so foreground reads proceed concurrently; the
// finalize runs under a short exclusive hold. On error the rebuild aborts
// and the device stays failed (retry with a fresh BeginDiskRebuild).
func (r *DiskRebuild) Step(batch int) (done bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return true, nil
	}
	if r.aborted {
		return false, fmt.Errorf("store: device %d rebuild aborted", r.dev)
	}
	if batch < 1 {
		batch = DefaultRebuildBatch
	}
	if done, err = r.step(batch); err != nil {
		r.aborted = true
		r.s.endRebuild(r.dev)
	}
	return done, err
}

// step reconstructs one batch under the shared lock, then finalizes
// exclusively once every pre-Begin stripe is rebuilt. Caller holds r.mu.
func (r *DiskRebuild) step(batch int) (bool, error) {
	s := r.s
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return false, errors.New("store: closed")
	}
	end := r.next + batch
	if end > r.total {
		end = r.total
	}
	for stripe := r.next; stripe < end; stripe++ {
		if err := r.fillStripe(stripe); err != nil {
			s.mu.RUnlock()
			return false, err
		}
	}
	r.next = end
	s.mu.RUnlock()
	if r.next < r.total {
		return false, nil
	}
	return true, r.finalizeRebuild()
}

// fillStripe writes device r.dev's share of one stripe to the replacement
// in one batch: its zero cells as zero runs, read and decoded from nothing,
// and the rest planned around the failed device — one pass over the
// survivors, then one targeted decode per cell, routing around corrupt
// survivors — from a buffer the run pool lends. Caller holds r.mu and the
// store's lock.
func (r *DiskRebuild) fillStripe(stripe int) error {
	s := r.s
	targets := s.deviceCells(stripe, r.dev)
	res, err := s.execute(context.TODO(), s.around(targets, r.dev), corruptAvoids, ReadOptions{})
	if err != nil {
		return fmt.Errorf("store: rebuild device %d stripe %d: %w", r.dev, stripe, err)
	}
	defer res.release()
	es := s.elemSize
	buf := s.runs.Get(len(targets) * es)
	defer s.runs.Put(buf)
	zero := func(i int) bool { return s.scheme.ZeroCell(s.fills, stripe, targets[i].Pos) }
	for i, t := range targets {
		if zero(i) {
			continue
		}
		cell, err := res.cell(stripe, t.Pos)
		if err != nil {
			return fmt.Errorf("store: rebuild device %d stripe %d: %w", r.dev, stripe, err)
		}
		copy(buf.Data[i*es:], cell)
		buf.CRCs[i] = crc32.Checksum(cell, castagnoli)
	}
	runs := s.appendRuns(nil, r.dev, stripe*s.rows, buf.Data, buf.CRCs, zero)
	if err := s.writeBatch(r.replacement, runs, false); err != nil {
		return fmt.Errorf("store: rebuild device %d stripe %d: %w", r.dev, stripe, err)
	}
	r.readCost += res.plan.TotalReads()
	return nil
}

// finalizeRebuild makes the reconstructed contents durable and visible:
// fsync (under the FsyncAlways discipline), clear the failed flag, bump the
// epoch. Caller holds r.mu.
func (r *DiskRebuild) finalizeRebuild() error {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	// Durability before visibility: the rebuilt contents hit stable storage
	// before the swap clears the failed flag and readers route back here.
	if s.fsync {
		if err := s.writeBatch(r.replacement, barrier([]int{r.dev}), true); err != nil {
			r.aborted = true
			delete(s.rebuilding, r.dev)
			return fmt.Errorf("store: recover device %d: fsync: %w", r.dev, err)
		}
	}
	r.replacement.failed = false
	delete(s.rebuilding, r.dev)
	s.bumpEpoch()
	r.done = true
	s.Metrics().observeRecover(r.readCost, time.Since(r.started).Seconds())
	return nil
}

// endRebuild clears the in-progress flag for device d so a fresh Begin can
// retry.
func (s *Store) endRebuild(d int) {
	s.mu.Lock()
	delete(s.rebuilding, d)
	s.mu.Unlock()
}

// Rebuilding returns the device IDs with a rebuild in progress, ascending.
func (s *Store) Rebuilding() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.rebuilding))
	for d := range s.rebuilding {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// RecoverDisk rebuilds every element of failed device d from the survivors
// onto a fresh replacement, clears the failure flag, and returns the number
// of distinct elements read from other devices during the repair.
//
// Recovery is I/O-minimal per group: each lost cell is rebuilt from the
// candidate code's cheapest usable recovery set (LRC's local groups make
// this k/l reads per data element instead of k), with reads shared across
// the lost cells of a stripe. If no minimal set survives (multiple failures
// or corruption), the group falls back to reading every surviving element.
//
// This is the synchronous convenience wrapper over the incremental
// machinery: it batches through BeginDiskRebuild/Step, so concurrent reads
// interleave between batches instead of stalling for the whole rebuild.
func (s *Store) RecoverDisk(d int) (readCost int, err error) {
	r, err := s.BeginDiskRebuild(d)
	if err != nil {
		return 0, err
	}
	for {
		done, err := r.Step(DefaultRebuildBatch)
		if err != nil {
			return r.readCostSnapshot(), err
		}
		if done {
			return r.readCostSnapshot(), nil
		}
	}
}

func (r *DiskRebuild) readCostSnapshot() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.readCost
}

// ScrubRange verifies parity consistency of sealed stripes [start,
// start+count) under a single shared-lock hold, clamped to the sealed
// extent. It returns the corrupt stripe indices found and the first stripe
// index after the verified range (== start when start is at or past the
// sealed extent).
func (s *Store) ScrubRange(start, count int) (bad []int, next int, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, start, errors.New("store: closed")
	}
	if start < 0 {
		start = 0
	}
	if start >= s.stripes {
		return nil, start, nil
	}
	end := s.stripes
	if count > 0 && start+count < end {
		end = start + count
	}
	for stripe := start; stripe < end; stripe++ {
		ok, err := s.verifyStripe(stripe)
		if err != nil {
			return nil, stripe, err
		}
		if !ok {
			bad = append(bad, stripe)
		}
	}
	return bad, end, nil
}

// verifyStripe reads every cell of one stripe as stored — one job, one run
// per device — and checks parity consistency. A corrupt run fails the
// stripe; a failed or unavailable device is an error, since scrub must read
// every cell. Caller holds mu.
func (s *Store) verifyStripe(stripe int) (bool, error) {
	r, err := s.execute(context.TODO(), s.exactly(s.allCells(stripe)), corruptStops, ReadOptions{})
	if errors.Is(err, ErrCorrupt) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer r.release()
	return s.scheme.VerifyStripe(&s.bufs, r.stripes[0].cells)
}

// Scrub verifies parity consistency of every sealed stripe, returning the
// indices of corrupt stripes (nil if all clean). It reads every cell, in
// DefaultScrubBatch-stripe sections with the shared lock released between
// them, so concurrent reads and writes interleave with a full-store scrub
// instead of queueing behind it. Stripes sealed while the scrub walks are
// verified too: the walk ends only when it catches up with the live extent.
func (s *Store) Scrub() ([]int, error) {
	var bad []int
	start := 0
	for {
		b, next, err := s.ScrubRange(start, DefaultScrubBatch)
		if err != nil {
			return nil, err
		}
		bad = append(bad, b...)
		if y := s.testScrubYield; y != nil {
			y(next)
		}
		if next <= start {
			return bad, nil
		}
		start = next
	}
}

// HealStripe re-checks every cell of one sealed stripe and heals the
// checksum-corrupt ones from their groups under the exclusive lock,
// returning how many cells were rewritten. It is one inline heal job over
// the stripe's cells, the same pass a healing GET runs. Cells on failed or
// unavailable devices are skipped — device loss is the rebuild machinery's
// job, not the scrub's. An unrecoverable corrupt cell aborts with the heal
// error.
func (s *Store) HealStripe(stripe int) (healed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stripe < 0 || stripe >= s.stripes {
		return 0, fmt.Errorf("%w: stripe %d of %d", ErrRange, stripe, s.stripes)
	}
	cells := s.allCells(stripe)
	live := func(avoid []int) (*core.Plan, error) {
		return s.scheme.PlanCells(slices.DeleteFunc(slices.Clone(cells), func(c core.Access) bool {
			return slices.Contains(avoid, c.Disk)
		}), nil, nil)
	}
	r, err := s.execute(context.TODO(), live, corruptHeals, ReadOptions{Sequential: true})
	if err != nil {
		return 0, err
	}
	r.release()
	return r.healed, nil
}

// DiskElements returns how many elements device d stores, asking its backend
// (which WrapBackends or a rebuild may swap) outside the lock.
func (s *Store) DiskElements(d int) int {
	s.mu.RLock()
	be := s.devices[d].be
	s.mu.RUnlock()
	return be.Elements()
}

// DiskErrorCounts snapshots every device's hard-error count (runs its
// backend failed to serve) for the failure detectors.
func (s *Store) DiskErrorCounts() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, len(s.devices))
	for i, d := range s.devices {
		out[i] = d.errs.Load()
	}
	return out
}
