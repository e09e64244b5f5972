// Incremental disk repair: batched rebuild and migration that interleave
// with foreground traffic.
//
// The original RecoverDisk held the exclusive lock for the whole rebuild, so
// a failing disk froze every reader for the duration — exactly the regime
// the Facebook warehouse study warns about, where repair traffic dominates
// after failures. The machinery here splits recovery into bounded stripe
// batches:
//
//   - BeginDiskRebuild installs the (still-failed) replacement device
//     immediately, so stripes sealed during the rebuild are written straight
//     into it by the normal seal path and only the stripes sealed before
//     Begin need reconstruction.
//   - Step reconstructs one batch of stripes under the *shared* lock:
//     survivors are read through the normal fault-gated read path and the
//     rebuilt cells written directly to the replacement backend, which no
//     reader touches while the device is marked failed. Foreground reads
//     proceed concurrently with every batch.
//   - The final Step takes the exclusive lock briefly to fsync the
//     replacement, clear the failed flag, and bump the epoch.
//
// BeginDiskMigration is the rebalance counterpart: it copies a *healthy*
// device onto a freshly added replacement (one read per element instead of a
// k-element decode), staging file backends into dev_NN.{data,crc}.new and
// promoting them by rename. Migration steps run under the exclusive lock —
// the source keeps serving reads between batches — and the copy is
// byte-identical to the source, so even a crash between the two renames
// leaves equivalent content behind.
//
// Scrub is batched the same way: ScrubRange verifies one section per shared
// lock hold, Scrub stitches sections together releasing the lock between
// them, and HealStripe repairs what a scrub flagged under a short exclusive
// hold. internal/repair drives all three from its background scheduler.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/layout"
)

// DefaultRebuildBatch is the stripes one rebuild Step covers when the caller
// does not choose a batch size.
const DefaultRebuildBatch = 64

// DefaultScrubBatch is the stripes one shared-lock hold verifies when Scrub
// batches its full-store walk.
const DefaultScrubBatch = 32

// RebuildKind distinguishes the two incremental repair flavours.
type RebuildKind string

const (
	// RebuildFailed reconstructs a failed device from survivors.
	RebuildFailed RebuildKind = "rebuild"
	// RebuildMigrate copies a healthy device onto a newly added replacement.
	RebuildMigrate RebuildKind = "migrate"
)

// DiskRebuild is an in-progress incremental reconstruction or migration of
// one device. Obtain one with BeginDiskRebuild or BeginDiskMigration and
// drive it with Step until done; Abort abandons it (the device keeps its
// pre-existing state: failed for rebuilds, healthy source for migrations).
// Methods are safe for concurrent use, but Steps serialize internally — the
// intended driver is one scheduler goroutine.
type DiskRebuild struct {
	s           *Store
	dev         int
	kind        RebuildKind
	replacement *Device
	started     time.Time

	mu       sync.Mutex
	total    int // rebuild: stripes sealed at Begin; migrate: live, grows
	next     int // first stripe not yet reconstructed/copied
	readCost int // distinct survivor elements read (rebuild) or cells copied (migrate)
	written  int // elements written to the replacement
	done     bool
	aborted  bool
}

// Disk returns the device index being rebuilt or migrated.
func (r *DiskRebuild) Disk() int { return r.dev }

// Kind returns the repair flavour.
func (r *DiskRebuild) Kind() RebuildKind { return r.kind }

// Started returns when the rebuild began.
func (r *DiskRebuild) Started() time.Time { return r.started }

// Progress reports stripes completed so far, the total the rebuild covers,
// and the survivor elements read. For migrations the total tracks the live
// sealed extent (it can grow between calls).
func (r *DiskRebuild) Progress() (next, total, readCost int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next, r.total, r.readCost
}

// Done reports whether the rebuild has completed and the device is healthy.
func (r *DiskRebuild) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
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
	if r.kind == RebuildMigrate {
		r.s.discardStaging(r.dev, r.replacement)
	}
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
		return nil, fmt.Errorf("store: device %d is not failed", d)
	}
	if s.rebuilding[d] {
		return nil, fmt.Errorf("store: device %d rebuild already in progress", d)
	}
	replacement := newDevice(d, s.rows)
	// The replacement inherits the failed device's metric series: to the
	// registry it is the same disk slot.
	replacement.obsReads, replacement.obsWrites = dev.obsReads, dev.obsWrites
	replacement.obsInflight = dev.obsInflight
	replacement.obsErrors, replacement.obsLatency = dev.obsErrors, dev.obsLatency
	replacement.failed = true // cleared by the final Step
	if s.newBackendFn != nil {
		// File backend: the replacement writes to the same dev_NN files, so
		// the failed device's handles must close before the factory reopens
		// them truncated. The old contents are untrusted anyway — that is
		// what "failed" means — and the device stays marked failed until the
		// rebuild completes, so no reader touches the half-built files.
		if err := dev.be.close(); err != nil {
			dev.be = newMemBackend() // dead placeholder; keeps later Close safe
			return nil, fmt.Errorf("store: recover device %d: close old backend: %w", d, err)
		}
		dev.be = newMemBackend()
		be, berr := s.newBackendFn(d)
		if berr != nil {
			return nil, fmt.Errorf("store: recover device %d: open replacement: %w", d, berr)
		}
		replacement.be = be
	}
	s.devices[d] = replacement
	if s.rebuilding == nil {
		s.rebuilding = make(map[int]bool)
	}
	s.rebuilding[d] = true
	return &DiskRebuild{
		s:           s,
		dev:         d,
		kind:        RebuildFailed,
		replacement: replacement,
		started:     time.Now(),
		total:       s.stripes,
	}, nil
}

// BeginDiskMigration starts copying healthy device d onto a fresh
// replacement — the "device added" rebalance path: the operator swaps in new
// hardware, the scheduler streams the old device's cells across. Unlike a
// rebuild this is one read per element (no decode), but the source keeps
// serving and mutating, so Step batches run under the exclusive lock and the
// swap happens in the same critical section that observes the copy caught up
// with the sealed extent. File backends stage into dev_NN.{data,crc}.new and
// promote by rename.
func (s *Store) BeginDiskMigration(d int) (*DiskRebuild, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if d < 0 || d >= len(s.devices) {
		return nil, fmt.Errorf("store: no device %d", d)
	}
	dev := s.devices[d]
	if dev.failed {
		return nil, fmt.Errorf("store: device %d is failed; rebuild it instead of migrating", d)
	}
	if s.rebuilding[d] {
		return nil, fmt.Errorf("store: device %d rebuild already in progress", d)
	}
	replacement := newDevice(d, s.rows)
	replacement.obsReads, replacement.obsWrites = dev.obsReads, dev.obsWrites
	replacement.obsInflight = dev.obsInflight
	replacement.obsErrors, replacement.obsLatency = dev.obsErrors, dev.obsLatency
	if s.newStagingBackendFn != nil {
		be, err := s.newStagingBackendFn(d)
		if err != nil {
			return nil, fmt.Errorf("store: migrate device %d: open staging backend: %w", d, err)
		}
		replacement.be = be
	}
	if s.rebuilding == nil {
		s.rebuilding = make(map[int]bool)
	}
	s.rebuilding[d] = true
	return &DiskRebuild{
		s:           s,
		dev:         d,
		kind:        RebuildMigrate,
		replacement: replacement,
		started:     time.Now(),
		total:       s.stripes,
	}, nil
}

// Step advances the rebuild by up to batch stripes (DefaultRebuildBatch when
// batch < 1) and reports whether the device is now healthy. Rebuild batches
// run under the shared lock so foreground reads proceed concurrently;
// migration batches and the finalize run under short exclusive holds. On
// error the rebuild aborts: a failed device stays failed (retry with a fresh
// BeginDiskRebuild), a migration source stays in service.
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
	if r.kind == RebuildMigrate {
		done, err = r.stepMigrate(batch)
	} else {
		done, err = r.stepRebuild(batch)
	}
	if err != nil {
		r.aborted = true
		r.s.endRebuild(r.dev)
		if r.kind == RebuildMigrate {
			r.s.discardStaging(r.dev, r.replacement)
		}
	}
	return done, err
}

// stepRebuild reconstructs one batch under the shared lock, then finalizes
// exclusively once every pre-Begin stripe is rebuilt. Caller holds r.mu.
func (r *DiskRebuild) stepRebuild(batch int) (bool, error) {
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
	failedSet := make(map[int]bool)
	for _, f := range s.failedDisksLocked() {
		failedSet[f] = true
	}
	for stripe := r.next; stripe < end; stripe++ {
		if err := r.rebuildStripe(stripe, failedSet); err != nil {
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

// rebuildStripe reconstructs every cell device r.dev holds in one stripe
// from the cheapest surviving recovery set and writes them to the
// replacement. Caller holds r.mu and the store's shared lock.
func (r *DiskRebuild) rebuildStripe(stripe int, failedSet map[int]bool) error {
	s := r.s
	lay := s.scheme.Layout()
	code := s.scheme.Code()
	// Per-stripe read cache: an element fetched for one group's repair is
	// free for the next (same physical element).
	fetched := make(map[layout.Pos][]byte)
	fetch := func(pos layout.Pos) ([]byte, bool) {
		if data, ok := fetched[pos]; ok {
			return data, true
		}
		disk := lay.Disk(stripe, pos.Col)
		if failedSet[disk] {
			return nil, false
		}
		data, err := s.readCell(disk, cellKey{stripe, pos})
		if err != nil {
			// Failed, unavailable, or silently corrupt: treat as erased.
			return nil, false
		}
		fetched[pos] = data
		r.readCost++
		return data, true
	}

	col := lay.Col(stripe, r.dev)
	for row := 0; row < lay.Rows(); row++ {
		pos := layout.Pos{Row: row, Col: col}
		cell := lay.CellAt(pos)
		group := make([][]byte, code.N())
		ok := false
		// Try the cheapest surviving recovery set first.
		for _, set := range code.RecoverySets(cell.Element) {
			usable := true
			for _, t := range set {
				if _, have := fetch(lay.GroupCell(cell.Group, t)); !have {
					usable = false
					break
				}
			}
			if usable {
				for _, t := range set {
					group[t] = fetched[lay.GroupCell(cell.Group, t)]
				}
				ok = true
				break
			}
		}
		if !ok {
			// Fallback: every surviving element of the group.
			for t := 0; t < code.N(); t++ {
				if t == cell.Element {
					continue
				}
				if data, have := fetch(lay.GroupCell(cell.Group, t)); have {
					group[t] = data
				}
			}
		}
		if err := code.ReconstructElements(group, []int{cell.Element}); err != nil {
			return fmt.Errorf("store: rebuild stripe %d cell (%d,%d): %w",
				stripe, pos.Row, pos.Col, err)
		}
		if err := r.replacement.write(cellKey{stripe, pos}, group[cell.Element]); err != nil {
			return fmt.Errorf("store: rebuild stripe %d cell (%d,%d): %w",
				stripe, pos.Row, pos.Col, err)
		}
		r.written++
	}
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
		if err := r.replacement.be.sync(); err != nil {
			r.aborted = true
			delete(s.rebuilding, r.dev)
			return fmt.Errorf("store: recover device %d: fsync: %w", r.dev, err)
		}
	}
	r.replacement.failed = false
	delete(s.rebuilding, r.dev)
	s.bumpEpoch()
	r.done = true
	s.Metrics().observeRecover(string(r.kind), r.readCost, time.Since(r.started).Seconds())
	return nil
}

// stepMigrate copies one batch of stripes from the live source device to the
// staging replacement under the exclusive lock, and — in the same critical
// section that observes the copy caught up with the sealed extent — promotes
// the staging files and swaps the replacement in. Caller holds r.mu.
func (r *DiskRebuild) stepMigrate(batch int) (bool, error) {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("store: closed")
	}
	src := s.devices[r.dev]
	if src.failed {
		return false, fmt.Errorf("store: migrate device %d: source failed mid-migration", r.dev)
	}
	r.total = s.stripes
	end := r.next + batch
	if end > r.total {
		end = r.total
	}
	for stripe := r.next; stripe < end; stripe++ {
		col := s.scheme.Layout().Col(stripe, r.dev)
		for row := 0; row < s.rows; row++ {
			k := cellKey{stripe, layout.Pos{Row: row, Col: col}}
			data, err := s.readCell(r.dev, k)
			if err != nil {
				// Corrupt or unavailable source cell: scrub/heal first, then
				// retry the migration.
				return false, fmt.Errorf("store: migrate device %d stripe %d: %w", r.dev, stripe, err)
			}
			if err := r.replacement.write(k, data); err != nil {
				return false, fmt.Errorf("store: migrate device %d stripe %d: %w", r.dev, stripe, err)
			}
			r.readCost++
			r.written++
		}
	}
	r.next = end
	if r.next < s.stripes {
		return false, nil
	}
	// Caught up inside this exclusive hold: no seal can slip in before the
	// swap. Durability, promote (file rename), then install.
	if s.fsync {
		if err := r.replacement.be.sync(); err != nil {
			return false, fmt.Errorf("store: migrate device %d: fsync staging: %w", r.dev, err)
		}
	}
	if s.promoteStagingFn != nil {
		if err := s.promoteStagingFn(r.dev); err != nil {
			return false, fmt.Errorf("store: migrate device %d: promote staging files: %w", r.dev, err)
		}
	}
	old := s.devices[r.dev]
	s.devices[r.dev] = r.replacement
	delete(s.rebuilding, r.dev)
	s.bumpEpoch()
	r.done = true
	s.Metrics().observeRecover(string(r.kind), r.readCost, time.Since(r.started).Seconds())
	// The old backend's files were renamed over (file) or are garbage (mem);
	// a close failure no longer threatens the data.
	if err := old.be.close(); err != nil {
		return true, fmt.Errorf("store: migrate device %d: close old backend: %w", r.dev, err)
	}
	return true, nil
}

// endRebuild clears the in-progress flag for device d so a fresh Begin can
// retry.
func (s *Store) endRebuild(d int) {
	s.mu.Lock()
	delete(s.rebuilding, d)
	s.mu.Unlock()
}

// discardStaging closes and removes an abandoned migration's staging
// backend and files.
func (s *Store) discardStaging(d int, replacement *Device) {
	replacement.be.close()
	s.mu.RLock()
	discard := s.discardStagingFn
	s.mu.RUnlock()
	if discard != nil {
		discard(d)
	}
}

// Rebuilding returns the device IDs with a rebuild or migration in
// progress, ascending.
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
	lay := s.scheme.Layout()
	n := s.scheme.N()
	for stripe := start; stripe < end; stripe++ {
		cells := make([][]byte, s.scheme.CellsPerStripe())
		corrupt := false
		for row := 0; row < lay.Rows() && !corrupt; row++ {
			for col := 0; col < n; col++ {
				data, err := s.readCell(lay.Disk(stripe, col), cellKey{stripe, layout.Pos{Row: row, Col: col}})
				if errors.Is(err, ErrCorrupt) {
					corrupt = true
					break
				}
				if err != nil {
					return nil, stripe, err
				}
				cells[row*n+col] = data
			}
		}
		if corrupt {
			bad = append(bad, stripe)
			continue
		}
		ok, err := s.scheme.VerifyStripe(cells)
		if err != nil {
			return nil, stripe, err
		}
		if !ok {
			bad = append(bad, stripe)
		}
	}
	return bad, end, nil
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
// returning how many cells were rewritten. Cells on failed or unavailable
// devices are skipped — device loss is the rebuild machinery's job, not the
// scrub's. An unrecoverable corrupt cell aborts with the heal error.
func (s *Store) HealStripe(stripe int) (healed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stripe < 0 || stripe >= s.stripes {
		return 0, fmt.Errorf("%w: stripe %d of %d", ErrRange, stripe, s.stripes)
	}
	lay := s.scheme.Layout()
	for row := 0; row < s.rows; row++ {
		for col := 0; col < s.scheme.N(); col++ {
			pos := layout.Pos{Row: row, Col: col}
			disk := lay.Disk(stripe, col)
			_, rerr := s.devices[disk].read(cellKey{stripe, pos})
			switch {
			case rerr == nil:
				continue
			case errors.Is(rerr, ErrCorrupt):
				if _, herr := s.healCell(stripe, pos); herr != nil {
					return healed, herr
				}
				healed++
			case errors.Is(rerr, ErrFailed) || errors.Is(rerr, ErrUnavailable):
				continue
			default:
				return healed, rerr
			}
		}
	}
	return healed, nil
}

// InflightRuns snapshots every device's in-flight fan-out run count — the
// live foreground-pressure signal the load-aware degraded planner biases on
// and the repair scheduler's token bucket shrinks on.
func (s *Store) InflightRuns() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, len(s.devices))
	for i, d := range s.devices {
		out[i] = int(d.inflight.Load())
	}
	return out
}

// DiskErrorCounts snapshots every device's hard-error count (fail-stops,
// exhausted retry budgets, backend I/O failures) for the failure detectors.
func (s *Store) DiskErrorCounts() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, len(s.devices))
	for i, d := range s.devices {
		out[i] = d.errs.Load()
	}
	return out
}

// DiskLatencies snapshots every device's op-latency EWMA (zero until a
// device has served an operation), for the limping-disk detector.
func (s *Store) DiskLatencies() []time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]time.Duration, len(s.devices))
	for i, d := range s.devices {
		out[i] = time.Duration(d.latEWMA.Load())
	}
	return out
}
