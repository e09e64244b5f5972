// Package faultinject provides a seeded, deterministic fault-injection
// subsystem for the erasure-coded store — the machinery for reproducibly
// exercising slow, flaky, and corrupting disks across every layer built on
// store.Device.
//
// A Plan is a seed plus per-device policies (added latency, transient
// read/write errors, stuck/slow operations, silent bit corruption,
// fail-after-N-ops). An Injector compiled from a plan decorates a store's
// device backends beneath the store (Wrap, installed with
// store.Store.WrapBackends), so an injected fault reaches the store the way
// a real one does: as a CellBackend that sleeps, errors, or returns bits
// failing their checksums. Every run a backend is handed draws its fault
// verdict from a per-device RNG stream derived from (seed, device), so
//
//   - the i-th run on device d always receives the same verdict for a
//     given seed, independent of what other devices do and of which node
//     batch carries the run, and
//   - any single-threaded schedule replays byte-for-byte from the seed
//     alone (the determinism tests pin this down).
//
// Under concurrency, per-device operation order still fully determines the
// fault sequence each device serves.
//
// CheckStore is the companion invariant checker: after any fault schedule
// whose permanent damage stays within tolerance, every logical byte must
// decode correctly, every checksum must scrub clean (healing first), and
// the layout must still satisfy Lemma 1's placement precondition.
package faultinject

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/store"
)

// ErrInjected is the backend error a run fails with under a ReadErrProb or
// WriteErrProb fault, or a stuck one; the store reports the device
// ErrUnavailable and reads route around it.
var ErrInjected = errors.New("faultinject: injected transient error")

// ErrPlan flags an invalid fault plan (bad probabilities, negative
// latencies, duplicate devices).
var ErrPlan = errors.New("faultinject: invalid plan")

// maxLatency bounds injected latencies so a decoded plan can never stall a
// system (or a fuzzer) indefinitely.
const maxLatency = 10 * time.Second

// Policy describes the faults injected on one device. Probabilities are
// per-operation in [0,1]; durations are nanoseconds in JSON.
type Policy struct {
	// Device is the device ID this policy applies to.
	Device int `json:"device"`
	// Latency is added to every operation; Jitter adds a uniform random
	// extra in [0, Jitter).
	Latency time.Duration `json:"latency,omitempty"`
	Jitter  time.Duration `json:"jitter,omitempty"`
	// ReadErrProb / WriteErrProb are the chances an operation returns a
	// transient error instead of completing.
	ReadErrProb  float64 `json:"read_err_prob,omitempty"`
	WriteErrProb float64 `json:"write_err_prob,omitempty"`
	// StuckProb is the chance an operation stalls for the injector's
	// StuckTimeout (or until its context ends) and then fails — a stuck or
	// pathologically slow disk.
	StuckProb float64 `json:"stuck_prob,omitempty"`
	// CorruptProb is the chance a read returns silently bit-flipped bytes.
	// The store's cell checksums catch the mis-read as corruption and heal.
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// FailAfterOps, when positive, fail-stops the device after that many
	// total operations (reads + writes): every later operation behaves
	// like a failed disk until the plan is cleared.
	FailAfterOps int `json:"fail_after_ops,omitempty"`
}

// validate rejects out-of-range policy fields.
func (p Policy) validate() error {
	if p.Device < 0 {
		return fmt.Errorf("%w: negative device %d", ErrPlan, p.Device)
	}
	if p.Latency < 0 || p.Latency > maxLatency || p.Jitter < 0 || p.Jitter > maxLatency {
		return fmt.Errorf("%w: device %d latency %v jitter %v outside [0, %v]",
			ErrPlan, p.Device, p.Latency, p.Jitter, maxLatency)
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"read_err_prob", p.ReadErrProb},
		{"write_err_prob", p.WriteErrProb},
		{"stuck_prob", p.StuckProb},
		{"corrupt_prob", p.CorruptProb},
	} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v { // NaN-safe
			return fmt.Errorf("%w: device %d %s = %v outside [0,1]", ErrPlan, p.Device, pr.name, pr.v)
		}
	}
	if p.FailAfterOps < 0 {
		return fmt.Errorf("%w: device %d fail_after_ops %d negative", ErrPlan, p.Device, p.FailAfterOps)
	}
	return nil
}

// Plan is a reproducible fault schedule: a seed and per-device policies.
// The zero plan injects nothing.
type Plan struct {
	Seed     int64    `json:"seed"`
	Policies []Policy `json:"policies,omitempty"`
}

// Validate checks every policy and rejects duplicate device entries.
func (p Plan) Validate() error {
	seen := make(map[int]bool, len(p.Policies))
	for _, pol := range p.Policies {
		if err := pol.validate(); err != nil {
			return err
		}
		if seen[pol.Device] {
			return fmt.Errorf("%w: duplicate policy for device %d", ErrPlan, pol.Device)
		}
		seen[pol.Device] = true
	}
	return nil
}

// ParsePlan decodes and validates a fault plan from JSON bytes.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrPlan, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// devStream is one device's private fault stream: its policy, its RNG, and
// its operation count. The mutex serializes concurrent operations on the
// same device so each consumes exactly one slot of the stream.
type devStream struct {
	mu  sync.Mutex
	rng *rand.Rand
	pol Policy
	ops int
}

// Injector is a compiled Plan: the per-device fault streams every backend
// it wraps draws from. Safe for concurrent use; devices without a policy
// are fault-free.
type Injector struct {
	// StuckTimeout is how long a stuck run stalls before it fails, unless
	// its context ends first; zero means 50 ms. Set it before the injector
	// is installed.
	StuckTimeout time.Duration

	devs map[int]*devStream
}

// New compiles a plan into an Injector. The plan should be validated first
// (ParsePlan does; hand-built plans can call Validate).
func New(plan Plan) *Injector {
	in := &Injector{devs: make(map[int]*devStream, len(plan.Policies))}
	for _, pol := range plan.Policies {
		in.devs[pol.Device] = &devStream{rng: rand.New(rand.NewSource(deviceSeed(plan.Seed, pol.Device))), pol: pol}
	}
	return in
}

// deviceSeed mixes the plan seed with the device ID (splitmix64 finalizer)
// so per-device streams are independent and a seed change reshuffles all.
func deviceSeed(seed int64, dev int) int64 {
	z := uint64(seed) + uint64(dev+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// verdict is the fault one run draws. The zero value is no fault.
type verdict struct {
	delay                       time.Duration
	stuck, err, corrupt, failed bool
}

// draw takes the next verdict from the device's stream. Exactly four
// uniform draws are consumed per operation regardless of the policy's
// fields, so streams stay aligned and replayable whatever the policy mix.
func (in *Injector) draw(dev int, write bool) verdict {
	ds := in.devs[dev]
	if ds == nil {
		return verdict{}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.ops++
	if ds.pol.FailAfterOps > 0 && ds.ops > ds.pol.FailAfterOps {
		return verdict{failed: true}
	}
	stuckDraw := ds.rng.Float64()
	errDraw := ds.rng.Float64()
	corruptDraw := ds.rng.Float64()
	jitterDraw := ds.rng.Float64()

	v := verdict{delay: ds.pol.Latency + time.Duration(jitterDraw*float64(ds.pol.Jitter))}
	errProb := ds.pol.ReadErrProb
	if write {
		errProb = ds.pol.WriteErrProb
	}
	switch {
	case stuckDraw < ds.pol.StuckProb:
		v.stuck = true
	case errDraw < errProb:
		v.err = true
	case !write && corruptDraw < ds.pol.CorruptProb:
		v.corrupt = true
	}
	return v
}

// serve plays a verdict out on device dev: a fail-stop fails at once, as
// store.ErrFailed; a delay, or a stuck run's stall, is waited out unless
// ctx ends first; a stuck run or a transient error then fails. A nil
// return sends the run to the device.
func (in *Injector) serve(ctx context.Context, dev int, v verdict) error {
	if v.failed {
		return fmt.Errorf("%w: device %d fail-stopped by fault plan", store.ErrFailed, dev)
	}
	wait := v.delay
	if v.stuck {
		if wait = in.StuckTimeout; wait <= 0 {
			wait = 50 * time.Millisecond
		}
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if v.stuck || v.err {
		return fmt.Errorf("%w: device %d, stuck=%v", ErrInjected, dev, v.stuck)
	}
	return nil
}

// Wrap decorates one device's backend with the plan; a store takes the
// plan whole with WrapBackends(in.Wrap). Every run of a batch draws one
// verdict from its own device's stream, in batch order, except that a
// device whose run failed draws nothing more in that batch: its later runs
// share the failure, as the store would skip them.
func (in *Injector) Wrap(be store.CellBackend) store.CellBackend {
	return &faulty{CellBackend: be, in: in}
}

// faulty is a backend under an Injector.
type faulty struct {
	store.CellBackend
	in *Injector
}

// settle draws and serves every run's verdict in batch order, returning
// each run's failure (nil: the device serves it) and whether its bits come
// back corrupt.
func (f *faulty) settle(ctx context.Context, runs []store.Run, write bool) (errs []error, corrupt []bool) {
	errs, corrupt = make([]error, len(runs)), make([]bool, len(runs))
	for i, r := range runs {
		if i > 0 && r.Disk == runs[i-1].Disk && errs[i-1] != nil {
			errs[i] = errs[i-1]
			continue
		}
		v := f.in.draw(r.Disk, write)
		errs[i], corrupt[i] = f.in.serve(ctx, r.Disk, v), v.corrupt
	}
	return errs, corrupt
}

// ReadRuns hands the device the runs their verdicts let through, then
// flips the first byte of a run drawn corrupt: the store's checksums see a
// mis-read.
func (f *faulty) ReadRuns(ctx context.Context, runs []store.Run) {
	errs, corrupt := f.settle(ctx, runs, false)
	pass := make([]store.Run, 0, len(runs))
	for i, r := range runs {
		if errs[i] == nil {
			pass = append(pass, r)
		}
	}
	if len(pass) > 0 {
		f.CellBackend.ReadRuns(ctx, pass)
	}
	for i := range runs {
		r := &runs[i]
		if errs[i] != nil {
			r.Err, r.Data, r.CRCs = errs[i], nil, nil
			continue
		}
		*r, pass = pass[0], pass[1:]
		if corrupt[i] && r.Err == nil && len(r.Data) > 0 {
			r.Data[0] ^= 0xff
		}
	}
}

// WriteRuns fails the batch with its first run's failure, having drawn
// every run's verdict, or hands the whole batch to the device.
func (f *faulty) WriteRuns(ctx context.Context, runs []store.Run, sync bool) error {
	if errs, _ := f.settle(ctx, runs, true); cmp.Or(errs...) != nil {
		return cmp.Or(errs...)
	}
	return f.CellBackend.WriteRuns(ctx, runs, sync)
}
