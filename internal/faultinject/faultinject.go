// Package faultinject provides a seeded, deterministic fault-injection
// subsystem for the erasure-coded store — the machinery for reproducibly
// exercising slow, flaky, and corrupting disks across every layer built on
// store.Device.
//
// A Plan is a seed plus per-device policies (added latency, transient
// read/write errors, stuck/slow operations, silent bit corruption,
// fail-after-N-ops). An Injector compiled from a plan implements
// store.FaultInjector: every device operation draws its fault verdict from
// a per-device RNG stream derived from (seed, device), so
//
//   - the i-th operation on device d always receives the same verdict for a
//     given seed, independent of what other devices do, and
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
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/store"
)

// ErrInjected is the transient error surfaced by ReadErrProb/WriteErrProb
// faults, wrapped by the store into its ErrUnavailable retry machinery.
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
	// StuckProb is the chance an operation hangs past any per-op timeout —
	// a stuck or pathologically slow disk.
	StuckProb float64 `json:"stuck_prob,omitempty"`
	// CorruptProb is the chance a read returns silently bit-flipped bytes.
	// The store's cell checksums detect the mis-read and retry it.
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

// Injector implements store.FaultInjector from a Plan. Safe for concurrent
// use; devices without a policy are fault-free.
type Injector struct {
	plan Plan
	devs map[int]*devStream
}

// New compiles a plan into an Injector. The plan should be validated first
// (ParsePlan does; hand-built plans can call Validate).
func New(plan Plan) *Injector {
	in := &Injector{plan: plan, devs: make(map[int]*devStream, len(plan.Policies))}
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

// Ops returns the number of operations device dev has drawn so far.
func (in *Injector) Ops(dev int) int {
	ds := in.devs[dev]
	if ds == nil {
		return 0
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.ops
}

// ReadFault implements store.FaultInjector.
func (in *Injector) ReadFault(dev int) store.Fault { return in.fault(dev, false) }

// WriteFault implements store.FaultInjector.
func (in *Injector) WriteFault(dev int) store.Fault { return in.fault(dev, true) }

// fault draws the next verdict from the device's stream. Exactly four
// uniform draws are consumed per operation regardless of the policy's
// fields, so streams stay aligned and replayable whatever the policy mix.
func (in *Injector) fault(dev int, write bool) store.Fault {
	ds := in.devs[dev]
	if ds == nil {
		return store.Fault{}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.ops++
	if ds.pol.FailAfterOps > 0 && ds.ops > ds.pol.FailAfterOps {
		return store.Fault{Failed: true}
	}
	stuckDraw := ds.rng.Float64()
	errDraw := ds.rng.Float64()
	corruptDraw := ds.rng.Float64()
	jitterDraw := ds.rng.Float64()

	var f store.Fault
	f.Delay = ds.pol.Latency + time.Duration(jitterDraw*float64(ds.pol.Jitter))
	if stuckDraw < ds.pol.StuckProb {
		f.Stuck = true
		return f
	}
	errProb := ds.pol.ReadErrProb
	if write {
		errProb = ds.pol.WriteErrProb
	}
	if errDraw < errProb {
		f.Err = ErrInjected
		return f
	}
	if !write && corruptDraw < ds.pol.CorruptProb {
		f.Corrupt = true
	}
	return f
}
