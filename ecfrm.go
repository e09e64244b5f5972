// Package ecfrm is a Go reproduction of "EC-FRM: An Erasure Coding Framework
// to Speed Up Reads for Erasure Coded Cloud Storage Systems" (Fu, Shu, Shen;
// ICPP 2015).
//
// EC-FRM takes an existing one-row ("candidate") erasure code — Reed-Solomon
// (k,m) or Azure-style LRC (k,l,m) — and re-deploys its data and parity
// elements over a multi-row stripe so that sequential user data spreads
// across ALL disks, not just the data disks. Normal reads (no failures) and
// degraded reads (reads under disk failure) then bottleneck on a less-loaded
// disk, improving read speed while preserving the candidate code's fault
// tolerance, storage overhead, and applicability to arbitrary disk counts.
//
// The package exposes:
//
//   - candidate codes: NewRS, NewLRC;
//   - schemes (code × layout): NewScheme with FormStandard / FormRotated /
//     FormECFRM, giving the paper's RS, R-RS, EC-FRM-RS, LRC, R-LRC,
//     EC-FRM-LRC variants;
//   - stripe operations: EncodeStripe, ReconstructStripe, RebuildData;
//   - read planning: PlanNormalRead, PlanDegradedRead with per-disk load
//     accounting;
//   - a blob store over simulated devices (NewStore) and a seeded disk-array
//     timing model (NewDiskArray) for running the paper's experiments.
//
// A minimal normal-read flow:
//
//	code, _ := ecfrm.NewLRC(6, 2, 2)
//	scheme, _ := ecfrm.NewScheme(code, ecfrm.FormECFRM)
//	st, _ := ecfrm.NewStore(scheme, 1<<20)
//	st.Append(payload)
//	st.Flush()
//	res, _ := st.ReadAt(0, 4<<20)   // res.Data, res.Plan.MaxLoad(), ...
package ecfrm

import (
	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/store"
	"repro/internal/workload"
)

// Code is a systematic one-row candidate erasure code (Reed-Solomon or LRC).
type Code = codes.Code

// Form selects a stripe layout: the candidate code's native layout, the
// rotated-stripes baseline, or the paper's EC-FRM transformation.
type Form = layout.Form

// The three layout forms the paper evaluates.
const (
	FormStandard = layout.FormStandard
	FormRotated  = layout.FormRotated
	FormECFRM    = layout.FormECFRM
)

// Scheme is a candidate code deployed under a layout form; it encodes
// stripes, reconstructs lost cells, and plans reads.
type Scheme = core.Scheme

// Plan is a planned read: deduplicated element accesses plus per-disk loads.
type Plan = core.Plan

// Access is one planned physical element read.
type Access = core.Access

// Pos identifies a cell within a stripe (row, column).
type Pos = layout.Pos

// RecoveryPolicy selects how degraded reads choose recovery sets; see
// PolicyMinCost and PolicyBalance.
type RecoveryPolicy = core.RecoveryPolicy

// Recovery policies for degraded-read planning.
const (
	// PolicyMinCost fetches the fewest extra elements (paper-faithful).
	PolicyMinCost = core.PolicyMinCost
	// PolicyBalance minimizes the most-loaded disk instead.
	PolicyBalance = core.PolicyBalance
)

// Store is an append-only erasure-coded blob store over simulated devices.
type Store = store.Store

// ReadResult is a store read's payload plus the plan that produced it.
type ReadResult = store.ReadResult

// DiskConfig models one disk's timing (positioning, bandwidth, jitter).
type DiskConfig = disksim.Config

// DiskArray simulates an array of identical disks for request timing.
type DiskArray = disksim.Array

// ReadTrial is one randomized request of the paper's read protocol.
type ReadTrial = workload.ReadTrial

// WorkloadConfig bounds randomized trial generation.
type WorkloadConfig = workload.Config

// WorkloadGenerator produces seeded, reproducible trial sequences.
type WorkloadGenerator = workload.Generator

// NewRS constructs the Reed-Solomon candidate code RS(k,m): k data and m
// parity elements per row, tolerating any m erasures (MDS).
func NewRS(k, m int) (Code, error) { return rs.New(k, m) }

// NewLRC constructs the Azure-style candidate code LRC(k,l,m): k data
// elements in l local groups with one XOR parity each, plus m global
// parities; tolerates any m+1 erasures and repairs single data elements with
// k/l reads.
func NewLRC(k, l, m int) (Code, error) { return lrc.New(k, l, m) }

// NewScheme deploys a candidate code under the given layout form.
func NewScheme(code Code, form Form) (*Scheme, error) {
	return core.NewScheme(code, form)
}

// NewStore creates an erasure-coded blob store using scheme with
// elemSize-byte elements, backed by in-memory devices with I/O accounting.
func NewStore(scheme *Scheme, elemSize int) (*Store, error) {
	return store.New(scheme, elemSize)
}

// DefaultDiskConfig returns the 10K-rpm SAS drive profile used to calibrate
// the paper's testbed reproduction.
func DefaultDiskConfig() DiskConfig { return disksim.DefaultConfig() }

// NewDiskArray creates a seeded simulated array of n identical disks.
func NewDiskArray(n int, cfg DiskConfig, seed int64) (*DiskArray, error) {
	return disksim.NewArray(n, cfg, seed)
}

// SpeedMBps converts a payload size and service time into the paper's MB/s
// read-speed metric.
func SpeedMBps(payloadBytes int, t interface{ Seconds() float64 }) float64 {
	return float64(payloadBytes) / 1e6 / t.Seconds()
}

// NewWorkload creates a seeded generator for the paper's randomized read
// protocol (uniform start, size 1-20 elements, uniform failed disk).
func NewWorkload(cfg WorkloadConfig) (*WorkloadGenerator, error) {
	return workload.NewGenerator(cfg)
}
