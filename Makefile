# Developer entry points. `make ci` is the gate every change should pass:
# vet, the full test suite under the race detector, a short fuzz of the GF
# kernels, a one-iteration pass over the kernel and repair benchmarks, a
# tenth-size round of the end-to-end benchmark (bench/, the only source of
# served-path numbers), the scripted daemon smokes, and the seeded chaos
# suites.

GO ?= go

.PHONY: all build test ci vet race race-io bench-smoke bench-quick bench loc fuzz-smoke chaos obs-smoke fanout-smoke writepath-smoke disk-smoke repair-smoke repair-chaos cluster-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy packages under the race detector: the sharded object
# server, the store's reader/mutator paths, the streaming pipeline, the
# metrics registry every scrape races against, and the fault decorator
# concurrent batches draw through.
race-io:
	$(GO) test -race ./internal/httpd/... ./internal/store/... ./internal/shardio/... ./internal/obs/... ./internal/gateway/... ./internal/datanode/... ./internal/faultinject/...

# A fast benchmark pass (one short iteration per benchmark) that catches
# panics/regressions in the bench harnesses without waiting for full timings.
# RebuildAtRate is the repair scheduler's MTTR-vs-rate-limit curve (mttr_ms at
# 4/16/64 MiB/s); ObjectGet prints the B/op of a 20-element GET through
# httpd, single and gateway mode, so a per-byte allocation creeping back
# into the read path shows in every run.
bench-smoke:
	$(GO) test -run NONE -bench 'Encode|Reconstruct|RebuildAtRate|ObjectGet' -benchtime 1x -benchmem ./...

# The nested benchmark module (bench/, its own go.mod): root `go vet ./...`
# and `go test ./...` never reach it, so vet and test it here, then run one
# tenth-size round of every workload against the real ecfrmd — shape and
# correctness of the end-to-end benchmark, not speed.
bench-quick:
	cd bench && $(GO) vet ./... && $(GO) test ./... && bash run.sh -quick

# The real kernel/throughput numbers used in acceptance checks, and the
# degraded planner's time, allocations and max load per plan.
bench:
	$(GO) test -run NONE -bench 'Encode|Reconstruct' -benchmem .
	$(GO) test -run NONE -bench PlanDegraded -benchmem ./internal/core

# Non-test Go lines per module: the count ROADMAP aim 2 tracks, and
# internal/store's share of it (ROADMAP item 5); the number of flags ecfrmd
# defines (ROADMAP item 11); and the number of exports the reachability
# ratchet (reach_test.go) allow-lists without a non-test caller, which may
# only shrink (ROADMAP item 9).
loc:
	@printf 'root module: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'bench/:      '; find bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'internal/store: '; find internal/store -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'ecfrmd flags: '; cat cmd/ecfrmd/*.go | grep -c 'flag\.[A-Z][A-Za-z0-9]*("'
	@printf 'allow-listed exports: '; sed -n 's/^const allowListedExports = \([0-9]*\)$$/\1/p' reach_test.go

# End-to-end observability check against a real daemon: start ecfrmd, PUT and
# GET an object over HTTP, and assert /metrics scrapes cleanly with the
# expected series present (per-disk reads, max-load histogram, cache counters).
obs-smoke:
	./scripts/obs-smoke.sh

# End-to-end fan-out read check against a real daemon under a fault plan
# that slows every device alike: fan-out GETs must beat sequential GETs on
# total and worst-case latency.
fanout-smoke:
	./scripts/fanout-smoke.sh

# End-to-end write-path check against a real daemon under a jittered fault
# plan: concurrent small PUTs must pack into fewer stripes than objects, every
# object must read back byte-identical, scrub must come back clean, and the
# WAL metric families must move.
writepath-smoke:
	./scripts/writepath-smoke.sh

# End-to-end crash-consistency check of the file backend against a real
# daemon: concurrent PUTs, SIGKILL, restart on the same data directory —
# every acked stripe must survive, scrub must come back clean, and the
# per-device I/O metrics must be live.
disk-smoke:
	./scripts/disk-smoke.sh

# End-to-end self-healing check against a real daemon: PUT objects, zero one
# device's data file under the live process, and require the repair
# scheduler's error detector to fail-stop and rebuild the disk on its own —
# byte-identical reads, clean scrub, persisted scrub cursor, live MTTR and
# repair-bytes metrics, and a runtime rate retune over /repair/.
repair-smoke:
	./scripts/repair-smoke.sh

# The repair acceptance suite under the race detector: kill a disk mid-
# traffic with a seeded fault plan and assert detection, MTTR, foreground
# p99, and byte-identical recovery from a live /metrics scrape. Two fixed
# seeds plus a time-derived one (rerun failures with CHAOS_SEED=<seed>).
repair-chaos:
	@seed=$${CHAOS_SEED:-$$(date +%s)}; \
	echo "repair-chaos: extra seed $$seed (reproduce with CHAOS_SEED=$$seed make repair-chaos)"; \
	CHAOS_SEED=$$seed $(GO) test -race -run ChaosKilledDisk ./internal/repair/

# End-to-end networked-cluster check: three file-backed data-node processes
# behind a gateway process on localhost, readiness-gated startup, a concurrent
# PUT burst, byte-identical reads under an injected slow device, a SIGKILLed
# node mid-traffic with zero failed reads — every GET byte-identical through
# degraded reconstruction, replan/degraded/node-down series live on /metrics —
# and a node wiped under a gateway run with -repair, rebuilt unprompted.
cluster-smoke:
	./scripts/cluster-smoke.sh

# Short fuzz runs: the GF(2^8) kernel equivalence target (the SIMD and word
# kernels against the reference, for the one field every code uses), the
# exact planner's safety on every target shape the store plans (GET ranges,
# disk rebuilds, a device's run planned around it) in full and padded
# stripes, the store's write → fail → degraded-read round trip over objects
# flushed into stripes of different fills, the scrub cursor under crash
# schedules, startup recovery of file devices torn unevenly past a barrier
# stripe, and the node's parsers of what arrives off the network (cell-run
# frames and batch run lists).
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/gf
	$(GO) test -run NONE -fuzz FuzzPlannerNeverTouchesFailedDisks -fuzztime 10s .
	$(GO) test -run NONE -fuzz FuzzStoreRoundTrip -fuzztime 10s .
	$(GO) test -run NONE -fuzz FuzzScrubCursor -fuzztime 10s ./internal/repair
	$(GO) test -run NONE -fuzz FuzzDiskRecovery -fuzztime 10s ./internal/store
	$(GO) test -run NONE -fuzz FuzzDecodeRun -fuzztime 10s ./internal/nodeapi

# The seeded chaos suite under the race detector: the two fixed seeds plus a
# time-derived one (echoed here and in the test log — rerun any failure with
# CHAOS_SEED=<seed>). -count=2 re-runs everything to shake out order effects.
chaos:
	@seed=$${CHAOS_SEED:-$$(date +%s)}; \
	echo "chaos: extra seed $$seed (reproduce with CHAOS_SEED=$$seed make chaos)"; \
	CHAOS_SEED=$$seed $(GO) test -race -count=2 -run 'Chaos|FaultSequence|Replays|FaultStreams|SealVerdicts|StreamSourceFault' \
		./internal/faultinject/ ./internal/shardio/

ci: vet race race-io fuzz-smoke bench-smoke bench-quick obs-smoke fanout-smoke writepath-smoke disk-smoke repair-smoke repair-chaos cluster-smoke chaos
