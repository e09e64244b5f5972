#!/bin/sh
# fanout-smoke: end-to-end check of the parallel fan-out read path against a
# live ecfrmd under a fault plan that gives every device the same latency.
#
# Builds the daemon, starts it on RS(6,3)/ecfrm with a fault plan that
# charges each of the 9 devices 2ms per operation, PUTs one object, then
# times a batch of uncached GETs with ?sequential=1 — the same coalesced runs
# served one after another on one goroutine — against the same batch served
# by the default fan-out (a worker per device). Asserts that:
#
#   1. every GET body matches the PUT payload,
#   2. the fan-out batch beats the sequential batch on both total and
#      worst-case (P99-ish) latency,
#   3. the executor issued coalesced runs (ecfrm_store_read_run_bytes_count),
#   4. the daemon still drains gracefully on SIGTERM.
#
# Exits nonzero (and dumps the daemon log) on any miss.
set -eu

PORT="${FANOUT_SMOKE_PORT:-18613}"
GETS="${FANOUT_SMOKE_GETS:-12}"
TMP="$(mktemp -d /tmp/ecfrm-fanout-smoke-XXXXXX)"
BIN="$TMP/ecfrmd"
LOG="$TMP/ecfrmd.log"
PID=""

cleanup() {
    status=$?
    if [ -n "$PID" ]; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ] && [ -f "$LOG" ]; then
        echo "fanout-smoke: FAILED — daemon log:" >&2
        cat "$LOG" >&2
    fi
    rm -rf "$TMP"
    exit "$status"
}
trap cleanup EXIT INT TERM

fetch() { # fetch <url-path> [curl args...] — prints the body
    path="$1"
    shift
    curl -fsS "$@" "http://127.0.0.1:$PORT$path"
}

echo "fanout-smoke: building ecfrmd"
go build -o "$BIN" ./cmd/ecfrmd

# Every device pays 2ms on every operation, so no device is the straggler:
# fan-out wins by serving the devices' runs at once, not by avoiding one.
# Small elements keep the read I/O-bound on the fault plan.
{
    printf '{"seed": 5, "policies": ['
    for d in 0 1 2 3 4 5 6 7 8; do
        [ "$d" -gt 0 ] && printf ', '
        printf '{"device": %d, "latency": 2000000}' "$d"
    done
    printf ']}\n'
} >"$TMP/plan.json"

echo "fanout-smoke: starting on :$PORT (RS(6,3)/ecfrm, 2ms on every device)"
"$BIN" -addr "127.0.0.1:$PORT" -code rs -k 6 -m 3 -form ecfrm -elem 4096 \
    -faults "$TMP/plan.json" >"$LOG" 2>&1 &
PID=$!

# Wait for readiness (up to ~5s): /readyz answers 200 only once the daemon
# can actually serve, and 503 again while draining.
i=0
until curl -fsS -o /dev/null "http://127.0.0.1:$PORT/readyz" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "fanout-smoke: daemon never came up" >&2
        exit 1
    fi
    sleep 0.1
done

head -c 524288 /dev/urandom >"$TMP/payload.bin"
fetch /objects/smoke -X PUT --data-binary @"$TMP/payload.bin" -o /dev/null

# timed_gets <query> <times-file>: $GETS uncached GETs, one time_total per
# line, each body verified against the payload.
timed_gets() {
    : >"$2"
    i=0
    while [ "$i" -lt "$GETS" ]; do
        curl -fsS -o "$TMP/out.bin" -w '%{time_total}\n' \
            "http://127.0.0.1:$PORT/objects/smoke?nocache=1&$1" >>"$2"
        cmp -s "$TMP/payload.bin" "$TMP/out.bin" || {
            echo "fanout-smoke: GET ($1) body does not match PUT payload" >&2
            exit 1
        }
        i=$((i + 1))
    done
}

timed_gets "sequential=1" "$TMP/seq.txt"
timed_gets "" "$TMP/fan.txt"

# Compare total and worst-case latency across the two batches.
stat() { # stat <file> -> "<sum> <max>" in microseconds
    awk '{ us = $1 * 1000000; sum += us; if (us > max) max = us }
         END { printf "%.0f %.0f\n", sum, max }' "$1"
}
SEQ=$(stat "$TMP/seq.txt")
FAN=$(stat "$TMP/fan.txt")
echo "fanout-smoke: sequential sum/max us: $SEQ"
echo "fanout-smoke: fan-out    sum/max us: $FAN"
if [ "${FAN%% *}" -ge "${SEQ%% *}" ]; then
    echo "fanout-smoke: fan-out batch total did not beat sequential" >&2
    exit 1
fi
if [ "${FAN##* }" -ge "${SEQ##* }" ]; then
    echo "fanout-smoke: fan-out worst-case GET did not beat sequential" >&2
    exit 1
fi

SCRAPE="$TMP/metrics.prom"
fetch /metrics >"$SCRAPE"
want() {
    if ! grep -q "$1" "$SCRAPE"; then
        echo "fanout-smoke: /metrics missing: $1" >&2
        echo "--- scrape ---" >&2
        cat "$SCRAPE" >&2
        exit 1
    fi
}
want '^ecfrm_store_read_run_bytes_count [1-9]'

# Graceful drain on SIGTERM.
kill -TERM "$PID"
wait "$PID"
PID=""
grep -q "drained" "$LOG" || {
    echo "fanout-smoke: daemon did not report graceful drain" >&2
    exit 1
}

echo "fanout-smoke: OK"
