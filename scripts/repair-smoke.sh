#!/bin/sh
# repair-smoke: end-to-end self-healing check against a live ecfrmd.
#
# Builds the daemon, starts it with -backend=file and -repair on a throwaway
# data directory, PUTs a batch of objects, then zeroes one device's data file
# on disk (truncate -s 0) — the live fd sees short reads, every GET that
# touches the device counts a hard error, and nothing but the repair
# scheduler's error-burst detector may notice. Asserts that:
#
#   1. /repair/ serves the scheduler status JSON (rate, scrub cursor),
#   2. the detector fail-stops the gutted disk and the scheduler rebuilds
#      it without operator action (ecfrm_repair_mttr_seconds_count >= 1 on
#      /metrics, ecfrm_repair_bytes_total > 0),
#   3. every object reads back byte-identical after the rebuild, bypassing
#      the object cache,
#   4. /admin/scrub comes back clean and the background scrub has both
#      walked stripes (ecfrm_scrub_stripes_total > 0) and persisted its
#      cursor next to the device files,
#   5. POST /repair/rate retunes the limiter (visible in the status JSON),
#      and refuses a non-finite rate with 400, keeping the retuned one.
#
# Exits nonzero (and dumps the daemon log) on any miss.
set -eu

PORT="${REPAIR_SMOKE_PORT:-18623}"
PUTS="${REPAIR_SMOKE_PUTS:-12}"
VICTIM="${REPAIR_SMOKE_VICTIM:-3}"
TMP="$(mktemp -d /tmp/ecfrm-repair-smoke-XXXXXX)"
BIN="$TMP/ecfrmd"
DATA="$TMP/data"
LOG="$TMP/ecfrmd.log"
PID=""

cleanup() {
    status=$?
    if [ -n "$PID" ]; then
        kill -9 "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ] && [ -f "$LOG" ]; then
        echo "repair-smoke: FAILED — $LOG:" >&2
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

metric() { # metric <name> — prints the sample value, 0 if absent
    fetch /metrics | awk -v m="$1" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }'
}

wait_up() {
    i=0
    until curl -fsS -o /dev/null "http://127.0.0.1:$PORT/readyz" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "repair-smoke: daemon never came up" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "repair-smoke: building ecfrmd"
go build -o "$BIN" ./cmd/ecfrmd

echo "repair-smoke: starting on :$PORT (-backend=file -repair, $DATA)"
"$BIN" -addr "127.0.0.1:$PORT" -elem 4096 -backend file -data-dir "$DATA" \
    -wal-flush-interval 3ms -repair -repair-rate 32 -scrub-interval 100ms \
    >"$LOG" 2>&1 &
PID=$!
wait_up

# 1. Scheduler status is mounted and announces the configured rate.
STATUS="$(fetch /repair/)"
echo "$STATUS" | grep -q '"rate_bytes_per_sec"' || {
    echo "repair-smoke: /repair/ status missing rate_bytes_per_sec: $STATUS" >&2
    exit 1
}

echo "repair-smoke: $PUTS PUTs"
i=0
while [ "$i" -lt "$PUTS" ]; do
    # Deterministic per-object junk, ~3000 bytes each.
    awk -v n="$i" 'BEGIN { srand(n + 7); for (j = 0; j < 3000; j++) printf "%c", 33 + int(rand() * 90) }' \
        >"$TMP/obj.$i"
    curl -fsS -o /dev/null -X PUT --data-binary "@$TMP/obj.$i" \
        "http://127.0.0.1:$PORT/objects/obj-$i"
    i=$((i + 1))
done

# Gut one device under the live daemon: the open fd survives, reads come
# back short, and each degraded GET charges the device a hard error.
VICTIM_FILE="$(printf '%s/dev_%02d.data' "$DATA" "$VICTIM")"
echo "repair-smoke: truncating $VICTIM_FILE under the live daemon"
truncate -s 0 "$VICTIM_FILE"

# Drive reads until the error-burst detector trips and the rebuild lands.
# Every GET bypasses the object cache so it really hits the devices.
echo "repair-smoke: degraded GETs until auto-rebuild completes"
i=0
until [ "$(metric ecfrm_repair_mttr_seconds_count | cut -d. -f1)" -ge 1 ] 2>/dev/null; do
    j=0
    while [ "$j" -lt "$PUTS" ]; do
        curl -fsS -o /dev/null "http://127.0.0.1:$PORT/objects/obj-$j?nocache=1" || {
            echo "repair-smoke: degraded GET obj-$j failed" >&2
            exit 1
        }
        j=$((j + 1))
    done
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "repair-smoke: no rebuild after $i GET rounds" >&2
        exit 1
    fi
    sleep 0.1
done
echo "repair-smoke: rebuild completed after $i degraded GET rounds"

BYTES="$(metric 'ecfrm_repair_bytes_total{kind="rebuild"}')"
case "$BYTES" in
    0 | 0.*) echo "repair-smoke: ecfrm_repair_bytes_total{kind=\"rebuild\"} = $BYTES, want > 0" >&2; exit 1 ;;
esac

# 3. Every object byte-identical through the rebuilt disk.
echo "repair-smoke: verifying $PUTS objects byte-identical"
i=0
while [ "$i" -lt "$PUTS" ]; do
    fetch "/objects/obj-$i?nocache=1" >"$TMP/got.$i"
    cmp -s "$TMP/obj.$i" "$TMP/got.$i" || {
        echo "repair-smoke: obj-$i differs after rebuild" >&2
        exit 1
    }
    i=$((i + 1))
done

# 4. Scrub: admin sweep clean, background scrub walking, cursor persisted.
SCRUB="$(fetch /admin/scrub -X POST)"
case "$SCRUB" in
*'"corrupt_stripes":[]'* | *'"corrupt_stripes":null'*) ;;
*)
    echo "repair-smoke: post-rebuild scrub not clean: $SCRUB" >&2
    exit 1
    ;;
esac
i=0
until [ "$(metric ecfrm_scrub_stripes_total | cut -d. -f1)" -gt 0 ] 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "repair-smoke: background scrub never walked a stripe" >&2
        exit 1
    fi
    sleep 0.1
done
[ -f "$DATA/scrub.cursor" ] || {
    echo "repair-smoke: scrub cursor not persisted at $DATA/scrub.cursor" >&2
    exit 1
}

# 5. The rate limiter retunes over HTTP.
curl -fsS -o /dev/null -X POST "http://127.0.0.1:$PORT/repair/rate?bytes=8388608"
fetch /repair/ | grep -q '"rate_bytes_per_sec": 8388608' || {
    echo "repair-smoke: rate change not reflected in status" >&2
    exit 1
}
CODE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://127.0.0.1:$PORT/repair/rate?bytes=NaN")"
[ "$CODE" = 400 ] || {
    echo "repair-smoke: POST /repair/rate?bytes=NaN answered $CODE, want 400" >&2
    exit 1
}
fetch /repair/ | grep -q '"rate_bytes_per_sec": 8388608' || {
    echo "repair-smoke: a refused NaN rate changed the status" >&2
    exit 1
}

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
grep -q "drained, bye" "$LOG" || {
    echo "repair-smoke: daemon did not drain cleanly" >&2
    exit 1
}

echo "repair-smoke: OK (auto fail-stop, rebuild, scrub, rate retune, NaN refused)"
