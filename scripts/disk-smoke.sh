#!/bin/sh
# disk-smoke: end-to-end crash-consistency check of the file-backed device
# layer against a live ecfrmd.
#
# Builds the daemon, starts it with -backend=file on a throwaway data
# directory, fires a burst of concurrent small PUTs, verifies every object
# reads back byte-identical, then SIGKILLs the daemon mid-life (no drain) and
# restarts it on the same directory, asserting that:
#
#   0. before the crash, every cell of every sealed stripe was recorded —
#      50 per stripe for the default LRC(6,2,2), counted as element writes
#      plus zero cells — and the padding was never written: element writes
#      alone fall short of it,
#   1. a restart under another geometry (-code rs -m 3) exits nonzero
#      before touching the directory, naming the scheme the directory was
#      written as and the one requested (the manifest written at open
#      survives the SIGKILL),
#   2. startup recovery with the original flags reports the sealed extent (the log line and
#      /admin/status agree on a nonzero stripe count),
#   3. /admin/scrub finds every recovered stripe parity-consistent, reading
#      each stripe as one pread per device (10 for the default LRC(6,2,2)),
#   4. the per-device I/O metric families (ecfrm_devq_*) are live,
#   5. the store still accepts writes after recovery (a post-restart PUT
#      acks and reads back),
#   6. the daemon drains gracefully on SIGTERM (manifest sealed for the
#      next open),
#   7. a directory `ecfrm encode` writes is one ecfrmd -backend=file serves
#      with default flags: /admin/status shows the stripe count encode
#      printed, and /admin/scrub finds every stripe clean.
#
# Exits nonzero (and dumps the daemon logs) on any miss.
set -eu

PORT="${DISK_SMOKE_PORT:-18619}"
PUTS="${DISK_SMOKE_PUTS:-20}"
TMP="$(mktemp -d /tmp/ecfrm-disk-smoke-XXXXXX)"
BIN="$TMP/ecfrmd"
DATA="$TMP/data"
LOG1="$TMP/ecfrmd.1.log"
LOG2="$TMP/ecfrmd.2.log"
LOGRS="$TMP/ecfrmd.rs.log"
LOG3="$TMP/ecfrmd.encoded.log"
PID=""

cleanup() {
    status=$?
    if [ -n "$PID" ]; then
        kill -9 "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        for f in "$LOG1" "$LOGRS" "$LOG2" "$LOG3"; do
            if [ -f "$f" ]; then
                echo "disk-smoke: FAILED — $f:" >&2
                cat "$f" >&2
            fi
        done
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

wait_up() {
    i=0
    until curl -fsS -o /dev/null "http://127.0.0.1:$PORT/readyz" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "disk-smoke: daemon never came up" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "disk-smoke: building ecfrmd"
go build -o "$BIN" ./cmd/ecfrmd

echo "disk-smoke: starting on :$PORT (-backend=file, $DATA)"
"$BIN" -addr "127.0.0.1:$PORT" -elem 4096 -backend file -data-dir "$DATA" \
    -wal-flush-interval 3ms >"$LOG1" 2>&1 &
PID=$!
wait_up

metric_sum() { # metric_sum <family> — its samples summed over every series
    fetch /metrics | awk -v f="$1" '$1 == f || index($1, f "{") == 1 { s += $NF } END { printf "%d\n", s }'
}
WRITES0=$(metric_sum ecfrm_disk_element_writes_total)
ZEROS0=$(metric_sum ecfrm_store_zero_cells_total)

# Concurrent burst of small PUTs, each 2000 bytes of deterministic junk.
echo "disk-smoke: $PUTS concurrent small PUTs"
i=0
PUT_PIDS=""
while [ "$i" -lt "$PUTS" ]; do
    (
        printf "obj-%05d-" "$i" | awk '{ for (c = 0; c < 125; c++) printf "%s", $0 }' >"$TMP/in.$i"
        curl -fsS -X PUT --data-binary @"$TMP/in.$i" -o /dev/null \
            "http://127.0.0.1:$PORT/objects/o$i" || touch "$TMP/fail.$i"
    ) &
    PUT_PIDS="$PUT_PIDS $!"
    i=$((i + 1))
done
for p in $PUT_PIDS; do
    wait "$p" || true
done
for f in "$TMP"/fail.*; do
    if [ -e "$f" ]; then
        echo "disk-smoke: a PUT failed: $f" >&2
        exit 1
    fi
done

i=0
while [ "$i" -lt "$PUTS" ]; do
    fetch "/objects/o$i" -o "$TMP/out.$i"
    cmp -s "$TMP/in.$i" "$TMP/out.$i" || {
        echo "disk-smoke: GET o$i does not match its PUT payload" >&2
        exit 1
    }
    i=$((i + 1))
done

STRIPES_BEFORE=$(fetch /admin/status | sed -n 's/.*"stripes":\([0-9]*\).*/\1/p')
if [ -z "$STRIPES_BEFORE" ] || [ "$STRIPES_BEFORE" -eq 0 ]; then
    echo "disk-smoke: no stripes sealed before crash" >&2
    exit 1
fi

WRITES=$(($(metric_sum ecfrm_disk_element_writes_total) - WRITES0))
ZEROS=$(($(metric_sum ecfrm_store_zero_cells_total) - ZEROS0))
echo "disk-smoke: $STRIPES_BEFORE stripes sealed: $WRITES element writes, $ZEROS zero cells"
if [ $((WRITES + ZEROS)) -ne $((50 * STRIPES_BEFORE)) ]; then
    echo "disk-smoke: element writes + zero cells = $((WRITES + ZEROS)), want 50 per stripe ($((50 * STRIPES_BEFORE)))" >&2
    exit 1
fi
if [ "$WRITES" -ge $((50 * STRIPES_BEFORE)) ]; then
    echo "disk-smoke: $WRITES element writes for $STRIPES_BEFORE stripes: padding was written" >&2
    exit 1
fi

# Crash: no drain — recovery must re-derive the extent from the device files
# and the spilled WAL.
echo "disk-smoke: SIGKILL mid-life ($STRIPES_BEFORE stripes on disk)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "disk-smoke: restarting as RS(6,3) on the same data directory (must refuse)"
"$BIN" -addr "127.0.0.1:$PORT" -elem 4096 -backend file -data-dir "$DATA" \
    -code rs -m 3 -wal-flush-interval 3ms >"$LOGRS" 2>&1 &
PID=$!
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "disk-smoke: ecfrmd -code rs -m 3 is still running on a directory written as LRC(6,2,2)" >&2
        exit 1
    fi
    sleep 0.1
done
if wait "$PID"; then
    PID=""
    echo "disk-smoke: ecfrmd -code rs -m 3 exited 0 on a directory written as LRC(6,2,2)" >&2
    exit 1
fi
PID=""
for scheme in 'EC-FRM-LRC(6,2,2)' 'EC-FRM-RS(6,3)'; do
    grep -qF "$scheme" "$LOGRS" || {
        echo "disk-smoke: the refusal does not name $scheme" >&2
        cat "$LOGRS" >&2
        exit 1
    }
done

echo "disk-smoke: restarting on the same data directory"
"$BIN" -addr "127.0.0.1:$PORT" -elem 4096 -backend file -data-dir "$DATA" \
    -wal-flush-interval 3ms >"$LOG2" 2>&1 &
PID=$!
wait_up

grep -q "file backend .* stripes recovered" "$LOG2" || {
    echo "disk-smoke: restart log missing the recovery report" >&2
    exit 1
}

STRIPES_AFTER=$(fetch /admin/status | sed -n 's/.*"stripes":\([0-9]*\).*/\1/p')
echo "disk-smoke: recovered $STRIPES_AFTER of $STRIPES_BEFORE stripes"
if [ -z "$STRIPES_AFTER" ] || [ "$STRIPES_AFTER" -ne "$STRIPES_BEFORE" ]; then
    # Every PUT was acked, and FsyncAlways acks only after the fsync
    # barrier — the full pre-crash extent must survive.
    echo "disk-smoke: acked stripes lost across SIGKILL" >&2
    exit 1
fi

# Device read calls: one pread per coalesced run, on every disk.
preads() { fetch /metrics | sed -n 's/^ecfrm_devq_io_seconds_count{op="read"} \([0-9]*\)$/\1/p'; }
PREADS_BEFORE=$(preads)
SCRUB=$(fetch /admin/scrub -X POST)
PREADS=$(($(preads) - PREADS_BEFORE))
if [ "$PREADS" -ne $((10 * STRIPES_AFTER)) ]; then
    echo "disk-smoke: scrub of $STRIPES_AFTER stripes issued $PREADS preads, want one per device per stripe ($((10 * STRIPES_AFTER)))" >&2
    exit 1
fi
case "$SCRUB" in
*'"corrupt_stripes":[]'* | *'"corrupt_stripes":null'*) ;;
*)
    echo "disk-smoke: scrub after crash recovery found corruption: $SCRUB" >&2
    exit 1
    ;;
esac

SCRAPE="$TMP/metrics.prom"
fetch /metrics >"$SCRAPE"
for family in ecfrm_devq_depth ecfrm_devq_io_seconds ecfrm_store_fsync_barrier_seconds; do
    grep -q "^$family" "$SCRAPE" || {
        echo "disk-smoke: /metrics missing family $family" >&2
        exit 1
    }
done

# The recovered store still accepts writes.
printf 'post-restart-object-%0900d' 7 >"$TMP/in.new"
curl -fsS -X PUT --data-binary @"$TMP/in.new" -o /dev/null \
    "http://127.0.0.1:$PORT/objects/new"
fetch /objects/new -o "$TMP/out.new"
cmp -s "$TMP/in.new" "$TMP/out.new" || {
    echo "disk-smoke: post-restart PUT does not read back" >&2
    exit 1
}

kill -TERM "$PID"
wait "$PID"
PID=""
grep -q "drained" "$LOG2" || {
    echo "disk-smoke: daemon did not report graceful drain" >&2
    exit 1
}

# The CLI writes the format the daemon serves.
echo "disk-smoke: ecfrm encode into a fresh directory, then ecfrmd serves it"
go build -o "$TMP/ecfrm" ./cmd/ecfrm
head -c 5000000 /dev/urandom >"$TMP/blob.bin"
ENCODED=$("$TMP/ecfrm" encode -in "$TMP/blob.bin" -out "$TMP/encoded")
echo "disk-smoke: $ENCODED"
ENC_STRIPES=$(echo "$ENCODED" | sed -n 's/.* into \([0-9]*\) stripes .*/\1/p')
"$BIN" -addr "127.0.0.1:$PORT" -backend file -data-dir "$TMP/encoded" >"$LOG3" 2>&1 &
PID=$!
wait_up
SERVED=$(fetch /admin/status | sed -n 's/.*"stripes":\([0-9]*\).*/\1/p')
if [ -z "$ENC_STRIPES" ] || [ "$SERVED" != "$ENC_STRIPES" ]; then
    echo "disk-smoke: ecfrmd serves $SERVED stripes of a directory ecfrm encoded as '$ENC_STRIPES'" >&2
    exit 1
fi
SCRUB=$(fetch /admin/scrub -X POST)
case "$SCRUB" in
*'"corrupt_stripes":[]'* | *'"corrupt_stripes":null'*) ;;
*)
    echo "disk-smoke: scrub of the encoded directory found corruption: $SCRUB" >&2
    exit 1
    ;;
esac
kill -TERM "$PID"
wait "$PID"
PID=""

echo "disk-smoke: OK"
