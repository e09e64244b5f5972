#!/bin/sh
# cluster-smoke: end-to-end check of the networked cluster — three file-backed
# data-node processes behind a gateway process, all real HTTP on localhost.
#
# Builds ecfrmd, starts 3 nodes (-mode=node, file backend) and a gateway
# (-mode=gateway) over them, gates on /healthz//readyz instead of sleeping,
# then asserts:
#
#   1. a concurrent PUT burst lands and every object GETs back byte-identical,
#   1b. in a quiet phase the wire count holds, from the nodes' own metrics:
#      one request per node per single-stripe PUT (write and fsync ride
#      together, 9 fsyncs each) and per GET; and from the gateway's, each
#      60,000-byte PUT ships its 24 cells that user bytes reach (15 data, 9
#      parity: 98,304 bytes) and none of the stripe's 3 padding cells,
#   2. hedged GETs under an injected slow-device fault plan fire the hedge
#      counters (ecfrm_store_hedge_total{...outcome="fired"}),
#   3. SIGKILLing one node mid-traffic loses ZERO reads: every in-flight and
#      subsequent GET keeps returning byte-identical payloads, reconstructed
#      degraded over the surviving nodes,
#   4. /metrics shows the failure handling: replans, degraded-mode reads, and
#      the dead node's up-gauge at 0 — and /readyz stays 200 (a degraded
#      cluster is serving, not down),
#   5. the gateway and surviving nodes drain gracefully on SIGTERM.
#
# Every GET adds ?nocache=1: the gateway serves the same object surface as
# single mode, decoded-object cache included, and a cache hit would never
# reach the nodes. The gateway also starts with a benign -faults plan, which
# must read back from GET /faults, and with -obs, whose pprof endpoints and
# load-imbalance log line must appear.
#
# Exits nonzero (and dumps the process logs) on any miss.
set -eu

GW_PORT="${CLUSTER_SMOKE_PORT:-18710}"
N1_PORT=$((GW_PORT + 1))
N2_PORT=$((GW_PORT + 2))
N3_PORT=$((GW_PORT + 3))
OBJECTS="${CLUSTER_SMOKE_OBJECTS:-24}"
TMP="$(mktemp -d /tmp/ecfrm-cluster-smoke-XXXXXX)"
BIN="$TMP/ecfrmd"
PIDS=""

cleanup() {
    status=$?
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    if [ "$status" -ne 0 ]; then
        for log in "$TMP"/*.log; do
            [ -f "$log" ] || continue
            echo "cluster-smoke: FAILED — $log:" >&2
            cat "$log" >&2
        done
    fi
    rm -rf "$TMP"
    exit "$status"
}
trap cleanup EXIT INT TERM

gw() { # gw <url-path> [curl args...] — prints the body
    path="$1"
    shift
    curl -fsS "$@" "http://127.0.0.1:$GW_PORT$path"
}

wait_200() { # wait_200 <port> <path> <what>
    i=0
    until curl -fsS -o /dev/null "http://127.0.0.1:$1$2" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "cluster-smoke: $3 never became ready" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "cluster-smoke: building ecfrmd"
go build -o "$BIN" ./cmd/ecfrmd

echo "cluster-smoke: starting 3 file-backed nodes on :$N1_PORT-:$N3_PORT"
for n in 1 2 3; do
    port=$((GW_PORT + n))
    mkdir -p "$TMP/node$n"
    "$BIN" -mode=node -addr "127.0.0.1:$port" -elem 4096 \
        -backend=file -data-dir "$TMP/node$n" >"$TMP/node$n.log" 2>&1 &
    eval "NODE${n}_PID=$!"
    PIDS="$PIDS $!"
done
wait_200 "$N1_PORT" /healthz "node 1"
wait_200 "$N2_PORT" /healthz "node 2"
wait_200 "$N3_PORT" /healthz "node 3"

# RS(6,3) over 3 nodes: each node serves 3 of a group's 9 disks, exactly the
# scheme's tolerance, so losing one whole node must stay readable.
echo "cluster-smoke: starting gateway on :$GW_PORT"
echo '{"seed": 7, "policies": [{"device": 8, "latency": 1000}]}' >"$TMP/start-plan.json"
"$BIN" -mode=gateway -addr "127.0.0.1:$GW_PORT" -elem 4096 \
    -code rs -k 6 -m 3 -form ecfrm -groups 4 \
    -nodes "http://127.0.0.1:$N1_PORT,http://127.0.0.1:$N2_PORT,http://127.0.0.1:$N3_PORT" \
    -hedge -hedge-quantile 0.5 -probe-interval 200ms -wal-flush-interval 5ms \
    -faults "$TMP/start-plan.json" -obs -obs-interval 200ms \
    >"$TMP/gateway.log" 2>&1 &
GW_PID=$!
PIDS="$PIDS $GW_PID"
# The gateway's /readyz gates on cluster formation (every node probed up).
wait_200 "$GW_PORT" /readyz "gateway"
gw /faults | grep -q '"seed":7' || {
    echo "cluster-smoke: the -faults plan does not read back from GET /faults" >&2
    exit 1
}
gw /debug/pprof/ -o /dev/null

# --- 1. concurrent PUT burst, then byte-identical GETs -----------------------
echo "cluster-smoke: concurrent PUT burst of $OBJECTS objects"
i=0
while [ "$i" -lt "$OBJECTS" ]; do
    head -c $((7000 + i * 1931)) /dev/urandom >"$TMP/obj-$i.bin"
    gw "/objects/obj-$i" -X PUT --data-binary @"$TMP/obj-$i.bin" -o /dev/null &
    PUT_PIDS="${PUT_PIDS:-} $!"
    i=$((i + 1))
done
for pid in $PUT_PIDS; do
    wait "$pid" || { echo "cluster-smoke: a PUT failed" >&2; exit 1; }
done

verify_all() { # verify_all <extra query> <stage>
    i=0
    while [ "$i" -lt "$OBJECTS" ]; do
        gw "/objects/obj-$i?nocache=1$1" -o "$TMP/out.bin"
        cmp -s "$TMP/obj-$i.bin" "$TMP/out.bin" || {
            echo "cluster-smoke: $2: GET obj-$i returned wrong bytes" >&2
            exit 1
        }
        i=$((i + 1))
    done
}
verify_all "" "healthy"

# --- 1b. wire count: one request per node per PUT and per GET ---------------
node_sum() { # node_sum <family> — its samples summed over the three nodes
    for port in "$N1_PORT" "$N2_PORT" "$N3_PORT"; do
        curl -fsS "http://127.0.0.1:$port/metrics"
    done | awk -v f="$1" '$1 == f || index($1, f "{") == 1 { s += $NF } END { printf "%d\n", s }'
}
gw_sum() { # gw_sum <family> — its samples summed over the gateway's series
    gw /metrics | awk -v f="$1" '$1 == f || index($1, f "{") == 1 { s += $NF } END { printf "%d\n", s }'
}
wire_check() { # wire_check <what> <got> <op> <want>
    [ "$2" "$3" "$4" ] || {
        echo "cluster-smoke: $1: $2, want $3 $4" >&2
        exit 1
    }
}
echo "cluster-smoke: quiet phase — node requests per PUT and per GET"
QUIET=5
reqs0=$(node_sum ecfrm_node_request_seconds_count)
syncs0=$(node_sum ecfrm_node_syncs_total)
shipped0=$(gw_sum ecfrm_gateway_node_write_bytes_total)
i=0
while [ "$i" -lt "$QUIET" ]; do
    head -c 60000 /dev/urandom >"$TMP/quiet-$i.bin" # 15 of a stripe's 6 × 3 elements
    gw "/objects/quiet-$i" -X PUT --data-binary @"$TMP/quiet-$i.bin" -o /dev/null
    i=$((i + 1))
done
reqs1=$(node_sum ecfrm_node_request_seconds_count)
syncs1=$(node_sum ecfrm_node_syncs_total)
shipped1=$(gw_sum ecfrm_gateway_node_write_bytes_total)
# Hedged reads send each run on its own (a run races its own rebuild), so the
# count is taken unhedged.
i=0
while [ "$i" -lt "$QUIET" ]; do
    gw "/objects/quiet-$i?nocache=1&hedge=0" -o "$TMP/out.bin"
    cmp -s "$TMP/quiet-$i.bin" "$TMP/out.bin" || {
        echo "cluster-smoke: quiet phase: GET quiet-$i returned wrong bytes" >&2
        exit 1
    }
    i=$((i + 1))
done
reqs2=$(node_sum ecfrm_node_request_seconds_count)
wire_check "node requests for $QUIET PUTs" $((reqs1 - reqs0)) -le $((3 * QUIET))
wire_check "fsyncs for $QUIET PUTs" $((syncs1 - syncs0)) -eq $((9 * QUIET))
wire_check "cell bytes shipped for $QUIET PUTs" $((shipped1 - shipped0)) -eq $((24 * 4096 * QUIET))
wire_check "node requests for $QUIET GETs" $((reqs2 - reqs1)) -le $((3 * QUIET))
echo "cluster-smoke: $QUIET PUTs took $((reqs1 - reqs0)) node requests, $((syncs1 - syncs0)) fsyncs and $((shipped1 - shipped0)) cell bytes, $QUIET GETs $((reqs2 - reqs1)) requests"

# --- 2. hedge activity under an injected slow device -------------------------
cat >"$TMP/plan.json" <<'EOF'
{"seed": 5, "policies": [{"device": 0, "latency": 8000000, "jitter": 4000000}]}
EOF
gw /faults -X PUT --data-binary @"$TMP/plan.json" -o /dev/null
verify_all "&hedge=1" "hedge warmup" # populates the hedge latency rings
verify_all "&hedge=1" "hedged"
gw /metrics >"$TMP/hedge.prom"
grep -Eq 'ecfrm_store_hedge_total\{[^}]*outcome="fired"\} [1-9]' "$TMP/hedge.prom" || {
    echo "cluster-smoke: hedges never fired under the slow-device plan" >&2
    exit 1
}
gw /faults -X DELETE -o /dev/null

# --- 3. SIGKILL one node mid-traffic: zero failed reads ----------------------
echo "cluster-smoke: SIGKILL node 3 under live GET traffic"
: >"$TMP/readerr"
(
    round=0
    while [ "$round" -lt 6 ]; do
        i=0
        while [ "$i" -lt "$OBJECTS" ]; do
            q=""
            [ $((i % 3)) -eq 1 ] && q="&hedge=1"
            if ! curl -fsS -o "$TMP/bg-out.bin" "http://127.0.0.1:$GW_PORT/objects/obj-$i?nocache=1$q"; then
                echo "GET obj-$i$q failed (round $round)" >>"$TMP/readerr"
            elif ! cmp -s "$TMP/obj-$i.bin" "$TMP/bg-out.bin"; then
                echo "GET obj-$i$q wrong bytes (round $round)" >>"$TMP/readerr"
            fi
            i=$((i + 1))
        done
        round=$((round + 1))
    done
) &
READER_PID=$!
sleep 0.3
kill -9 "$NODE3_PID"
wait "$NODE3_PID" 2>/dev/null || true
wait "$READER_PID"
if [ -s "$TMP/readerr" ]; then
    echo "cluster-smoke: reads failed across the node kill:" >&2
    cat "$TMP/readerr" >&2
    exit 1
fi
# The survivors keep serving every object byte-identically, degraded.
verify_all "" "node 3 down"

# --- 4. the failure is visible on /metrics, and the cluster stays ready ------
SCRAPE="$TMP/metrics.prom"
gw /metrics >"$SCRAPE"
want() {
    if ! grep -Eq "$1" "$SCRAPE"; then
        echo "cluster-smoke: /metrics missing: $1" >&2
        exit 1
    fi
}
want 'ecfrm_store_read_replans_total\{[^}]*\} [1-9]'
want 'ecfrm_store_reads_total\{[^}]*mode="degraded"\} [1-9]'
want 'ecfrm_gateway_node_up\{[^}]*node="2"\} 0'
want 'ecfrm_httpd_request_seconds_count\{[^}]*op="get"\} [1-9]'
grep -q "imbalance=" "$TMP/gateway.log" || {
    echo "cluster-smoke: -obs logged no load-imbalance line" >&2
    exit 1
}
gw /readyz -o /dev/null || {
    echo "cluster-smoke: gateway not ready while serving degraded" >&2
    exit 1
}

# --- 5. graceful drain -------------------------------------------------------
kill -TERM "$GW_PID"
wait "$GW_PID"
grep -q "drained" "$TMP/gateway.log" || {
    echo "cluster-smoke: gateway did not report graceful drain" >&2
    exit 1
}
for n in 1 2; do
    eval "pid=\$NODE${n}_PID"
    kill -TERM "$pid"
    wait "$pid"
    grep -q "drained" "$TMP/node$n.log" || {
        echo "cluster-smoke: node $n did not report graceful drain" >&2
        exit 1
    }
done
PIDS=""

echo "cluster-smoke: OK"
