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
#   2. under an injected slow-device fault plan every object still GETs
#      back byte-identical,
#   3. SIGKILLing one node mid-traffic loses ZERO reads: every in-flight and
#      subsequent GET keeps returning byte-identical payloads, reconstructed
#      degraded over the surviving nodes,
#   4. /metrics shows the failure handling: replans, degraded-mode reads, and
#      the dead node's up-gauge at 0 — and /readyz stays 200 (a degraded
#      cluster is serving, not down),
#   5. the gateway drains gracefully on SIGTERM,
#   6. restarted with the same flags (node 3 back on its data directory), the
#      gateway recovers every group's sealed stripes from the nodes: the
#      per-group counts in /admin/status are unchanged, a fresh PUT lands
#      past them and reads back, and /admin/scrub is clean,
#   7. restarted with -form rotated, it exits nonzero naming both geometries
#      and leaves every node's extents as they were,
#   8. restarted with node 3 killed, it starts degraded — same stripe counts,
#      node 3's three disks failed in every group — and once node 3 is back,
#      /admin/recover rebuilds its extents byte-identical from the survivors
#      and /admin/scrub is clean,
#   9. restarted with -repair and the objects PUT again, node 3 SIGKILLed,
#      its data directory emptied and the node restarted: every GET by name
#      stays byte-identical, and the repair scheduler alone rebuilds node 3's
#      twelve extents (4 groups × 3 disks), each once — /repair/ ends with
#      nothing queued or active, no group has a failed disk,
#      ecfrm_repair_mttr_seconds_count is 12 and /admin/scrub is clean; then
#      everything drains on SIGTERM.
#
# Object names live in the gateway's memory, so after a restart the objects
# PUT before it are checked through the stripe counts, the scrub and the
# byte-identical rebuild, not by name.
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

start_node() { # start_node <n> — node n on its port and data directory
    mkdir -p "$TMP/node$1"
    "$BIN" -mode=node -addr "127.0.0.1:$((GW_PORT + $1))" -elem 4096 \
        -backend=file -data-dir "$TMP/node$1" >>"$TMP/node$1.log" 2>&1 &
    eval "NODE$1_PID=$!"
    PIDS="$PIDS $!"
}

echo "cluster-smoke: starting 3 file-backed nodes on :$N1_PORT-:$N3_PORT"
for n in 1 2 3; do
    start_node "$n"
done
wait_200 "$N1_PORT" /healthz "node 1"
wait_200 "$N2_PORT" /healthz "node 2"
wait_200 "$N3_PORT" /healthz "node 3"

# RS(6,3) over 3 nodes: each node serves 3 of a group's 9 disks, exactly the
# scheme's tolerance, so losing one whole node must stay readable.
echo "cluster-smoke: starting gateway on :$GW_PORT"
echo '{"seed": 7, "policies": [{"device": 8, "latency": 1000}]}' >"$TMP/start-plan.json"
start_gateway() { # start_gateway <log> <form> [flags...] — every start takes the same flags but -form and these
    log="$1"
    form="$2"
    shift 2
    "$BIN" -mode=gateway -addr "127.0.0.1:$GW_PORT" -elem 4096 \
        -code rs -k 6 -m 3 -form "$form" -groups 4 \
        -nodes "http://127.0.0.1:$N1_PORT,http://127.0.0.1:$N2_PORT,http://127.0.0.1:$N3_PORT" \
        -probe-interval 200ms -wal-flush-interval 5ms \
        -faults "$TMP/start-plan.json" -obs -obs-interval 200ms "$@" \
        >"$log" 2>&1 &
    GW_PID=$!
    PIDS="$PIDS $GW_PID"
}
start_gateway "$TMP/gateway.log" ecfrm
# Every group has recovered from the nodes before the gateway listens, so
# /readyz answers as soon as it serves.
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
i=0
while [ "$i" -lt "$QUIET" ]; do
    gw "/objects/quiet-$i?nocache=1" -o "$TMP/out.bin"
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

# --- 2. byte-identical reads under an injected slow device -------------------
cat >"$TMP/plan.json" <<'EOF'
{"seed": 5, "policies": [{"device": 0, "latency": 8000000, "jitter": 4000000}]}
EOF
gw /faults -X PUT --data-binary @"$TMP/plan.json" -o /dev/null
verify_all "" "slow device 0"
verify_all "&sequential=1" "slow device 0, sequential"
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
            [ $((i % 3)) -eq 1 ] && q="&sequential=1"
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
stripes_by_group() { # the per-group sealed-stripe counts /admin/status reports
    gw /admin/status | sed -n 's/.*"stripes_by_group":\[\([0-9,]*\)\].*/\1/p'
}
drain_gateway() { # drain_gateway <log>
    kill -TERM "$GW_PID"
    wait "$GW_PID"
    grep -q "drained" "$1" || {
        echo "cluster-smoke: gateway did not report graceful drain ($1)" >&2
        exit 1
    }
}
scrub_clean() { # scrub_clean <stage>
    SCRUB=$(gw /admin/scrub -X POST)
    case "$SCRUB" in
    *'"corrupt_stripes":[]'* | *'"corrupt_stripes":null'*) ;;
    *)
        echo "cluster-smoke: $1: scrub found corruption: $SCRUB" >&2
        exit 1
        ;;
    esac
}
SEALED=$(stripes_by_group)
drain_gateway "$TMP/gateway.log"

# --- 6. restart with the same flags: every acked stripe kept ----------------
# Node 3 was killed under reads only, so its extents are whole.
echo "cluster-smoke: restarting node 3 and the gateway with the same flags ($SEALED stripes by group)"
start_node 3
wait_200 "$N3_PORT" /healthz "node 3"
start_gateway "$TMP/gateway-2.log" ecfrm
wait_200 "$GW_PORT" /readyz "restarted gateway"
[ "$(stripes_by_group)" = "$SEALED" ] || {
    echo "cluster-smoke: stripes by group $(stripes_by_group) after the restart, $SEALED before" >&2
    exit 1
}
[ "$(grep -c 'gateway group [0-9]*: [0-9]* stripes recovered' "$TMP/gateway-2.log")" -eq 4 ] || {
    echo "cluster-smoke: the restart did not log one recovery line per group" >&2
    exit 1
}
head -c 50000 /dev/urandom >"$TMP/fresh.bin"
ACK=$(gw /objects/fresh -X PUT --data-binary @"$TMP/fresh.bin")
grp=$(echo "$ACK" | sed -n 's/.* in group \([0-9]*\) at offset [0-9]*$/\1/p')
off=$(echo "$ACK" | sed -n 's/.* at offset \([0-9]*\)$/\1/p')
sealed=$(echo "$SEALED" | cut -d, -f$((grp + 1)))
# RS(6,3)/ecfrm at 4096-byte elements: 18 data elements, 73,728 bytes a stripe.
if [ -z "$off" ] || [ "$off" -lt $((sealed * 73728)) ]; then
    echo "cluster-smoke: fresh PUT '$ACK' lands inside group $grp's $sealed sealed stripes" >&2
    exit 1
fi
gw "/objects/fresh?nocache=1" -o "$TMP/out.bin"
cmp -s "$TMP/fresh.bin" "$TMP/out.bin" || {
    echo "cluster-smoke: the post-restart PUT does not read back" >&2
    exit 1
}
scrub_clean "after the restart"
KEPT=$(stripes_by_group)

# --- 7. restart under another layout: refused, nodes untouched --------------
node_status() {
    for port in "$N1_PORT" "$N2_PORT" "$N3_PORT"; do
        curl -fsS "http://127.0.0.1:$port/node/status"
    done
}
drain_gateway "$TMP/gateway-2.log"
echo "cluster-smoke: restarting the gateway with -form rotated (must refuse)"
BEFORE=$(node_status)
start_gateway "$TMP/gateway-rotated.log" rotated
i=0
while kill -0 "$GW_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "cluster-smoke: the gateway is serving -form rotated over nodes written as ecfrm" >&2
        exit 1
    fi
    sleep 0.1
done
if wait "$GW_PID"; then
    echo "cluster-smoke: the gateway exited 0 under -form rotated" >&2
    exit 1
fi
for scheme in 'EC-FRM-RS(6,3)' 'R-RS(6,3)'; do
    grep -qF "$scheme" "$TMP/gateway-rotated.log" || {
        echo "cluster-smoke: the refusal does not name $scheme" >&2
        exit 1
    }
done
[ "$(node_status)" = "$BEFORE" ] || {
    echo "cluster-smoke: the refused restart changed the nodes' extents" >&2
    exit 1
}

# --- 8. restart with node 3 down, then rebuild it ---------------------------
echo "cluster-smoke: SIGKILL node 3, restart the gateway degraded"
mkdir "$TMP/node3-before"
cp "$TMP"/node3/g*_d*.data "$TMP"/node3/g*_d*.crc "$TMP/node3-before/"
kill -9 "$NODE3_PID"
wait "$NODE3_PID" 2>/dev/null || true
start_gateway "$TMP/gateway-3.log" ecfrm
wait_200 "$GW_PORT" /readyz "gateway with node 3 down"
[ "$(stripes_by_group)" = "$KEPT" ] || {
    echo "cluster-smoke: stripes by group $(stripes_by_group) with node 3 down, $KEPT before" >&2
    exit 1
}
FAILED=$(gw /admin/status | sed -n 's/.*"failed_disks_by_group":\[\(\[[0-9,]*\]\(,\[[0-9,]*\]\)*\)\].*/\1/p')
[ "$(echo "$FAILED" | grep -o '\[[0-9]*,[0-9]*,[0-9]*\]' | wc -l)" -eq 4 ] || {
    echo "cluster-smoke: failed disks by group '$FAILED', want node 3's three in each of 4" >&2
    exit 1
}
# With node 3 back, each group rebuilds its disks from the survivors: every
# cell decoded around node 3 must match what node 3 held.
start_node 3
wait_200 "$N3_PORT" /healthz "node 3"
g=0
for disks in $(echo "$FAILED" | tr -d '[' | tr ']' ' ' | sed 's/^,//; s/ ,/ /g'); do
    for d in $(echo "$disks" | tr ',' ' '); do
        gw "/admin/recover?group=$g&disk=$d" -X POST -o /dev/null
    done
    g=$((g + 1))
done
for f in "$TMP"/node3-before/*; do
    cmp -s "$f" "$TMP/node3/$(basename "$f")" || {
        echo "cluster-smoke: node 3's $(basename "$f") rebuilt degraded differs from what it held" >&2
        exit 1
    }
done
scrub_clean "after rebuilding node 3"
drain_gateway "$TMP/gateway-3.log"

# --- 9. a wiped node, rebuilt by the repair scheduler alone ------------------
echo "cluster-smoke: restarting the gateway with -repair, PUTting $OBJECTS objects, then wiping node 3"
start_gateway "$TMP/gateway-4.log" ecfrm -repair -scrub-interval 100ms
wait_200 "$GW_PORT" /readyz "gateway with -repair"
i=0
while [ "$i" -lt "$OBJECTS" ]; do
    gw "/objects/obj-$i" -X PUT --data-binary @"$TMP/obj-$i.bin" -o /dev/null
    i=$((i + 1))
done
kill -9 "$NODE3_PID"
wait "$NODE3_PID" 2>/dev/null || true
rm -rf "$TMP/node3"
start_node 3
wait_200 "$N3_PORT" /healthz "node 3 on an empty directory"
verify_all "" "node 3 wiped"
settled() { # nothing queued or rebuilding, no failed disk, and the rebuilds counted
    [ "$(gw_sum ecfrm_repair_mttr_seconds_count)" -ge 12 ] &&
        gw /repair/ | tr -d ' \n' | grep -q '"queued_disks":null,"active":null' &&
        gw /admin/status | grep -q '"failed_disks":null'
}
i=0
until settled; do
    i=$((i + 1))
    if [ "$i" -ge 300 ]; then
        echo "cluster-smoke: the scheduler did not rebuild node 3: $(gw /repair/)" >&2
        exit 1
    fi
    sleep 0.1
done
wire_check "rebuilds of node 3's extents" "$(gw_sum ecfrm_repair_mttr_seconds_count)" -eq 12
verify_all "" "node 3 rebuilt"
scrub_clean "after the scheduler rebuilt node 3"
drain_gateway "$TMP/gateway-4.log"
for n in 1 2 3; do
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
