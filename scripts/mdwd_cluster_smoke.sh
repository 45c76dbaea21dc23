#!/usr/bin/env bash
# End-to-end smoke test of cluster mode over real sockets: one coordinator,
# two workers. A full client sweep runs through the coordinator while one
# worker is kill -9'd mid-flight, and the merged output must still be
# byte-identical to a single-node daemon's. Afterwards the coordinator's
# journal must show exactly one terminal record per dispatched shard and
# /metrics must have recorded the migration. Needs only bash, curl, and the
# go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill -9 $(jobs -p) 2>/dev/null; rm -rf "$workdir"' EXIT

go build -o "$workdir/mdwd" ./cmd/mdwd
go build -o "$workdir/mdwbench" ./cmd/mdwbench

# Bind port 0 and recover each kernel-chosen address from the daemon's own
# "listening on" log line, so parallel CI jobs never collide on fixed ports.
wait_addr() { # pid logfile -> prints host:port
    local p=$1 log=$2 a i
    for i in $(seq 1 100); do
        a=$(sed -n 's/^mdwd: listening on \([^ ]*\) .*/\1/p' "$log" | head -1)
        if [ -n "$a" ]; then echo "$a"; return 0; fi
        kill -0 "$p" 2>/dev/null || { echo "mdwd died at startup:" >&2; cat "$log" >&2; return 1; }
        sleep 0.1
    done
    echo "mdwd never reported its listen address:" >&2; cat "$log" >&2; return 1
}

wait_healthy() { # addr logfile
    for i in $(seq 1 50); do
        curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "daemon at $1 never became healthy:"; cat "$2"; return 1
}

# Single-node reference: the byte-for-byte ground truth for the sweep.
"$workdir/mdwd" -addr 127.0.0.1:0 -workers 4 >"$workdir/single.log" 2>&1 &
single=$(wait_addr "$!" "$workdir/single.log")
wait_healthy "$single" "$workdir/single.log"
"$workdir/mdwbench" -daemon "http://$single" -exp e1,e2,e8,a8 -quick >"$workdir/ref.out"

# The fleet: two workers with checkpointing (so the coordinator can mirror
# mid-run state off them), one coordinator journaling to its own cache dir.
# Workers come up first so the coordinator can be pointed at their ports.
mkdir -p "$workdir/w1" "$workdir/w2" "$workdir/coord"
"$workdir/mdwd" -addr 127.0.0.1:0 -workers 2 -cache-dir "$workdir/w1" -checkpoint-every 5000 >"$workdir/w1.log" 2>&1 &
w1pid=$!
"$workdir/mdwd" -addr 127.0.0.1:0 -workers 2 -cache-dir "$workdir/w2" -checkpoint-every 5000 >"$workdir/w2.log" 2>&1 &
w2pid=$!
w1=$(wait_addr "$w1pid" "$workdir/w1.log")
w2=$(wait_addr "$w2pid" "$workdir/w2.log")
"$workdir/mdwd" -addr 127.0.0.1:0 -coordinator -peers "http://$w1,http://$w2" \
    -cache-dir "$workdir/coord" -heartbeat 250ms >"$workdir/coord.log" 2>&1 &
coord=$(wait_addr "$!" "$workdir/coord.log")
wait_healthy "$w1" "$workdir/w1.log"
wait_healthy "$w2" "$workdir/w2.log"
wait_healthy "$coord" "$workdir/coord.log"

# The same sweep through the coordinator, with one worker kill -9'd while
# points are still resolving.
"$workdir/mdwbench" -daemon "http://$coord" -exp e1,e2,e8,a8 -quick >"$workdir/cluster.out" &
benchpid=$!
sleep 0.4
kill -9 "$w2pid"
wait "$benchpid" || { echo "cluster sweep failed after worker kill:"; cat "$workdir/coord.log"; exit 1; }

cmp -s "$workdir/ref.out" "$workdir/cluster.out" || {
    echo "cluster output differs from single-node output:"
    diff "$workdir/ref.out" "$workdir/cluster.out" | head -20
    exit 1
}

# Shards owned by the dead worker migrate; fresh configs force dispatches
# onto its ring range until the migration counter moves.
for seed in $(seq 101 120); do
    body="{\"config\":{\"stages\":2,\"degree\":4,\"warmup_cycles\":200,\"measure_cycles\":800,\"drain_cycles\":50000,\"op_rate\":0.001,\"seed\":$seed}}"
    curl -fsS -o /dev/null -d "$body" "http://$coord/v1/run"
    if curl -fsS "http://$coord/metrics" | grep -q '^mdwd_shard_migrations_total [1-9]'; then
        break
    fi
done
curl -fsS "http://$coord/metrics" >"$workdir/metrics"
grep -q '^mdwd_shard_migrations_total [1-9]' "$workdir/metrics" || {
    echo "no shard migration recorded after killing a worker:"; cat "$workdir/metrics"; exit 1; }
grep -q '^mdwd_peers_healthy 1$' "$workdir/metrics" || {
    echo "dead worker still counted healthy:"; grep ^mdwd_peers "$workdir/metrics"; exit 1; }
grep -q "^mdwd_peer_healthy{peer=\"http://$w2\"} 0$" "$workdir/metrics" || {
    echo "per-peer gauge missing or wrong:"; grep ^mdwd_peer_healthy "$workdir/metrics"; exit 1; }

# Exactly-once accounting: every dispatched shard has exactly one terminal
# record (shard_done), with no duplicates — kill and migration included.
journal="$workdir/coord/journal.ndjson"
[ -s "$journal" ] || { echo "coordinator journal missing"; exit 1; }
dispatched=$(grep -o '"kind":"shard","hash":"[0-9a-f]*"' "$journal" | sort -u | sed 's/.*hash":"//;s/"//' | sort)
done_hashes=$(grep -o '"kind":"shard_done","hash":"[0-9a-f]*"' "$journal" | sed 's/.*hash":"//;s/"//' | sort)
[ -n "$dispatched" ] || { echo "no shard dispatch records in journal"; exit 1; }
if [ "$(echo "$done_hashes" | uniq -d)" != "" ]; then
    echo "duplicate shard_done records:"; echo "$done_hashes" | uniq -d; exit 1
fi
if [ "$dispatched" != "$(echo "$done_hashes" | uniq)" ]; then
    echo "dispatched shards and shard_done records disagree:"
    diff <(echo "$dispatched") <(echo "$done_hashes" | uniq) || true
    exit 1
fi
if grep -q '"kind":"shard_failed"' "$journal"; then
    echo "journal holds failed shards:"; grep '"kind":"shard_failed"' "$journal"; exit 1
fi

echo "mdwd cluster smoke: OK ($(echo "$dispatched" | wc -l) shards, one shard_done each, migration survived kill -9)"
