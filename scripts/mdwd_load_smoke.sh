#!/usr/bin/env bash
# Multi-tenant load smoke: boot mdwd with a two-tenant tenants file, soak it
# for ~10s with mdwbench -load (open-loop Poisson arrivals, one Poisson
# process per tenant), and fail on any 5xx/transport error or a p99 above a
# deliberately generous floor — this is a smoke gate against regressions that
# wedge or grossly slow the scheduler, not a benchmark. Along the way, check
# that auth actually gates the API and that the per-tenant metric families
# show up. Last, a coordinator over the daemon takes -tenants and -worker-key:
# it must answer 401 without a key, run and count a tenant's request, and
# drain cleanly. CI uploads the appended BENCH_load.json history as an
# artifact.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/mdwd" ./cmd/mdwd
go build -o "$workdir/mdwbench" ./cmd/mdwbench

# Bind port 0 and recover the kernel-chosen address from the daemon's own
# "listening on" log line, so parallel CI jobs never collide on a fixed port.
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

cat >"$workdir/tenants" <<'EOF'
# load-smoke tenants: gold gets 4x the fair share of silver
smoke-key-gold   gold   4
smoke-key-silver silver 1 max-queued=64
EOF

"$workdir/mdwd" -addr 127.0.0.1:0 -workers 2 -tenants "$workdir/tenants" >"$workdir/log" 2>&1 &
pid=$!
addr=$(wait_addr "$pid" "$workdir/log")

for i in $(seq 1 50); do
    curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
    kill -0 "$pid" 2>/dev/null || { echo "mdwd died at startup:"; cat "$workdir/log"; exit 1; }
    sleep 0.2
done
curl -fsS "http://$addr/healthz" >/dev/null || { echo "mdwd never became healthy"; exit 1; }

# Auth is on: no key is a 401, a configured key is accepted.
body='{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001}}'
status=$(curl -sS -o "$workdir/unauth" -w '%{http_code}' -d "$body" "http://$addr/v1/run")
[ "$status" = 401 ] || { echo "unauthenticated run returned $status, want 401:"; cat "$workdir/unauth"; exit 1; }
grep -q '"code":"unauthorized"' "$workdir/unauth" || { echo "401 not structured:"; cat "$workdir/unauth"; exit 1; }
curl -fsS -o /dev/null -H 'Authorization: Bearer smoke-key-gold' -d "$body" "http://$addr/v1/run" \
    || { echo "authenticated run failed"; exit 1; }

# The soak proper: ~10s, two tenants, open loop. The p99 floor is generous on
# purpose — the request is a millisecond-scale simulation, so seconds of p99
# means the scheduler (or the daemon) regressed badly.
"$workdir/mdwbench" -load 10s -daemon "http://$addr" \
    -load-keys 'gold=smoke-key-gold,silver=smoke-key-silver' \
    -load-rate 40 -load-clients 4 -load-out BENCH_load.json \
    -load-fail-5xx -load-max-p99 10s \
    | tee "$workdir/soak" || { echo "load soak failed:"; cat "$workdir/log"; exit 1; }

grep -q '^gold ' "$workdir/soak" || { echo "soak report missing tenant gold:"; cat "$workdir/soak"; exit 1; }
grep -q '^silver ' "$workdir/soak" || { echo "soak report missing tenant silver:"; cat "$workdir/soak"; exit 1; }
[ -s BENCH_load.json ] || { echo "BENCH_load.json was not written"; exit 1; }

# Per-tenant observability came up with the tenants file.
curl -fsS "http://$addr/metrics" >"$workdir/metrics"
grep -q 'mdwd_tenant_weight{tenant="gold"} 4' "$workdir/metrics" \
    || { echo "per-tenant metrics missing:"; grep mdwd_tenant "$workdir/metrics" || true; exit 1; }
grep -q 'mdwd_tenant_jobs_completed{tenant="gold"}' "$workdir/metrics" \
    || { echo "per-tenant job accounting missing"; exit 1; }

# The coordinator's tenant flags, end to end: it authenticates its clients
# against the same tenants file, counts their runs per tenant, and dispatches
# to the (multi-tenant) daemon above with its own worker key.
"$workdir/mdwd" -addr 127.0.0.1:0 -coordinator -peers "http://$addr" \
    -tenants "$workdir/tenants" -worker-key smoke-key-gold >"$workdir/clog" 2>&1 &
cpid=$!
caddr=$(wait_addr "$cpid" "$workdir/clog")
status=$(curl -sS -o "$workdir/cunauth" -w '%{http_code}' -d "$body" "http://$caddr/v1/run")
[ "$status" = 401 ] || { echo "coordinator run without a key returned $status, want 401:"; cat "$workdir/cunauth"; exit 1; }
grep -q '"code":"unauthorized"' "$workdir/cunauth" || { echo "coordinator 401 not structured:"; cat "$workdir/cunauth"; exit 1; }
curl -fsS -o /dev/null -H 'Authorization: Bearer smoke-key-silver' -d "$body" "http://$caddr/v1/run" \
    || { echo "coordinator run with key silver failed:"; cat "$workdir/clog"; exit 1; }
curl -fsS "http://$caddr/metrics" >"$workdir/cmetrics"
grep -q '^mdwd_tenant_runs_total{tenant="silver"} 1$' "$workdir/cmetrics" \
    || { echo "coordinator tenant counters missing:"; grep mdwd_tenant "$workdir/cmetrics" || true; exit 1; }
kill -TERM "$cpid"
wait "$cpid" || { code=$?; echo "coordinator exited $code after SIGTERM:"; cat "$workdir/clog"; exit 1; }
grep -q 'drained cleanly' "$workdir/clog" || { echo "coordinator reported no clean drain:"; cat "$workdir/clog"; exit 1; }

kill -TERM "$pid"
wait "$pid" || { code=$?; echo "mdwd exited $code after SIGTERM:"; cat "$workdir/log"; exit 1; }
grep -q 'drained cleanly' "$workdir/log" || { echo "no clean drain reported:"; cat "$workdir/log"; exit 1; }

echo "mdwd load smoke: 401 without key, 10s two-tenant soak clean (no 5xx, p99 under floor), tenant metrics present, coordinator tenant flags (401, silver run counted, worker key) OK, graceful drains OK"
