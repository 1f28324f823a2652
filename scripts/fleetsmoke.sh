#!/bin/sh
# fleetsmoke.sh — the fleet acceptance check as a three-replica chaos smoke:
# start three real servers (A fronting B and C as cache peers, draining to B),
# then require through real processes and real sockets that
#   (a) a result computed on C is served by A byte-identical with
#       X-Hammer-Cache: hit-peer and promoted so the next request is a local
#       hit,
#   (b) kill -9 on C degrades A to a local miss — never an error,
#   (c) a per-client request storm gets 429s with a numeric Retry-After while
#       other clients and /healthz stay unthrottled, and the per-client
#       session cap rejects a second session,
#   (d) SIGTERM on A drains its live session to B, where it finishes
#       ingesting and snapshots to within 1e-12 of an uninterrupted control
#       session (jq computes the per-outcome diff).
# Needs go, curl, and jq on PATH. Run from the repository root. Set
# FLEETSMOKE_ARTIFACTS to a directory to keep server logs and snapshots.
set -eu

A=${A_ADDR:-127.0.0.1:18801}
B=${B_ADDR:-127.0.0.1:18802}
C=${C_ADDR:-127.0.0.1:18803}
BIN=${BIN:-/tmp/hammerctl-fleetsmoke}
work=$(mktemp -d)
pa=''
pb=''
pc=''
cleanup() {
    # One kill per live server: dash's kill stops at its first empty
    # argument, and the pids of servers already stopped are emptied below.
    for p in $pa $pb $pc; do
        kill "$p" 2>/dev/null || true
        wait "$p" 2>/dev/null || true
    done
    if [ -n "${FLEETSMOKE_ARTIFACTS:-}" ]; then
        mkdir -p "$FLEETSMOKE_ARTIFACTS"
        cp "$work"/*.log "$work"/*.json "$FLEETSMOKE_ARTIFACTS/" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "fleetsmoke: $*" >&2
    exit 1
}

go build -o "$BIN" ./cmd/hammerctl

wait_up() {
    for _ in $(seq 1 50); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    fail "server never answered on $1"
}

# B journals its sessions, so the adoption below also crosses the WAL import
# path. A rate-limits per client (2 rps, burst 5) and caps each client at one
# live session.
"$BIN" serve -addr "$B" -workers 2 -data "$work/bdata" -wal-sync never >"$work/b.log" 2>&1 &
pb=$!
"$BIN" serve -addr "$C" -workers 2 >"$work/c.log" 2>&1 &
pc=$!
"$BIN" serve -addr "$A" -workers 2 -peers "$B,$C" -drain-to "$B" \
    -quota-rps 2 -quota-burst 5 -quota-sessions 1 >"$work/a.log" 2>&1 &
pa=$!
wait_up "$A"
wait_up "$B"
wait_up "$C"

peers=$(curl -sf "http://$A/healthz" | jq .peers)
[ "$peers" = 2 ] || fail "A healthz peers=$peers, want 2"

cache_header() {
    tr -d '\r' <"$1" | awk 'tolower($1)=="x-hammer-cache:"{print $2}'
}

# (a) Peer cache: C computes it, A serves C's bytes as hit-peer, then owns
# them.
recon='{"111100": 40, "101100": 7, "011100": 5}'
curl -sf -X POST "http://$C/v1/reconstruct" -H Content-Type:application/json \
    -d "$recon" >"$work/c-recon.json"
curl -sf -D "$work/a1.hdr" -X POST "http://$A/v1/reconstruct" \
    -H Content-Type:application/json -H "X-Hammer-Client: cacheprobe" \
    -d "$recon" >"$work/a-recon.json"
h=$(cache_header "$work/a1.hdr")
[ "$h" = hit-peer ] || fail "A first lookup X-Hammer-Cache=$h, want hit-peer"
cmp -s "$work/a-recon.json" "$work/c-recon.json" || fail "peer hit not byte-identical to C's response"
curl -sf -D "$work/a2.hdr" -X POST "http://$A/v1/reconstruct" \
    -H Content-Type:application/json -H "X-Hammer-Client: cacheprobe" \
    -d "$recon" >/dev/null
h=$(cache_header "$work/a2.hdr")
[ "$h" = hit ] || fail "A second lookup X-Hammer-Cache=$h, want hit (promotion)"
curl -sf "http://$A/metrics" | grep -q '^hammer_cache_peer_hits_total 1$' \
    || fail "A metrics: hammer_cache_peer_hits_total != 1"

# (b) Chaos: C dies hard; A keeps answering from local compute.
kill -9 "$pc"
wait "$pc" 2>/dev/null || true
pc=''
curl -sf -D "$work/a3.hdr" -X POST "http://$A/v1/reconstruct" \
    -H Content-Type:application/json -H "X-Hammer-Client: cacheprobe" \
    -d '{"1100": 3, "0011": 9}' >/dev/null
h=$(cache_header "$work/a3.hdr")
[ "$h" = miss ] || fail "A with a dead peer X-Hammer-Cache=$h, want miss"
errs=$(curl -sf "http://$A/metrics" | grep '^hammer_cache_peer_errors_total' | awk '{print $2}')
[ "${errs:-0}" -ge 1 ] || fail "A metrics: peer errors=$errs after kill -9, want >= 1"

# (c) Quotas: a storm from one client is throttled with a numeric
# Retry-After; /healthz never is; a second session per client is rejected.
got429=''
for _ in $(seq 1 10); do
    code=$(curl -s -o /dev/null -D "$work/storm.hdr" -w '%{http_code}' \
        -X POST "http://$A/v1/reconstruct" -H Content-Type:application/json \
        -H "X-Hammer-Client: storm" -d '{"11": 1, "01": 2}')
    if [ "$code" = 429 ] && [ -z "$got429" ]; then
        got429=1
        cp "$work/storm.hdr" "$work/429.hdr"
    fi
done
[ -n "$got429" ] || fail "10-request storm never hit 429 (burst 5, 2 rps)"
retry=$(tr -d '\r' <"$work/429.hdr" | awk 'tolower($1)=="retry-after:"{print $2}')
echo "$retry" | grep -qE '^[0-9]+$' || fail "429 Retry-After=$retry, want whole seconds"
rej=$(curl -sf "http://$A/metrics" | grep 'hammer_quota_rejected_total{reason="rate"}' | awk '{print $2}')
[ "${rej:-0}" -ge 1 ] || fail "A metrics: rate rejections=$rej, want >= 1"
curl -sf "http://$A/healthz" >/dev/null || fail "healthz throttled by the storm"

curl -sf -X POST "http://$A/v1/stream" -H Content-Type:application/json \
    -H "X-Hammer-Client: mig" -d '{"id": "mig", "width": 6}' >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$A/v1/stream" \
    -H Content-Type:application/json -H "X-Hammer-Client: mig" -d '{"id": "mig2", "width": 6}')
[ "$code" = 429 ] || fail "second session for one client got $code, want 429"
curl -sf "http://$A/metrics" | grep -q 'hammer_quota_rejected_total{reason="sessions"} 1' \
    || fail "A metrics: session rejection not counted"

# (d) Handoff: the session ingests on A, drains to B on SIGTERM, finishes on
# B, and matches an uninterrupted control session to 1e-12.
batch1='{"counts": {"110011": 2, "000111": 1}}'
batch2='{"counts": {"101010": 4, "110011": 2}}'
curl -sf -X POST "http://$A/v1/stream/mig/shots" -H Content-Type:application/json \
    -H "X-Hammer-Client: mig" -d "$batch1" >/dev/null
curl -sf -X POST "http://$B/v1/stream" -H Content-Type:application/json \
    -d '{"id": "control", "width": 6}' >/dev/null
curl -sf -X POST "http://$B/v1/stream/control/shots" -H Content-Type:application/json \
    -d "$batch1" >/dev/null
curl -sf -X POST "http://$B/v1/stream/control/shots" -H Content-Type:application/json \
    -d "$batch2" >/dev/null

kill "$pa"
wait "$pa" 2>/dev/null || true
pa=''
grep -q 'drained 1 sessions' "$work/a.log" || fail "A did not report draining 1 session"

curl -sf "http://$B/v1/stream/mig" >/dev/null || fail "B does not hold the drained session"
curl -sf "http://$B/metrics" | grep -q '^hammer_sessions_adopted_total 1$' \
    || fail "B metrics: hammer_sessions_adopted_total != 1"
curl -sf "http://$B/metrics" | grep -q '^hammer_wal_imported_total 1$' \
    || fail "B metrics: hammer_wal_imported_total != 1"
curl -sf -X POST "http://$B/v1/stream/mig/shots" -H Content-Type:application/json \
    -d "$batch2" >/dev/null
curl -sf "http://$B/v1/stream/mig" >"$work/mig.json"
curl -sf "http://$B/v1/stream/control" >"$work/control.json"

jq -n --slurpfile a "$work/mig.json" --slurpfile b "$work/control.json" '
    $a[0] as $x | $b[0] as $y
    | if $x.shots != $y.shots or $x.support != $y.support
      then error("shots/support diverged: \($x.shots)/\($x.support) vs \($y.shots)/\($y.support)") else . end
    | if ($x.dist | keys) != ($y.dist | keys)
      then error("dist outcome sets diverged") else . end
    | [ ($x.dist | keys[]) | ($x.dist[.] - $y.dist[.]) | if . < 0 then -. else . end ]
    | (max // 0)
    | if . <= 1e-12 then "fleetsmoke: max |diff| = \(.)"
      else error("migrated session diverged from control: max |diff| = \(.)") end
'

echo "fleetsmoke: OK"
