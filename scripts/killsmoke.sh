#!/bin/sh
# killsmoke.sh — the durability acceptance check as a shell smoke: start the
# real server with a data directory, create and feed a session, snapshot it,
# SIGKILL the process (no graceful shutdown, no final flush), restart on the
# same directory, and require (a) healthz to report exactly one recovered
# session and (b) the post-restart snapshot to agree with the pre-kill one to
# 1e-12 per outcome. Needs go, curl, and jq on PATH. Run from the repository
# root.
set -eu

ADDR=${ADDR:-127.0.0.1:18797}
BIN=${BIN:-/tmp/hammerctl-killsmoke}
work=$(mktemp -d)
pid=''

# stop kills the live server and waits for it to exit, so the script never
# returns while a server it started is still running.
stop() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        pid=''
    fi
}
trap 'stop; rm -rf "$work"' EXIT

go build -o "$BIN" ./cmd/hammerctl

wait_up() {
    for _ in $(seq 1 50); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "killsmoke: server never answered on $ADDR" >&2
    exit 1
}

"$BIN" serve -addr "$ADDR" -workers 2 -data "$work/data" -cache-dir "$work/cache" &
pid=$!
wait_up

curl -sf -X POST "http://$ADDR/v1/stream" -H Content-Type:application/json \
    -d '{"id": "smoke", "width": 6}' >/dev/null
curl -sf -X POST "http://$ADDR/v1/stream/smoke/shots" -H Content-Type:application/json \
    -d '{"counts": {"111100": 40, "101100": 7, "011100": 5, "000011": 2}}' >/dev/null
curl -sf "http://$ADDR/v1/stream/smoke" >"$work/snap1.json"

# The crash: no SIGTERM courtesy, no chance to flush anything.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

"$BIN" serve -addr "$ADDR" -workers 2 -data "$work/data" -cache-dir "$work/cache" &
pid=$!
wait_up

recovered=$(curl -sf "http://$ADDR/healthz" | jq .recovered_sessions)
if [ "$recovered" != 1 ]; then
    echo "killsmoke: healthz recovered_sessions=$recovered, want 1" >&2
    exit 1
fi

curl -sf "http://$ADDR/v1/stream/smoke" >"$work/snap2.json"

# Snapshot diff: same shots/support/outcome set, probabilities within 1e-12.
jq -n --slurpfile a "$work/snap1.json" --slurpfile b "$work/snap2.json" '
    $a[0] as $x | $b[0] as $y
    | if $x.shots != $y.shots or $x.support != $y.support
      then error("shots/support diverged: \($x.shots)/\($x.support) vs \($y.shots)/\($y.support)") else . end
    | if ($x.dist | keys) != ($y.dist | keys)
      then error("dist outcome sets diverged") else . end
    | [ ($x.dist | keys[]) | ($x.dist[.] - $y.dist[.]) | if . < 0 then -. else . end ]
    | (max // 0)
    | if . <= 1e-12 then "killsmoke: max |diff| = \(.)"
      else error("snapshot diverged across restart: max |diff| = \(.)") end
'

stop
echo "killsmoke: OK"
