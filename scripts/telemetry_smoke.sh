#!/usr/bin/env bash
# Telemetry smoke test: boot fdserver with a live metrics endpoint, run a
# small discovery over TCP with the client-side breakdown enabled, and
# assert that the key series actually moved. Run via `make telemetry-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-17066}"
MPORT="${SMOKE_METRICS_PORT:-19090}"
TMP="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -TERM "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$TMP/fdserver" ./cmd/fdserver
go build -o "$TMP/fddiscover" ./cmd/fddiscover

cat > "$TMP/data.csv" <<'EOF'
Position,Department,City
Engineer,R&D,Zurich
Engineer,R&D,Zurich
Sales,Market,Geneva
Sales,Market,Basel
Manager,R&D,Zurich
Manager,Market,Geneva
EOF

echo "== starting fdserver on :$PORT (metrics on :$MPORT)"
"$TMP/fdserver" -listen "127.0.0.1:$PORT" -metrics-addr "127.0.0.1:$MPORT" \
    > "$TMP/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$MPORT/metrics" > /dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "fdserver died during startup:" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://127.0.0.1:$MPORT/metrics" > /dev/null \
    || { echo "metrics endpoint never came up" >&2; exit 1; }

echo "== running discovery over TCP with -telemetry"
"$TMP/fddiscover" -connect "127.0.0.1:$PORT" -protocol sort -workers 2 \
    -telemetry "$TMP/data.csv" > "$TMP/discover.out" 2> "$TMP/discover.log"

fail=0
check() { # check <file> <pattern> <what>
    if ! grep -q "$2" "$1"; then
        echo "MISSING: $3 (pattern: $2)" >&2
        fail=1
    fi
}

echo "== asserting client-side breakdown"
check "$TMP/discover.out" "lattice/level-00" "per-level lattice span in -telemetry breakdown"
check "$TMP/discover.out" "^rpc/" "per-RPC span row: the phase table is the run's otrace totals"
check "$TMP/discover.out" "oblivfd_sort_stages_total" "sort stage counter in breakdown"
check "$TMP/discover.out" "oblivfd_rpc_client_seconds" "client RPC latency histogram in breakdown"

echo "== asserting server /metrics"
curl -fsS "http://127.0.0.1:$MPORT/metrics" > "$TMP/metrics.txt"
check "$TMP/metrics.txt" "oblivfd_rpc_seconds_bucket" "server RPC latency histogram"
check "$TMP/metrics.txt" "oblivfd_store_op_seconds_bucket" "per-op store latency histogram"
check "$TMP/metrics.txt" "oblivfd_net_rx_bytes_total" "network byte counter"

echo "== asserting /metrics.json and /debug/pprof/"
curl -fsS "http://127.0.0.1:$MPORT/metrics.json" > "$TMP/metrics.json"
check "$TMP/metrics.json" '"histograms"' "JSON metrics snapshot"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$MPORT/debug/pprof/")
if [[ "$code" != "200" ]]; then
    echo "MISSING: /debug/pprof/ returned HTTP $code" >&2
    fail=1
fi

echo "== draining fdserver (SIGTERM)"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

if [[ "$fail" -ne 0 ]]; then
    echo "telemetry smoke test FAILED" >&2
    exit 1
fi
echo "telemetry smoke test OK"
