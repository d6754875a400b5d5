#!/bin/sh
# bench.sh — run the serve/persist/session-record/analytics/serialization/mutation/weave benchmarks and emit
# BENCH_serve.json, a {benchmark: {ns_per_op, bytes_per_op,
# allocs_per_op}} summary, so the serving stack's perf trajectory is
# tracked PR over PR. Then run a fixed-seed navload scenario against a
# real navserve and record its latency/throughput report in
# BENCH_load.json.
#
# Usage:
#   scripts/bench.sh                 # 1s per benchmark, writes BENCH_serve.json + BENCH_load.json
#   BENCHTIME=100ms scripts/bench.sh # quicker, noisier
#   LOAD_SESSIONS=20000 scripts/bench.sh
#   OUT=/tmp/b.json scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_serve.json}"
LOAD_OUT="${LOAD_OUT:-BENCH_load.json}"
LOAD_SESSIONS="${LOAD_SESSIONS:-5000}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

{
	${GO:-go} test -run '^$' -bench 'Serve|Step|Session|ColdStart' \
		-benchmem -benchtime "$BENCHTIME" ./internal/server/
	${GO:-go} test -run '^$' -bench 'SessionRecord' \
		-benchmem -benchtime "$BENCHTIME" ./internal/navigation/
	${GO:-go} test -run '^$' -bench 'Record|Graph|Derive' \
		-benchmem -benchtime "$BENCHTIME" ./internal/analytics/
	${GO:-go} test -run '^$' -bench 'Counter|Histogram|Trace' \
		-benchmem -benchtime "$BENCHTIME" ./internal/obs/
	${GO:-go} test -run '^$' -bench 'ObserveRequest' \
		-benchmem -benchtime "$BENCHTIME" ./internal/server/
	${GO:-go} test -run '^$' -bench 'AppendIndentedLinkbase|RebuildStructureSwap|MutationCaption|MutationTitle|RenderPageMember' \
		-benchmem -benchtime "$BENCHTIME" ./internal/core/
	${GO:-go} test -run '^$' -bench 'WriteHTML|AppendHTML' \
		-benchmem -benchtime "$BENCHTIME" ./internal/presentation/
} | tee "$TMP"

awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	if (n++) printf ",\n"
	printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
}
BEGIN { print "{" }
END   { print "\n}" }
' "$TMP" > "$OUT"

echo "wrote $OUT"

# Load benchmark: a seeded navload scenario against a live navserve on
# a file store, so the numbers include real session persistence. The
# report (throughput, p50/p90/p99, heap ceiling, mismatch count) IS the
# benchmark artifact.
DIR="$(mktemp -d)"
SERVER_PID=""
load_cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	[ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
	rm -rf "$DIR" "$TMP"
}
trap load_cleanup EXIT

PORT=$((18500 + $$ % 2000))
${GO:-go} build -o "$DIR/navserve" ./cmd/navserve
${GO:-go} build -o "$DIR/navload" ./cmd/navload
mkdir -p "$DIR/store"
"$DIR/navserve" -addr "127.0.0.1:$PORT" \
	-store file -store-dir "$DIR/store" -api-token bench \
	>"$DIR/navserve.log" 2>&1 &
SERVER_PID=$!
i=0
until curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "bench: navserve did not become healthy" >&2
		cat "$DIR/navserve.log" >&2 || true
		exit 1
	fi
	sleep 0.1
done

"$DIR/navload" -url "http://127.0.0.1:$PORT" -token bench \
	-sessions "$LOAD_SESSIONS" -seed 1 -steps 20 -think 0 \
	-out "$LOAD_OUT"

echo "wrote $LOAD_OUT"
