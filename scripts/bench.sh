#!/bin/sh
# bench.sh — run the serve/persist/session-record/storage/analytics/serialization/start-up/mutation/weave benchmarks
# COUNT times each and emit BENCH_serve.json: the run count, the cpu
# line go test prints and the GOMAXPROCS the benchmarks ran under, and
# per benchmark the median ns/op with its min and max and the median
# B/op and allocs/op, so the serving stack's perf trajectory is tracked
# PR over PR with its spread beside it. Then run a fixed-seed navload
# scenario against a real navserve and record its latency/throughput
# report in BENCH_load.json.
#
# Usage:
#   scripts/bench.sh                 # 5 runs of 1s per benchmark, writes BENCH_serve.json + BENCH_load.json
#   BENCHTIME=100ms scripts/bench.sh # quicker, noisier
#   LOAD_SESSIONS=20000 scripts/bench.sh
#   OUT=/tmp/b.json scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${BENCHTIME:-1s}"
# COUNT runs per benchmark: enough for a median and a spread.
COUNT=5
OUT="${OUT:-BENCH_serve.json}"
LOAD_OUT="${LOAD_OUT:-BENCH_load.json}"
LOAD_SESSIONS="${LOAD_SESSIONS:-5000}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

{
	${GO:-go} test -run '^$' -bench 'Serve|Step|Session|ColdStart' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/server/
	${GO:-go} test -run '^$' -bench 'SessionRecord' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/navigation/
	${GO:-go} test -run '^$' -bench 'ChurnFile|Reopen|Open|FileGet' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/storage/
	${GO:-go} test -run '^$' -bench 'Record|Graph|Derive' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/analytics/
	${GO:-go} test -run '^$' -bench 'Counter|Histogram|Trace' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/obs/
	${GO:-go} test -run '^$' -bench 'ObserveRequest' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/server/
	${GO:-go} test -run '^$' -bench 'NewApp|NewLinkbaseText|AppendIndentedLinkbase|RebuildStructureSwap|MutationCaption|MutationTitle|MutationStylesheet|RenderPageMember|RenderDuringSwaps|ExportSnapshot' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/core/
	${GO:-go} test -run '^$' -bench 'WriteHTML|AppendHTML' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/presentation/
} | tee "$TMP"

awk -v count="$COUNT" '
# sortv sorts the numeric strings v[1..n] in place by value.
function sortv(v, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
			t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
		}
}
# median returns the median of v[1..n], which sortv has sorted, or null.
function median(v, n) {
	if (n == 0) return "null"
	if (n % 2) return v[(n + 1) / 2]
	return sprintf("%g", (v[n / 2] + v[n / 2 + 1]) / 2)
}
/^cpu: / && cpu == "" { cpu = substr($0, 6) }
/^Benchmark/ {
	name = $1
	if (procs == "") procs = 1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	if (!(name in runs)) order[++names] = name
	k = ++runs[name]
	nsv[name, k] = ns
	if (bytes != "") bv[name, ++nb[name]] = bytes
	if (allocs != "") av[name, ++na[name]] = allocs
}
END {
	printf "{\n  \"count\": %d,\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": %d,\n  \"benchmarks\": {\n", count, cpu, procs
	for (b = 1; b <= names; b++) {
		name = order[b]
		n = runs[name]
		split("", v); for (k = 1; k <= n; k++) v[k] = nsv[name, k]
		sortv(v, n); ns = median(v, n); lo = v[1]; hi = v[n]
		split("", v); for (k = 1; k <= nb[name]; k++) v[k] = bv[name, k]
		sortv(v, nb[name]); bytes = median(v, nb[name])
		split("", v); for (k = 1; k <= na[name]; k++) v[k] = av[name, k]
		sortv(v, na[name]); allocs = median(v, na[name])
		printf "    \"%s\": {\"ns_per_op\": %s, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			name, ns, lo, hi, bytes, allocs, (b < names ? "," : "")
	}
	print "  }\n}"
}
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
