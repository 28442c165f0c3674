#!/bin/sh
# Runs the Storm transport benchmarks and records ns/op per configuration
# into BENCH_storm.json at the repo root. Non-blocking: meant for tracking
# the batched data plane (batch size x telemetry x acking) over time, not
# as a pass/fail gate. batch=1 is the ablation row: the pre-batching
# one-channel-send-per-tuple transport. The ack dimension sweeps
# off/tree/xor/epoch — tree is the retired per-tuple tracker kept as
# ablation, xor the sharded checksum acker, which targets <= 1.5x ack=off
# at batch=64/telemetry=off, and epoch the barrier-checkpointing mode,
# which carries no per-tuple state and targets <= 1.15x ack=off there.
# The measured ratios are recorded under "ack_xor_over_off_batch64" and
# "ack_epoch_over_off_batch64" so the targets stay machine-checkable, and
# the tracing cost (telemetry on over off at batch=64, ack=off) under
# "telemetry_on_over_off_batch64", the figure README points at.
#
# Usage: scripts/bench_storm.sh [benchtime] [count]   (default 300000x 3)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-300000x}"
count="${2:-3}"
out="BENCH_storm.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Output goes to a file, not through tee: sh has no pipefail.
go test -run '^$' \
	-bench 'BenchmarkStormThroughput' \
	-benchtime "$benchtime" -count "$count" . >"$raw" || { cat "$raw"; exit 1; }
cat "$raw"

# Each configuration records its best-of-count ns/op: the minimum filters
# scheduler noise on a shared box, which single 300000x shots are very
# exposed to.
awk -v benchtime="$benchtime" '
	BEGIN { n = 0 }
	/^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
		if (!(name in best)) { names[n++] = name; best[name] = $3 + 0 }
		else if ($3 + 0 < best[name]) best[name] = $3 + 0
	}
	END {
		if (n == 0) { print "bench_storm.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
		printf "{\n  \"benchtime\": \"%s\",\n", benchtime
		base = "BenchmarkStormThroughput/batch=64/telemetry=off/ack="
		for (i = 0; i < n; i++) {
			if (names[i] == base "off") off = best[names[i]]
			if (names[i] == base "xor") xor = best[names[i]]
			if (names[i] == base "epoch") epoch = best[names[i]]
			if (names[i] == "BenchmarkStormThroughput/batch=64/telemetry=on/ack=off") on = best[names[i]]
		}
		if (off > 0 && xor > 0)
			printf "  \"ack_xor_over_off_batch64\": %.3f,\n", xor / off
		if (off > 0 && epoch > 0)
			printf "  \"ack_epoch_over_off_batch64\": %.3f,\n", epoch / off
		if (off > 0 && on > 0)
			printf "  \"telemetry_on_over_off_batch64\": %.3f,\n", on / off
		printf "  \"ns_per_op\": {\n"
		for (i = 0; i < n; i++)
			printf "    \"%s\": %s%s\n", names[i], best[names[i]], (i < n-1 ? "," : "")
		printf "  }\n}\n"
	}
' "$raw" > "$out.tmp"

# Preserve every top-level section maintained by other writers (the
# "distributed" object and "dist_2w_over_1w" ratio from
# bench_distributed.sh, plus anything added later): merge the old file
# under the fresh results, fresh keys winning. Cherry-picking sections by
# name here is how dist_2w_over_1w got silently dropped once. The merge
# must land in a third file: `jq ... "$out.tmp" > "$out"` with $out also
# named via --slurpfile would truncate $out before jq reads it, silently
# nulling the preserved sections.
if [ -f "$out" ] && jq -e 'type == "object"' "$out" > /dev/null 2>&1; then
	jq --slurpfile old "$out" '$old[0] + .' "$out.tmp" > "$out.merged"
	# Guard: the merge must not lose any top-level key the old file had.
	missing="$(jq -r --slurpfile old "$out" '(($old[0] | keys) - keys)[]' "$out.merged")"
	if [ -n "$missing" ]; then
		echo "bench_storm.sh: merge dropped top-level section(s): $missing" >&2
		rm -f "$out.tmp" "$out.merged"
		exit 1
	fi
	mv "$out.merged" "$out"
	rm -f "$out.tmp"
else
	mv "$out.tmp" "$out"
fi

echo "wrote $out"
