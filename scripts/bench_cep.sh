#!/bin/sh
# Runs the CEP hot-path benchmarks and records ns/op per series into
# BENCH_cep.json at the repo root. Non-blocking: meant for tracking the
# incremental-evaluation and expression-compilation numbers over time, not
# as a pass/fail gate.
#
# Sweeps the statement-compiler ablation (BenchmarkAblationExprCompilation
# runs the Listing-1 rule at window=1000 compiled and interpreted) and
# records the measured speedup under the top-level key
# "compiled_over_interpreted" (interpreted ns / compiled ns, > 1 is a win)
# so the compiler's effect stays machine-checkable.
#
# Usage: scripts/bench_cep.sh [benchtime] [count]   (default 1s 3)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
count="${2:-3}"
out="BENCH_cep.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Output goes to a file, not through tee: sh has no pipefail.
go test -run '^$' \
	-bench 'BenchmarkListing1_RuleEvaluation|BenchmarkAblationJoinStrategy|BenchmarkAblationExprCompilation' \
	-benchtime "$benchtime" -count "$count" . >"$raw" || { cat "$raw"; exit 1; }
cat "$raw"

# Each series records its best-of-count ns/op: the minimum filters
# scheduler noise on a shared box.
awk -v benchtime="$benchtime" '
	BEGIN { n = 0 }
	/^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
		if (!(name in best)) { names[n++] = name; best[name] = $3 + 0 }
		else if ($3 + 0 < best[name]) best[name] = $3 + 0
	}
	END {
		if (n == 0) { print "bench_cep.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
		printf "{\n  \"benchtime\": \"%s\",\n", benchtime
		comp = best["BenchmarkAblationExprCompilation/compiled"]
		interp = best["BenchmarkAblationExprCompilation/interpreted"]
		if (comp > 0 && interp > 0)
			printf "  \"compiled_over_interpreted\": %.3f,\n", interp / comp
		printf "  \"ns_per_op\": {\n"
		for (i = 0; i < n; i++)
			printf "    \"%s\": %s%s\n", names[i], best[names[i]], (i < n-1 ? "," : "")
		printf "  }\n}\n"
	}
' "$raw" > "$out.tmp"

# Preserve every top-level section other writers maintain (none today, but
# bench_storm.sh learned this the hard way): merge the old file under the
# fresh results, fresh keys winning, into a third file — naming $out both
# as --slurpfile input and redirect target would truncate it before jq
# reads it.
if [ -f "$out" ] && jq -e 'type == "object"' "$out" > /dev/null 2>&1; then
	jq --slurpfile old "$out" '$old[0] + .' "$out.tmp" > "$out.merged"
	# Guard: the merge must not lose any top-level key the old file had.
	missing="$(jq -r --slurpfile old "$out" '(($old[0] | keys) - keys)[]' "$out.merged")"
	if [ -n "$missing" ]; then
		echo "bench_cep.sh: merge dropped top-level section(s): $missing" >&2
		rm -f "$out.tmp" "$out.merged"
		exit 1
	fi
	mv "$out.merged" "$out"
	rm -f "$out.tmp"
else
	mv "$out.tmp" "$out"
fi

echo "wrote $out"
