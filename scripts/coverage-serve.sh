#!/usr/bin/env bash
# Serve-tier coverage: which production functions no serve-level run reaches.
# Three runs each write Go coverage counters into a directory of their own:
#
#   bench     the benchmark harness built with -cover, one traced smoke run
#             (the traced run drives server.Server in process);
#   serve     the cmd/dvms-serve and internal/server tests;
#   examples  the six examples, each built with -cover and run once.
#
# The counters are merged with `go tool covdata textfmt`, the harness's own
# package (repro/bench) is dropped, and the script prints every function
# with no statement hit, then statement coverage per package and in total,
# for the serve tier alone (bench + serve) and with the examples.
#
#   bash scripts/coverage-serve.sh      # or: make coverage-serve
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/bench" "$work/serve" "$work/examples" "$work/run"

echo "== bench: traced smoke run" >&2
go build -C bench -cover -covermode=set -coverpkg=repro/... -o "$work/bin/dvms-bench" .
GOCOVERDIR="$work/bench" "$work/bin/dvms-bench" --quick --trace 1 --seed 1 > /dev/null

echo "== serve: cmd/dvms-serve and internal/server tests" >&2
go test -count=1 -cover -covermode=set -coverpkg=repro/internal/...,repro/cmd/dvms-serve \
	./cmd/dvms-serve ./internal/server -args -test.gocoverdir="$work/serve" > /dev/null

echo "== examples" >&2
for main in examples/*/main.go; do
	name="$(basename "$(dirname "$main")")"
	go build -cover -covermode=set -coverpkg=repro/... -o "$work/bin/$name" "./examples/$name"
	# The examples write their PNGs into the working directory.
	(cd "$work/run" && GOCOVERDIR="$work/examples" "$work/bin/$name" > /dev/null)
done

# profile <dirs> <out>: one merged text profile without repro/bench.
profile() {
	go tool covdata textfmt -i="$1" -o "$work/raw.txt"
	grep -v '^repro/bench/' "$work/raw.txt" > "$2"
}
# totals <profile>: statement coverage per package, then overall. A block
# listed more than once counts as hit if any listing hit it.
totals() {
	awk 'NR > 1 {
		split($1, f, ":"); pkg = f[1]; sub(/\/[^\/]*$/, "", pkg)
		stmts[$1] = $2; owner[$1] = pkg; if ($3 > 0) hit[$1] = 1
	}
	END {
		for (b in stmts) { all[owner[b]] += stmts[b]; T += stmts[b]
			if (b in hit) { cov[owner[b]] += stmts[b]; C += stmts[b] } }
		for (k in all) printf "  %-32s %6.1f%%  (%d statements)\n", k, 100 * cov[k] / all[k], all[k] | "sort"
		close("sort")
		printf "  %-32s %6.1f%%  (%d statements)\n", "total", 100 * C / T, T
	}' "$1"
}

profile "$work/bench,$work/serve" "$work/serve.txt"
profile "$work/bench,$work/serve,$work/examples" "$work/all.txt"

echo "== functions with no statement hit (serve tier and examples)"
go tool cover -func="$work/all.txt" | awk '$NF == "0.0%"'
echo "== statement coverage, serve tier alone (bench + serve)"
totals "$work/serve.txt"
echo "== statement coverage, serve tier and examples"
totals "$work/all.txt"
