#!/usr/bin/env bash
# Same work per event: runs the traced smoke benchmark at one seed in this
# checkout and in the merge base of HEAD with the given revision, then
# compares their count and byte metrics with compare_counts.py.
#
#   bash scripts/bench-counts.sh origin/main      # or: make bench-counts BASE=origin/main
#
# The base tree is a temporary `git worktree`, removed on exit. A count that
# changes must be named in the lines this change adds to CHANGES.md.
set -euo pipefail
[ $# -eq 1 ] && [ -n "$1" ] || { echo "usage: $0 <base-rev>   (make bench-counts BASE=<rev>)" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_rev="$(git merge-base "$1" HEAD)"
work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --detach "$work/base" "$base_rev" >/dev/null

args=(--quick --trace 1 --seed 1)
echo "== base $base_rev"
# The base run's own correctness is not gated; a workload it could not run
# is reported as not compared.
bash "$work/base/bench/run.sh" "${args[@]}" > "$work/base.out" || true
echo "== this tree"
bash bench/run.sh "${args[@]}" > "$work/head.out" || true

git diff "$base_rev" -- CHANGES.md | sed -n '/^+++/d; s/^+//p' > "$work/changes-added.txt"
python3 scripts/compare_counts.py "$work/base.out" "$work/head.out" "$work/changes-added.txt"
