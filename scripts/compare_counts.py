#!/usr/bin/env python3
"""Compare the count and byte metrics of two traced bench/run.sh outputs.

    python3 scripts/compare_counts.py BASE_OUT HEAD_OUT CHANGES_ADDED

BASE_OUT and HEAD_OUT are the standard output of
`bash bench/run.sh --quick --trace 1 --seed 1` in the base tree and in this
one. Each workload's run prints a `# dvms bench: workload=<name> ...` header
and ends with one JSON result line. Every metric whose unit is `count` or
`B` repeats exactly at one seed, so any difference is a change in the work
done per event.

CHANGES_ADDED holds the lines this change adds to CHANGES.md. The script
exits 1 if a workload of BASE_OUT has no result in HEAD_OUT, if a run in
HEAD_OUT is not correct with no failed operations, or if a count or byte
metric differs from BASE_OUT and its name does not appear in CHANGES_ADDED.
Timings are not compared.
"""

import json
import re
import sys

GATED_UNITS = ("count", "B")
HEADER = re.compile(r"^# dvms bench: workload=(\S+)")


def results(path):
    """Map each workload name to its JSON result line."""
    out, workload = {}, None
    with open(path) as f:
        for line in f:
            m = HEADER.match(line)
            if m:
                workload = m.group(1)
            elif line.startswith("{") and workload is not None:
                out[workload] = json.loads(line)
                workload = None
    return out


def main(base_path, head_path, changes_path):
    base, head = results(base_path), results(head_path)
    with open(changes_path) as f:
        changes = f.read()
    if not head:
        print("bench-counts: no result lines in this tree's run")
        return 1
    problems = [f"{w}: no result in this tree's run" for w in base if w not in head]
    compared = 0
    for workload, res in head.items():
        if not res.get("correct") or res.get("failed") != 0:
            problems.append(f"{workload}: correct={res.get('correct')} failed={res.get('failed')}")
        if workload not in base:
            print(f"{workload}: no base result, not compared")
            continue
        base_metrics = base[workload]["metrics"]
        for name, m in sorted(res["metrics"].items()):
            if m["unit"] not in GATED_UNITS:
                continue
            compared += 1
            old = base_metrics.get(name, {}).get("value")
            if old == m["value"]:
                continue
            line = f"{workload}: {name} {old} -> {m['value']} {m['unit']}"
            if name in changes:
                print(line + " (named in CHANGES.md)")
            else:
                problems.append(line + " (not named in the lines added to CHANGES.md)")
    print(f"bench-counts: {compared} count/byte metrics compared over {len(head)} workloads")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
