#!/usr/bin/env python3
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
"""Exact gate on the pipeline benchmark's deterministic work counts.

    python3 scripts/check_counts.py BENCH_counts.json RUN_OUTPUT...

Each RUN_OUTPUT is the stdout of one `python3 pipebench/run.py` run. Its
`stamp` line names the workload and seed; its `counts` line must equal the
row BENCH_counts.json commits for that workload and seed, field for field.
BENCH_counts.json holds one JSON object per line:

    {"workload": W, "seed": N, "counts": {...the run's counts line...}}

Exits 1 on any differing field, on a run with no committed row, and on a
committed row no run covers. A change that moves a count updates its row
and says why.
"""

import json
import sys


def tagged(line, tag):
    """The JSON object after `tag ` on a run output line, else None."""
    prefix = tag + " "
    return json.loads(line[len(prefix):]) if line.startswith(prefix) else None


def read_run(path):
    stamp = counts = None
    with open(path) as f:
        for line in f:
            stamp = tagged(line, "stamp") or stamp
            counts = tagged(line, "counts") or counts
    if stamp is None or counts is None:
        sys.exit("%s: no stamp or counts line" % path)
    return (stamp["workload"], stamp["seed"]), counts


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    committed = {}
    with open(sys.argv[1]) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                committed[(row["workload"], row["seed"])] = row["counts"]

    problems = []
    covered = set()
    for path in sys.argv[2:]:
        key, counts = read_run(path)
        covered.add(key)
        want = committed.get(key)
        if want is None:
            problems.append("%s seed %d: no committed row" % key)
            continue
        for name in sorted(set(want) | set(counts)):
            if counts.get(name) != want.get(name):
                problems.append("%s seed %d: %s is %r, committed %r" % (
                    key + (name, counts.get(name), want.get(name))))
    for key in sorted(set(committed) - covered):
        problems.append("%s seed %d: committed but not run" % key)

    for problem in problems:
        print("counts: " + problem)
    if problems:
        sys.exit(1)
    print("counts: %d run(s) match %s exactly" % (len(covered), sys.argv[1]))


if __name__ == "__main__":
    main()
