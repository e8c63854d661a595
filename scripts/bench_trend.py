#!/usr/bin/env python3
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
"""Perf-trajectory gate over the committed figure-bench snapshots.

Compares freshly generated fig13/fig14/fig15 JSONL rows against the
committed BENCH_*.json baselines and fails (exit 1) when any comparable
row's wall time regressed by more than the threshold, or when a completed
row's deterministic work count changed. This is the repo-level guard that
keeps the perf story monotone across PRs: the committed snapshots are
produced with the exact CI bench-smoke flags, so the CI smoke output is
directly comparable.

Usage:
  bench_trend.py [--threshold 0.25] [--min-seconds 0.05] \
      BASELINE FRESH [BASELINE FRESH ...]
  bench_trend.py --check-baselines BENCH_fig13.json BENCH_fig14.json ...

Rows are matched on their identity columns (fig, dataset, rows/cols, eps,
threads, walk); metric columns (seconds, oracle_calls, ...) never
participate in matching. A row is skipped, not compared, when:

  * the baseline row timed out (its `seconds` is the budget clamp, not a
    measurement);
  * the baseline is below --min-seconds (noise floor: a 20 ms row can
    double on scheduler jitter alone);
  * the row carries no `seconds` at all (fig15's quality rows — never
    timed, but count-checked as below).

A fresh row that times out where its baseline did not is always a
failure, whatever the seconds say. Rows present on only one side are
reported but do not fail the gate (bench configs legitimately drift;
snapshot-schema drift is caught by the CI key-set check).

Work counts are gated exactly. On every matched pair where neither side
timed out, the count columns must be equal: minseps, oracle_calls, seeds,
expansions and entropy_queries on fig13/fig14 rows; schemes, mis,
conflict_vertices, conflict_edges and join_rows_dp on fig15 rows;
result_rows, enumerated and errors on bench_serve_qps rows (the rows with
a `qps` column). Any difference fails the gate, whatever the seconds say
and below the noise floor too. A completed row's counts are a pure
function of the code and the row's inputs, so a difference is a change in
what the miner mines, what the query service answers or how many join
rows it visits to answer, which is either a bug or a reason to re-record
the snapshot. A row that timed out on either side stops at a
timing-dependent point, so its counts are not compared. A fig13/fig14 or
serve row has timed out when its `timed_out` is true; a fig15 row when its
`marker` holds " TL" (mining or assembly ran out of budget) or its
`audit_tl` is true (the audit did).

Timing comparisons assume both sides ran on the same class of machine —
true for the committed-snapshot flow (snapshots are refreshed from the
same tree that runs the smoke). Widen --threshold when comparing across
machines.
"""

import argparse
import json
import sys

# Columns that identify a row across runs. Everything else is a metric.
ID_KEYS = ("fig", "dataset", "rows", "cols", "eps", "threads", "walk")
# Deterministic work counts, compared exactly on completed rows: the
# separator rows' (fig13/fig14), fig15's scheme-quality rows' and the
# serve rows' answers.
COUNT_KEYS = ("minseps", "oracle_calls", "seeds", "expansions",
              "entropy_queries")
FIG15_COUNT_KEYS = ("schemes", "mis", "conflict_vertices", "conflict_edges",
                    "join_rows_dp")
SERVE_COUNT_KEYS = ("result_rows", "enumerated", "errors")


def count_keys(row):
    if row.get("fig") == 15:
        return FIG15_COUNT_KEYS
    if "qps" in row:
        return SERVE_COUNT_KEYS
    return COUNT_KEYS


def timed_out(row):
    return bool(row.get("timed_out") or row.get("audit_tl")
                or " TL" in row.get("marker", ""))


def load_rows(path):
    rows = []
    with open(path) as f:
        for num, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{num}: not JSON: {e}")
    if not rows:
        raise SystemExit(f"{path}: empty snapshot")
    return rows


def identity(row):
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def index_rows(path, rows):
    by_id = {}
    for row in rows:
        key = identity(row)
        if key in by_id:
            raise SystemExit(f"{path}: duplicate row identity {dict(key)}")
        by_id[key] = row
    return by_id


def check_baselines(paths):
    for path in paths:
        rows = load_rows(path)
        index_rows(path, rows)  # identity columns present and unique
        print(f"  {path}: {len(rows)} row(s) ok")
    return 0


def compare_pair(base_path, fresh_path, threshold, min_seconds):
    base = index_rows(base_path, load_rows(base_path))
    fresh = index_rows(fresh_path, load_rows(fresh_path))

    compared = skipped = untimed = counted = 0
    failures = []
    for key, b in base.items():
        f = fresh.get(key)
        if f is None:
            print(f"  [only-baseline] {dict(key)}")
            continue
        keys = count_keys(b)
        if (not timed_out(b) and not timed_out(f)
                and any(k in b for k in keys)):
            counted += 1
            for k in keys:
                if b.get(k) != f.get(k):
                    failures.append(
                        (key, "COUNT", f"{k} {b.get(k)} -> {f.get(k)}"))
        if "seconds" not in b or "seconds" not in f:
            untimed += 1
            continue
        timing = f"{b['seconds']:.3f}s -> {f['seconds']:.3f}s"
        if timed_out(f) and not timed_out(b):
            failures.append((key, "REGRESSION", f"{timing} (newly timed out)"))
            continue
        if timed_out(b) or b["seconds"] < min_seconds:
            skipped += 1
            continue
        compared += 1
        limit = b["seconds"] * (1.0 + threshold)
        if f["seconds"] > limit:
            pct = (f["seconds"] / b["seconds"] - 1.0) * 100.0
            failures.append((key, "REGRESSION", f"{timing} (+{pct:.0f}%)"))
    for key in fresh:
        if key not in base:
            print(f"  [only-fresh] {dict(key)}")

    print(f"  {base_path} vs {fresh_path}: {compared} compared, "
          f"{skipped} skipped (timed-out/noise-floor), {untimed} untimed, "
          f"{counted} count-checked, {len(failures)} failure(s)")
    for key, kind, detail in failures:
        print(f"  {kind} {dict(key)}: {detail}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative wall-time growth (0.25 = 25%%)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="baseline rows below this are noise, skipped")
    parser.add_argument("--check-baselines", action="store_true",
                        help="only validate that the given snapshots parse "
                             "as non-empty JSONL with unique row identities")
    parser.add_argument("files", nargs="+",
                        help="snapshot paths (--check-baselines), or "
                             "BASELINE FRESH pairs")
    args = parser.parse_args()

    if args.check_baselines:
        return check_baselines(args.files)

    if len(args.files) % 2 != 0:
        parser.error("comparison mode takes BASELINE FRESH pairs")
    failures = []
    for i in range(0, len(args.files), 2):
        failures += compare_pair(args.files[i], args.files[i + 1],
                                 args.threshold, args.min_seconds)
    if failures:
        print(f"bench_trend: {len(failures)} failure(s): wall-time "
              f"regressions beyond {args.threshold:.0%} or changed work "
              f"counts")
        return 1
    print("bench_trend: no wall-time regressions, no changed work counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
