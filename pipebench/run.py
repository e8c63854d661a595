#!/usr/bin/env python3
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
"""Entry point of the pipeline benchmark.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark package (pipebench/CMakeLists.txt, Release) into
.bench_build/pipebench; later calls only let the build tool check that it is
up to date. It then runs the pipebench binary for one workload and relays
its output. The last line of stdout is the binary's result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

run.py checks that the metric names are exactly the ones BENCHMARK.json
lists for the mode (end_to_end for --trace 0, per_layer for --trace 1), and
keeps a ledger of the binary's deterministic work counts in
.bench_build/pipebench/ledger.jsonl: when an earlier run of the same source
tree at the same workload and seed printed different counts, a "flag" line
names them. The ledger is keyed by a hash of the source tree, so it
tells apart runs of different code, committed or not. run.py also checks
that the query mix the binary stamps is the one pipebench/spec.json
records.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pipebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "pipebench-run")
BINARY = os.path.join(BUILD_DIR, "pipebench")
LEDGER = os.path.join(BUILD_DIR, "ledger.jsonl")
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    except OSError as err:
        fail("cannot run %s: %s" % (cmd[0], err))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no library sources next to pipebench/ (missing CMakeLists.txt)")
    start = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "pipebench",
               "-j", BUILD_JOBS], max(1.0, remaining))


def source_id():
    """A hash of the source files, uncommitted changes included."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and
                             not d.startswith("build"))
        for name in sorted(filenames):
            if name.endswith((".cc", ".h", ".py", ".json")) or \
                    name == "CMakeLists.txt":
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def check_counts(workload, seed, source, counts):
    """Appends to the ledger; returns the names of counts that disagree
    with an earlier run of this source tree at this workload and seed."""
    key = {"workload": workload, "seed": seed, "source": source}
    differ = set()
    if os.path.isfile(LEDGER):
        with open(LEDGER) as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if all(entry.get(k) == v for k, v in key.items()):
                    for name, value in entry.get("counts", {}).items():
                        if counts.get(name) != value:
                            differ.add(name)
    with open(LEDGER, "a") as f:
        f.write(json.dumps(dict(key, counts=counts), sort_keys=True) + "\n")
    return sorted(differ)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in bench[section]}
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload " + args.workload, 2)

    build()
    source = source_id()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--commit", source]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pipebench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("pipebench exited with code %d" % proc.returncode)

    body, result_line = lines[:-1], lines[-1]
    for line in body:
        print(line)
    result = json.loads(result_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json %s: %s" % (
            section, sorted(set(result["metrics"]) ^ expected)))
    mix = ",".join(str(spec["query_mix"][c]) for c in spec["query_classes"])
    for line in body:
        if line.startswith("stamp ") and \
                json.loads(line[len("stamp "):]).get("mix") != mix:
            fail("the binary's query mix is not the one spec.json records")
        if line.startswith("counts "):
            differ = check_counts(args.workload, args.seed, source,
                                  json.loads(line[len("counts "):]))
            if differ:
                print("flag counts differ from an earlier run at this seed: " +
                      ", ".join(differ))
    print(result_line)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
