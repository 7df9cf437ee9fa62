#!/usr/bin/env python3
"""Builds musebench from source and runs one workload of the benchmark.

    python3 perfbench/run.py --workload <forward|join|plan> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/ (or $CARGO_TARGET_DIR); later calls only re-check the build.
Build output and musebench's progress go to stderr and stdout respectively;
the last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. The exit code is nonzero when the build fails,
musebench fails a correctness check, or its metrics do not match
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds musebench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no MuSE sources (src/CMakeLists.txt) next to perfbench/")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "musebench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log(f"timed out: {' '.join(cmd)}")
            return None
        if done.returncode != 0:
            log(f"failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return os.path.join(out, "musebench")


def source_identity():
    """The commit when run from git, else a digest of the benchmarked code."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"musebench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines))
        log(f"musebench exited {done.returncode} without a result")
        return 1

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print("\n".join(lines[:-1]))  # no result line: this run is invalid
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, or units differ")
        return 1

    print("\n".join(lines[:-1]))
    descriptor = dict(result.get("descriptor", {}))
    descriptor["source"] = source_identity()
    descriptor["match_error_frac"] = result.get("match_error_frac")
    print("descriptor: " + json.dumps(descriptor, sort_keys=True))
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
