#!/usr/bin/env python3
"""Builds and runs the thermctl benchmark.

    python3 thermbench/run.py --workload fleet_100k|paper_sweep|daemon_ops \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run it from the repository root. It configures and builds thermbench/ (a
CMake project that compiles the library from ../src) as a Release build at
-O2 into $CARGO_TARGET_DIR, or .bench_build when that is unset, prints the
host fingerprint, runs the workload and passes its output through. The last
line of standard output is the run's JSON result. Any other arguments go to
the benchmark binary unchanged (see src/main.cpp).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "thermbench", "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "thermbench")


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(build_dir):
    cache = cmake_cache(build_dir)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(
        x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count() or 1,
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "flags": flags,
        "build_type": build_type,
        "git_sha": first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(
            os.path.join(ROOT, ".git")) else "none",
    }


def compare_with_previous(history_path, fp):
    """Says which fingerprint fields differ from the previous result's."""
    try:
        with open(history_path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return
    if not lines:
        return
    previous = json.loads(lines[-1]).get("fingerprint", {})
    changed = [k for k in fp if previous.get(k) != fp[k]]
    if changed:
        print("note: this result's fingerprint differs from the previous result's in: " +
              ", ".join(f"{k} ({previous.get(k)!r} -> {fp[k]!r})" for k in changed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_100k", "paper_sweep", "daemon_ops"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"thermbench: no thermctl sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "thermbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"thermbench: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    fp = fingerprint(build_dir)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    history = os.path.join(work_dir, f"results_{args.workload}.jsonl")
    compare_with_previous(history, fp)
    sys.stdout.flush()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--work-dir", os.path.relpath(work_dir)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"thermbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        with open(history, "a", encoding="utf-8") as f:
            f.write(json.dumps({"fingerprint": fp, "seed": args.seed, "trace": int(args.trace),
                                "result": json.loads(lines[-1])}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
