#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

    python3 ldbbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. It configures and builds the
ldbbench CMake package (engine library, ldb_server, and the ldbbench driver)
into .bench_build/ldbbench as a Release build, runs the named workload, and
relays the driver's output. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes a Chrome trace
and a self-time table under .bench_build/out.

Exits non-zero without a result line when the engine sources are missing,
the build fails, the run fails or a metric is missing; exits 1 after the
result line when an output check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ldbbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
# Inputs of the build: hashed into the report so a result names its sources.
SOURCES = ["src", "examples/ldb_server.cpp", os.path.basename(HERE)]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("ldbbench: " + msg, file=sys.stderr)
    sys.exit(code)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def source_digest():
    h = hashlib.sha256()
    files = []
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            files.append(rel)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in filenames:
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit_id():
    """HEAD of the checkout when it is itself a git work tree, else unknown."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 4)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(usable_cpus())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isfile(
            os.path.join(ROOT, "examples", "ldb_server.cpp")):
        fail("engine sources (src/, examples/ldb_server.cpp) not found under " + ROOT)
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "ldbbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--server", os.path.join(BUILD_DIR, "ldb_server"),
           "--commit", commit_id(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail("ldbbench exited with status %d" % run.returncode, 4)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail("last output line is not a result object", 4)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result.get("metrics", {})) != sorted(names):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("reported metrics differ from BENCHMARK.json", 4)
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("unit of %s differs from BENCHMARK.json" % m["name"], 4)

    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
