#!/usr/bin/env python3
"""Build and run the FinGraV end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/, the CLI from tools/ and the
driver from perfbench/src/) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the driver.  Build output goes
to standard error, so the last line of standard output is the driver's
JSON result.  Work counters of earlier runs are kept per source-tree hash
under the build directory, so a later run of the same code and seed is
checked against them.

Exit status: the driver's (0 = every check passed), or 1 when the build
fails or the sources are missing.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_hash():
    """Hash of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(BENCH_DIR, "src"),
             os.path.join(ROOT, "tools", "fingrav_cli.cpp"),
             os.path.join(BENCH_DIR, "CMakeLists.txt")]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, _, names in os.walk(root):
            files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main(argv):
    required = (os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"))
    if not all(os.path.isdir(p) for p in required):
        print("perfbench: FinGraV sources (src/, tools/) not found under "
              + ROOT, file=sys.stderr)
        return 1
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    state_dir = os.path.join(out_dir, "state", source_hash())
    cmd = [os.path.join(out_dir, "perfbench")] + argv + [
        "--state-dir", state_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
