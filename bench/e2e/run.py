#!/usr/bin/env python3
"""Build dcode_bench from source and run one workload (or all of them).

Usage, from the repository root:
    python3 bench/e2e/run.py --workload oltp-4k --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py                 # every workload, seed 1, untraced
    python3 bench/e2e/run.py --out DIR ...   # also keep each run's JSON in DIR

The benchmark is compiled (Release) into $CARGO_TARGET_DIR/dcode_bench,
default .bench_build/dcode_bench, on first use. --trace 1 runs the traced
mode: the last stdout line then carries the per-layer metrics instead of
the end-to-end ones, and the spans go to <build dir>/traces/. Exit status
is non-zero when the build fails or any output fails verification.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["oltp-4k", "stream-64k", "degraded-read", "rebuild-mixed"]
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configures and builds dcode_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources not found under "
                 f"{os.path.join(ROOT, 'src')}")
    bdir = os.path.join(build_root, "dcode_bench")
    os.makedirs(bdir, exist_ok=True)
    # Concurrent invocations in one checkout share a single build.
    with open(os.path.join(build_root, "dcode_bench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(["ninja", "--version"], capture_output=True,
                              check=False).returncode == 0:
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", bdir, "--target", "dcode_bench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "dcode_bench")


def run_one(binary, build_root, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--disk-dir", os.path.join(build_root, f"disks-{os.getpid()}")]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, f"{workload}.spans.csv")]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        cmd += ["--json", os.path.join(args.out, name)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, in order)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20,
                    help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="directory for each run's JSON document")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        status |= run_one(binary, build_root, workload, args)
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
