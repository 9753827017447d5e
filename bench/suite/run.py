#!/usr/bin/env python3
"""Builds o2sr_bench from source and runs one workload of the repo benchmark.

Run from the root of a checkout:

    python3 bench/suite/run.py --workload serve_hot --seed 3 --seconds 10 --trace 0

The first run configures and builds bench/suite (Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.
Everything the run writes stays under that directory. The benchmark's
stdout is passed through: its last line is the JSON result. With --trace 1
the run is traced and reports per-layer metrics; the trace files land in
<build>/trace/<workload>-<seed>/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make's compiler children included) and waits for it. Returns
    (returncode or None on timeout, captured stdout bytes or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: timed out: " + " ".join(cmd), file=sys.stderr)
        return None, None


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    return run_group(cmd, timeout, sys.stderr)[0] == 0


def build():
    """Configures (once) and builds o2sr_bench; returns its path or None."""
    out = os.path.join(build_dir(), "suite")
    configure = ["cmake", "-S", os.path.join(ROOT, "bench", "suite"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(configure, BUILD_TIMEOUT_S):
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", out, "--target", "o2sr_bench",
                       "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "o2sr_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("run.py: cannot build o2sr_bench", file=sys.stderr)
        return 1
    work = os.path.join(build_dir(), "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work]
    if args.trace:
        cmd += ["--trace", os.path.join(build_dir(), "trace",
                                        "%s-%d" % (args.workload, args.seed))]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    os.makedirs(work, exist_ok=True)
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
