#!/usr/bin/env python3
"""PredILP benchmark: build predbench from source, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures_cold --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-check [--workload W]

The predbench program (perfbench/src) is built with CMake into
.bench_build/ at the checkout root, against the library sources in
src/. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. Build output goes to standard error.

--self-check runs the workload against golden figures with one value
perturbed and exits 0 only if the benchmark reports that cell failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("figures_cold", "figures_warm", "sweep_cache")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build predbench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no PredILP sources in %s" % os.path.join(ROOT, "src"))
    build_dir = os.path.join(BUILD, "perfbench")
    steps = [["cmake", "--build", build_dir, "--target", "predbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))
    return os.path.join(build_dir, "predbench")


def run(binary, args, perturb):
    """Run predbench; return (exit code, its standard output)."""
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(HERE, "golden"), "--work-dir", work]
    if perturb:
        cmd.append("--perturb-golden")
    # The library reads PREDILP_* (threads, store, backend, faults);
    # the benchmark fixes all of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PREDILP_")}
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="figures_cold")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exception so the predbench process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    if args.self_check:
        args.seconds, args.trace = 0, 0
        code, out = run(binary, args, perturb=True)
        sys.stdout.write(out)
        result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
        if result.get("failed", 0) > 0 and result.get("correct") is False:
            print("self-check passed: the perturbed golden cell failed")
            return 0
        print("self-check FAILED: a perturbed golden value went unnoticed")
        return 1
    code, out = run(binary, args, perturb=False)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
