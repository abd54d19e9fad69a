#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see e2ebench/README.md).

Run from the root of a wde checkout:

    python3 e2ebench/run.py --workload wcv-read --seed 1 --seconds 20 --trace 0

The driver is built from source into $CARGO_TARGET_DIR (default
.bench_build) as a Release build; an up-to-date tree rebuilds nothing. Build
output goes to standard error, so the last line of standard output is the
driver's JSON result. The exit code is the driver's: non-zero when the build
fails, an answer check fails, or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("e2ebench: %s is not a wde checkout (no CMakeLists.txt and src/)" % ROOT,
              file=sys.stderr)
        return None
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", build_dir, "--target", "e2e_bench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wcv-read", "kde-read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt the recorded answer of a sampled batch before "
                             "its replay check; the run must fail")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(ROOT, build_dir))
    if binary is None:
        return 3
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    if args.inject_wrong_answer:
        command.append("--inject-wrong-answer")
    sys.stdout.flush()
    try:
        # subprocess.run kills the driver and waits for it on timeout.
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
