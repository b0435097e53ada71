#!/usr/bin/env python3
"""Builds and runs the rdp end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the benchmark binary (Release)
in .bench_build/; later runs only check that the build is current. The
binary's result -- one JSON object -- is the last line of standard output.
Build logs go to standard error. See e2ebench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-steady", "serve-overload-recorded", "ratio-sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: timed out: {' '.join(cmd)}")
    if result.returncode != 0:
        sys.exit(f"e2ebench: failed ({result.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no rdp sources (src/CMakeLists.txt) next to e2ebench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_checked(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "rdp_e2e", "-j", jobs],
                BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "rdp_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)

    tmp_dir = os.path.join(build_dir, "tmp")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--tmp-dir={tmp_dir}"]
    if args.trace:
        cmd.append(f"--trace-out={os.path.join(build_dir, 'trace', f'{args.workload}-seed{args.seed}.json')}")
        os.makedirs(os.path.join(build_dir, "trace"), exist_ok=True)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"e2ebench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"e2ebench: rdp_e2e exited with {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
