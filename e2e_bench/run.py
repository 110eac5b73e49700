#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload stereo_caps --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set, else to .bench_build,
both relative to the current directory; build output goes to standard error.
The benchmark binary then replaces this process, so its flags are checked
there and its last line of standard output is the result.
"""
import os
import subprocess
import sys

TARGET = "pcap_e2e_bench"


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no simulator sources under ./src; run from the root "
              "of a checkout", file=sys.stderr)
        return 1
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", TARGET, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} failed", file=sys.stderr)
            return 1
    binary = os.path.join(build, TARGET)
    sys.stdout.flush()
    os.execv(binary, [binary, "--root", root, *sys.argv[1:]])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
