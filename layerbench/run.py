#!/usr/bin/env python3
"""Layer-ledger benchmark: build the ledger driver, run one workload.

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--fault none|drop|add]

Run from the root of an sssj checkout. Builds the library and the
`layer_ledger` driver from source into .bench_build/layerbench (a Release
build; incremental after the first run), then runs the workload. The
driver's report goes to stdout; its last line is the JSON result. The exit
code is the driver's: 0 when every pair matched and no call failed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
BINARY = os.path.join(BUILD, "layer_ledger")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # CMake writes the Makefile only after a successful configure.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "layer_ledger",
                  "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                return False
    return os.path.exists(BINARY)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--fault", default="none",
                        choices=["none", "drop", "add"])
    args = parser.parse_args(argv)

    if not build():
        sys.stderr.write("layerbench: build failed; see %s\n"
                         % os.path.join(BUILD, "build.log"))
        return 1
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--out-dir", out_dir,
               "--fault", args.fault]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("layerbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
