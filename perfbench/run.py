#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
cogradio library and the `cogbench` binary (RelWithDebInfo) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Span traces and the serve journal
are written to the build directory.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no cogradio sources under %s/src; run from the root "
              "of a full checkout" % ROOT, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "cogbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return 2
    binary = os.path.join(build, "cogbench")
    # The fingerprint's `git describe` must not search above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return subprocess.run([binary, "--workdir", build] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
