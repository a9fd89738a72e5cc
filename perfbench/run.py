#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a Homunculus checkout. The first call configures
and builds perfbench/CMakeLists.txt (the library from src/ plus the
benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's: 0 when
every output check passed, 1 when one failed, 2 on a usage or set-up
error (including a checkout without the library sources).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "server.hpp")):
        print("perfbench: no Homunculus sources under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench")] +
                          sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
