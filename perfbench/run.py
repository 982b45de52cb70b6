#!/usr/bin/env python3
"""Build and run the open-loop BCI decode benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload motor-solo-health --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from ../src) into .bench_build/perfbench; later runs only re-check the
build.  Build logs go to stderr.  The benchmark's own report goes to
stdout, and its last line is the JSON result, whose metric names are
checked against BENCHMARK.json before it is printed.
"""
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, bench_dir):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(root, "src", "serve", "server.hpp")):
        fail("run from the repository root: src/serve/server.hpp not found", 2)
    if "--trace" not in argv:
        fail("--trace is required", 2)
    trace = argv[argv.index("--trace") + 1] == "1"
    expected = expected_metrics(root, trace)

    binary = build(root, bench_dir)
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    names = set(result.get("metrics", {}))
    if names != expected:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s"
             % (sorted(expected - names), sorted(names - expected)))
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
