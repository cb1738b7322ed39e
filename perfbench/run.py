#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the checkout, runs it, and
prints its report lines followed by one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones; a per-layer metric of a layer the workload
does not exercise reads 0. Exits non-zero, without a result line, when
the tree cannot be built or the run's metrics do not match
BENCHMARK.json; exits non-zero after the result line when a correctness
check failed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def trace_flag(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--trace":
            return argv[i + 1] == "1"
    return False


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no source tree to build here (dune-project or lib/ missing)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace_flag(sys.argv[1:]) else spec["end_to_end"]

    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")

    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no result line (exit code %d)" % run.returncode)

    got = raw["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    if raw["correct"] and unknown:
        die("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in wanted:
        value = got.get(m["name"])
        if value is None and "bound" in m and raw["correct"]:
            die("end-to-end metric not reported: " + m["name"])
        metrics[m["name"]] = {"value": 0.0 if value is None else value,
                              "unit": m["unit"]}
    print("semantic replies: %d" % raw["semantic"])
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if raw["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
