#!/usr/bin/env python3
"""Compare the working tree with a reference commit in alternating pairs.

Usage, from the root of a checkout (or through `make bench-pairs`):

    python3 tools/bench_pairs.py --ref REV [--workload NAME] [--seed N]

Exports REV with `git archive` into a temporary directory (local, no
network; `.git` is left untouched) and runs `perfbench/run.py --trace 0`
for each workload, alternating which
tree goes first: pair 0 runs REV then the working tree, pair 1 the
working tree then REV, and so on, for 10 pairs of BENCHMARK.json's
`run_seconds` each. The workloads default to all of its workloads.

For every end-to-end metric it prints both medians, both sets of
quartiles, the ratio of the medians (working tree over REV), the pairs
the working tree won, and whether the medians differ by more than REV's
interquartile range. It appends one line per workload with these values
and the raw runs to BENCH_history.jsonl. The export is removed
afterwards; TMPDIR chooses where it is made.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_once(tree, workload, seed, seconds):
    """One perfbench run in [tree]: (metrics by name, correct, failed ops)."""
    proc = subprocess.run(
        ["python3", os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("bench-pairs: no result from %s (exit %d)" % (tree, proc.returncode))
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    return metrics, res["correct"] and proc.returncode == 0, res["failed"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(spec, runs):
    """Per end-to-end metric: both summaries, ratio, pairs won, resolved."""
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        tree = [r["tree"][0][name] for r in runs]
        ref = [r["ref"][0][name] for r in runs]
        higher = m["better"] == "higher"
        won = sum(1 for t, r in zip(tree, ref) if (t > r if higher else t < r))
        st, sr = summary(tree), summary(ref)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "tree": dict(st, values=tree),
            "ref": dict(sr, values=ref),
            "ratio": st["median"] / sr["median"] if sr["median"] else None,
            "won": won,
            "resolved": abs(st["median"] - sr["median"]) > sr["q3"] - sr["q1"],
        }
    return out


def report(workload, pairs, cmp):
    print("== %s: %d pairs, working tree vs ref ==" % (workload, pairs))
    print("%-14s %30s %30s %7s %5s %s" % ("metric", "ref median [q1, q3]",
                                          "tree median [q1, q3]", "ratio", "won",
                                          "resolved"))
    for name, c in cmp.items():
        fmt = lambda s: "%.4g [%.4g, %.4g]" % (s["median"], s["q1"], s["q3"])
        ratio = "-" if c["ratio"] is None else "%.3f" % c["ratio"]
        print("%-14s %30s %30s %7s %2d/%d %s" % (name, fmt(c["ref"]), fmt(c["tree"]),
                                                 ratio, c["won"], pairs,
                                                 "yes" if c["resolved"] else "no"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", required=True, help="reference commit (any git revision)")
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    rev = git("rev-parse", "--verify", args.ref + "^{commit}")
    commit = git("describe", "--always", "--dirty")
    workloads = [args.workload] if args.workload else names

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    ref_tree = os.path.join(tmp, "ref")
    try:
        os.makedirs(ref_tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", ref_tree], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            sys.exit("bench-pairs: could not export %s" % args.ref)
        trees = {"tree": ROOT, "ref": ref_tree}
        # build both trees first, so no measured run follows a fresh build
        env = dict(os.environ, DUNE_CACHE="disabled")
        for tree in trees.values():
            subprocess.run(["dune", "build", "--root", tree, "./perfbench/main.exe"],
                           cwd=tree, env=env, check=True)
        for workload in workloads:
            runs = []
            for i in range(PAIRS):
                order = ["ref", "tree"] if i % 2 == 0 else ["tree", "ref"]
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], workload, args.seed, seconds)
                    print("pair %d %s: %s" % (i, side, json.dumps(pair[side][0])), flush=True)
                runs.append(pair)
            cmp = compare(spec, runs)
            report(workload, PAIRS, cmp)
            failed = {side: {"incorrect_runs": sum(1 for r in runs if not r[side][1]),
                             "failed_ops": sum(r[side][2] for r in runs)}
                      for side in ("tree", "ref")}
            line = {"commit": commit, "ref": rev[:12], "workload": workload,
                    "seed": args.seed, "seconds": seconds, "pairs": PAIRS,
                    "host_cores": len(os.sched_getaffinity(0)), "failed": failed, "metrics": cmp}
            with open(os.path.join(ROOT, "BENCH_history.jsonl"), "a") as f:
                f.write(json.dumps(line) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
