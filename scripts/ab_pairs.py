#!/usr/bin/env python3
"""Alternating parent/change pairs of one or more benchmark workloads.

Exports a git revision (the parent, by default HEAD) into a temporary
directory with `git archive REV | tar -x`, and the change into a second
temporary directory made the same way, so that the two sides differ in their
code only. The change is the working tree of this checkout, uncommitted edits
and untracked files that git does not ignore included, or with `--change REV`
a second revision; `--rev HEAD --change HEAD` is an A/A run that shows the
noise floor of each metric. It then runs
`perfbench/run.py --workload W --seed S --seconds N` in each, one after the
other, K times. The side that runs first alternates from pair to pair. Each
side runs its own copy of `perfbench/`. `--workload` takes one workload or a
comma-separated list, run one after the other on the same two exports. The
script prints every pair's end-to-end metrics and then, per workload, the
wins of the change per metric (ties count for neither side), each side's
median and quartiles, and a verdict per metric:
`gain` when the change wins at least 9/10 of the pairs and its median is
better than the parent's by more than the parent's interquartile range,
`worse` when the parent does so, and `unresolved` otherwise.

It writes nothing into `.git` and nothing under `perfbench/`; the exports
are deleted when the script ends.

Run:  python3 scripts/ab_pairs.py --workload decide --seed 13 --pairs 10 [--rev HEAD~1] [--change REV]
      python3 scripts/ab_pairs.py --workload table,classify,oracle,decide --seed 1 --pairs 10
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


def export(rev: str, dest: str) -> None:
    """Write the tree of rev into dest, reading the repository only."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"error: could not export {rev!r} with git archive")


def export_worktree(dest: str) -> None:
    """Copy the checkout's files that git tracks or would track into dest, as they are on disk."""
    names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], stdout=subprocess.PIPE, check=True).stdout
    for name in os.fsdecode(names).split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a tracked file deleted on disk is left out
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def bench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in tree: the result object its last stdout line holds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.6g} (quartiles {q1:.6g}/{q3:.6g})"


def verdict(old: list[float], new: list[float], sign: int) -> str:
    """The claim rule: one side wins at least 9/10 of the pairs (ties count
    for neither), and the medians differ its way by more than the parent's IQR."""
    q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else (old[0],) * 3
    shift = sign * (statistics.median(new) - statistics.median(old))
    for name, s in (("gain", 1), ("worse", -1)):
        wins = sum(s * sign * (b - a) > 0 for a, b in zip(old, new))
        if 10 * wins >= 9 * len(old) and s * shift > q3 - q1:
            return name
    return "unresolved"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--change", metavar="REV",
                        help="a revision to run as the change (default: the working tree)")
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list of workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json names {', '.join(known)}")

    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="ab_pairs-") as change_tree:
        export(args.rev, parent_tree)
        if args.change:
            export(args.change, change_tree)
        else:
            export_worktree(change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        for workload in workloads:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = bench(trees[side], workload, args.seed, args.seconds)
                    ok = result["correct"] and not result["failed"]
                    runs[workload][side].append(result)
                    print(f"{workload} pair {i + 1} {side:<6} correct={ok} failed={result['failed']}/"
                          f"{result['attempted']} " + " ".join(
                              f"{name}={result['metrics'][name]['value']:.6g}" for name in better),
                          flush=True)

    change = args.change or "working tree"
    for workload in workloads:
        print(f"{workload} seed {args.seed}, {args.pairs} pairs, "
              f"parent {args.rev} / change {change}")
        for name, direction in better.items():
            old = [r["metrics"][name]["value"] for r in runs[workload]["parent"]]
            new = [r["metrics"][name]["value"] for r in runs[workload]["change"]]
            sign = -1 if direction == "lower" else 1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            pairs = ", ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(old, new))
            print(f"  {name}: change wins {wins}/{args.pairs} ({direction} is better)")
            print(f"    pairs parent/change: {pairs}")
            print(f"    parent {quartiles(old)}; change {quartiles(new)}")
            print(f"    verdict: {verdict(old, new, sign)}")
    bad = [r for sides in runs.values() for side in sides.values() for r in side
           if not r["correct"] or r["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
