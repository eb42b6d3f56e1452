#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

Exports a git revision (the parent, by default HEAD) into a temporary
directory with `git archive REV | tar -x`, then runs
`perfbench/run.py --workload W --seed S --seconds N` there and in this
checkout, one after the other, K times. The side that runs first alternates
from pair to pair. Each side runs its own copy of `perfbench/`. The script
prints every pair's end-to-end metrics, the wins of the change per metric
(ties count for neither side), and each side's median and quartiles.

It writes nothing into `.git` and nothing under `perfbench/`; the export is
deleted when the script ends.

Run:  python3 scripts/ab_pairs.py --workload decide --seed 13 --pairs 10 [--rev HEAD~1]
"""

import argparse
import json
import os
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as parent_tree:
        export(args.rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench(trees[side], args.workload, args.seed, args.seconds)
                ok = result["correct"] and not result["failed"]
                runs[side].append(result)
                print(f"pair {i + 1} {side:<6} correct={ok} failed={result['failed']}/"
                      f"{result['attempted']} " + " ".join(
                          f"{name}={result['metrics'][name]['value']:.6g}" for name in better),
                      flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, parent {args.rev} / change")
    for name, direction in better.items():
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = -1 if direction == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        pairs = ", ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(old, new))
        print(f"  {name}: change wins {wins}/{args.pairs} ({direction} is better)")
        print(f"    pairs parent/change: {pairs}")
        print(f"    parent {quartiles(old)}; change {quartiles(new)}")
    bad = [r for side in runs.values() for r in side if not r["correct"] or r["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
