"""Seeded inputs of the four workloads, and the framing that carries them.

Nothing here imports mtkit: the program under test receives only the inputs
built here, and the same seed always gives the same inputs.  `table` and
`classify` are fixed enumerations, so their seed is recorded but unused.

A frame is one JSON header line followed by the raw bytes of the arrays the
header lists.  Large inputs (the `decide` queries) travel as typed arrays,
so neither side holds them as Python objects and the worker's peak RSS is
not dominated by the benchmark's own buffers.
"""

from __future__ import annotations

import json
import math
import random
from array import array

import reference

WORKLOADS = ("table", "classify", "oracle", "decide")

TABLE_MAX_RANK = 14
CLASSIFY_G_MAX = 126

ORACLE_DEGREES = range(1, 5)
ORACLE_TRIALS_PER_PAIR = 12
ORACLE_PRIME_TRIALS = 3           # of each pair's trials, run over F_p; the rest over Q
ORACLE_PRIME = 10007
ORACLE_ROOT_MAX_RANK = 12
ORACLE_ROOT_MAX_DIM = 70

DECIDE_QUERIES = 300_000
DECIDE_G_MAX = 10**12
# Share of the decide queries per kind.  Random queries alone would almost
# never reach Pink-inconclusive g or an exceptional point, so those get a
# fixed share and every Status occurs in every run.
DECIDE_MIX = (
    ("random", 0.60),             # g log-uniform up to DECIDE_G_MAX, any type
    ("pink_open", 0.12),          # End = Z and 2g a Pink-inconclusive value
    ("exceptional", 0.10),        # an exceptional-family point
    ("near_miss", 0.05),          # an exceptional g with s off the family
    ("no_bad_place", 0.08),       # s = 0
    ("invalid", 0.05),            # s > g, or odd s for type II / III
)


def cli_ops(workload: str) -> list[list[str]]:
    if workload == "table":
        return [["table", "--max-rank", str(TABLE_MAX_RANK)]]
    return [["classify", "--two-g", str(2 * g)] for g in reference.pink_open_g(CLASSIFY_G_MAX)]


def oracle_ops(seed: int) -> dict:
    """Seeded tensor-lemma trials, then one root element per positive root of
    every classical minuscule rep with rank <= 12 and dimension <= 70."""
    rng = random.Random(seed)
    trials = []
    for k1 in ORACLE_DEGREES:
        for k2 in ORACLE_DEGREES:
            for t in range(ORACLE_TRIALS_PER_PAIR):
                prime = ORACLE_PRIME if t < ORACLE_PRIME_TRIALS else None
                trials.append([k1, k2, rng.randrange(2**63), prime])
    rng.shuffle(trials)
    roots = []
    for family, lo in reference.CLASSICAL_MIN_RANK:
        for n in range(lo, ORACLE_ROOT_MAX_RANK + 1):
            count = sum(reference.positive_root_counts(family, n).values())
            for rep in reference.classical_minuscule(family, n):
                if rep["dimension"] <= ORACLE_ROOT_MAX_DIM:
                    roots += [[family, n, rep["j"], i] for i in range(count)]
    return {"trials": trials, "roots": roots}


def _log_uniform(rng: random.Random, hi: int) -> int:
    return max(1, min(hi, int(math.exp(rng.uniform(0.0, math.log(hi))))))


def _valid_s(rng: random.Random, g: int, endo: int) -> int:
    return rng.randint(0, g) if endo == 0 else 2 * rng.randint(0, g // 2)


def decide_queries(seed: int) -> dict[str, array]:
    """Seeded (g, s, endo) queries as arrays; endo indexes reference.ENDO_TYPES."""
    rng = random.Random(seed)
    pink_open = sorted(v // 2 for v in reference.pink_inconclusive(2 * DECIDE_G_MAX) if v % 2 == 0)
    points = {e: reference.exceptional_points(name, DECIDE_G_MAX)
              for e, name in enumerate(reference.ENDO_TYPES)}
    queries = []
    for kind, share in DECIDE_MIX:
        for _ in range(round(share * DECIDE_QUERIES)):
            endo = rng.randrange(3)
            if kind == "random":
                g = _log_uniform(rng, DECIDE_G_MAX)
                s = _valid_s(rng, g, endo)
            elif kind == "pink_open":
                endo, g = 0, rng.choice(pink_open)
                s = rng.randint(1, g)
            elif kind == "exceptional":
                g, s, _, _ = rng.choice(points[endo])
            elif kind == "near_miss":
                g, s, _, _ = rng.choice(points[endo])
                s = max(0, s - 2) if s == g else s + 2
            elif kind == "no_bad_place":
                g = rng.choice(pink_open) if rng.random() < 0.5 else _log_uniform(rng, DECIDE_G_MAX)
                s = 0
            else:
                g = _log_uniform(rng, DECIDE_G_MAX)
                if endo and g > 1 and rng.random() < 0.5:
                    s = 2 * rng.randint(0, (g - 2) // 2) + 1
                else:
                    s = g + rng.randint(1, 1000)
            queries.append((g, s, endo))
    rng.shuffle(queries)
    return {
        "g": array("q", (q[0] for q in queries)),
        "s": array("q", (q[1] for q in queries)),
        "endo": array("b", (q[2] for q in queries)),
    }


def make_inputs(workload: str, seed: int) -> tuple[dict, dict[str, array]]:
    """(header, arrays) of one workload's inputs; op_count is in the header."""
    if workload in ("table", "classify"):
        ops = cli_ops(workload)
        return {"workload": workload, "ops": ops, "op_count": len(ops)}, {}
    if workload == "oracle":
        ops = oracle_ops(seed)
        count = len(ops["trials"]) + len(ops["roots"])
        return {"workload": workload, "ops": ops, "op_count": count}, {}
    if workload == "decide":
        queries = decide_queries(seed)
        exceptional = [[endo, DECIDE_G_MAX] for endo in reference.ENDO_TYPES]
        header = {"workload": workload, "ops": {"exceptional": exceptional},
                  "op_count": len(queries["g"]) + len(exceptional)}
        return header, queries
    raise ValueError(f"unknown workload {workload!r}")


def write_frame(stream, header: dict, arrays: dict[str, array]) -> None:
    layout = [[name, a.typecode, len(a)] for name, a in arrays.items()]
    stream.write(json.dumps({**header, "arrays": layout}).encode() + b"\n")
    for a in arrays.values():
        stream.write(a.tobytes())
    stream.flush()


def read_frame(stream) -> tuple[dict, dict[str, array]]:
    header = json.loads(stream.readline())
    arrays = {}
    for name, typecode, length in header.pop("arrays"):
        a = array(typecode)
        if length:
            a.fromfile(stream, length)
        arrays[name] = a
    return header, arrays
