"""Independent references and per-op checkers for the benchmark workloads.

Nothing here imports mtkit.  Every expected value is a closed form or a
brute-force scan written for the benchmark: minuscule dimensions, signs and
drops of the classical families, symplectic candidate lists, Pink's
numeric gate and the exceptional-family equations.  Each checker takes the
outputs one worker repetition returned and gives one failure reason (or
None) per op, so a wrong value fails exactly the op that produced it.
"""

from __future__ import annotations

import json
from array import array
from math import comb

ENDO_TYPES = ("Z", "II", "III")
STATUSES = ("ProvedByPink", "ProvedByMainTheorem", "ProvedByTheorem41",
            "ExceptionalCase", "NotCovered")
REJECTED = len(STATUSES)          # status code of a query refused with QueryInvalid
ERRORED = REJECTED + 1            # status code of any other exception


# --- minuscule closed forms ----------------------------------------------------


def _a_name(j: int) -> str:
    return "Std" if j == 1 else f"Λ^{j} Std"


def classical_minuscule(family: str, n: int) -> list[dict]:
    """Minuscule fundamental weights of a classical type, in weight-index order.

    Each entry has the weight index, name, dimension, Frobenius-Schur sign
    and the drop of a root element per length class (None where the type
    has no such class).
    """
    if family == "A":
        return [
            {"j": j, "name": _a_name(j), "dimension": comb(n + 1, j),
             "sign": (-1) ** j if n == 2 * j - 1 else 0,
             "long": comb(n - 1, j - 1), "short": None}
            for j in range(1, n + 1)
        ]
    if family == "B":
        return [{"j": n, "name": "Spin", "dimension": 2**n,
                 "sign": 1 if n % 4 in (0, 3) else -1,
                 "long": 2 ** (n - 2), "short": 2 ** (n - 1)}]
    if family == "C":
        return [{"j": 1, "name": "Std", "dimension": 2 * n, "sign": -1, "long": 1, "short": 2}]
    if family == "D":
        spin_sign = {0: 1, 2: -1}.get(n % 4, 0)
        spin = {"dimension": 2 ** (n - 1), "sign": spin_sign, "long": 2 ** (n - 3), "short": None}
        return [
            {"j": 1, "name": "Std", "dimension": 2 * n, "sign": 1, "long": 2, "short": None},
            {"j": n - 1, "name": "Spin-", **spin},
            {"j": n, "name": "Spin+", **spin},
        ]
    raise ValueError(f"not a classical family: {family!r}")


CLASSICAL_MIN_RANK = (("A", 1), ("B", 2), ("C", 2), ("D", 3))

# E6 carries w1 and w6 (27-dimensional, dual to each other), E7 carries w7
# (56-dimensional, symplectic); the table flags them and gives no drops.
EXCEPTIONAL_ROWS = (("E6", 6, 1, 27, 0), ("E6", 6, 6, 27, 0), ("E7", 7, 7, 56, -1))


def positive_root_counts(family: str, n: int) -> dict[str, int]:
    """Number of positive roots per length class."""
    if family == "A":
        return {"long": n * (n + 1) // 2}
    if family == "B":
        return {"long": n * (n - 1), "short": n}
    if family == "C":
        return {"long": n, "short": n * (n - 1)}
    if family == "D":
        return {"long": n * (n - 1)}
    raise ValueError(f"not a classical family: {family!r}")


def table_rows(max_rank: int) -> list[dict]:
    """The rows `mtkit table --max-rank max_rank` must print, in order."""
    rows = []
    for family, lo in CLASSICAL_MIN_RANK:
        for n in range(lo, max_rank + 1):
            for rep in classical_minuscule(family, n):
                rows.append({
                    "family": family, "rank": n, "weight": f"w{rep['j']}",
                    "name": rep["name"], "dimension": rep["dimension"], "sign": rep["sign"],
                    "drops_long": rep["long"], "drops_short": rep["short"], "classical": True,
                })
    for family, n, j, dim, sign in EXCEPTIONAL_ROWS:
        if n <= max_rank:
            rows.append({
                "family": family, "rank": n, "weight": f"w{j}", "name": f"w{j}",
                "dimension": dim, "sign": sign, "drops_long": None, "drops_short": None,
                "classical": False,
            })
    return rows


def symplectic_candidates(two_g: int) -> list[dict]:
    """The rows `mtkit classify --two-g two_g` must print, in order.

    Only middle exterior powers of A (odd middle index), spin reps of B and
    half-spin reps of D (rank n = 1, 2 mod 4 resp. n = 2 mod 4) and the
    standard rep of C are symplectic minuscule, so the candidates follow
    from the dimension formulas alone.
    """
    out = []
    j = 1
    while comb(2 * j, j) <= two_g:
        if comb(2 * j, j) == two_g and j % 2:
            out.append(("A", 2 * j - 1, j, _a_name(j), j))
        j += 1
    n = 2
    while 2**n <= two_g:
        if 2**n == two_g and n % 4 in (1, 2):
            out.append(("B", n, n, "Spin", n))
        n += 1
    if two_g >= 4:
        out.append(("C", two_g // 2, 1, "Std", two_g // 2))
    n = 3
    while 2 ** (n - 1) <= two_g:
        if 2 ** (n - 1) == two_g and n % 4 == 2:
            out.append(("D", n, n - 1, "Spin-", n))
            out.append(("D", n, n, "Spin+", n))
        n += 1
    out.sort(key=lambda c: (c[0], c[1]))
    return [
        {"two_g": two_g, "family": f, "rank": n, "weight": f"w{j}", "name": name, "witness_r": r}
        for f, n, j, name, r in out
    ]


# --- Pink's gate and the exceptional families -----------------------------------


def pink_inconclusive(limit: int) -> frozenset[int]:
    """Every n <= limit that is m**k (m >= 2, odd k >= 3) or C(2m, m) (odd m >= 3).

    Pink's criterion proves the conjecture exactly when 2g is none of these.
    """
    vals = set()
    k = 3
    while 2**k <= limit:
        m = 2
        while m**k <= limit:
            vals.add(m**k)
            m += 1
        k += 2
    m = 3
    while comb(2 * m, m) <= limit:
        vals.add(comb(2 * m, m))
        m += 2
    return frozenset(vals)


def pink_open_g(g_max: int) -> list[int]:
    """All g <= g_max whose 2g Pink's gate leaves open, by brute-force scan."""
    bad = pink_inconclusive(2 * g_max)
    return [g for g in range(1, g_max + 1) if 2 * g in bad]


# (smallest r, parity of r) of family 1 and (smallest t, residues of t mod 4)
# of family 2, per endomorphism type.
FAMILY1 = {"Z": (3, 1), "II": (3, 1), "III": (2, 0)}
FAMILY2 = {"Z": (4, (0, 1)), "II": (5, (1, 2)), "III": (4, (0, 3))}


def exceptional_points(endo: str, g_max: int) -> list[tuple[int, int, int, int]]:
    """Sorted (g, s, family, parameter) of every exceptional point with g <= g_max."""
    out = []
    r, _ = FAMILY1[endo]
    while True:
        if endo == "Z":
            g, s = comb(2 * r, r) // 2, comb(2 * r - 2, r - 1)
        else:
            g, s = comb(2 * r, r), 2 * comb(2 * r - 2, r - 1)
        if g > g_max:
            break
        out.append((g, s, 1, r))
        r += 2
    t, residues = FAMILY2[endo]
    while 2**t <= g_max:
        if t % 4 in residues:
            out.append((2**t, 2 ** (t - 1), 2, t))
            out.append((2**t, 2**t, 2, t))
        t += 1
    return sorted(out)


class DecisionReference:
    """Expected status and witness of an mt_check query, for g up to g_max."""

    def __init__(self, g_max: int):
        self.inconclusive = pink_inconclusive(2 * g_max)
        self.exceptional = {
            endo: {(g, s): fam * 100 + p for g, s, fam, p in exceptional_points(endo, g_max)}
            for endo in ENDO_TYPES
        }

    def expect(self, g: int, s: int, endo: str) -> tuple[int, int]:
        """(status code, witness code) with witness code family * 100 + parameter."""
        if g < 1 or not 0 <= s <= g or (endo != "Z" and s % 2):
            return REJECTED, 0
        if endo == "Z" and 2 * g not in self.inconclusive:
            return STATUSES.index("ProvedByPink"), 0
        if s == 0:
            return STATUSES.index("NotCovered"), 0
        witness = self.exceptional[endo].get((g, s))
        if witness is not None:
            return STATUSES.index("ExceptionalCase"), witness
        if endo == "Z":
            return STATUSES.index("ProvedByMainTheorem"), 0
        return STATUSES.index("ProvedByTheorem41"), 0

    def expect_all(self, g, s, endo) -> tuple[bytes, array]:
        """Status bytes and witness array for whole query arrays, as a worker returns them."""
        status, witness = bytearray(), array("i")
        for gi, si, ei in zip(g, s, endo):
            st, wi = self.expect(gi, si, ENDO_TYPES[ei])
            status.append(st)
            witness.append(wi)
        return bytes(status), witness


# --- per-op checkers ------------------------------------------------------------


def _cli_json(out: dict) -> tuple[dict | None, str | None]:
    if out.get("error"):
        return None, out["error"]
    if out.get("code") != 0:
        return None, f"exit code {out.get('code')}"
    try:
        return json.loads(out["stdout"]), None
    except ValueError as exc:
        return None, f"unparsable output: {exc}"


def check_cli(ops: list[list[str]], outs: list[dict]) -> list[str | None]:
    """Check `table` and `classify` invocations against the closed forms."""
    reasons = []
    for argv, out in zip(ops, outs):
        payload, err = _cli_json(out)
        if err:
            reasons.append(err)
            continue
        if argv[0] == "table":
            max_rank = int(argv[argv.index("--max-rank") + 1])
            want = {"max_rank": max_rank, "rows": table_rows(max_rank)}
        else:
            two_g = int(argv[argv.index("--two-g") + 1])
            want = {"two_g": two_g, "candidates": symplectic_candidates(two_g)}
        reasons.append(None if payload == want else _first_difference(payload, want))
    return reasons


def _first_difference(got: dict, want: dict) -> str:
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if isinstance(g, list) and isinstance(w, list):
            for i, (a, b) in enumerate(zip(g, w)):
                if a != b:
                    return f"{key}[{i}] = {a!r}, expected {b!r}"
            if len(g) != len(w):
                return f"{key} has {len(g)} entries, expected {len(w)}"
        elif g != w:
            return f"{key} = {g!r}, expected {w!r}"
    return "output differs"


def check_oracle(trials: list[list], roots: list[list], outs: list[dict]) -> list[str | None]:
    """Check tensor trials (exact degree k1 + k2 - 1) and root elements (degree 2, closed-form drop)."""
    reasons = []
    for (k1, k2, seed, prime), out in zip(trials, outs):
        if out.get("error"):
            reasons.append(out["error"])
            continue
        expected = k1 + k2 - 1
        want = {
            "k1": k1, "k2": k2, "dims": [6, 6], "trials": 1, "seed": seed, "prime": prime,
            "expected_degree": expected, "degree_counts": {str(expected): 1},
            "failures": [], "char_deviations": [], "corollary_violations": [], "passed": True,
        }
        reasons.append(None if out["report"] == want else _first_difference(out["report"], want))

    root_outs = outs[len(trials):]
    class_counts: dict[tuple, dict[str, int]] = {}
    for (family, n, j, _), out in zip(roots, root_outs):
        key = (family, n, j)
        if out.get("error"):
            reasons.append(out["error"])
            continue
        cls = out["length_class"]
        class_counts.setdefault(key, {}).setdefault(cls, 0)
        class_counts[key][cls] += 1
        rep = next(r for r in classical_minuscule(family, n) if r["j"] == j)
        want = {"degree": 2, "drop": rep.get(cls), "dim": rep["dimension"],
                "quadratic": True, "prime": None}
        if out["report"] != want:
            reasons.append(_first_difference(out["report"], want))
        elif out["weight_count_drop"] != want["drop"]:
            reasons.append(f"root_element_drop = {out['weight_count_drop']}, expected {want['drop']}")
        else:
            reasons.append(None)
    # every positive root of each rep was run once, so the length classes
    # seen must match the closed-form root counts
    for i, (family, n, j, _) in enumerate(roots):
        if class_counts.get((family, n, j), {}) != positive_root_counts(family, n):
            reasons[len(trials) + i] = reasons[len(trials) + i] or (
                f"length classes of {family}{n} roots {class_counts.get((family, n, j))}, "
                f"expected {positive_root_counts(family, n)}"
            )
    return reasons


def check_decide(g, s, endo, expected: tuple[bytes, array], status: bytes, witness: array,
                 exceptional_ops: list[list], exceptional_outs: list[dict]) -> list[str | None]:
    """Check every mt_check verdict against `DecisionReference.expect_all`, and
    the enumerate_exceptional lists against the family equations."""
    want_status, want_witness = expected
    if status == want_status and witness == want_witness:
        reasons: list[str | None] = [None] * len(want_status)
    else:
        reasons = []
        for i, (st, wi) in enumerate(zip(status, witness)):
            want = (want_status[i], want_witness[i])
            reasons.append(None if (st, wi) == want else (
                f"mt_check(g={g[i]}, s={s[i]}, endo={ENDO_TYPES[endo[i]]}) gave "
                f"({st}, {wi}), expected {want}"))
        reasons += ["no verdict"] * (len(want_status) - len(reasons))
    for (endo_name, g_max), out in zip(exceptional_ops, exceptional_outs):
        if out.get("error"):
            reasons.append(out["error"])
            continue
        want = [list(p) for p in exceptional_points(endo_name, g_max)]
        got = [inst[:4] for inst in out["instances"]]
        noted = sorted(inst[0] for inst in out["instances"] if inst[4])
        want_noted = sorted(p[0] for p in want if endo_name == "Z" and p[0] in (84, 126))
        if got != want:
            reasons.append(f"enumerate_exceptional({g_max}, {endo_name}) differs from the family equations")
        elif noted != want_noted:
            reasons.append(f"discrepancy notes on g = {noted}, expected {want_noted}")
        else:
            reasons.append(None)
    return reasons
