"""Command-line surface.

Subcommands: table, minuscule, drops, classify, mt-check, mt-exceptional,
oracle tensor-lemma, oracle drop.  Data goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 usage error, 2 precondition or
invariant violation.  Identical inputs (including --seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .decision import EndoType, MtQuery, enumerate_exceptional, mt_check
from .drops import drop_spectrum
from .errors import DomainError, PreconditionError
from .minuscule import (
    DEFAULT_RANK_BOUND,
    MinusculeRep,
    _fundamental_rep,
    enumerate_minuscule,
    minuscule_rep,
)
from .oracle import (
    DEFAULT_PRIME,
    _require_prime,
    build_root_element,
    unipotence,
    verify_tensor_lemma,
)
from .roots import ROOT_BUDGET, CartanType, find_positive_root, positive_root_count
from .roots import _FIXED_RANK, _MIN_RANK

FORMATS = ("json", "csv", "markdown")

TABLE_COLUMNS = [
    "family", "rank", "weight", "name", "dimension", "sign",
    "drops_long", "drops_short", "classical",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise UsageError(message)


def _cartan_type(family: str, rank: int | None) -> CartanType:
    family = family.strip()
    up = family.upper()
    if up not in ("A", "B", "C", "D", "E6", "E7", "F4", "G2"):
        raise UsageError(f"unknown type {family!r}")
    if up in _FIXED_RANK:
        if rank is not None and rank != _FIXED_RANK[up]:
            raise UsageError(f"{up} has fixed rank {_FIXED_RANK[up]}")
        return CartanType(up, _FIXED_RANK[up])
    if rank is None:
        raise UsageError(f"--rank is required for family {up}")
    return CartanType(up, rank)


def resolve_weight_label(t: CartanType, label: str) -> int:
    """Map a human label (w3, std, spin, spin+, spin-, wedge3) to a 1-based index."""
    s = label.strip().lower()
    fam, n = t.family, t.rank
    if s.startswith("w") and s[1:].isdigit():
        j = int(s[1:])
        if not 1 <= j <= n:
            raise UsageError(f"weight index {label!r} out of range 1..{n} for {t}")
        return j
    if s.startswith("wedge") and s[5:].isdigit():
        if fam != "A":
            raise UsageError(f"label {label!r} only applies to family A")
        j = int(s[5:])
        if not 1 <= j <= n:
            raise UsageError(f"weight index {label!r} out of range 1..{n} for {t}")
        return j
    if s == "std":
        if fam in ("A", "C", "D"):
            return 1
        raise UsageError(f"the standard representation of {t} is not minuscule")
    if s == "spin":
        if fam == "B":
            return n
        if fam == "D":
            raise UsageError(f"{t} has two half-spin weights; use spin+ or spin-")
        raise UsageError(f"label 'spin' does not apply to family {fam}")
    if s == "spin+":
        if fam == "D":
            return n
        raise UsageError("label 'spin+' only applies to family D")
    if s == "spin-":
        if fam == "D":
            return n - 1
        raise UsageError("label 'spin-' only applies to family D")
    raise UsageError(f"unknown weight label {label!r}")


def _rep_row(rep: MinusculeRep) -> dict:
    t = rep.cartan_type
    drops = drop_spectrum(rep).per_length_class if t.is_classical else {}
    return {
        "family": t.family,
        "rank": t.rank,
        "weight": f"w{rep.weight_index}",
        "name": rep.name,
        "dimension": rep.dimension,
        "sign": rep.sign,
        "drops_long": drops.get("long"),
        "drops_short": drops.get("short"),
        "classical": t.is_classical,
    }


def _cmd_table(args) -> tuple[dict, list[dict], list[str]]:
    bound = args.max_rank
    if bound < 1:
        raise UsageError("--max-rank must be >= 1")
    cartan_types = [CartanType(f, n) for f, lo in _MIN_RANK.items() for n in range(lo, bound + 1)]
    cartan_types += [CartanType(f, n) for f, n in (("E6", 6), ("E7", 7)) if n <= bound]
    roots = sum(map(positive_root_count, cartan_types))
    if roots > ROOT_BUDGET:
        raise PreconditionError(
            f"the types up to rank {bound} have {roots} positive roots in all, "
            f"more than the root budget of {ROOT_BUDGET} roots"
        )
    rows = [_rep_row(rep) for t in cartan_types for rep in enumerate_minuscule(t)]
    return {"max_rank": bound, "rows": rows}, rows, TABLE_COLUMNS


def _cmd_minuscule(args) -> tuple[dict, list[dict], list[str]]:
    t = _cartan_type(args.type, args.rank)
    rows = [_rep_row(rep) for rep in enumerate_minuscule(t)]
    return {"type": str(t), "rows": rows}, rows, TABLE_COLUMNS


def _cmd_drops(args) -> tuple[dict, list[dict], list[str]]:
    t = _cartan_type(args.type, args.rank)
    j = resolve_weight_label(t, args.weight)
    rep = _fundamental_rep(t, j)
    report = drop_spectrum(rep)
    head = {"family": t.family, "rank": t.rank, "weight": f"w{j}", "name": rep.name,
            "dimension": rep.dimension, "sign": rep.sign}
    rows = [
        {**head, "length_class": cls, "drop": report.per_length_class[cls],
         "quadratic": report.quadratic[cls]}
        for cls in sorted(report.per_length_class)
    ]
    payload = {**head, "per_length_class": dict(report.per_length_class),
               "quadratic": dict(report.quadratic)}
    columns = ["family", "rank", "weight", "name", "dimension", "sign",
               "length_class", "drop", "quadratic"]
    return payload, rows, columns


def _cmd_classify(args) -> tuple[dict, list[dict], list[str]]:
    from .drops import classify_symplectic_minuscule

    result = classify_symplectic_minuscule(args.two_g)
    rows = [
        {
            "two_g": result.two_g,
            "family": c.cartan_type.family,
            "rank": c.cartan_type.rank,
            "weight": f"w{c.weight_index}",
            "name": c.name,
            "witness_r": c.witness_r,
        }
        for c in result.candidates
    ]
    payload = {"two_g": result.two_g, "candidates": rows}
    return payload, rows, ["two_g", "family", "rank", "weight", "name", "witness_r"]


def _endo(value: str) -> EndoType:
    try:
        return EndoType(value.upper())
    except ValueError:
        raise UsageError(f"unknown endomorphism type {value!r}; expected Z, II or III") from None


def _cmd_mt_check(args) -> tuple[dict, list[dict], list[str]]:
    query = MtQuery(g=args.g, s=args.s, endo=_endo(args.endo))
    verdict = mt_check(query)
    payload = verdict.to_dict()
    payload["query"] = query.to_dict()
    w = verdict.witness
    rows = [{
        "status": verdict.status.value,
        "target_group": verdict.target_group,
        "family": w.family if w else None,
        "r_or_t": w.parameter if w else None,
        "g": query.g,
        "s": query.s,
        "endo": query.endo.value,
        "explanation": verdict.explanation,
        "citations": "; ".join(verdict.citations),
        "notes": "; ".join(verdict.notes),
    }]
    columns = ["status", "target_group", "family", "r_or_t", "g", "s", "endo",
               "explanation", "citations", "notes"]
    return payload, rows, columns


def _cmd_mt_exceptional(args) -> tuple[dict, list[dict], list[str]]:
    endo = _endo(args.endo)
    instances = enumerate_exceptional(args.max_g, endo)
    rows = [
        {
            "g": inst.g,
            "s": inst.s,
            "family": inst.family,
            "r_or_t": inst.parameter,
            "endo": endo.value,
            "notes": "; ".join(inst.notes),
        }
        for inst in instances
    ]
    payload = {
        "max_g": args.max_g,
        "endo": endo.value,
        "instances": [inst.to_dict() for inst in instances],
    }
    return payload, rows, ["g", "s", "family", "r_or_t", "endo", "notes"]


def _parse_dims(spec: str) -> tuple[int, int]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise UsageError(f"--dims expects two comma-separated integers, got {spec!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--dims expects integers, got {spec!r}") from None


def _prime(text: str) -> int:
    """argparse type for --prime: an integer that is a prime."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return _require_prime(p)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_oracle_tensor(args) -> tuple[dict, list[dict], list[str]]:
    report = verify_tensor_lemma(
        k1=args.k1, k2=args.k2, dims=_parse_dims(args.dims),
        trials=args.trials, seed=args.seed, prime=args.prime,
    )
    payload = report.to_dict()
    rows = [{
        "k1": report.k1,
        "k2": report.k2,
        "dim1": report.dims[0],
        "dim2": report.dims[1],
        "trials": report.trials,
        "seed": report.seed,
        "prime": report.prime,
        "expected_degree": report.expected_degree,
        "degree_counts": "|".join(f"{k}x{v}" for k, v in sorted(report.degree_counts.items())),
        "failures": len(report.failures),
        "char_deviations": len(report.char_deviations),
        "corollary_violations": len(report.corollary_violations),
        "passed": report.passed,
    }]
    columns = ["k1", "k2", "dim1", "dim2", "trials", "seed", "prime", "expected_degree",
               "degree_counts", "failures", "char_deviations", "corollary_violations", "passed"]
    return payload, rows, columns


def _cmd_oracle_drop(args) -> tuple[dict, list[dict], list[str]]:
    t = _cartan_type(args.type, args.rank)
    j = resolve_weight_label(t, args.weight)
    rep = minuscule_rep(t, j)
    specs = [s for s in args.roots.split(",") if s.strip()]
    if not specs:
        raise UsageError("--roots must name at least one root, e.g. e1-e2")
    try:
        indices = [find_positive_root(t, s) for s in specs]
    except DomainError as exc:  # malformed or unmatched specs are usage errors
        raise UsageError(str(exc)) from None
    matrix = build_root_element(rep, indices, prime=args.prime)
    report = unipotence(matrix)
    exploratory = len(indices) > 1
    head = {"family": t.family, "rank": t.rank, "weight": f"w{j}", "name": rep.name}
    payload = {**head, "roots": specs, "prime": args.prime, "report": report.to_dict(),
               "exploratory": exploratory}
    if exploratory:
        payload["note"] = (
            "product of root elements: the cocycle signs are not certified to "
            "define a group representation; treat degree/drop as exploratory"
        )
    rows = [{**head, "roots": "|".join(specs), "prime": args.prime, "dim": report.dim,
             "degree": report.degree, "drop": report.drop, "quadratic": report.quadratic,
             "exploratory": exploratory}]
    columns = ["family", "rank", "weight", "name", "roots", "prime", "dim",
               "degree", "drop", "quadratic", "exploratory"]
    return payload, rows, columns


def _render(payload: dict, rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in columns])
        return buf.getvalue().rstrip("\n")
    header = "| " + " | ".join(columns) + " |"
    sep = "| " + " | ".join("---" for _ in columns) + " |"
    lines = [header, sep]
    for row in rows:
        lines.append("| " + " | ".join("" if row[c] is None else str(row[c]) for c in columns) + " |")
    return "\n".join(lines)


@functools.cache  # parse_args leaves the parser as it was, and building it costs ten classify runs
def _build_parser() -> _Parser:
    parser = _Parser(prog="mtkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="json")

    p = sub.add_parser("table", help="emit the minuscule table up to a rank bound")
    p.add_argument("--max-rank", type=int, default=DEFAULT_RANK_BOUND)
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("minuscule", help="minuscule representations of one type")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_minuscule)

    p = sub.add_parser("drops", help="drop spectrum of one minuscule representation")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--weight", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_drops)

    p = sub.add_parser("classify", help="symplectic minuscule reps of a given dimension")
    p.add_argument("--two-g", dest="two_g", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mt-check", help="decide one (g, s, endo) query")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--endo", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_mt_check)

    p = sub.add_parser("mt-exceptional", help="exceptional (g, s) pairs up to a bound")
    p.add_argument("--max-g", dest="max_g", type=int, required=True)
    p.add_argument("--endo", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_mt_exceptional)

    p = sub.add_parser("oracle", help="brute-force matrix computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("tensor-lemma", help="randomized tensor degree verification")
    q.add_argument("--k1", type=int, required=True)
    q.add_argument("--k2", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--dims", default="6,6")
    q.add_argument("--prime", type=_prime, nargs="?", const=DEFAULT_PRIME, default=None)
    add_format(q)
    q.set_defaults(func=_cmd_oracle_tensor)

    q = osub.add_parser("drop", help="root-element matrix, degree and drop")
    q.add_argument("--type", required=True)
    q.add_argument("--rank", type=int)
    q.add_argument("--weight", required=True)
    q.add_argument("--roots", required=True, help="comma-separated epsilon mnemonics, e.g. e1-e2,e3-e4")
    q.add_argument("--prime", type=_prime, nargs="?", const=DEFAULT_PRIME, default=None)
    add_format(q)
    q.set_defaults(func=_cmd_oracle_drop)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        payload, rows, columns = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(payload, rows, columns, args.format))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
