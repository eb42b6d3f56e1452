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
from .drops import _drops, classify_symplectic_minuscule, drop_spectrum
from .errors import DomainError, PreconditionError
from .minuscule import (
    DEFAULT_RANK_BOUND,
    MinusculeRep,
    _fundamental_rep,
    _minuscule_indices,
    _rep_name,
    enumerate_minuscule,
)
from .oracle import (
    DEFAULT_PRIME,
    _require_prime,
    build_root_element,
    unipotence,
    verify_tensor_lemma,
)
from .roots import FAMILIES, ROOT_BUDGET, CartanType, positive_root_count
from .roots import _FIXED_RANK, _MIN_RANK, _positive_root

FORMATS = ("json", "csv", "markdown")
_encode = json.encoder.encode_basestring  # json.dumps' str encoder when ensure_ascii=False


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise UsageError(message)


def _cartan_type(family: str, rank: int | None) -> CartanType:
    family = family.strip()
    up = family.upper()
    if up not in FAMILIES:
        raise UsageError(f"unknown type {family!r}")
    if up in _FIXED_RANK:
        if rank is not None and rank != _FIXED_RANK[up]:
            raise UsageError(f"{up} has fixed rank {_FIXED_RANK[up]}")
        return CartanType(up, _FIXED_RANK[up])
    if rank is None:
        raise UsageError(f"--rank is required for family {up}")
    return CartanType(up, rank)


def resolve_weight_label(t: CartanType, label: str) -> int:
    """Map a label to a 1-based weight index: wJ, wedgeJ (family A), or std, spin, spin+ or spin-.

    The named labels are the one-word rep names of the minuscule w_1, w_{n-1}
    and w_n, in lower case: Std of A, C and D, Spin of B, Spin+ and Spin- of D.
    """
    s = label.strip().lower()
    n = t.rank
    prefixes = ("w", "wedge") if t.family == "A" else ("w",)
    for prefix in prefixes:
        digits = s[len(prefix):]
        if s.startswith(prefix) and digits.isdecimal():
            try:
                j = int(digits)
            except ValueError:  # more digits than int() reads: out of range like 0
                j = 0
            if not 1 <= j <= n:
                raise UsageError(f"weight index {label!r} out of range 1..{n} for {t}")
            return j
    indices = _minuscule_indices(t)  # Λ^j Std is wedgeJ, and the E6 and E7 names are wJ
    names = {name: j for j in (1, n - 1, n)
             if j in indices and (name := _rep_name(t, j).lower()).strip("+-").isalpha()}
    if s in names:
        return names[s]
    labels = [*names, *(f"{prefix}1..{prefix}{n}" for prefix in prefixes)]
    raise UsageError(f"unknown weight label {label!r} for {t}; expected one of {', '.join(labels)}")


def _head(rep) -> dict:
    """The family, rank, weight and name cells of a MinusculeRep or a classify Candidate."""
    t = rep.cartan_type
    return {"family": t.family, "rank": t.rank, "weight": f"w{rep.weight_index}", "name": rep.name}


def _rep_row(rep: MinusculeRep) -> dict:
    t = rep.cartan_type
    drops = _drops(rep) if t.is_classical else {}
    return {**_head(rep), "dimension": rep.dimension, "sign": rep.sign,
            "drops_long": drops.get("long"), "drops_short": drops.get("short"),
            "classical": t.is_classical}


def _cmd_table(args) -> tuple[dict, list[dict]]:
    n = args.max_rank
    if n < 1:
        raise UsageError("--max-rank must be >= 1")
    exceptional = [CartanType(f, rank) for f, rank in (("E6", 6), ("E7", 7)) if rank <= n]
    # the sums to n of r(r+1)/2 (A), r^2 (B and C from r = 2) and r(r-1) (D from r = 3):
    # no classical type is built before the count is within budget
    roots = (n * (n + 1) * (n + 2) // 6 + n * (n + 1) * (2 * n + 1) // 3 - 2
             + max(0, (n + 1) * n * (n - 1) // 3 - 2) + sum(map(positive_root_count, exceptional)))
    if roots > ROOT_BUDGET:
        raise PreconditionError(
            f"the types up to rank {n} have {roots} positive roots in all, "
            f"more than the root budget of {ROOT_BUDGET} roots"
        )
    classical = [CartanType(f, rank) for f, lo in _MIN_RANK.items() for rank in range(lo, n + 1)]
    rows = [_rep_row(rep) for t in classical + exceptional for rep in enumerate_minuscule(t)]
    return {"max_rank": n, "rows": rows}, rows


def _cmd_minuscule(args) -> tuple[dict, list[dict], list[str]]:
    t = _cartan_type(args.type, args.rank)
    rows = [_rep_row(rep) for rep in enumerate_minuscule(t)]
    header = ["family", "rank", "weight", "name", "dimension", "sign",
              "drops_long", "drops_short", "classical"]  # F4 and G2 have no rows
    return {"type": str(t), "rows": rows}, rows, header


def _cmd_drops(args) -> tuple[dict, list[dict]]:
    t = _cartan_type(args.type, args.rank)
    rep = _fundamental_rep(t, resolve_weight_label(t, args.weight))
    report = drop_spectrum(rep)
    head = {**_head(rep), "dimension": rep.dimension, "sign": rep.sign}
    payload = {**head, "per_length_class": dict(report.per_length_class),
               "quadratic": dict(report.quadratic)}
    rows = [{**head, "length_class": cls, "drop": drop, "quadratic": payload["quadratic"][cls]}
            for cls, drop in sorted(payload["per_length_class"].items())]
    return payload, rows


def _cmd_classify(args) -> tuple[dict, list[dict]]:
    result = classify_symplectic_minuscule(args.two_g)
    rows = [{"two_g": result.two_g, **_head(c), "witness_r": c.witness_r}
            for c in result.candidates]
    return {"two_g": result.two_g, "candidates": rows}, rows


def _endo(value: str) -> EndoType:
    try:
        return EndoType(value.upper())
    except ValueError:
        raise UsageError(f"unknown endomorphism type {value!r}; expected Z, II or III") from None


def _cmd_mt_check(args) -> tuple[dict, list[dict]]:
    # a verdict may print 2g (GSp_2g, Pink's reason): checked here, off mt_check's hot path
    limit = sys.get_int_max_str_digits()
    if limit and 2 * args.g >= 10**limit:
        raise PreconditionError(
            f"g must be below 5*10^{limit - 1}, so that 2g has at most {limit} digits, the "
            "most that Python converts to text (sys.get_int_max_str_digits())"
        )
    query = MtQuery(g=args.g, s=args.s, endo=_endo(args.endo))
    payload = {**mt_check(query).to_dict(), "query": query.to_dict()}
    witness = payload["witness"] or {}
    rows = [{"status": payload["status"], "target_group": payload["target_group"],
             "family": witness.get("family"), "r_or_t": witness.get("r_or_t"),
             **payload["query"], "explanation": payload["explanation"],
             "citations": "; ".join(payload["citations"]), "notes": "; ".join(payload["notes"])}]
    return payload, rows


def _cmd_mt_exceptional(args) -> tuple[dict, list[dict], list[str]]:
    endo = _endo(args.endo)
    instances = [inst.to_dict() for inst in enumerate_exceptional(args.max_g, endo)]
    payload = {"max_g": args.max_g, "endo": endo.value, "instances": instances}
    rows = [{**inst, "endo": endo.value, "notes": "; ".join(inst["notes"])} for inst in instances]
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
        return _require_prime(int(text))
    except PreconditionError as exc:  # a DomainError, so a ValueError: caught first
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _cmd_oracle_tensor(args) -> tuple[dict, list[dict]]:
    payload = verify_tensor_lemma(
        k1=args.k1, k2=args.k2, dims=_parse_dims(args.dims),
        trials=args.trials, seed=args.seed, prime=args.prime,
    ).to_dict()
    dim1, dim2 = payload["dims"]
    rows = [{"k1": payload["k1"], "k2": payload["k2"], "dim1": dim1, "dim2": dim2,
             "trials": payload["trials"], "seed": payload["seed"], "prime": payload["prime"],
             "expected_degree": payload["expected_degree"],
             "degree_counts": "|".join(f"{k}x{v}" for k, v in payload["degree_counts"].items()),
             **{k: len(payload[k]) for k in ("failures", "char_deviations", "corollary_violations")},
             "passed": payload["passed"]}]
    return payload, rows


def _cmd_oracle_drop(args) -> tuple[dict, list[dict]]:
    t = _cartan_type(args.type, args.rank)
    rep = _fundamental_rep(t, resolve_weight_label(t, args.weight))
    specs = [s for s in map(str.strip, args.roots.split(",")) if s]
    if not specs:
        raise UsageError("--roots must name at least one root, e.g. e1-e2")
    try:
        for s in specs:
            _positive_root(t, s)
    except DomainError as exc:  # malformed or unmatched specs are usage errors
        raise UsageError(str(exc)) from None
    report = unipotence(build_root_element(rep, specs, prime=args.prime)).to_dict()
    payload = {**_head(rep), "roots": specs, "prime": args.prime, "report": report}
    rows = [{**_head(rep), "roots": "|".join(specs), "prime": args.prime, "dim": report["dim"],
             "degree": report["degree"], "drop": report["drop"], "quadratic": report["quadratic"]}]
    return payload, rows


def _json(o, indent: str = "\n") -> str:
    """json.dumps(o, sort_keys=True, indent=2, ensure_ascii=False), strs and ints written in C
    as json writes them; floats, non-str keys and what json refuses go to json.dumps."""
    if isinstance(o, str):
        return _encode(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        items, ends = [_json(x, inner) for x in o], "[]"
    elif isinstance(o, dict) and all(isinstance(k, str) for k in o):
        items, ends = [f"{_encode(k)}: {_json(o[k], inner)}" for k in sorted(o)], "{}"
    else:
        return json.dumps(o, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", indent)
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{indent}{ends[1]}" if items else ends


def _render(fmt: str, payload: dict, rows: list[dict], header: list[str] | None = None) -> str:
    """JSON of the payload, or a csv or markdown table of the rows; the header is
    the rows' key order, or passed by a command whose rows can be empty."""
    if fmt == "json":
        return _json(payload)
    header = header or list(rows[0])
    table = [header, *(["" if row[c] is None else row[c] for c in header] for row in rows)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue().rstrip("\n")
    table.insert(1, ["---"] * len(header))
    return "\n".join("| " + " | ".join([str(c).replace("|", "\\|") for c in line]) + " |"
                     for line in table)


# Each subcommand: its help, its arguments (flag: add_argument keywords; --format
# comes last) and its handler, or its help and its own subcommands.
_REQ, _INT, _REQ_INT = {"required": True}, {"type": int}, {"type": int, "required": True}
_PRIME = {"type": _prime, "nargs": "?", "const": DEFAULT_PRIME, "default": None}
_COMMANDS = {
    "table": ("emit the minuscule table up to a rank bound",
              {"--max-rank": {"type": int, "default": DEFAULT_RANK_BOUND}}, _cmd_table),
    "minuscule": ("minuscule representations of one type",
                  {"--type": _REQ, "--rank": _INT}, _cmd_minuscule),
    "drops": ("drop spectrum of one minuscule representation",
              {"--type": _REQ, "--rank": _INT, "--weight": _REQ}, _cmd_drops),
    "classify": ("symplectic minuscule reps of a given dimension",
                 {"--two-g": _REQ_INT}, _cmd_classify),
    "mt-check": ("decide one (g, s, endo) query",
                 {"--g": _REQ_INT, "--s": _REQ_INT, "--endo": _REQ}, _cmd_mt_check),
    "mt-exceptional": ("exceptional (g, s) pairs up to a bound",
                       {"--max-g": _REQ_INT, "--endo": _REQ}, _cmd_mt_exceptional),
    "oracle": ("brute-force matrix computations", {
        "tensor-lemma": ("randomized tensor degree verification",
                         {"--k1": _REQ_INT, "--k2": _REQ_INT, "--trials": _REQ_INT,
                          "--seed": _REQ_INT, "--dims": {"default": "6,6"}, "--prime": _PRIME},
                         _cmd_oracle_tensor),
        "drop": ("root-element matrix, degree and drop",
                 {"--type": _REQ, "--rank": _INT, "--weight": _REQ, "--roots": {
                     **_REQ, "help": "comma-separated epsilon mnemonics, e.g. e1-e2,e3-e4"},
                  "--prime": _PRIME}, _cmd_oracle_drop),
    }),
}


def _add_commands(parser: _Parser, dest: str, commands: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (summary, arguments, *handler) in commands.items():
        p = sub.add_parser(name, help=summary)
        if not handler:
            _add_commands(p, f"{name}_command", arguments)
            continue
        for flag, keywords in arguments.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.set_defaults(func=handler[0])


@functools.cache  # parse_args leaves a parser as it was, so each is built once per process
def _build_parser(command: str | None = None) -> _Parser:
    """The parser of this subcommand alone, or of every subcommand."""
    parser = _Parser(prog="mtkit", description=__doc__)
    _add_commands(parser, "command", {command: _COMMANDS[command]} if command else _COMMANDS)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # top-level --help and the errors for a missing or unknown command list every subcommand
    parser = _build_parser(argv[0]) if argv and argv[0] in _COMMANDS else _build_parser()
    try:
        args = parser.parse_args(argv)
        output = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(args.format, *output))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
