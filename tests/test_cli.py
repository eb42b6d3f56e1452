"""CLI grammar, exit codes, output formats, round-trips, reproducibility."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    exceptional_instance_from_dict,
    query_from_dict,
    tensor_report_from_dict,
    verdict_from_dict,
)
from mtkit import (
    CartanType,
    EndoType,
    Status,
    TensorLemmaReport,
    cli,
    enumerate_exceptional,
    minuscule,
    roots,
)
from mtkit.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mt_check_exceptional_json(capsys):
    code, out, _ = invoke(capsys, "mt-check", "--g", "10", "--s", "6", "--endo", "Z")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ExceptionalCase"
    assert payload["witness"] == {"family": 1, "r_or_t": 3, "g": 10, "s": 6}


def test_mt_check_round_trips_into_verdict(capsys):
    _, out, _ = invoke(capsys, "mt-check", "--g", "16", "--s", "8", "--endo", "Z")
    payload = json.loads(out)
    verdict = verdict_from_dict(payload)
    assert verdict.status.value == "ExceptionalCase"
    query = query_from_dict(payload["query"])
    assert (query.g, query.s) == (16, 8)


def test_mt_check_invariant_violation_exit_2(capsys):
    code, _, err = invoke(capsys, "mt-check", "--g", "7", "--s", "3", "--endo", "II")
    assert code == 2
    assert "Type II/III requires even s" in err


def test_usage_error_exit_1(capsys):
    code, _, err = invoke(capsys, "mt-check", "--g", "10", "--s", "6", "--endo", "WAT")
    assert code == 1
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 1


def test_endo_ignores_case_and_surrounding_spaces(capsys):
    # as --type and --weight do
    for command in (["mt-check", "--g", "10", "--s", "2"], ["mt-exceptional", "--max-g", "300"]):
        expected = invoke(capsys, *command, "--endo", "Z")
        assert expected[0] == 0
        assert invoke(capsys, *command, "--endo", " z ") == expected


def test_readme_cli_examples_run(capsys):
    # the examples of the README's CLI section cannot rot: each exits 0 and prints
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
             if line.startswith("mtkit ")]
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    for argv in lines:
        code, out, err = invoke(capsys, *argv)
        assert (code, err, bool(out.strip())) == (0, "", True), argv


def test_invalid_rank_exit_2(capsys):
    code, _, err = invoke(capsys, "minuscule", "--type", "B", "--rank", "1")
    assert code == 2
    assert "rank" in err


def test_table_markdown_rank_four(capsys):
    code, out, _ = invoke(capsys, "table", "--max-rank", "4", "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    data = [l for l in lines[2:]]
    # A_1..A_4 (1+2+3+4) + B_2..B_4 (3) + C_2..C_4 (3) + D_3..D_4 (6 reps)
    assert len(data) == 10 + 3 + 3 + 6
    assert any("| B | 4 | w4 | Spin | 16 | 1 |" in l for l in data)
    assert not any("E6" in l for l in data)


def test_table_includes_flagged_exceptional_rows(capsys):
    _, out, _ = invoke(capsys, "table", "--max-rank", "7", "--format", "json")
    rows = json.loads(out)["rows"]
    e_rows = [r for r in rows if r["family"] in ("E6", "E7")]
    assert {(r["family"], r["weight"]) for r in e_rows} == {("E6", "w1"), ("E6", "w6"), ("E7", "w7")}
    assert all(r["classical"] is False for r in e_rows)
    assert all(r["drops_long"] is None for r in e_rows)
    assert all(r["classical"] is True for r in rows if r["family"] in "ABCD")


def test_table_csv_matches_json_data(capsys):
    _, out_json, _ = invoke(capsys, "table", "--max-rank", "5", "--format", "json")
    _, out_csv, _ = invoke(capsys, "table", "--max-rank", "5", "--format", "csv")
    rows = json.loads(out_json)["rows"]
    parsed = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        assert got["family"] == want["family"]
        assert int(got["rank"]) == want["rank"]
        assert int(got["dimension"]) == want["dimension"]
        assert int(got["sign"]) == want["sign"]


def test_minuscule_command(capsys):
    code, out, _ = invoke(capsys, "minuscule", "--type", "D", "--rank", "6")
    rows = json.loads(out)["rows"]
    assert [(r["weight"], r["dimension"], r["sign"]) for r in rows] == [
        ("w1", 12, 1), ("w5", 32, -1), ("w6", 32, -1),
    ]


def test_drops_command_with_labels(capsys):
    code, out, _ = invoke(capsys, "drops", "--type", "B", "--rank", "5", "--weight", "spin")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_length_class"] == {"long": 8, "short": 16}
    code, out, _ = invoke(capsys, "drops", "--type", "A", "--rank", "5", "--weight", "wedge3")
    assert json.loads(out)["per_length_class"] == {"long": 6}
    code, out, _ = invoke(capsys, "drops", "--type", "D", "--rank", "6", "--weight", "spin-")
    assert json.loads(out)["per_length_class"] == {"long": 8}


def test_drops_non_minuscule_weight_exit_2(capsys):
    code, _, err = invoke(capsys, "drops", "--type", "B", "--rank", "3", "--weight", "w1")
    assert code == 2
    assert "not minuscule" in err


def test_unknown_weight_label_exit_1(capsys):
    code, _, err = invoke(capsys, "drops", "--type", "B", "--rank", "3", "--weight", "foo")
    assert code == 1


def test_classify_command(capsys):
    code, out, _ = invoke(capsys, "classify", "--two-g", "20")
    cands = json.loads(out)["candidates"]
    assert [(c["family"], c["rank"], c["weight"]) for c in cands] == [("A", 5, "w3"), ("C", 10, "w1")]


def test_classify_56_lists_c28_alone(capsys):
    # E7 w7 is symplectic of dimension 56, but only types A-D are listed
    code, out, _ = invoke(capsys, "classify", "--two-g", "56")
    cands = json.loads(out)["candidates"]
    assert code == 0
    assert [(c["family"], c["rank"], c["weight"]) for c in cands] == [("C", 28, "w1")]


def test_mt_exceptional_command(capsys):
    code, out, _ = invoke(capsys, "mt-exceptional", "--max-g", "300", "--endo", "Z")
    inst = json.loads(out)["instances"]
    assert [(i["g"], i["s"]) for i in inst] == [
        (10, 6), (16, 8), (16, 16), (32, 16), (32, 32), (126, 70), (256, 128), (256, 256),
    ]
    note_rows = [i for i in inst if i["notes"]]
    assert [(i["g"], i["s"]) for i in note_rows] == [(126, 70)]
    records = [exceptional_instance_from_dict(i) for i in inst]
    assert [(r, r.notes) for r in records] == [
        (r, r.notes) for r in enumerate_exceptional(300, EndoType.TRIVIAL_Z)
    ]


def test_oracle_tensor_lemma_command(capsys):
    args = ("oracle", "tensor-lemma", "--k1", "2", "--k2", "2",
            "--trials", "10", "--seed", "42", "--dims", "4,4")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    report = tensor_report_from_dict(json.loads(out))
    assert report.passed and report.degree_counts == {3: 10}
    # byte-identical reruns with the same seed
    _, out2, _ = invoke(capsys, *args)
    assert out == out2


def test_oracle_drop_command(capsys):
    code, out, _ = invoke(
        capsys, "oracle", "drop", "--type", "A", "--rank", "5",
        "--weight", "wedge3", "--roots", "e1-e2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["degree"] == 2
    assert payload["report"]["drop"] == 6


def test_oracle_drop_product_has_the_single_root_shape(capsys):
    # a product of strongly orthogonal roots is answered as one root is: no
    # flag or note sets it apart
    argv = ["oracle", "drop", "--type", "D", "--rank", "6", "--weight", "spin+", "--roots"]
    _, one, _ = invoke(capsys, *argv, "e1-e2")
    code, out, _ = invoke(capsys, *argv, "e1-e2,e3-e4")
    assert code == 0
    payload = json.loads(out)
    assert payload.keys() == json.loads(one).keys()
    assert not payload.keys() & {"exploratory", "note"}


def test_oracle_drop_malformed_roots_exit_1(capsys, default_int_digits):
    code, _, err = invoke(
        capsys, "oracle", "drop", "--type", "A", "--rank", "3",
        "--weight", "std", "--roots", "e9-e1",
    )
    assert code == 1
    # a dangling or doubled sign names no root; it is not read as some other root
    for spec in ("e1-+e2", "e1--e2", "e1+-e2", "e1-", "-", "e1-e2,e3+"):
        code, out, err = invoke(capsys, "oracle", "drop", "--type", "C", "--rank", "3",
                                "--weight", "std", "--roots", spec)
        assert (code, out) == (1, ""), spec
        assert "malformed root spec" in err, spec
    # an index or a coefficient of more digits than int() reads names the spec
    for spec in ("e" + "9" * 4301, "9" * 4301 + "e1-e2"):
        code, out, err = invoke(capsys, "oracle", "drop", "--type", "C", "--rank", "3",
                                "--weight", "std", "--roots", spec)
        assert (code, out) == (1, "")
        assert err == f"usage error: malformed root spec {spec!r}: too many digits\n"
    # exceptional types have no mnemonics; a spec is parsed before that refusal
    for spec, message in (("e1-e2", "epsilon mnemonics cover classical types only, not E6"),
                          ("e1-", "malformed root spec 'e1-'")):
        code, out, err = invoke(capsys, "oracle", "drop", "--type", "E6", "--weight", "w1",
                                "--roots", spec)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_oracle_drop_non_orthogonal_exit_2(capsys):
    code, _, err = invoke(
        capsys, "oracle", "drop", "--type", "D", "--rank", "6",
        "--weight", "spin+", "--roots", "e1-e2,e2-e3",
    )
    assert code == 2
    assert "orthogonal" in err
    # a repeated root is not orthogonal to itself
    code, out, err = invoke(
        capsys, "oracle", "drop", "--type", "D", "--rank", "4",
        "--weight", "spin+", "--roots", "e1-e2,e3-e4,e1-e2",
    )
    assert (code, out) == (2, "")
    assert err == "error: root 'e1-e2' is repeated; the roots must be distinct\n"


@pytest.mark.parametrize("family,weight,roots,total", [
    ("B", "spin", "e1,e2", "e1+e2"), ("C", "std", "e1-e2,e1+e2", "2e1")])
def test_oracle_drop_roots_whose_sum_is_a_root_exit_2(capsys, family, weight, roots, total):
    # orthogonal but not strongly orthogonal: the +1 signs would give degree 3
    # where the group element has degree 2
    code, out, err = invoke(capsys, "oracle", "drop", "--type", family, "--rank", "3",
                            "--weight", weight, "--roots", roots)
    first, second = roots.split(",")
    assert (code, out) == (2, "")
    assert err == (f"error: roots {first!r} and {second!r} are not strongly orthogonal: "
                   f"their sum {total} is a root\n")


def test_identical_invocations_byte_identical(capsys):
    for argv in (
        ["table", "--max-rank", "6"],
        ["mt-check", "--g", "126", "--s", "70", "--endo", "Z"],
        ["classify", "--two-g", "32", "--format", "csv"],
    ):
        _, a, _ = invoke(capsys, *argv)
        _, b, _ = invoke(capsys, *argv)
        assert a == b


GOLDEN = Path(__file__).parent / "golden"


GOLDEN_RUNS = {
    "table_max_rank_12.json": ["table", "--max-rank", "12", "--format", "json"],
    "table_max_rank_12.csv": ["table", "--max-rank", "12", "--format", "csv"],
    "table_max_rank_12.md": ["table", "--max-rank", "12", "--format", "markdown"],
    "table_max_rank_16.csv": ["table", "--max-rank", "16", "--format", "csv"],
    "minuscule_B7.json": ["minuscule", "--type", "B", "--rank", "7"],
    "minuscule_D6.md": ["minuscule", "--type", "D", "--rank", "6", "--format", "markdown"],
    "minuscule_E7.json": ["minuscule", "--type", "E7"],
    # F4 has no minuscule weight: the header alone
    "minuscule_F4.csv": ["minuscule", "--type", "F4", "--format", "csv"],
    # B5 spin has a short class
    "drops_B5_spin.json": ["drops", "--type", "B", "--rank", "5", "--weight", "spin"],
    "drops_C4_std.csv": ["drops", "--type", "C", "--rank", "4", "--weight", "std",
                         "--format", "csv"],
    "drops_D6_spinminus.md": ["drops", "--type", "D", "--rank", "6", "--weight", "spin-",
                              "--format", "markdown"],
    "classify_252.json": ["classify", "--two-g", "252"],
    "classify_20.csv": ["classify", "--two-g", "20", "--format", "csv"],
    "classify_20.md": ["classify", "--two-g", "20", "--format", "markdown"],
    # g = 1716 is on family 1: A13 w7 beside the C1716 row, which needs no C1716 datum
    "classify_3432.csv": ["classify", "--two-g", "3432", "--format", "csv"],
    # the matrix basis of a root element follows the sort order of the orbit
    "oracle_drop_D5_spinplus.json": ["oracle", "drop", "--type", "D", "--rank", "5",
                                     "--weight", "spin+", "--roots", "e1-e2,e3-e4"],
    # the shared-line product
    "oracle_drop_D5_spinplus_shared.json": ["oracle", "drop", "--type", "D", "--rank", "5",
                                            "--weight", "spin+", "--roots", "e1-e2,e1+e2"],
    # a product of two root elements on a module of dimension 2048
    "oracle_drop_D12_w12.json": ["oracle", "drop", "--type", "D", "--rank", "12",
                                 "--weight", "w12", "--roots", "e1-e2,e3-e4"],
    "oracle_drop_D12_w12_p2.json": ["oracle", "drop", "--type", "D", "--rank", "12",
                                    "--weight", "w12", "--roots", "e1-e2,e3-e4", "--prime", "2"],
    "oracle_drop_A5_w3_p3.json": ["oracle", "drop", "--type", "A", "--rank", "5",
                                  "--weight", "w3", "--roots", "e1-e6", "--prime", "3"],
    "oracle_drop_D5_spinplus.csv": ["oracle", "drop", "--type", "D", "--rank", "5",
                                    "--weight", "spin+", "--roots", "e1-e2,e3-e4",
                                    "--format", "csv"],
    "oracle_drop_C3_std.csv": ["oracle", "drop", "--type", "C", "--rank", "3",
                               "--weight", "std", "--roots", "2e1", "--format", "csv"],
    "oracle_drop_A3_std.md": ["oracle", "drop", "--type", "A", "--rank", "3",
                              "--weight", "std", "--roots", "e1-e2", "--format", "markdown"],
    # the roots cell joins two roots with an escaped |
    "oracle_drop_D5_w5.md": ["oracle", "drop", "--type", "D", "--rank", "5", "--weight", "w5",
                             "--roots", "e1-e2,e3-e4", "--format", "markdown"],
    # default dims 6,6; the prime-2 run records 20 characteristic deviations
    "oracle_tensor_3_4_seed7.json": ["oracle", "tensor-lemma", "--k1", "3", "--k2", "4",
                                     "--trials", "40", "--seed", "7"],
    "oracle_tensor_3_4_seed7.csv": ["oracle", "tensor-lemma", "--k1", "3", "--k2", "4",
                                    "--trials", "40", "--seed", "7", "--format", "csv"],
    "oracle_tensor_3_4_seed7.md": ["oracle", "tensor-lemma", "--k1", "3", "--k2", "4",
                                   "--trials", "40", "--seed", "7", "--format", "markdown"],
    "oracle_tensor_3_4_seed7_p10007.json": ["oracle", "tensor-lemma", "--k1", "3", "--k2", "4",
                                            "--trials", "40", "--seed", "7", "--prime", "10007"],
    "oracle_tensor_2_2_seed7_p2.json": ["oracle", "tensor-lemma", "--k1", "2", "--k2", "2",
                                        "--trials", "20", "--seed", "7", "--prime", "2"],
    "mt_exceptional_Z_1000000.json": ["mt-exceptional", "--max-g", "1000000", "--endo", "Z"],
    "mt_exceptional_II_1000000.json": ["mt-exceptional", "--max-g", "1000000", "--endo", "II"],
    "mt_exceptional_III_1000000.json": ["mt-exceptional", "--max-g", "1000000", "--endo", "III"],
    "mt_exceptional_Z_1000000.csv": ["mt-exceptional", "--max-g", "1000000", "--endo", "Z",
                                     "--format", "csv"],
    "mt_exceptional_Z_1000000.md": ["mt-exceptional", "--max-g", "1000000", "--endo", "Z",
                                    "--format", "markdown"],
    # no exceptional pair has g <= 5: the header alone
    "mt_exceptional_Z_5.md": ["mt-exceptional", "--max-g", "5", "--endo", "Z",
                              "--format", "markdown"],
    # one mt-check run per status path
    "mt_check_5_0_Z.json": ["mt-check", "--g", "5", "--s", "0", "--endo", "Z"],
    "mt_check_4_0_Z.json": ["mt-check", "--g", "4", "--s", "0", "--endo", "Z"],
    "mt_check_10_4_Z.json": ["mt-check", "--g", "10", "--s", "4", "--endo", "Z"],
    "mt_check_126_70_Z.json": ["mt-check", "--g", "126", "--s", "70", "--endo", "Z"],
    "mt_check_6_4_III.json": ["mt-check", "--g", "6", "--s", "4", "--endo", "III"],
    "mt_check_32_16_II.json": ["mt-check", "--g", "32", "--s", "16", "--endo", "II"],
    "mt_check_10_2_III.json": ["mt-check", "--g", "10", "--s", "2", "--endo", "III"],
    "mt_check_126_70_Z.csv": ["mt-check", "--g", "126", "--s", "70", "--endo", "Z",
                              "--format", "csv"],
    "mt_check_126_70_Z.md": ["mt-check", "--g", "126", "--s", "70", "--endo", "Z",
                             "--format", "markdown"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_stdout_matches_golden_file(capsys, golden):
    code, out, _ = invoke(capsys, *GOLDEN_RUNS[golden])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_golden_directory_holds_only_the_files_the_tests_read():
    # GOLDEN_RUNS, the half-spin product survey (test_oracle) and the
    # exceptional density (test_decision): a renamed or regenerated golden
    # leaves no orphan behind
    read = {*GOLDEN_RUNS, "halfspin_product_survey_8.txt", "exceptional_density_5000.txt"}
    assert {p.name for p in GOLDEN.iterdir()} == read


def test_one_parser_serves_every_call(capsys):
    # each parser is built once per process: no call may leave state for the next
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser("classify") is cli._build_parser("classify")
    code, out, _ = invoke(capsys, "classify", "--two-g", "20", "--format", "csv")
    assert code == 0 and out.encode("utf-8") == (GOLDEN / "classify_20.csv").read_bytes()
    code, _, err = invoke(capsys, "classify", "--two-g")
    assert code == 1 and err.startswith("usage error: argument --two-g")
    code, out, _ = invoke(capsys, "classify", "--help")
    assert code == 0 and "--two-g" in out
    code, out, _ = invoke(capsys, "classify", "--two-g", "252")
    assert code == 0 and out.encode("utf-8") == (GOLDEN / "classify_252.json").read_bytes()


@pytest.mark.parametrize("argv,code,expected", [
    # 2^40: the C_{2^39} row is a closed form; B40 and D41 are within budget,
    # but the B40 spin is orthogonal and the D41 half-spins are not self-dual
    (["classify", "--two-g", "1099511627776", "--format", "csv"], 0,
     "1099511627776,C,549755813888,w1,Std,549755813888"),
    # the 2^40-dimensional spin module needs no orbit
    (["minuscule", "--type", "B", "--rank", "40", "--format", "csv"], 0,
     "B,40,w40,Spin,1099511627776,1,274877906944,549755813888,True"),
    # A1 to E7 up to rank 38 have 66291 positive roots in all
    (["table", "--max-rank", "38"], 2, "more than the root budget of 65536 roots"),
    # C500000 needs no root datum
    (["classify", "--two-g", "1000000", "--format", "csv"], 0, "1000000,C,500000,w1,Std,500000"),
    # the spin rank log2(two_g) = 257 is past the root budget, which classify
    # does not check: B257 spin and the D258 half-spins are symplectic
    (["classify", "--two-g", str(2**257), "--format", "csv"], 0,
     [f"{2**257},B,257,w257,Spin,257", f"{2**257},C,{2**256},w1,Std,{2**256}",
      f"{2**257},D,258,w257,Spin-,258", f"{2**257},D,258,w258,Spin+,258"]),
    # the middle exterior power of A1997 (1995003 positive roots)
    (["classify", "--two-g", str(comb(1998, 999)), "--format", "csv"], 0,
     [f"{comb(1998, 999)},A,1997,w999,Λ^999 Std,999",
      f"{comb(1998, 999)},C,{comb(1998, 999) // 2},w1,Std,{comb(1998, 999) // 2}"]),
    (["oracle", "drop", "--type", "D", "--rank", "14", "--weight", "spin+", "--roots", "e1-e2"],
     2, "more than the matrix budget of 4096 weights"),
], ids=["classify", "minuscule", "table", "classify_root_datum", "classify_spin_rank",
        "classify_middle_power", "oracle_drop"])
def test_orbit_over_budget_exit_2(capsys, argv, code, expected):
    got, out, err = invoke(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert expected in err
    else:
        assert out.splitlines()[1:] == ([expected] if isinstance(expected, str) else expected)


def test_tensor_lemma_over_budget_exit_2(capsys):
    code, out, err = invoke(capsys, "oracle", "tensor-lemma", "--k1", "2", "--k2", "2",
                            "--trials", "1", "--seed", "1", "--dims", "1000000,2")
    assert (code, out) == (2, "")
    assert "1 trials at degrees (2, 2) on dims (1000000, 2) are over the run budget" in err


def test_tensor_lemma_over_trial_budget_exit_2(capsys):
    code, out, err = invoke(capsys, "oracle", "tensor-lemma", "--k1", "2", "--k2", "2",
                            "--trials", "1000000000", "--seed", "1")
    assert (code, out) == (2, "")
    assert "1000000000 trials at degrees (2, 2) on dims (6, 6) are over the run budget" in err


def test_table_over_root_budget_builds_no_root_datum(capsys, monkeypatch):
    def no_datum(t):
        raise AssertionError(f"built the root datum of {t}")

    monkeypatch.setattr(minuscule, "build_root_datum", no_datum)
    code, out, err = invoke(capsys, "table", "--max-rank", "38")
    assert (code, out) == (2, "")
    assert "up to rank 38 have 66291 positive roots" in err


@pytest.fixture
def datum_builds(monkeypatch):
    """The types build_root_datum is called for, through every mtkit module that holds it."""
    built = []
    build = roots.build_root_datum

    def recorder(t):
        built.append(t)
        return build(t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mtkit" and getattr(module, "build_root_datum", None) is build:
            monkeypatch.setattr(module, "build_root_datum", recorder)
    return built


def test_row_commands_build_no_root_datum(capsys, datum_builds):
    for argv in (["table", "--max-rank", "14"], ["minuscule", "--type", "D", "--rank", "9"],
                 ["drops", "--type", "B", "--rank", "8", "--weight", "spin"],
                 ["classify", "--two-g", "256"], ["minuscule", "--type", "E7"]):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out, argv
    assert datum_builds == []


def test_oracle_drop_builds_no_root_datum(capsys, datum_builds):
    # the roots are placed from their mnemonics; C256 has 2^16 positive roots
    for rank, roots_, dim in [("17", "e1-e2,2e17", 34), ("256", "e1-e2", 512)]:
        code, out, _ = invoke(capsys, "oracle", "drop", "--type", "C", "--rank", rank,
                              "--weight", "std", "--roots", roots_)
        assert code == 0 and json.loads(out)["report"]["dim"] == dim
    # the refusals of a spec need no datum either
    for roots_ in ("e2-e1", "e1-e1", "e1-e2,e1-e2"):
        assert invoke(capsys, "oracle", "drop", "--type", "C", "--rank", "3",
                      "--weight", "std", "--roots", roots_)[0] in (1, 2)
    assert datum_builds == []


def test_minuscule_a361_middle_rows_are_closed_forms(capsys):
    # A361 (65341 positive roots) is the largest A within the root budget
    code, out, _ = invoke(capsys, "minuscule", "--type", "A", "--rank", "361", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 361
    row = rows[179]
    assert (row["weight"], row["name"]) == ("w180", "Λ^180 Std")
    assert int(row["dimension"]) == comb(362, 180)
    assert int(row["drops_long"]) == comb(360, 179)
    assert row["sign"] == "0"


@pytest.fixture
def default_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    yield
    sys.set_int_max_str_digits(limit)


def _status_and_target(out: str, fmt: str) -> tuple[str, str]:
    """The status and target group of one mt-check verdict, in any format."""
    if fmt == "markdown":
        header, _, cells = (line[2:-2].split(" | ") for line in out.splitlines()[:3])
        row = dict(zip(header, cells))
    else:
        row = json.loads(out) if fmt == "json" else next(csv.DictReader(io.StringIO(out)))
    return row["status"], row["target_group"] or ""


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize("endo, s", [("Z", "2"), ("Z", "0"), ("II", "2"), ("II", "0"),
                                     ("III", "2"), ("III", "0")],
                         ids=["2", "0", "II-2", "II-0", "III-2", "III-0"])
def test_mt_check_refuses_g_whose_double_has_too_many_digits(capsys, default_int_digits, fmt,
                                                             endo, s):
    # a Z verdict prints 2g (GSp_2g, Pink's reason), a II or III verdict prints g:
    # 2g = 99...98 has 4300 digits at the largest g that Z answers, and at the next
    # one, 5*10^4299, the engine refuses Z by name and still answers II and III
    top = 5 * 10**4299 - 1
    edge = ["mt-check", "--g", str(top + 1), "--s", s, "--endo", endo, "--format", fmt]
    if endo != "Z":
        code, out, err = invoke(capsys, *edge)
        assert (code, err) == (0, "")
        group = "GSp" if endo == "II" else "GSO"
        assert _status_and_target(out, fmt) == (
            ("ProvedByTheorem41", f"{group}_{top + 1}") if s == "2" else ("NotCovered", ""))
        return
    code, out, err = invoke(capsys, "mt-check", "--g", str(top), "--s", s, "--endo", "Z",
                            "--format", fmt)
    assert (code, err) == (0, "")
    assert _status_and_target(out, fmt) == ("ProvedByPink", f"GSp_{2 * top}")
    code, out, err = invoke(capsys, *edge)
    assert (code, out) == (2, "")
    assert err == (
        "error: g of 14284 bits is too large: its verdict would print a number of more than "
        "4300 digits, the most that Python converts to text (sys.get_int_max_str_digits())\n"
    )


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0


def test_oracle_non_prime_is_usage_error(capsys):
    for p in ("0", "1", "4"):
        for argv in (
            ("oracle", "tensor-lemma", "--k1", "2", "--k2", "2", "--trials", "2", "--seed", "1"),
            ("oracle", "drop", "--type", "C", "--rank", "2", "--weight", "std", "--roots", "e1-e2"),
        ):
            code, out, err = invoke(capsys, *argv, "--prime", p)
            assert code == 1
            assert out == ""
            assert err == f"usage error: argument --prime: prime must be a prime >= 2, got {p}\n"


LABELS = ("std", "spin", "spin+", "spin-", "wedge1", "wedge3", "w1", "w3")

# the index each label resolved to when the labels were an if-chain per family; None: exit 1
LABEL_INDICES = {
    ("A", 1): (1, None, None, None, 1, None, 1, None),
    ("A", 2): (1, None, None, None, 1, None, 1, None),
    ("A", 5): (1, None, None, None, 1, 3, 1, 3),
    ("B", 2): (None, 2, None, None, None, None, 1, None),
    ("B", 4): (None, 4, None, None, None, None, 1, 3),
    ("C", 2): (1, None, None, None, None, None, 1, None),
    ("C", 5): (1, None, None, None, None, None, 1, 3),
    ("D", 3): (1, None, 3, 2, None, None, 1, 3),
    ("D", 4): (1, None, 4, 3, None, None, 1, 3),
    ("D", 6): (1, None, 6, 5, None, None, 1, 3),
    ("E6", 6): (None, None, None, None, None, None, 1, 3),
    ("E7", 7): (None, None, None, None, None, None, 1, 3),
    ("F4", 4): (None, None, None, None, None, None, 1, 3),
    ("G2", 2): (None, None, None, None, None, None, 1, None),
}


@pytest.mark.parametrize("family,rank", sorted(LABEL_INDICES))
def test_weight_labels_resolve_as_before(capsys, family, rank):
    t = CartanType(family, rank)
    for label, want in zip(LABELS, LABEL_INDICES[family, rank]):
        for spelling in (label, f" {label.upper()} "):
            if want is not None:
                assert cli.resolve_weight_label(t, spelling) == want, (t, spelling)
                continue
            code, out, err = invoke(capsys, "drops", "--type", family, "--rank", str(rank),
                                    "--weight", spelling)
            assert (code, out) == (1, ""), (t, spelling)
            assert err.startswith("usage error: "), err


@pytest.mark.parametrize("family,rank,label,expected", [
    ("D", 6, "spin", "unknown weight label 'spin' for D6; expected one of std, spin-, spin+, w1..w6"),
    ("B", 3, "foo", "unknown weight label 'foo' for B3; expected one of spin, w1..w3"),
    ("E6", 6, "std", "unknown weight label 'std' for E6; expected one of w1..w6"),
    ("A", 2, "wedge", "expected one of std, w1..w2, wedge1..wedge2"),
    # the rep names of the exterior powers are not labels; wedgeJ names them
    ("A", 2, "Λ^2 Std", "unknown weight label 'Λ^2 Std' for A2"),
    # a superscript is a digit but not a decimal digit
    ("A", 5, "w²", "unknown weight label 'w²' for A5"),
    ("A", 5, "wedge9", "weight index 'wedge9' out of range 1..5 for A5"),
    ("C", 4, "w0", "weight index 'w0' out of range 1..4 for C4"),
    # more digits than int() reads
    pytest.param("C", 3, "w" + "9" * 4301, f"weight index 'w{'9' * 4301}' out of range 1..3 for C3",
                 id="C-3-w-4301-digits"),
    pytest.param("A", 3, "wedge" + "9" * 4301,
                 f"weight index 'wedge{'9' * 4301}' out of range 1..3 for A3", id="A-3-wedge-4301-digits"),
])
def test_refused_weight_label_lists_the_valid_ones(capsys, default_int_digits, family, rank, label,
                                                   expected):
    code, out, err = invoke(capsys, "drops", "--type", family, "--rank", str(rank),
                            "--weight", label)
    assert (code, out) == (1, "")
    assert expected in err


def test_label_lookup_does_not_walk_the_ranks(capsys, monkeypatch):
    names = []
    rep_name = cli._rep_name
    monkeypatch.setattr(cli, "_rep_name", lambda t, j: names.append(j) or rep_name(t, j))
    code, out, err = invoke(capsys, "drops", "--type", "A", "--rank", "1000000000",
                            "--weight", "std")
    assert (code, out) == (2, "")
    assert "A1000000000 has 500000000500000000 positive roots, more than the root budget" in err
    assert len(names) <= 3


def test_table_over_budget_builds_no_type_per_rank(capsys, monkeypatch):
    built = []
    post_init = CartanType.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CartanType, "__post_init__", counting)
    code, out, err = invoke(capsys, "table", "--max-rank", "1000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: the types up to rank 1000000000 have ")
    assert err.endswith(" positive roots in all, more than the root budget of 65536 roots\n")
    assert [str(t) for t in built] == ["E6", "E7"]


def test_table_root_count_is_the_sum_over_its_types(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROOT_BUDGET", -1)  # every bound is over budget and names its count
    for bound in range(1, 41):
        types = [CartanType(f, n) for f, lo in roots._MIN_RANK.items() for n in range(lo, bound + 1)]
        types += [CartanType(f, n) for f, n in (("E6", 6), ("E7", 7)) if n <= bound]
        want = sum(map(roots.positive_root_count, types))
        code, _, err = invoke(capsys, "table", "--max-rank", str(bound))
        assert code == 2 and f"up to rank {bound} have {want} positive roots" in err


def test_oracle_drop_strips_root_specs(capsys):
    argv = ["oracle", "drop", "--type", "D", "--rank", "5", "--weight", "spin+", "--roots"]
    _, spaced, _ = invoke(capsys, *argv, " e1-e2 , e3-e4 ")
    _, plain, _ = invoke(capsys, *argv, "e1-e2,e3-e4")
    assert spaced == plain and json.loads(spaced)["roots"] == ["e1-e2", "e3-e4"]
    _, out, _ = invoke(capsys, *argv, "e1-e2, e3-e4", "--format", "csv")
    assert out.encode("utf-8") == (GOLDEN / "oracle_drop_D5_spinplus.csv").read_bytes()


@pytest.mark.parametrize("empty,full", [
    (["minuscule", "--type", "G2", "--format", "csv"], ["minuscule", "--type", "E7", "--format", "csv"]),
    (["mt-exceptional", "--max-g", "5", "--endo", "II", "--format", "csv"],
     ["mt-exceptional", "--max-g", "300", "--endo", "II", "--format", "csv"]),
])
def test_empty_table_header_is_the_row_schema(capsys, empty, full):
    _, header, _ = invoke(capsys, *empty)
    _, out, _ = invoke(capsys, *full)
    assert len(header.splitlines()) == 1 < len(out.splitlines())
    assert header.splitlines() == out.splitlines()[:1]


def markdown_cells(line: str) -> list[str]:
    """The cells of a markdown table line, split at the pipes that are not escaped."""
    return re.split(r" (?<!\\)\| ", line[2:-2])


def test_markdown_cells_escape_the_pipe(capsys, monkeypatch):
    _, out, _ = invoke(capsys, *GOLDEN_RUNS["oracle_drop_D5_w5.md"])
    header, _, row = out.splitlines()
    assert len(markdown_cells(row)) == len(markdown_cells(header)) == 10
    assert markdown_cells(row)[4] == "e1-e2\\|e3-e4"
    # a tensor-lemma run that sees two degrees joins their counts with a |
    report = TensorLemmaReport(
        k1=2, k2=2, dims=(6, 6), trials=3, seed=1, prime=2, expected_degree=3,
        degree_counts={2: 2, 3: 1},
        char_deviations=[{"trial": t, "degree": 2, "expected": 3} for t in (0, 2)])
    monkeypatch.setattr(cli, "verify_tensor_lemma", lambda **kwargs: report)
    argv = ["oracle", "tensor-lemma", "--k1", "2", "--k2", "2", "--trials", "3", "--seed", "1",
            "--prime", "2", "--format"]
    _, out, _ = invoke(capsys, *argv, "markdown")
    header, _, row = out.splitlines()
    cells = dict(zip(markdown_cells(header), markdown_cells(row), strict=True))
    assert (cells["degree_counts"], cells["char_deviations"]) == ("2x2\\|3x1", "2")
    _, out, _ = invoke(capsys, *argv, "csv")
    assert next(csv.DictReader(io.StringIO(out)))["degree_counts"] == "2x2|3x1"


def dumps(o) -> str:
    return json.dumps(o, sort_keys=True, indent=2, ensure_ascii=False)


# ints of 4300 digits, the limit of str(int) that json and the writer both
# hit, and of 4301; built lazily, as a strategy's repr would print them
limit_ints = st.builds(lambda digits, sign: sign * (10**digits - 1), st.sampled_from([4300, 4301]),
                       st.sampled_from([1, -1]))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), limit_ints, st.floats(),
    st.text(), st.text(st.characters(max_codepoint=0x1F)), st.text(st.characters(min_codepoint=0x80)),
    st.sampled_from([*EndoType, *Status]),
)
keys = st.one_of(st.text(), st.sampled_from([*EndoType, *Status]))
documents = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(keys, inner),
    st.dictionaries(st.one_of(keys, st.integers(), st.floats(allow_nan=False)), inner, max_size=3),
), max_leaves=20)


def outcome(write, o):
    try:
        return write(o)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(documents)
def test_json_writer_is_json_dumps(document):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert outcome(cli._json, document) == outcome(dumps, document)
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_writer_edge_cases():
    for document in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {"": None}],
                     {"k": True, "j": False, "i": 1, "h": None, "g": "\x00\x1f\"\\\u2028Λ"},
                     {EndoType("II"): EndoType("III"), "Z": Status.PROVED_BY_PINK},
                     {"x": 1.5, "y": [float("nan")]}, {"n": {1: 2, 3: [4]}}, {1: "a", "b": 2}):
        assert outcome(cli._json, document) == outcome(dumps, document), document
    # json.dumps's own error on an int it cannot print
    too_long = {"g": [10**4300]}
    assert outcome(cli._json, too_long)[0] is outcome(dumps, too_long)[0] is ValueError


def parse(parser, argv, capsys):
    """What a parser does with argv: the usage error, the exit code, or the parsed
    namespace less its handler; and what it printed."""
    try:
        result = vars(parser.parse_args(argv))
        result.pop("func")
    except cli.UsageError as exc:
        result = f"usage error: {exc}"
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["table", "--help"], ["table", "--max-rank", "x"], ["table", "--format", "xml"],
    ["table", "--max-rank", "3", "classify"],
    ["minuscule", "--help"], ["minuscule", "--type", "A", "--rank", "x"], ["minuscule"],
    ["drops", "--help"], ["drops", "--type", "B", "--rank", "x", "--weight", "spin"],
    ["classify", "--help"], ["classify", "--two-g", "x"], ["classify", "--two-g"],
    ["mt-check", "--help"], ["mt-check", "--g", "x", "--s", "1", "--endo", "Z"],
    ["mt-exceptional", "--help"], ["mt-exceptional", "--max-g", "x", "--endo", "Z"],
    ["oracle", "--help"], ["oracle", "bogus"], ["oracle"],
    ["oracle", "tensor-lemma", "--help"],
    ["oracle", "tensor-lemma", "--k1", "x", "--k2", "2", "--trials", "1", "--seed", "1"],
    ["oracle", "tensor-lemma", "--k1", "2", "--k2", "2", "--trials", "1", "--seed", "1",
     "--prime", "4"],
    ["oracle", "drop", "--help"],
    ["oracle", "drop", "--type", "C", "--weight", "std", "--roots", "e1-e2", "--prime", "x"],
    ["oracle", "drop", "--type", "C", "--rank", "3", "--weight", "std", "--roots", "e1-e2",
     "--prime"],
])
def test_one_command_parser_reads_as_the_full_parser(capsys, argv):
    full = parse(cli._build_parser(), argv, capsys)
    assert parse(cli._build_parser(argv[0]), argv, capsys) == full
    assert full[1] or "--help" not in argv


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["nonsense"], ["--format", "json"],
                                  ["Table", "--help"]])
def test_top_level_runs_read_the_full_parser(capsys, argv):
    result, out = parse(cli._build_parser(), argv, capsys)
    code, run_out, err = invoke(capsys, *argv)
    if argv and argv[0] in ("--help", "-h"):
        assert (code, run_out, err) == (0, out, "") and "oracle" in out
    else:
        assert (code, run_out, err) == (1, "", f"{result}\n")


def test_a_cold_run_builds_the_parser_of_its_command_alone(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # no cache
    code, out, _ = invoke(capsys, "table", "--max-rank", "12")
    assert code == 0 and out.encode("utf-8") == (GOLDEN / "table_max_rank_12.json").read_bytes()
    assert len(built) == 2  # mtkit and mtkit table
    built.clear()
    invoke(capsys, "oracle", "drop", "--help")
    assert len(built) == 4  # mtkit, mtkit oracle and its two subcommands
    built.clear()
    invoke(capsys, "--help")
    assert len(built) == 10


def entry_point(*argv) -> subprocess.CompletedProcess:
    """`python -m mtkit.cli` with these arguments, in a fresh interpreter, stdout as UTF-8 bytes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, "-m", "mtkit.cli", *argv], env=env, capture_output=True)


def test_entry_point_prints_the_golden_table():
    done = entry_point("table", "--max-rank", "12")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "table_max_rank_12.json").read_bytes()


def test_entry_point_help_lists_every_command():
    done = entry_point("--help")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"usage: mtkit [-h]")
    for name, (summary, *_) in cli._COMMANDS.items():
        assert re.search(rf"\n    {name} +{re.escape(summary)}\n", done.stdout.decode()), name


def test_entry_point_refuses_an_unknown_command():
    done = entry_point("nonsense", "--max-rank", "12")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (
        b"usage error: argument command: invalid choice: 'nonsense' (choose from 'table', "
        b"'minuscule', 'drops', 'classify', 'mt-check', 'mt-exceptional', 'oracle')\n"
    )


# One valid run of each subcommand; the generated test below replaces one flag's
# value at a time by a stand-in: empty, signed and edge ints, a float, a word, an
# int past int()'s digit limit, and the valid value of each other flag
VALID_RUNS = [
    ["table", "--max-rank", "4", "--format", "csv"],
    ["minuscule", "--type", "D", "--rank", "5", "--format", "csv"],
    ["drops", "--type", "B", "--rank", "4", "--weight", "spin", "--format", "csv"],
    ["classify", "--two-g", "20", "--format", "csv"],
    ["mt-check", "--g", "10", "--s", "2", "--endo", "Z", "--format", "csv"],
    ["mt-exceptional", "--max-g", "100", "--endo", "II", "--format", "csv"],
    ["oracle", "tensor-lemma", "--k1", "2", "--k2", "2", "--trials", "2", "--seed", "1",
     "--dims", "3,3", "--prime", "3", "--format", "csv"],
    ["oracle", "drop", "--type", "C", "--rank", "3", "--weight", "std", "--roots", "e1-e2",
     "--prime", "2", "--format", "csv"],
]
FLAG_STAND_INS = ["", "-1", "0", "2", "1.5", "abc", "9" * 5000]
EXTRA_STAND_INS = {"--roots": ["e1-e1", "e2-e1", "3", "e1-e2,e1-e2", "e1,e2", "e1-e2,e1+e2"],
                   "--type": ["E6"]}


def _flag_stand_in_runs():
    for argv in VALID_RUNS:
        values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
        for i in values:
            others = [argv[k] for k in values if argv[k] != argv[i]]
            for value in FLAG_STAND_INS + others + EXTRA_STAND_INS.get(argv[i - 1], []):
                yield argv[:i] + [value] + argv[i + 1:]


def test_every_flag_stand_in_is_answered_or_refused_promptly(capsys, default_int_digits):
    # in-process, each run under a two-second alarm: it exits 0, 1 or 2, no
    # exception escapes run, and a nonzero exit says why on stderr
    import signal

    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")

    class Slow(Exception):
        pass

    def interrupt(*_):
        raise Slow

    for argv in VALID_RUNS:
        assert invoke(capsys, *argv)[0] == 0, argv
    bad, runs, previous = [], 0, signal.signal(signal.SIGALRM, interrupt)
    try:
        for argv in _flag_stand_in_runs():
            runs += 1
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                code, out, err = invoke(capsys, *argv)
            except Exception as exc:  # a Slow too
                bad.append(f"{argv}: {type(exc).__name__}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            lines = err.splitlines()
            if code not in (0, 1, 2) or code and not (
                    out == "" and lines and lines[-1].startswith(("error: ", "usage error: "))):
                bad.append(f"{argv}: exit {code}, {err[-200:]!r}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (runs, bad) == (332, [])
