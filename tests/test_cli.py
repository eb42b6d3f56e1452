"""CLI grammar, exit codes, output formats, round-trips, reproducibility."""

import csv
import io
import json
import sys
from math import comb
from pathlib import Path

import pytest

from conftest import (
    exceptional_instance_from_dict,
    query_from_dict,
    tensor_report_from_dict,
    verdict_from_dict,
)
from mtkit import CartanType, EndoType, cli, enumerate_exceptional, minuscule, roots
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
    assert payload["exploratory"] is False


def test_oracle_drop_product_flagged_exploratory(capsys):
    code, out, _ = invoke(
        capsys, "oracle", "drop", "--type", "D", "--rank", "6",
        "--weight", "spin+", "--roots", "e1-e2,e3-e4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exploratory"] is True
    assert "exploratory" in payload["note"]


def test_oracle_drop_malformed_roots_exit_1(capsys):
    code, _, err = invoke(
        capsys, "oracle", "drop", "--type", "A", "--rank", "3",
        "--weight", "std", "--roots", "e9-e1",
    )
    assert code == 1


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
    assert err == "error: root (1, 0, 0, 0) is repeated; the roots must be distinct\n"


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
    # B5 spin has a short class
    "drops_B5_spin.json": ["drops", "--type", "B", "--rank", "5", "--weight", "spin"],
    "drops_C4_std.csv": ["drops", "--type", "C", "--rank", "4", "--weight", "std",
                         "--format", "csv"],
    "classify_252.json": ["classify", "--two-g", "252"],
    "classify_20.csv": ["classify", "--two-g", "20", "--format", "csv"],
    # g = 1716 is on family 1: A13 w7 beside the C1716 row, which needs no C1716 datum
    "classify_3432.csv": ["classify", "--two-g", "3432", "--format", "csv"],
    # the matrix basis of a root element follows the sort order of the orbit
    "oracle_drop_D5_spinplus.json": ["oracle", "drop", "--type", "D", "--rank", "5",
                                     "--weight", "spin+", "--roots", "e1-e2,e3-e4"],
    # the shared-line product
    "oracle_drop_D5_spinplus_shared.json": ["oracle", "drop", "--type", "D", "--rank", "5",
                                            "--weight", "spin+", "--roots", "e1-e2,e1+e2"],
    "oracle_drop_A5_w3_p3.json": ["oracle", "drop", "--type", "A", "--rank", "5",
                                  "--weight", "w3", "--roots", "e1-e6", "--prime", "3"],
    "oracle_drop_C3_std.csv": ["oracle", "drop", "--type", "C", "--rank", "3",
                               "--weight", "std", "--roots", "2e1", "--format", "csv"],
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


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: no call may leave state for the next
    assert cli._build_parser() is cli._build_parser()
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
    # the spin rank log2(two_g) = 257 is over the budget
    (["classify", "--two-g", str(2**257)], 2,
     "B257 has 66049 positive roots, more than the root budget of 65536 roots"),
    # the middle exterior power of A1997
    (["classify", "--two-g", str(comb(1998, 999))], 2,
     "A1997 has 1995003 positive roots, more than the root budget of 65536 roots"),
    (["oracle", "drop", "--type", "D", "--rank", "14", "--weight", "spin+", "--roots", "e1-e2"],
     2, "more than the matrix budget of 4096 rows"),
], ids=["classify", "minuscule", "table", "classify_root_datum", "classify_spin_rank",
        "classify_middle_power", "oracle_drop"])
def test_orbit_over_budget_exit_2(capsys, argv, code, expected):
    got, out, err = invoke(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert expected in err
    else:
        assert out.splitlines()[1:] == [expected]


def test_tensor_lemma_over_budget_exit_2(capsys):
    code, out, err = invoke(capsys, "oracle", "tensor-lemma", "--k1", "2", "--k2", "2",
                            "--trials", "1", "--seed", "1", "--dims", "1000000,2")
    assert (code, out) == (2, "")
    assert "dimension 2000000, more than the tensor budget of 128" in err


def test_tensor_lemma_over_trial_budget_exit_2(capsys):
    code, out, err = invoke(capsys, "oracle", "tensor-lemma", "--k1", "2", "--k2", "2",
                            "--trials", "1000000000", "--seed", "1")
    assert (code, out) == (2, "")
    assert "1000000000 trials are more than the trial budget of 10000" in err


def test_table_over_root_budget_builds_no_root_datum(capsys, monkeypatch):
    def no_datum(t):
        raise AssertionError(f"built the root datum of {t}")

    monkeypatch.setattr(minuscule, "build_root_datum", no_datum)
    code, out, err = invoke(capsys, "table", "--max-rank", "38")
    assert (code, out) == (2, "")
    assert "up to rank 38 have 66291 positive roots" in err


def test_row_commands_build_no_root_datum(capsys, monkeypatch):
    built = []
    build = roots.build_root_datum

    def recorder(t):
        built.append(t)
        return build(t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mtkit" and getattr(module, "build_root_datum", None) is build:
            monkeypatch.setattr(module, "build_root_datum", recorder)
    for argv in (["table", "--max-rank", "14"], ["minuscule", "--type", "D", "--rank", "9"],
                 ["drops", "--type", "B", "--rank", "8", "--weight", "spin"],
                 ["classify", "--two-g", "256"], ["minuscule", "--type", "E7"]):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out, argv
    assert built == []


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
