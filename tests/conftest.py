from hypothesis import HealthCheck, settings

from mtkit import (
    EndoType,
    ExceptionalInstance,
    MtQuery,
    MtVerdict,
    Status,
    TensorLemmaReport,
    Witness,
)

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# Readers of the JSON that the to_dict methods (and the CLI) write: the
# library itself never reads its records back, so these live with the tests.
def query_from_dict(d: dict) -> MtQuery:
    return MtQuery(d["g"], d["s"], EndoType(d["endo"]))


def witness_from_dict(d: dict) -> Witness:
    return Witness(d["family"], d["r_or_t"], d["g"], d["s"])


def verdict_from_dict(d: dict) -> MtVerdict:
    return MtVerdict(
        Status(d["status"]),
        d.get("target_group"),
        witness_from_dict(d["witness"]) if d.get("witness") else None,
        d.get("explanation", ""),
        tuple(d.get("citations", ())),
        tuple(d.get("notes", ())),
    )


def exceptional_instance_from_dict(d: dict) -> ExceptionalInstance:
    return ExceptionalInstance(d["g"], d["s"], d["family"], d["r_or_t"],
                               tuple(d.get("notes", ())))


def tensor_report_from_dict(d: dict) -> TensorLemmaReport:
    return TensorLemmaReport(
        k1=d["k1"],
        k2=d["k2"],
        dims=tuple(d["dims"]),
        trials=d["trials"],
        seed=d["seed"],
        prime=d.get("prime"),
        expected_degree=d["expected_degree"],
        degree_counts={int(k): v for k, v in d["degree_counts"].items()},
        failures=d["failures"],
        char_deviations=d["char_deviations"],
        corollary_violations=d["corollary_violations"],
    )
