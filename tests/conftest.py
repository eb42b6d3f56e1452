from hypothesis import HealthCheck, settings

from mtkit import EndoType, ExceptionalInstance, MtQuery, MtVerdict, Status, Witness

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
