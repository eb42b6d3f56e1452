"""The frozen records of the decision engine: construction, equality, repr, immutability."""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, dataclass, field

import pytest

from mtkit import (
    EndoType,
    ExceptionalInstance,
    MtQuery,
    MtVerdict,
    PinkResult,
    Status,
    Witness,
)
from mtkit.decision import DISCREPANCY_NOTE, _dict_init

Z = EndoType.TRIVIAL_Z
W = Witness(1, 5, 126, 70)

# (a record built positionally, the same record built by keyword, its repr)
RECORDS = [
    (MtQuery(10, 6, Z), MtQuery(g=10, s=6, endo=Z),
     "MtQuery(g=10, s=6, endo=<EndoType.TRIVIAL_Z: 'Z'>)"),
    (MtQuery(10, 6, "Z"), MtQuery(endo="Z", s=6, g=10),
     "MtQuery(g=10, s=6, endo='Z')"),
    (W, Witness(family=1, parameter=5, g=126, s=70),
     "Witness(family=1, parameter=5, g=126, s=70)"),
    (MtVerdict(Status.EXCEPTIONAL_CASE, None, W, "e", ("c",), (DISCREPANCY_NOTE,)),
     MtVerdict(status=Status.EXCEPTIONAL_CASE, target_group=None, witness=W,
               explanation="e", citations=("c",), notes=(DISCREPANCY_NOTE,)),
     "MtVerdict(status=<Status.EXCEPTIONAL_CASE: 'ExceptionalCase'>, target_group=None, "
     "witness=Witness(family=1, parameter=5, g=126, s=70), explanation='e', "
     f"citations=('c',), notes=({DISCREPANCY_NOTE!r},))"),
    (MtVerdict(Status.PROVED_BY_PINK, "GSp_10", None, "p", ("c",)),
     MtVerdict(citations=("c",), explanation="p", witness=None, target_group="GSp_10",
               status=Status.PROVED_BY_PINK, notes=()),
     "MtVerdict(status=<Status.PROVED_BY_PINK: 'ProvedByPink'>, target_group='GSp_10', "
     "witness=None, explanation='p', citations=('c',), notes=())"),
    (PinkResult(True), PinkResult(proves=True, reason=None),
     "PinkResult(proves=True, reason=None)"),
    (PinkResult(False, "2g = 8 = 2^3"), PinkResult(reason="2g = 8 = 2^3", proves=False),
     "PinkResult(proves=False, reason='2g = 8 = 2^3')"),
    (ExceptionalInstance(10, 6, 1, 3), ExceptionalInstance(g=10, s=6, family=1, parameter=3, notes=()),
     "ExceptionalInstance(g=10, s=6, family=1, parameter=3, notes=())"),
    (ExceptionalInstance(126, 70, 1, 5, ("n",)),
     ExceptionalInstance(g=126, s=70, family=1, parameter=5, notes=("n",)),
     "ExceptionalInstance(g=126, s=70, family=1, parameter=5, notes=('n',))"),
]
IDS = [r[2].split("(")[0] + str(i) for i, r in enumerate(RECORDS)]


@pytest.mark.parametrize("rec, by_keyword, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(rec, by_keyword, text):
    assert rec == by_keyword and hash(rec) == hash(by_keyword)
    assert rec.__dict__ == by_keyword.__dict__
    assert repr(rec) == repr(by_keyword) == text


@pytest.mark.parametrize("rec, by_keyword, text", RECORDS, ids=IDS)
def test_records_refuse_set_and_delete(rec, by_keyword, text):
    name = next(iter(rec.__dict__))
    with pytest.raises(FrozenInstanceError):
        setattr(rec, name, 0)
    with pytest.raises(FrozenInstanceError):
        delattr(rec, name)
    with pytest.raises(FrozenInstanceError):
        rec.extra = 0
    assert repr(rec) == text


@pytest.mark.parametrize("rec, by_keyword, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(rec, by_keyword, text):
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec)
        assert twin == rec and hash(twin) == hash(rec) and repr(twin) == text


def test_defaults_and_inequality():
    assert MtVerdict(Status.NOT_COVERED, None, None, "x", ()).notes == ()
    assert PinkResult(False).reason is None
    assert ExceptionalInstance(10, 6, 1, 3).notes == ()
    assert MtQuery(10, 6, Z) != MtQuery(10, 4, Z)
    assert Witness(1, 5, 126, 70) != Witness(2, 5, 126, 70)
    assert PinkResult(True) != PinkResult(False)
    assert MtQuery(10, 6, Z) != (10, 6, Z)  # a record, not a tuple
    with pytest.raises(TypeError):
        MtQuery(10, 6)
    with pytest.raises(TypeError):
        PinkResult(True, None, None)
    with pytest.raises(TypeError):
        Witness(1, 5, 126, 70, t=1)


def test_exceptional_instance_notes_are_ignored_by_equality():
    a = ExceptionalInstance(126, 70, 1, 5, (DISCREPANCY_NOTE,))
    b = ExceptionalInstance(126, 70, 1, 5)
    assert a == b and hash(a) == hash(b)
    assert a.notes != b.notes


def test_dict_init_refuses_what_its_init_would_skip():
    @dataclass(frozen=True)
    class Checked:
        g: int

        def __post_init__(self):
            raise ValueError

    @dataclass(frozen=True)
    class Factory:
        notes: list = field(default_factory=list)

    @dataclass(frozen=True)
    class Derived:
        g: int
        twice: int = field(default=0, init=False)

    @dataclass(frozen=True, kw_only=True)
    class KeywordOnly:
        g: int

    for cls in (Checked, Factory, Derived, KeywordOnly):
        with pytest.raises(TypeError, match=f"{cls.__name__} needs the __init__"):
            _dict_init(cls)


def test_dict_init_keeps_the_generated_signature_and_messages():
    @dataclass(frozen=True)
    class Plain:
        g: int
        note: str = "n"

    generated = Plain.__init__
    assert _dict_init(Plain) is Plain and Plain.__init__ is not generated
    assert str(inspect.signature(Plain)) == "(g: int, note: str = 'n') -> None"
    assert Plain(1) == Plain(g=1, note="n") and Plain(1, "m").__dict__ == {"g": 1, "note": "m"}
    with pytest.raises(TypeError, match=r"Plain.__init__\(\) missing 1 required positional"):
        Plain()
    with pytest.raises(FrozenInstanceError):
        Plain(1).g = 2
