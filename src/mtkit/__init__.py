"""mtkit: exact minuscule-representation combinatorics and a Mumford-Tate decision engine.

The library has five layers:

* roots      -- Cartan types, classical positive roots in closed form, epsilon vectors;
* minuscule  -- the minuscule table: closed-form dimensions, duality signs, weights;
* drops      -- drops of quadratic root elements, symplectic classification;
* oracle     -- exact representation matrices, unipotence degrees, tensor checks;
* decision   -- the (g, s, endomorphism-type) case engine.

All values are immutable after construction and every operation is a pure
function, so everything is safe to call concurrently.  All arithmetic is
exact (integers, read over Q or reduced mod a prime); there is no floating
point anywhere.
"""

from .decision import (
    EndoType,
    ExceptionalInstance,
    MtQuery,
    MtVerdict,
    PinkResult,
    Status,
    Witness,
    enumerate_exceptional,
    mt_check,
    pink_gate,
)
from .drops import (
    Candidate,
    CandidateList,
    DropReport,
    classify_symplectic_minuscule,
    drop_spectrum,
    root_element_drop,
)
from .errors import (
    DomainError,
    FieldMismatch,
    InvalidCartanType,
    NoSuchLengthClass,
    NotUnipotent,
    PreconditionError,
    QueryInvalid,
)
from .minuscule import (
    DEFAULT_RANK_BOUND,
    MATRIX_BUDGET,
    MinusculeRep,
    enumerate_minuscule,
    minuscule_rep,
)
from .oracle import (
    DEFAULT_PRIME,
    RUN_BUDGET,
    ExactMatrix,
    TensorLemmaReport,
    UnipotenceReport,
    build_root_element,
    nilpotency_degree,
    random_unipotent,
    unipotence,
    verify_tensor_lemma,
)
from .roots import (
    ROOT_BUDGET,
    CartanType,
    RootDatum,
    build_root_datum,
)

__version__ = "0.1.0"

__all__ = [
    "CartanType", "RootDatum", "build_root_datum", "ROOT_BUDGET",
    "MinusculeRep", "enumerate_minuscule", "minuscule_rep", "DEFAULT_RANK_BOUND",
    "DropReport", "Candidate", "CandidateList", "root_element_drop",
    "drop_spectrum", "classify_symplectic_minuscule",
    "ExactMatrix", "UnipotenceReport", "TensorLemmaReport", "build_root_element",
    "unipotence", "nilpotency_degree", "verify_tensor_lemma",
    "random_unipotent", "DEFAULT_PRIME", "MATRIX_BUDGET", "RUN_BUDGET",
    "EndoType", "Status", "MtQuery", "MtVerdict", "Witness", "PinkResult",
    "ExceptionalInstance", "pink_gate", "mt_check", "enumerate_exceptional",
    "DomainError", "InvalidCartanType", "PreconditionError", "NoSuchLengthClass",
    "NotUnipotent", "FieldMismatch", "QueryInvalid",
]
