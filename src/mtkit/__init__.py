"""mtkit: exact minuscule-representation combinatorics and a Mumford-Tate decision engine.

The library has five layers:

* roots      -- Cartan matrices, positive systems, coroots, Weyl orbits;
* minuscule  -- minuscule weight detection/enumeration, dimensions, duality signs;
* drops      -- drops of quadratic root elements, symplectic classification;
* oracle     -- exact representation matrices, unipotence degrees, tensor checks;
* decision   -- the (g, s, endomorphism-type) case engine.

All values are immutable after construction and every operation is a pure
function, so everything is safe to call concurrently.  All arithmetic is
exact (integers, fractions, or a prime field); there is no floating point
anywhere.
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
    ORBIT_BUDGET,
    MinusculeRep,
    duality_sign,
    enumerate_minuscule,
    expand_rep,
    is_minuscule,
    minuscule_rep,
)
from .oracle import (
    DEFAULT_PRIME,
    MATRIX_BUDGET,
    ExactMatrix,
    TensorLemmaReport,
    UnipotenceReport,
    build_root_element,
    nilpotency_degree,
    random_unipotent,
    tensor,
    unipotence,
    verify_tensor_lemma,
)
from .roots import (
    ROOT_BUDGET,
    CartanType,
    RootDatum,
    Weight,
    build_root_datum,
    dual_weight,
    find_positive_root,
    pairing,
    reflect_in_root,
    simple_reflection,
    weyl_dimension,
    weyl_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "CartanType", "RootDatum", "Weight", "build_root_datum", "ROOT_BUDGET", "pairing",
    "simple_reflection", "reflect_in_root", "weyl_orbit", "weyl_dimension",
    "dual_weight", "find_positive_root",
    "MinusculeRep", "is_minuscule", "enumerate_minuscule", "minuscule_rep",
    "expand_rep", "duality_sign", "DEFAULT_RANK_BOUND",
    "ORBIT_BUDGET",
    "DropReport", "Candidate", "CandidateList", "root_element_drop",
    "drop_spectrum", "classify_symplectic_minuscule",
    "ExactMatrix", "UnipotenceReport", "TensorLemmaReport", "build_root_element",
    "unipotence", "nilpotency_degree", "tensor", "verify_tensor_lemma",
    "random_unipotent", "DEFAULT_PRIME", "MATRIX_BUDGET",
    "EndoType", "Status", "MtQuery", "MtVerdict", "Witness", "PinkResult",
    "ExceptionalInstance", "pink_gate", "mt_check", "enumerate_exceptional",
    "DomainError", "InvalidCartanType", "PreconditionError", "NoSuchLengthClass",
    "NotUnipotent", "FieldMismatch", "QueryInvalid",
]
