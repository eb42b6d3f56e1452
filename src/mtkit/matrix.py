"""Exact square integer matrices over Q or F_p, and the packed kernel of dense powers."""

from __future__ import annotations

import struct
from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import mul

from .errors import FieldMismatch, PreconditionError, printable
from .minuscule import MATRIX_BUDGET

# Miller-Rabin with the first thirteen prime bases is exact below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# --- the packed kernel: Kronecker substitution ---------------------------------
# A row x of n integers packs into the one int sum_c x_c 2^(w c), with signed
# slots of w = 8 * size bits.  size comes from an a-priori bound on |x_c|
# (n max|A| max|B| for a product row), so |x_c| < 2^(w-1) and a packed row is
# 0 exactly when the row is.  Row i of A @ B packs to sum_k A_ik packed(B_k)
# over the nonzero A_ik: one big-int multiply-add per coefficient, for the
# dense loops of mtkit.oracle.  An ExactMatrix is its nonzero form: the dict
# {i: {c: x}} of its nonzero entries x in row i, column c, with a key for
# each nonzero row only; rows and columns are in no order.
_FMT = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_size(bound: int) -> int:
    """Bytes per signed slot holding every |x| <= bound: 1, 2, 4 or 8, or past
    8 bytes the fewest whole multiples of 8.  A slot that wide is packed and
    unpacked with to_bytes and from_bytes, which take any width, and a product
    costs in proportion to the width."""
    size = 1 << ((bound.bit_length() + 8) // 8 - 1).bit_length()
    return size if size <= 8 else (bound.bit_length() + 64) // 64 * 8


def _slots(n: int, size: int) -> struct.Struct | None:
    """The little-endian struct of n signed slots of size bytes; None past 8 bytes."""
    return struct.Struct(f"<{n}{_FMT[size]}") if size in _FMT else None


def _times(form, packed) -> list[int]:
    """Packed rows of A @ B, from the nonzero form of A and the packed rows of B."""
    out = [0] * len(packed)
    for i, row in form.items():
        out[i] = sum(map(mul, row.values(), map(packed.__getitem__, row)))
    return out


def _bias(n: int, size: int) -> int:
    # 2^(w-1) in each of n slots: adding it keeps the slots from borrowing
    # from each other, and xor-ing it away leaves each slot's two's complement
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _pack_rows(rows, size: int) -> list[int]:
    """The packed rows of dense integer rows, written into slots and read as one int each."""
    n = len(rows)
    if slots := _slots(n, size):
        raw = [slots.pack(*row) for row in rows]
    else:
        raw = [b"".join([x.to_bytes(size, "little", signed=True) for x in row]) for row in rows]
    bias = _bias(n, size)
    return [(int.from_bytes(b, "little") ^ bias) - bias for b in raw]


def _unpack(packed: list[int], size: int, p: int | None = None) -> list[tuple]:
    """The rows of these packed rows, reduced mod p, read from their slot bytes."""
    n = len(packed)
    bias, slots, cuts = _bias(n, size), _slots(n, size), range(0, n * size, size)
    raw = [((v + bias) ^ bias).to_bytes(n * size, "little") for v in packed]
    rows = [slots.unpack(b) if slots else tuple(
        [int.from_bytes(b[i:i + size], "little", signed=True) for i in cuts]) for b in raw]
    return [tuple([x % p for x in row]) for row in rows] if p else rows


def _nonzero(rows) -> dict[int, dict[int, int]]:
    """The nonzero form of dense rows: {i: {c: rows[i][c]}} over the nonzero entries."""
    return {i: dict(compress(enumerate(row), row))
            for i, row in compress(enumerate(rows), map(any, rows))}


@lru_cache(maxsize=128)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < _MR_BOUND."""
    if p < 2:
        return False
    if p in _MR_BASES:
        return True
    if any(p % b == 0 for b in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int | None) -> int | None:
    """Return p if it is None (the rationals) or a prime the test can certify; raise otherwise."""
    if p is None:
        return p
    if not isinstance(p, int):
        raise PreconditionError(f"prime must be an integer, got {printable(p)}")
    if p >= _MR_BOUND:
        raise PreconditionError(
            f"prime must be below {_MR_BOUND}, the range of the deterministic "
            f"primality test, got {printable(p)}"
        )
    if not _is_prime(p):
        raise PreconditionError(f"prime must be a prime >= 2, got {printable(p)}")
    return p


class ExactMatrix:
    """Immutable square integer matrix, over Q (prime=None) or over F_p.

    A matrix is its dim, prime and nonzero form {i: {c: x}} (_nonzero(rows)):
    only nonzero rows, only nonzero entries, in no set order, so == and hash
    read the form.  The checked constructor computes it once, and every
    matrix the class derives (identity, @, M - 1, kron, root elements) is
    built as a form; no form or row dict is changed once built.  .rows writes
    the dense rows out of the form on each read and nothing keeps them;
    repr, pickling and copying go through them and the checked constructor.

    Caller-supplied rows are checked once, in the constructor: square shape,
    int entries, a certified prime, entries reduced mod p.  Matrices the class
    derives from checked ones skip the re-scan.

    Hot paths build tuples from lists, not generators: CPython allocates a
    tuple built from a generator at a guessed size and resizes it, so once
    freed such tuples pile up on its per-size free lists instead of being
    reused, which shows as resident memory.
    """

    __slots__ = ("prime", "dim", "_form")

    def __init__(self, rows, prime: int | None = None) -> None:
        try:
            rows = tuple([tuple(row) for row in rows])
        except TypeError:  # rows, or one of them, is not iterable
            raise PreconditionError(f"rows must be rows of ints, got {printable(rows)}") from None
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise PreconditionError("ExactMatrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise PreconditionError(
                        "floating point entries are not allowed" if isinstance(x, float)
                        else f"entries must be int, got {printable(x)}"
                    )
        if _require_prime(prime) is not None:
            rows = tuple([tuple([x % prime for x in row]) for row in rows])
        self._hold(prime, n, _nonzero(rows))

    def _hold(self, prime, n, form) -> None:
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_form", form)

    @classmethod
    def _derived(cls, prime: int | None, form, n: int) -> "ExactMatrix":
        """Wrap the nonzero form of an n x n matrix built from checked entries."""
        m = object.__new__(cls)
        m._hold(prime, n, form)
        return m

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The dense rows, written out of the form on each read: n^2 entries."""
        n = self.dim
        rows = [(0,) * n] * n
        for i, form_row in self._form.items():
            row = [0] * n
            for c, x in form_row.items():
                row[c] = x
            rows[i] = tuple(row)
        return tuple(rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.prime, self._form) == (other.dim, other.prime, other._form)

    def __hash__(self) -> int:
        return hash((self.dim, self.prime, frozenset(
            [(i, c, x) for i, row in self._form.items() for c, x in row.items()])))

    def __repr__(self) -> str:
        return f"ExactMatrix(rows={self.rows!r}, prime={self.prime!r})"

    def __reduce__(self):
        return ExactMatrix, (self.rows, self.prime)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def identity(cls, n: int, prime: int | None = None) -> "ExactMatrix":
        if type(n) is not int or n < 0:
            raise PreconditionError(
                f"identity dimension must be a non-negative int, got {printable(n)}")
        if n > MATRIX_BUDGET:
            raise PreconditionError(f"identity dimension {printable(n)} is over MATRIX_BUDGET")
        _require_prime(prime)
        return cls._derived(prime, {i: {i: 1} for i in range(n)}, n)

    def is_zero(self) -> bool:
        return not self._form

    def is_identity(self) -> bool:
        form = self._form
        return len(form) == self.dim and all(row == {i: 1} for i, row in form.items())

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Product on the nonzero forms: row i of A @ B sums A_ik (row k of B)
        over the entries of row i into a dict by column, and keeps the nonzero
        sums, reduced mod p over F_p: no sort, no n^2 scan.  It costs one
        multiply-add per pair A_ik, B_kc, cheap for root elements and their
        products; dense operands cost 6 to 15 times what packed rows do, and
        the tensor trials, which have them, keep their packed loop."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.prime != other.prime:
            raise FieldMismatch("cannot multiply matrices over different fields")
        if self.dim != other.dim:
            raise PreconditionError("dimension mismatch in matrix product")
        p, b, form = self.prime, other._form, {}
        for i, arow in self._form.items():
            row: dict[int, int] = {}
            for k, x in arow.items():
                for c, y in b.get(k, {}).items():
                    row[c] = row.get(c, 0) + x * y
            if p:
                row = {c: x % p for c, x in row.items()}
            if row := {c: x for c, x in row.items() if x}:
                form[i] = row
        return ExactMatrix._derived(p, form, self.dim)

    def sub_identity(self) -> "ExactMatrix":
        """M - 1, the nilpotent part candidate: each row changes in its diagonal entry only."""
        p, form, out = self.prime, self._form, {}
        for i in range(self.dim):
            row = form.get(i, {}).copy()
            x = row.pop(i, 0) - 1
            if x := x % p if p else x:
                row[i] = x
            if row:
                out[i] = row
        return ExactMatrix._derived(p, out, self.dim)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product from the two forms: row (i, j) holds a_ic b_je in
        column (c, e).  Over F_p a product of two nonzero residues is nonzero,
        so every row keeps all its entries.  A non-matrix operand is a
        TypeError, as for @; a product of more than MATRIX_BUDGET rows is
        refused before any row is built."""
        if other.__class__ is not self.__class__:
            raise TypeError("unsupported operand type(s) for kron: "
                            f"'ExactMatrix' and {type(other).__name__!r}")
        if self.prime != other.prime:
            raise FieldMismatch("cannot tensor matrices over different fields")
        if self.dim * other.dim > MATRIX_BUDGET:
            raise PreconditionError(f"kron dimension {self.dim} * {other.dim} "
                                    f"is over MATRIX_BUDGET ({MATRIX_BUDGET})")
        p, d = self.prime, other.dim
        form = {i * d + j: {c * d + e: x * y % p if p else x * y
                            for c, x in a.items() for e, y in b.items()}
                for i, a in self._form.items() for j, b in other._form.items()}
        return ExactMatrix._derived(p, form, self.dim * d)

    def rank(self) -> int:
        """Exact rank by elimination on the dict rows of the form: each row is
        reduced by the kept row that leads in its leading column, min(row),
        until it vanishes or leads in a new one.  A reduction costs the
        entries of the two rows, not n: the M - 1 of six root elements on
        D13's half-spin module (n = 4096) ranks in 0.01-0.02 s, against
        1.3-2.1 s on dense rows.  Dense matrices pay for it: at n = 100,
        0.21-0.25 -> 0.25-0.26 s over Q and 41-57 -> 71-74 ms over F_10007
        (best of 5, 2 vCPUs), and only library callers rank one.

        Over Q it is fraction-free: a row that leads with v, against the pivot
        and g = gcd(v, pivot), becomes (pivot/g) row - (v/g) kept row divided
        by the gcd of its entries.  Over F_p it becomes row - (v/pivot) kept row.
        """
        p, kept = self.prime, {}  # leading column -> row
        for row in self._form.values():
            lead = min(row)
            while (prow := kept.get(lead)) is not None:
                v, pivot = row[lead], prow[lead]
                if p:
                    a, b = 1, v * pow(pivot, -1, p) % p
                else:
                    g = gcd(v, pivot)
                    a, b = pivot // g, v // g
                row = {c: a * x for c, x in row.items()}
                for c, y in prow.items():
                    x = row.get(c, 0) - b * y
                    if x := x % p if p else x:
                        row[c] = x
                    else:  # b y is not 0, so c was in row
                        del row[c]
                if not row:
                    break
                if not p and (g := gcd(*row.values())) > 1:
                    row = {c: x // g for c, x in row.items()}
                lead = min(row)
            else:
                kept[lead] = row
        return len(kept)
