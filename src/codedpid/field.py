"""Exact arithmetic over prime fields.

Scalars are plain Python ints reduced mod q; matrices are ``FieldMatrix``
objects, read-only int64 arrays of residues mod q that callers multiply
with ``mod_matmul``.  The matrix routines stick to integer Gauss-Jordan
elimination: no floats ever enter the pipeline.

``check_modulus`` is the one modulus rule of the package: q is an int, a
prime, and below ``MODULUS_LIMIT`` = 2^32, so that every residue travels as
one 4-byte wire symbol.  ``FieldMatrix``, ``codes.CodePair``,
``protocol.PidConfig`` and the raw-slice layout all refuse through it.

Every array is int64, and every product of residues is made exact here:
``mod_matmul`` for matrix products and ``mod_mul`` for elementwise ones.
A sum of n products of residues mod q is at most n*(q-1)^2, so it runs as
it stands when n*(q-1)^2 + q < 2^63 (``int64_exact``).  Above that bound
one operand is split into 16-bit limbs, which keeps every partial product
below 2^49; moduli that fill the 4-byte wire symbol stay exact in int64.
``rref`` is the one elimination loop, behind ``rank``, ``determinant``,
``null_space_basis`` and ``inverse`` (the right half of the reduced
``[A | I]``).  It clears a whole column per pivot, from every other row,
in one broadcast update ``m -= col * pivot_row; m %= q``, so it costs
O(columns) numpy calls.  The encoder does not eliminate: ``codes`` writes
its minor inverses in closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MODULUS_LIMIT",
    "FieldMatrix",
    "SingularMatrixError",
    "RankDeficientError",
    "check_modulus",
    "is_prime",
    "int64_exact",
    "mod_matmul",
    "mod_mul",
    "rref",
]

# Every field symbol travels as one 4-byte wire symbol, so a modulus must lie
# below 2^32; the largest prime allowed is 4294967291.
MODULUS_LIMIT = 2**32
_INT64_LIMIT = 2**63
# A 16-bit limb times a residue is below 2^48: 2^15 - 1 of them sum in int64.
_CHUNK = 2**15 - 1
# Miller-Rabin with these bases has no strong pseudoprime below
# 3.3 * 10^24, so it decides every 64-bit n exactly.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_KNOWN_PRIMES: set[int] = set(_WITNESSES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check, cached for repeated moduli.

    Exact for every n below 3.3 * 10^24, which covers every modulus an int64
    matrix can hold; above that a pass means a strong probable prime.
    """
    if n in _KNOWN_PRIMES:
        return True
    if n < 2:
        return False
    if any(n % p == 0 for p in _WITNESSES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    _KNOWN_PRIMES.add(n)
    return True


def check_modulus(q: int) -> None:
    """Refuse a modulus that is not an int (``TypeError``), or not a prime
    below ``MODULUS_LIMIT`` (``ValueError``)."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError(f"modulus must be an int, got {type(q).__name__}")
    if q >= MODULUS_LIMIT:
        raise ValueError(
            f"modulus {q} does not fit the 4-byte wire symbol: q must be "
            f"below 2^32"
        )
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


def int64_exact(modulus: int, inner: int) -> bool:
    """Whether int64 holds a sum of ``inner`` products of residues mod
    ``modulus`` plus one more residue: inner*(q-1)^2 + q < 2^63."""
    return inner * (modulus - 1) ** 2 + modulus < _INT64_LIMIT


def mod_mul(a, b, modulus: int, add=None):
    """Exact ``(a * b + add) % modulus``, elementwise, as int64, of int64
    arrays or ints below 2^32 in magnitude (``add=None`` adds nothing).  Past
    ``int64_exact(q, 1)``, ``a*b = (a*(b >> 16) mod q)*2^16 + a*(b & 0xFFFF)``
    keeps every partial product below 2^49."""
    if int64_exact(modulus, 1):
        product = a * b
    else:
        product = (a * (b >> 16) % modulus << 16) + a * (b & 0xFFFF)
    return (product if add is None else product + add) % modulus


def mod_matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact ``(a @ b) % modulus`` of int64 arrays of residues, as int64.
    Past ``int64_exact`` for the inner dimension, ``b`` is split into 16-bit
    limbs as in ``mod_mul`` and the inner dimension summed in chunks."""
    q, inner = modulus, a.shape[-1]
    if int64_exact(q, inner):
        return (a @ b) % q
    # b's inner axis is its rows, or a vector's one axis
    cuts = range(_CHUNK, inner, _CHUNK)
    parts = zip(np.split(a, cuts, axis=-1), np.split(b, cuts, axis=max(b.ndim - 2, 0)))
    return sum((x @ (y >> 16) % q << 16) + x @ (y & 0xFFFF) % q for x, y in parts) % q


class SingularMatrixError(ValueError):
    """Raised when a square matrix has no inverse over the field."""


class RankDeficientError(ValueError):
    """Raised when an operation requires full row rank and the matrix lacks it."""


def _reduced(x, q: int):
    """``x`` reduced mod q: integer arrays and ints of any size, alone or in
    nested sequences; floats, bools and other entries raise ``TypeError``."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        return x % q
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_reduced(entry, q) for entry in x]
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x) % q
    raise TypeError(f"matrix entries must be ints, got {type(x).__name__}")


class FieldMatrix:
    """A dense matrix over the prime field with q elements.

    Entries live in a read-only int64 array reduced mod q (``array``):
    ints of any size and integer arrays are reduced, floats, bools and any
    other entry raise ``TypeError``.  Equality, ``mat_vec`` and elimination
    are exact.  Use ``inverse`` for square systems and ``null_space_basis``
    for the canonical right kernel of a full-row-rank matrix; multiply
    arrays with ``mod_matmul``.
    """

    __slots__ = ("_a", "modulus")

    def __init__(self, rows, modulus: int):
        check_modulus(modulus)
        a = np.asarray(_reduced(rows, modulus), dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array of rows, got ndim={a.ndim}")
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FieldMatrix is immutable, cannot set {name!r}")

    # -- views ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def to_lists(self) -> list[list[int]]:
        return self._a.tolist()

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only int64 array."""
        return self._a

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.modulus, self.shape, self._a.tobytes()))

    def __repr__(self):
        return f"FieldMatrix({self.to_lists()}, mod {self.modulus})"

    # -- arithmetic -----------------------------------------------------------

    def mat_vec(self, vec) -> tuple[int, ...]:
        """Matrix times a sequence of plain ints, returned as a plain-int tuple."""
        v = np.array(vec, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ValueError(f"vector length {v.shape} does not match {self.cols}")
        return tuple(mod_matmul(self._a, v % self.modulus, self.modulus).tolist())

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        return len(rref(self._a, self.modulus)[1])

    def determinant(self) -> int:
        """The determinant mod q, read from the ``rref`` pass: 0 when a
        column has no pivot, else the pivots' scale."""
        if self.rows != self.cols:
            raise ValueError(f"determinant needs a square matrix, got {self.shape}")
        _, pivots, scale = rref(self._a, self.modulus)
        return scale if len(pivots) == self.rows else 0

    def inverse(self) -> "FieldMatrix":
        """Exact inverse: the right half of the reduced ``[A | I]``, or a
        ``SingularMatrixError`` naming A's first column without a pivot."""
        n, q = self.rows, self.modulus
        if n != self.cols:
            raise ValueError(f"inverse needs a square matrix, got {self.shape}")
        reduced, pivots, _ = rref(np.hstack((self._a, np.eye(n, dtype=np.int64))), q)
        # [A | I] has rank n; its pivots are 0..n-1 exactly when A is invertible.
        for c in (c for c, pivot in enumerate(pivots) if c != pivot):
            raise SingularMatrixError(f"matrix is singular mod {q}: no pivot in column {c}")
        return FieldMatrix(reduced[:, n:], q)

    def null_space_basis(self) -> "FieldMatrix":
        """Canonical basis of the right null space, one basis vector per row.

        Requires full row rank.  The basis is the standard RREF construction
        with free columns taken in ascending order, so it is deterministic:
        basis vector i has a 1 in the i-th free column, 0 in the other free
        columns, and the negated RREF entries in the pivot columns.
        """
        reduced, pivots, _ = rref(self._a, self.modulus)
        if len(pivots) < self.rows:
            raise RankDeficientError(
                f"matrix has rank {len(pivots)} < {self.rows} rows"
            )
        # Subtract each RREF row from the identity row of its pivot: column f
        # of the result is the basis vector of free column f, and the free
        # columns are where the diagonal stays 1.
        basis = np.eye(self.cols, dtype=np.int64)
        basis[pivots] -= reduced
        return FieldMatrix(basis.T[basis.diagonal() == 1], self.modulus)


def rref(a: np.ndarray, modulus: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form of a 2-d int64 array of residues mod
    ``modulus``, as int64, with its pivot columns and the pivots' scale: the
    product of the pivots, negated once per row exchange, which is the
    determinant of a square ``a`` of full rank (its form is then I)."""
    q = modulus
    m = a.astype(np.int64)
    n_rows, n_cols = m.shape
    # Where a product plus a residue fits int64, an update is one product
    # and one reduction; above that bound the product goes through mod_mul.
    times = np.multiply if int64_exact(q, 1) else lambda x, y: mod_mul(x, y, q)
    pivots: list[int] = []
    scale = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        # RREF is unique, so any nonzero entry may be the pivot.
        p = r if m[r, c] else r + int(m[r:, c].argmax())
        head = int(m[p, c])
        if not head:
            continue
        # Dividing row p by its head divides the determinant by the head,
        # clearing column c from the other rows keeps it, and moving row r
        # to row p, which the update zeroes, is an exchange: it negates it.
        scale = scale * head % q
        pivot_row = times(m[p], pow(head, -1, q)) % q
        m -= times(m[:, c, None], pivot_row)
        m %= q
        if p != r:
            m[p] = m[r]
            scale = -scale % q
        m[r] = pivot_row
        pivots.append(c)
    return m, pivots, scale
