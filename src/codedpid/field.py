"""Exact arithmetic over prime fields.

Scalars are plain Python ints reduced mod q; matrices are ``FieldMatrix``
objects backed by int64 numpy arrays that are reduced mod q after every
operation.  The matrix routines deliberately stick to integer Gauss-Jordan
elimination: no floats ever enter the pipeline.

Products go through ``mod_matmul``: a dot product of n residues mod q is at
most n*(q-1)^2, so it runs in int64 when n*(q-1)^2 + q < 2^63
(``int64_exact``) and in Python ints (``dtype=object``) otherwise.  Scaling
and elimination need one product per entry, so they switch to Python ints
when (q-1)^2 + q reaches 2^63.  Moduli that fill the 4-byte wire symbol take
the Python-int paths.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "FieldMatrix",
    "SingularMatrixError",
    "RankDeficientError",
    "is_prime",
    "int64_exact",
    "mod_matmul",
    "all_square_submatrices_invertible",
]

_INT64_LIMIT = 2**63
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


def _check_modulus(q: int) -> int:
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError(f"modulus must be an int, got {type(q).__name__}")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return q


def int64_exact(modulus: int, inner: int) -> bool:
    """Whether int64 holds a sum of ``inner`` products of residues mod
    ``modulus`` plus one more residue: inner*(q-1)^2 + q < 2^63."""
    return inner * (modulus - 1) ** 2 + modulus < _INT64_LIMIT


def mod_matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact ``(a @ b) % modulus`` of int64 arrays of residues, as int64.

    The product runs in int64 when ``int64_exact`` allows it for the inner
    dimension and in Python ints (``dtype=object``) otherwise.
    """
    if not int64_exact(modulus, a.shape[-1]):
        return ((a.astype(object) @ b.astype(object)) % modulus).astype(np.int64)
    return (a @ b) % modulus


def _exact_copy(a: np.ndarray, modulus: int) -> np.ndarray:
    """A copy of ``a`` in which a residue times a residue plus a residue is
    exact: int64 when ``int64_exact`` allows one term, else Python ints."""
    return a.astype(np.int64 if int64_exact(modulus, 1) else object)


class SingularMatrixError(ValueError):
    """Raised when a square matrix has no inverse over the field."""


class RankDeficientError(ValueError):
    """Raised when an operation requires full row rank and the matrix lacks it."""


def _as_array(rows, q: int) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array of rows, got ndim={a.ndim}")
    return a % q


class FieldMatrix:
    """A dense matrix over the prime field with q elements.

    Entries live in an int64 numpy array reduced mod q.  Equality, products
    and elimination are all exact.  Use ``inverse`` for square systems and
    ``null_space_basis`` for the canonical right kernel of a full-row-rank
    matrix.
    """

    __slots__ = ("_a", "modulus")

    def __init__(self, rows, modulus: int):
        _check_modulus(modulus)
        object.__setattr__(self, "_a", _as_array(rows, modulus))
        object.__setattr__(self, "modulus", modulus)
        self._a.setflags(write=False)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FieldMatrix is immutable, cannot set {name!r}")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int, modulus: int) -> "FieldMatrix":
        return cls(np.eye(n, dtype=np.int64), modulus)

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int) -> "FieldMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), modulus)

    @classmethod
    def column(cls, entries, modulus: int) -> "FieldMatrix":
        return cls(np.array([[int(e)] for e in entries], dtype=np.int64), modulus)

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

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Plain-int rows; handy for tight pure-Python loops."""
        return tuple(tuple(int(x) for x in row) for row in self._a)

    def column_tuple(self, j: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self._a[:, j])

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only int64 array."""
        return self._a

    def __getitem__(self, key) -> int:
        i, j = key
        return int(self._a[i, j])

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

    def _check_same_field(self, other: "FieldMatrix") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"mixed moduli: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FieldMatrix(self._a + other._a, self.modulus)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FieldMatrix(self._a - other._a, self.modulus)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix(-self._a, self.modulus)

    def scale(self, scalar: int) -> "FieldMatrix":
        q = self.modulus
        return FieldMatrix(_exact_copy(self._a, q) * (int(scalar) % q) % q, q)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions differ: {self.shape} @ {other.shape}"
            )
        return FieldMatrix(mod_matmul(self._a, other._a, self.modulus), self.modulus)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self._a.T, self.modulus)

    def mat_vec(self, vec) -> tuple[int, ...]:
        """Matrix times plain-int vector, returned as a plain-int tuple."""
        v = np.asarray(list(vec), dtype=np.int64)
        if v.shape != (self.cols,):
            raise ValueError(f"vector length {v.shape} does not match {self.cols}")
        return tuple(mod_matmul(self._a, v % self.modulus, self.modulus).tolist())

    def select_columns(self, cols) -> "FieldMatrix":
        idx = list(cols)
        return FieldMatrix(self._a[:, idx], self.modulus)

    def select_rows(self, rows) -> "FieldMatrix":
        idx = list(rows)
        return FieldMatrix(self._a[idx, :], self.modulus)

    def stack_below(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        return FieldMatrix(np.vstack([self._a, other._a]), self.modulus)

    # -- elimination ----------------------------------------------------------

    def _rref(self) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and its pivot columns (exact, mod q)."""
        q = self.modulus
        m = _exact_copy(self._a, q)
        n_rows, n_cols = m.shape
        pivots: list[int] = []
        r = 0
        for c in range(n_cols):
            if r == n_rows:
                break
            pivot_row = None
            for rr in range(r, n_rows):
                if m[rr, c] % q != 0:
                    pivot_row = rr
                    break
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[[r, pivot_row]] = m[[pivot_row, r]]
            inv = pow(int(m[r, c]), -1, q)
            m[r] = (m[r] * inv) % q
            for rr in range(n_rows):
                if rr != r and m[rr, c] != 0:
                    m[rr] = (m[rr] - m[rr, c] * m[r]) % q
            pivots.append(c)
            r += 1
        return m % q, pivots

    def rank(self) -> int:
        _, pivots = self._rref()
        return len(pivots)

    def determinant(self) -> int:
        if self.rows != self.cols:
            raise ValueError(f"determinant needs a square matrix, got {self.shape}")
        q = self.modulus
        m = _exact_copy(self._a, q)
        n = self.rows
        det = 1
        for c in range(n):
            pivot_row = None
            for rr in range(c, n):
                if m[rr, c] % q != 0:
                    pivot_row = rr
                    break
            if pivot_row is None:
                return 0
            if pivot_row != c:
                m[[c, pivot_row]] = m[[pivot_row, c]]
                det = -det
            det = det * int(m[c, c]) % q
            inv = pow(int(m[c, c]), -1, q)
            for rr in range(c + 1, n):
                if m[rr, c] != 0:
                    factor = int(m[rr, c]) * inv % q
                    m[rr] = (m[rr] - factor * m[c]) % q
        return det

    def inverse(self) -> "FieldMatrix":
        """Exact inverse by Gauss-Jordan elimination on [A | I]."""
        if self.rows != self.cols:
            raise ValueError(f"inverse needs a square matrix, got {self.shape}")
        q = self.modulus
        n = self.rows
        aug = _exact_copy(np.hstack([self._a, np.eye(n, dtype=np.int64)]), q)
        for c in range(n):
            pivot_row = None
            for rr in range(c, n):
                if aug[rr, c] % q != 0:
                    pivot_row = rr
                    break
            if pivot_row is None:
                raise SingularMatrixError(
                    f"matrix is singular mod {q}: no pivot in column {c}"
                )
            if pivot_row != c:
                aug[[c, pivot_row]] = aug[[pivot_row, c]]
            inv = pow(int(aug[c, c]), -1, q)
            aug[c] = (aug[c] * inv) % q
            for rr in range(n):
                if rr != c and aug[rr, c] != 0:
                    aug[rr] = (aug[rr] - aug[rr, c] * aug[c]) % q
        return FieldMatrix(aug[:, n:], q)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.determinant() != 0

    def null_space_basis(self) -> "FieldMatrix":
        """Canonical basis of the right null space, one basis vector per row.

        Requires full row rank.  The basis is the standard RREF construction
        with free columns taken in ascending order, so it is deterministic:
        basis vector i has a 1 in the i-th free column, 0 in the other free
        columns, and the negated RREF entries in the pivot columns.
        """
        rref, pivots = self._rref()
        if len(pivots) < self.rows:
            raise RankDeficientError(
                f"matrix has rank {len(pivots)} < {self.rows} rows"
            )
        q = self.modulus
        n_cols = self.cols
        free = [c for c in range(n_cols) if c not in set(pivots)]
        basis = np.zeros((len(free), n_cols), dtype=np.int64)
        for i, fc in enumerate(free):
            basis[i, fc] = 1
            for r, pc in enumerate(pivots):
                basis[i, pc] = (-int(rref[r, fc])) % q
        return FieldMatrix(basis, q)


def all_square_submatrices_invertible(
    matrix: FieldMatrix, size: int, *, samples: int | None = None, seed: int = 0
) -> bool:
    """Whether every size x size minor built from `size` rows and `size` columns
    of `matrix` is invertible.

    With ``samples=None`` all row/column combinations are enumerated.  For
    larger matrices pass ``samples`` to spot-check that many pseudo-random
    combinations instead (seeded, reproducible).
    """
    if size == 0:
        return True
    if size > matrix.rows or size > matrix.cols:
        raise ValueError(
            f"minor size {size} exceeds matrix shape {matrix.shape}"
        )
    row_choices = list(itertools.combinations(range(matrix.rows), size))
    col_choices = list(itertools.combinations(range(matrix.cols), size))
    if samples is None:
        pairs = itertools.product(row_choices, col_choices)
    else:
        rng = np.random.default_rng(seed)
        pairs = (
            (
                row_choices[int(rng.integers(len(row_choices)))],
                col_choices[int(rng.integers(len(col_choices)))],
            )
            for _ in range(samples)
        )
    for rows, cols in pairs:
        sub = matrix.select_rows(rows).select_columns(cols)
        if sub.determinant() == 0:
            return False
    return True
