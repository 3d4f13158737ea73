"""MDS code pairs: a parity-check matrix and a matching mask generator.

A ``CodePair`` is its N distinct evaluation points, its message length L,
its prime modulus q (``field.check_modulus``) and an (N-L) x N generator
``g``.  It derives the L x N parity check ``h`` from the points, row i
holding their i-th powers mod q, and checks at construction time:

* every set of L columns of ``h`` is invertible (so any L servers can host a
  decodable fragment set): by the Vandermonde determinant, exactly when the
  points are distinct mod q,
* every set of N-L columns of ``g`` is invertible (so any N-L mask shares
  determine the rest, which is what makes single-server views uniform),
* ``h @ g.T == 0`` (so the masks vanish under decoding).

Given an MDS ``h`` and orthogonality, the generator has the MDS property
exactly when it has full rank N-L (its rows then generate the MDS code
``h`` checks), so it needs one rank computation, not a minor enumeration,
and none when its last N-L columns are the identity.  Both checks are exact.

``build_vandermonde_pair`` constructs the canonical instance from distinct
evaluation points, its generator in closed form with no elimination (the
Lagrange basis of the first L points); ``override_generator`` swaps in a
hand-picked generator and re-checks everything; a config's override pair is
built once (``_override_pair``), with no canonical one to discard.  A pair
keeps one cache of parity-check minor inverses, as read-only int64 arrays:
``protocol``'s encoder asks it for all of an encode's host sets, and
``h_sub_inverse`` builds one minor's plain-int rows.  Minors not yet cached
are written together in closed form, with no elimination: the minor on a
column set is the Vandermonde matrix of those points, so its inverse holds
the coefficients of their Lagrange basis (``_lagrange_inverses``).  Every
product of residues here goes through ``field.mod_mul``, exact in int64
for every admitted modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from codedpid.field import (
    FieldMatrix,
    SingularMatrixError,
    check_modulus,
    mod_matmul,
    mod_mul,
)

__all__ = [
    "CodePair",
    "build_vandermonde_pair",
    "override_generator",
]


@dataclass(frozen=True)
class CodePair:
    """A parity-check / mask-generator pair over a prime field.

    ``generator`` is given as N - L rows of N integers, an array or nested
    lists, and kept as a ``FieldMatrix`` mod q; a ``FieldMatrix`` of the
    pair's modulus is kept as given, one of any other modulus refused.
    ``parity_check`` is derived, shape (msg_len, N): the Vandermonde matrix
    of ``points``, row i holding the points to the i-th power mod q.
    """

    points: tuple[int, ...]
    msg_len: int
    modulus: int
    generator: FieldMatrix
    parity_check: FieldMatrix = dc_field(init=False)
    # column set -> read-only int64 inverse of that parity-check minor
    _sub_inverse_cache: dict = dc_field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    # One slot, (config, messages, storage) or None, kept by
    # ``protocol.encode_storage`` for the last storage encoded on this pair.
    _storage_memo: list = dc_field(
        default_factory=lambda: [None], repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        q, n = self.modulus, len(self.points)
        check_modulus(q)
        if not 1 <= self.msg_len <= n:
            raise ValueError(f"message length {self.msg_len} must be between 1 and {n}")
        if len(set(self.points)) != n:
            raise ValueError("evaluation points must be distinct")
        if len({p % q for p in self.points}) != n:
            raise ValueError(f"evaluation points must be distinct mod {q}")
        h = FieldMatrix(_vandermonde(self.points, self.msg_len, q), q)
        g = self.generator
        if not isinstance(g, FieldMatrix):
            g = FieldMatrix(g, q)
        elif g.modulus != q:
            raise ValueError(f"generator modulus {g.modulus} != code modulus {q}")
        object.__setattr__(self, "parity_check", h)
        object.__setattr__(self, "generator", g)
        if g.cols != n:
            raise ValueError(
                f"parity check has {n} columns but generator has {g.cols}"
            )
        if h.rows + g.rows != n:
            raise ValueError(
                f"row counts {h.rows}+{g.rows} do not sum to {n} columns"
            )
        if mod_matmul(h.array, g.array.T, q).any():
            raise ValueError("generator rows are not orthogonal to the parity check")
        # h is MDS, so the code it checks is MDS; orthogonal rows of g lie in
        # that code and generate it, making g MDS, exactly when rank g = N-L.
        # A rank-deficient g has every (N-L)-column minor singular, so its
        # first N-L columns name a failing set.  An identity in the last N-L
        # columns, as the canonical generator has, is full rank as it stands.
        identity = (g.array[:, h.rows :] == np.eye(g.rows, dtype=np.int64)).all()
        if not identity and g.rank() != g.rows:
            raise ValueError(
                f"generator columns {tuple(range(g.rows))} form a singular "
                f"matrix mod {q}"
            )

    @property
    def n_servers(self) -> int:
        return self.parity_check.cols

    @property
    def mask_len(self) -> int:
        return self.generator.rows

    def h_sub_inverse(self, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Inverse of the square parity-check minor on these 0-based columns,
        as plain-int rows built from the cached array on each call."""
        return tuple(map(tuple, self._minor_inverses([cols])[0].tolist()))

    def _minor_inverses(self, col_sets) -> list:
        """Inverses of the parity-check minors on each of these 0-based
        column sets, as read-only int64 arrays.  The sets not yet cached are
        inverted together, in closed form (``_lagrange_inverses``)."""
        cache = self._sub_inverse_cache
        missing = [cols for cols in dict.fromkeys(col_sets) if cols not in cache]
        if missing:
            l = self.msg_len
            for cols in missing:
                if len(cols) != l:
                    raise ValueError(
                        f"inverse needs a square matrix, got {(l, len(cols))}"
                    )
            x = np.array([p % self.modulus for p in self.points], dtype=np.int64)
            for cols, inverse in zip(
                missing, _lagrange_inverses(x[missing], self.modulus)
            ):
                inverse.setflags(write=False)
                cache[cols] = inverse
        return [cache[cols] for cols in col_sets]

    def decode_vector(self, answers) -> tuple[int, ...]:
        """Apply the parity check to a length-N answer vector (plain ints)."""
        return self.parity_check.mat_vec(answers)


def build_vandermonde_pair(
    q: int, n_servers: int, msg_len: int, points=None
) -> CodePair:
    """Build the canonical code pair from distinct evaluation points.

    Row i of the parity check is the points raised to the i-th power, which
    makes every L-column minor a Vandermonde-style invertible matrix.  The
    generator is the canonical null-space basis of the parity check (rows
    reduced, free columns in ascending order), written in closed form.  The
    pivots of a reduced row echelon form are its leftmost independent
    columns, and the first L columns are independent (their Vandermonde
    determinant is nonzero for distinct points), so the pivots are columns
    0..L-1 and the form is ``[I | A]`` with ``A = V^-1 W`` (V those columns,
    W the rest): the Lagrange basis of the first L points at the others,
    ``A[i, f] = l_i(x_f)``.  The generator is then ``[-A^T | I]``, built
    with no elimination from O(N*L) products and L inverses.
    """
    points = _checked_points(q, n_servers, msg_len, points)
    # prod[i, f] is the product of x_f - x_m over m < L, m != i: prefix
    # products of the differences times prefix products of their reversal.
    x = np.array(points, dtype=np.int64)
    diff = (x - x[:msg_len, None]) % q
    both = np.stack((diff, diff[::-1]))
    prefix = np.ones_like(both)
    for i in range(1, msg_len):
        prefix[:, i] = mod_mul(prefix[:, i - 1], both[:, i - 1], q)
    prod = mod_mul(prefix[0], prefix[1, ::-1], q)
    inverses = np.array([pow(int(w), -1, q) for w in prod.diagonal()], dtype=np.int64)
    lagrange = mod_mul(-prod[:, msg_len:].T, inverses, q)
    g = np.hstack((lagrange, np.eye(n_servers - msg_len, dtype=np.int64)))
    return CodePair(points, msg_len, q, g)


def _checked_points(q: int, n_servers: int, msg_len: int, points) -> tuple[int, ...]:
    """``points`` reduced mod q (0..N-1 if None), after checking q, L and them."""
    check_modulus(q)
    if not 1 <= msg_len <= n_servers:
        raise ValueError(f"message length {msg_len} must be between 1 and {n_servers}")
    if points is None:
        points = tuple(range(n_servers))
    else:
        points = tuple(int(p) % q for p in points)
    if len(points) != n_servers:
        raise ValueError(f"need {n_servers} points, got {len(points)}")
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct")
    if n_servers > q:
        raise ValueError(f"{n_servers} distinct points do not exist mod {q}")
    return points


def _override_pair(q: int, n_servers: int, msg_len: int, points, rows) -> CodePair:
    """``override_generator(build_vandermonde_pair(q, n_servers, msg_len,
    points), rows)`` built once: the same checks, in the same order and words."""
    points = _checked_points(q, n_servers, msg_len, points)
    return CodePair(points, msg_len, q, rows)


def _vandermonde(points, rows: int, q: int) -> np.ndarray:
    """Row i holds the points to the i-th power mod q, by the recurrence
    row[i] = row[i-1] * points % q (``field.mod_mul``)."""
    x = np.array([p % q for p in points], dtype=np.int64)
    v = np.empty((rows, len(x)), dtype=np.int64)
    v[:1] = 1
    for i in range(1, rows):
        v[i] = mod_mul(v[i - 1], x, q)
    return v


def _lagrange_inverses(x: np.ndarray, q: int) -> np.ndarray:
    """Exact int64 inverses of the Vandermonde minors of a (B, L) stack of
    point sets, all at once: minor b has row i holding ``x[b]`` to the i-th
    power, so row j of its inverse is the coefficient vector, lowest power
    first, of the Lagrange basis polynomial
    ``l_j(t) = prod_{m != j}(t - x_m) / prod_{m != j}(x_j - x_m)``.

    The numerator is ``P(t) / (t - x_j)``, with P the product of every
    ``t - x_m``, so it comes from P by synthetic division, and its value at
    x_j is the denominator (Horner, in the same pass): O(L) broadcast steps
    of ``field.mod_mul`` and one modular inverse per (set, j).  A set that
    repeats a point raises ``SingularMatrixError`` naming, as elimination
    would, the first column of any set that repeats an earlier one of its
    set."""
    b, l = x.shape
    # p[i] is the coefficient of t^(L-i) in P, for every set, built one
    # factor at a time; coef[i][:, j] is that of t^(L-1-i) in P / (t - x_j),
    # and den the quotient's value at x_j.
    p = np.zeros((l + 1, b), dtype=np.int64)
    p[0] = 1
    minus_x = -x
    for m in range(l):
        p[1:] = mod_mul(minus_x[:, m], p[:-1], q, add=p[1:])
    coef = np.empty((l, b, l), dtype=np.int64)
    coef[0] = 1
    den = coef[0]
    for i in range(1, l):
        coef[i] = mod_mul(x, coef[i - 1], q, add=p[i, :, None])
        den = mod_mul(den, x, q, add=coef[i])
    heads = den.ravel().tolist()
    if not all(heads):
        # Column c has no pivot in a set where it repeats an earlier column.
        repeats = (x[:, :, None] == x[:, None, :]) & np.tri(l, k=-1, dtype=bool)
        c = int(repeats.any(axis=2).any(axis=0).argmax())
        raise SingularMatrixError(f"matrix is singular mod {q}: no pivot in column {c}")
    inverses = np.array([pow(h, -1, q) for h in heads], dtype=np.int64).reshape(b, l)
    # Row j of set b's inverse lists the coefficients lowest power first.
    return mod_mul(coef[::-1].transpose(1, 2, 0), inverses[:, :, None], q)


def override_generator(pair: CodePair, generator_rows) -> CodePair:
    """Replace the generator of a pair, re-running all structural checks.
    Entries are reduced mod q first, as ``build_vandermonde_pair`` reduces
    its points, so an integer of any size is accepted."""
    return _override_pair(
        pair.modulus, len(pair.points), pair.msg_len, pair.points, generator_rows
    )
