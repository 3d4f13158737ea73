"""MDS code pairs: a parity-check matrix and a matching mask generator.

A ``CodePair`` bundles an L x N parity-check matrix ``h`` and an (N-L) x N
generator ``g`` over a prime field, with three structural guarantees checked
at construction time:

* every set of L columns of ``h`` is invertible (so any L servers can host a
  decodable fragment set),
* every set of N-L columns of ``g`` is invertible (so any N-L mask shares
  determine the rest, which is what makes single-server views uniform),
* ``h @ g.T == 0`` (so the masks vanish under decoding).

The parity check must be the Vandermonde matrix of the pair's distinct
points mod q, so every L-column minor is invertible by the Vandermonde
determinant; any other parity check is refused.  Given that and
orthogonality, the generator has the MDS property exactly when it has full
rank N-L (its rows then generate the MDS code ``h`` checks), so it needs one
rank computation, not a minor enumeration.  Both checks are exact.

``build_vandermonde_pair`` constructs the canonical instance from distinct
evaluation points; ``override_generator`` swaps in a hand-picked generator
and re-checks everything.  A pair keeps one cache of parity-check minor
inverses, as read-only int64 arrays: ``protocol``'s encoder asks it for all
of an encode's host sets, the missing ones inverted in one stacked
Gauss-Jordan, and ``h_sub_inverse`` builds one minor's plain-int rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from codedpid.field import FieldMatrix, _inverse_stack, int64_exact, is_prime, mod_matmul

__all__ = [
    "MODULUS_LIMIT",
    "CodePair",
    "build_vandermonde_pair",
    "check_modulus",
    "override_generator",
]

# Every field symbol travels as one 4-byte wire symbol, so a modulus must lie
# below 2^32; the largest prime allowed is 4294967291.
MODULUS_LIMIT = 2**32

@dataclass(frozen=True)
class CodePair:
    """A parity-check / mask-generator pair over a prime field.

    ``parity_check`` has shape (msg_len, n_servers) and must be the
    Vandermonde matrix of ``points``: row i holds the points to the i-th
    power mod q.  ``generator`` has shape (n_servers - msg_len, n_servers).
    """

    parity_check: FieldMatrix
    generator: FieldMatrix
    points: tuple[int, ...]
    modulus: int
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
        q = self.modulus
        check_modulus(q)
        h, g = self.parity_check, self.generator
        if h.modulus != q or g.modulus != q:
            raise ValueError("matrix moduli do not match the code modulus")
        n = h.cols
        if g.cols != n:
            raise ValueError(
                f"parity check has {n} columns but generator has {g.cols}"
            )
        if h.rows + g.rows != n:
            raise ValueError(
                f"row counts {h.rows}+{g.rows} do not sum to {n} columns"
            )
        if len(self.points) != n:
            raise ValueError(f"need {n} evaluation points, got {len(self.points)}")
        if len(set(self.points)) != n:
            raise ValueError("evaluation points must be distinct")
        if mod_matmul(h.array, g.array.T, q).any():
            raise ValueError("generator rows are not orthogonal to the parity check")
        if len({p % q for p in self.points}) != n:
            raise ValueError(f"evaluation points must be distinct mod {q}")
        if (h.array != _vandermonde(self.points, h.rows, q)).any():
            raise ValueError(
                f"parity check is not the Vandermonde matrix of points "
                f"{self.points} mod {q}"
            )
        # h is MDS, so the code it checks is MDS; orthogonal rows of g lie in
        # that code and generate it, making g MDS, exactly when rank g = N-L.
        # A rank-deficient g has every (N-L)-column minor singular, so its
        # first N-L columns name a failing set.
        if g.rank() != g.rows:
            raise ValueError(
                f"generator columns {tuple(range(g.rows))} form a singular "
                f"matrix mod {q}"
            )

    @property
    def n_servers(self) -> int:
        return self.parity_check.cols

    @property
    def msg_len(self) -> int:
        return self.parity_check.rows

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
        inverted together, in one stacked Gauss-Jordan."""
        cache = self._sub_inverse_cache
        missing = [cols for cols in dict.fromkeys(col_sets) if cols not in cache]
        if missing:
            minors = self.parity_check.array[:, missing].transpose(1, 0, 2)
            for cols, inverse in zip(missing, _inverse_stack(minors, self.modulus)):
                inverse.setflags(write=False)
                cache[cols] = inverse
        return [cache[cols] for cols in col_sets]

    def decode_vector(self, answers) -> tuple[int, ...]:
        """Apply the parity check to a length-N answer vector (plain ints)."""
        return self.parity_check.mat_vec(answers)


def check_modulus(q: int) -> None:
    """Refuse a modulus that is not a prime below ``MODULUS_LIMIT``."""
    if q >= MODULUS_LIMIT:
        raise ValueError(
            f"modulus {q} does not fit the 4-byte wire symbol: q must be "
            f"below 2^32"
        )
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


def build_vandermonde_pair(
    q: int, n_servers: int, msg_len: int, points=None
) -> CodePair:
    """Build the canonical code pair from distinct evaluation points.

    Row i of the parity check is the points raised to the i-th power, which
    makes every L-column minor a Vandermonde-style invertible matrix.  The
    generator is the canonical null-space basis of the parity check (rows
    reduced, free columns in ascending order), so the construction is fully
    deterministic.
    """
    check_modulus(q)
    if not 1 <= msg_len <= n_servers:
        raise ValueError(
            f"message length {msg_len} must be between 1 and {n_servers}"
        )
    if points is None:
        points = tuple(range(n_servers))
    else:
        points = tuple(int(p) % q for p in points)
    if len(points) != n_servers:
        raise ValueError(f"need {n_servers} points, got {len(points)}")
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct")
    if n_servers > q:
        raise ValueError(
            f"{n_servers} distinct points do not exist mod {q}"
        )
    h = FieldMatrix(_vandermonde(points, msg_len, q), q)
    if msg_len == n_servers:
        g = FieldMatrix.zeros(0, n_servers, q)
    else:
        g = h.null_space_basis()
    return CodePair(parity_check=h, generator=g, points=points, modulus=q)


def _vandermonde(points, rows: int, q: int) -> np.ndarray:
    """Row i holds the points to the i-th power mod q, by the recurrence
    row[i] = row[i-1] * points % q, in int64 while (q-1)^2 + q < 2^63."""
    dtype = np.int64 if int64_exact(q, 1) else object
    x = np.array([p % q for p in points], dtype=dtype)
    v = np.empty((rows, len(x)), dtype=dtype)
    v[:1] = 1
    for i in range(1, rows):
        v[i] = v[i - 1] * x % q
    return v


def override_generator(pair: CodePair, generator_rows) -> CodePair:
    """Replace the generator of a pair, re-running all structural checks.
    Entries are reduced mod q first, as ``build_vandermonde_pair`` reduces
    its points, so an integer of any size is accepted."""
    q = pair.modulus
    g = FieldMatrix([[entry % q for entry in row] for row in generator_rows], q)
    return CodePair(
        parity_check=pair.parity_check,
        generator=g,
        points=pair.points,
        modulus=q,
    )
