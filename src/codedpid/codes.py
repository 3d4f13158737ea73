"""MDS code pairs: a parity-check matrix and a matching mask generator.

A ``CodePair`` bundles an L x N parity-check matrix ``h`` and an (N-L) x N
generator ``g`` over a prime field, with three structural guarantees checked
at construction time:

* every set of L columns of ``h`` is invertible (so any L servers can host a
  decodable fragment set),
* every set of N-L columns of ``g`` is invertible (so any N-L mask shares
  determine the rest, which is what makes single-server views uniform),
* ``h @ g.T == 0`` (so the masks vanish under decoding).

A parity check that is the Vandermonde matrix of distinct points has every
L-column minor invertible by the Vandermonde determinant; any other is
checked minor by minor.  Given that and orthogonality, the generator has
the MDS property exactly when it has full rank N-L (its rows then generate
the MDS code ``h`` checks), so it needs one rank computation, not a minor
enumeration.

``build_vandermonde_pair`` constructs the canonical instance from distinct
evaluation points; ``override_generator`` swaps in a hand-picked generator
and re-checks everything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from codedpid.field import FieldMatrix, is_prime

__all__ = ["CodePair", "build_vandermonde_pair", "override_generator"]

# Above this many columns, a parity check that is not a Vandermonde matrix
# gets random minors spot-checked instead of all of them enumerated.
_EXHAUSTIVE_MINOR_LIMIT = 12
_MINOR_SAMPLES = 100


def _first_bad_minor(matrix: FieldMatrix) -> tuple[int, ...] | None:
    """First column set (all rows tall) whose minor is singular, or None.

    Exhaustive for narrow matrices, seeded random sampling for wide ones.
    """
    size = matrix.rows
    if size == 0:
        return None
    if matrix.cols <= _EXHAUSTIVE_MINOR_LIMIT:
        candidates = itertools.combinations(range(matrix.cols), size)
    else:
        rng = np.random.default_rng(2024)
        candidates = (
            tuple(sorted(rng.choice(matrix.cols, size=size, replace=False).tolist()))
            for _ in range(_MINOR_SAMPLES)
        )
    for cols in candidates:
        if matrix.select_columns(cols).determinant() == 0:
            return tuple(cols)
    return None


@dataclass(frozen=True)
class CodePair:
    """A parity-check / mask-generator pair over a prime field.

    ``parity_check`` has shape (msg_len, n_servers); ``generator`` has shape
    (n_servers - msg_len, n_servers).  ``points`` records the evaluation
    points the parity check was built from (informational; kept so instances
    can be serialized and rebuilt).
    """

    parity_check: FieldMatrix
    generator: FieldMatrix
    points: tuple[int, ...]
    modulus: int
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
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
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
        if g.rows > 0:
            prod = h @ g.transpose()
            if prod != FieldMatrix.zeros(h.rows, g.rows, q):
                raise ValueError(
                    "generator rows are not orthogonal to the parity check"
                )
        vandermonde = len({p % q for p in self.points}) == n and h.to_lists() == [
            [pow(p, i, q) for p in self.points] for i in range(h.rows)
        ]
        if not vandermonde:
            bad = _first_bad_minor(h)
            if bad is not None:
                raise ValueError(
                    f"parity-check columns {bad} form a singular matrix mod {q}"
                )
        # h is MDS, so the code it checks is MDS; orthogonal rows of g lie in
        # that code and generate it, making g MDS, exactly when rank g = N-L.
        if g.rank() != g.rows:
            raise ValueError(
                f"generator columns {_first_bad_minor(g)} form a singular "
                f"matrix mod {q}"
            )
        # Plain-int views, built once: ``protocol.server_answer`` reads a
        # generator column on every request.
        object.__setattr__(self, "_h_rows", h.row_tuples())
        object.__setattr__(self, "_g_cols", tuple(g.column_tuple(j) for j in range(n)))

    @property
    def n_servers(self) -> int:
        return self.parity_check.cols

    @property
    def msg_len(self) -> int:
        return self.parity_check.rows

    @property
    def mask_len(self) -> int:
        return self.generator.rows

    def h_rows(self) -> tuple[tuple[int, ...], ...]:
        return self._h_rows  # type: ignore[attr-defined]

    def g_column(self, col: int) -> tuple[int, ...]:
        """Generator column ``col`` (0-based), as plain ints."""
        return self._g_cols[col]  # type: ignore[attr-defined]

    def h_sub_inverse(self, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Inverse of the square parity-check minor on these 0-based columns.

        Cached: the delivery path inverts the same minor for every message
        mapped to the same server set.
        """
        cached = self._sub_inverse_cache.get(cols)
        if cached is None:
            sub = self.parity_check.select_columns(cols)
            cached = sub.inverse().row_tuples()
            self._sub_inverse_cache[cols] = cached
        return cached

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
    reduced, free columns in ascending order), so the construction is fully
    deterministic.
    """
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
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
    h = FieldMatrix(
        [[pow(p, i, q) for p in points] for i in range(msg_len)], q
    )
    if msg_len == n_servers:
        g = FieldMatrix.zeros(0, n_servers, q)
    else:
        g = h.null_space_basis()
    return CodePair(parity_check=h, generator=g, points=points, modulus=q)


def override_generator(pair: CodePair, generator_rows) -> CodePair:
    """Replace the generator of a pair, re-running all structural checks."""
    g = FieldMatrix(generator_rows, pair.modulus)
    return CodePair(
        parity_check=pair.parity_check,
        generator=g,
        points=pair.points,
        modulus=pair.modulus,
    )
