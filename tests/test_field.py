"""Field matrix arithmetic and primality, checked against brute-force oracles."""

import ast
import itertools
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from codedpid.codes import build_vandermonde_pair, override_generator
from codedpid.field import (
    MODULUS_LIMIT,
    FieldMatrix,
    RankDeficientError,
    SingularMatrixError,
    check_modulus,
    int64_exact,
    is_prime,
    mod_matmul,
    mod_mul,
    rref,
)
from codedpid.protocol import Message, PidConfig, make_association, run_subset_scheme
from codedpid.sim import simulate_subset_round

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def brute_force_inverse(value: int, q: int) -> int:
    """Oracle: scan every candidate for v * c == 1 (mod q)."""
    for c in range(q):
        if (value * c) % q == 1:
            return c
    raise AssertionError(f"{value} has no inverse mod {q}")


def det3_oracle(m, q: int) -> int:
    """Oracle: 3x3 determinant by explicit permutation expansion."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return (a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h) % q


def times(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """The product of two matrices over one field, through ``mod_matmul``."""
    return FieldMatrix(mod_matmul(a.array, b.array, a.modulus), a.modulus)


def trial_division_prime(n: int) -> bool:
    """Oracle: n >= 2 with no divisor in 2..sqrt(n)."""
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


class TestPrimality:
    def test_small_values(self):
        expected = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(25):
            assert is_prime(n) == (n in expected)

    def test_matches_trial_division_below_20000(self):
        for n in range(20_000):
            assert is_prime(n) == trial_division_prime(n), n

    def test_pseudoprimes_are_composite(self):
        # Carmichael numbers fool the Fermat test; 3215031751 is a strong
        # pseudoprime to bases 2, 3, 5 and 7.
        for n in (561, 41041, 3215031751):
            assert not is_prime(n), n

    def test_large_values_are_fast(self):
        cases = ((4294967291, True), (2**61 - 1, True), ((2**31 - 1) ** 2, False))
        for n, expected in cases:
            start = time.perf_counter()
            assert is_prime(n) == expected, n
            assert time.perf_counter() - start < 0.5, n

    def test_rejects_nonprime_modulus(self):
        with pytest.raises(ValueError):
            FieldMatrix([[1]], 6)
        with pytest.raises(ValueError):
            FieldMatrix([[1]], 9)
        with pytest.raises(ValueError):
            FieldMatrix([[1]], 1)


# Frozen inverse tables, each independently recomputed by scanning all
# candidate matrices' products against the identity (see oracle test below).
INVERSE_GOLDENS = [
    # (matrix, modulus, inverse)
    ([[1, 1, 1], [1, 2, 3], [1, 4, 9]], 11, [[3, 3, 6], [8, 4, 10], [1, 4, 6]]),
    ([[1, 1, 1], [4, 5, 6], [5, 3, 3]], 11, [[4, 0, 6], [9, 10, 10], [10, 1, 6]]),
    ([[1, 1], [1, 2]], 5, [[2, 4], [4, 1]]),
    ([[1, 1], [2, 3]], 5, [[3, 4], [3, 1]]),
    ([[1, 1], [1, 3]], 5, [[4, 2], [2, 3]]),
]


class TestFieldMatrix:
    def test_scalar_inverse_matches_brute_force_all_small_fields(self):
        for q in SMALL_PRIMES:
            for v in range(1, q):
                inverse = FieldMatrix([[v]], q).inverse()
                assert inverse.array[0, 0] == brute_force_inverse(v, q)
            with pytest.raises(SingularMatrixError):
                FieldMatrix([[0]], q).inverse()

    def test_inverse_goldens(self):
        for rows, q, expected in INVERSE_GOLDENS:
            m = FieldMatrix(rows, q)
            assert m.inverse().to_lists() == expected

    def test_goldens_are_actual_inverses(self):
        for rows, q, expected in INVERSE_GOLDENS:
            n = len(rows)
            product = times(FieldMatrix(rows, q), FieldMatrix(expected, q))
            assert product == FieldMatrix(np.eye(n, dtype=np.int64), q)

    def test_inverse_random_matrices(self):
        rng = np.random.default_rng(42)
        for q in (5, 7, 11):
            for size in (1, 2, 3, 4, 5):
                found = 0
                while found < 5:
                    m = FieldMatrix(rng.integers(0, q, size=(size, size)), q)
                    if m.determinant() == 0:
                        continue
                    found += 1
                    identity = FieldMatrix(np.eye(size, dtype=np.int64), q)
                    assert times(m, m.inverse()) == identity
                    assert times(m.inverse(), m) == identity

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            FieldMatrix([[1, 2], [2, 4]], 5).inverse()
        with pytest.raises(SingularMatrixError):
            FieldMatrix([[0]], 7).inverse()

    def test_nonsquare_inverse_raises(self):
        with pytest.raises(ValueError, match="square"):
            FieldMatrix([[1, 2, 3], [4, 5, 6]], 7).inverse()
        h = build_vandermonde_pair(11, 6, 3).parity_check.array
        for cols in ([0, 1], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match=r"square matrix, got \(3, \d\)$"):
                FieldMatrix(h[:, cols], 11).inverse()

    def test_determinant_against_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for q in (5, 11):
            for _ in range(100):
                rows = rng.integers(0, q, size=(3, 3)).tolist()
                m = FieldMatrix(rows, q)
                assert int(m.determinant()) == det3_oracle(rows, q)

    def test_determinant_row_exchanges(self):
        # leading zeros force one exchange, two, or one per column; at q = 2
        # a negated determinant is the same residue, at 4294967291 the pass
        # runs on Python ints
        rng = np.random.default_rng(9)
        patterns = [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[0, 1, 1], [0, 0, 1], [1, 1, 1]],
        ]
        for q in (2, 4294967291):
            assert FieldMatrix(patterns[0], q).determinant() == q - 1
            assert FieldMatrix(patterns[1], q).determinant() == 1
            for pattern in patterns:
                for _ in range(10):
                    scale = rng.integers(1, q, size=(3, 3), dtype=np.int64)
                    rows = (np.array(pattern) * scale).tolist()
                    assert FieldMatrix(rows, q).determinant() == det3_oracle(rows, q)

    def test_determinant_detects_singularity(self):
        # det == 0 exactly when Gauss-Jordan inversion fails
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = FieldMatrix(rng.integers(0, 5, size=(3, 3)), 5)
            if int(m.determinant()) == 0:
                with pytest.raises(SingularMatrixError):
                    m.inverse()
            else:
                m.inverse()

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 7, size=(3, 4))
        b = rng.integers(0, 7, size=(4, 2))
        got = mod_matmul(FieldMatrix(a, 7).array, FieldMatrix(b, 7).array, 7)
        assert got.tolist() == ((a @ b) % 7).tolist()

    def test_shape_checks(self):
        # mod_matmul refuses unequal inner dimensions on both of its paths
        a = FieldMatrix([[1, 2]], 5).array
        b = FieldMatrix([[1], [2]], 5).array
        for q in (5, BIG_PRIMES[-1]):
            with pytest.raises(ValueError):
                mod_matmul(a, a, q)
            assert mod_matmul(a, b, q).shape == (1, 1)

    def test_mat_vec(self):
        m = FieldMatrix([[1, 2], [3, 4]], 5)
        assert m.mat_vec((1, 1)) == (3, 2)
        with pytest.raises(ValueError):
            m.mat_vec((1, 2, 3))

    def test_selection_and_views(self):
        m = FieldMatrix([[1, 2, 3], [4, 5, 6]], 7)
        assert m.array[:, [0, 2]].tolist() == [[1, 3], [4, 6]]
        assert m.array.T.tolist() == [[1, 4], [2, 5], [3, 6]]
        assert m.to_lists() == [[1, 2, 3], [4, 5, 6]]
        assert m.array[:, 1].tolist() == [2, 5]
        assert int(m.array[1, 2]) == 6
        assert not m.array.flags.writeable
        assert m.shape == (2, 3)

    def test_entries_are_ints_of_any_size(self):
        # ints and integer arrays are reduced mod q, whatever their size
        assert FieldMatrix([[2**64, -(2**70)]], 5).to_lists() == [[2**64 % 5, -(2**70) % 5]]
        assert FieldMatrix([[np.int64(-3), 7]], 5).to_lists() == [[2, 2]]
        wide = np.array([[2**64 - 1, 2**63]], dtype=np.uint64)
        assert FieldMatrix(wide, 5).to_lists() == [[(2**64 - 1) % 5, 2**63 % 5]]
        assert FieldMatrix([np.array([1, 9]), (2**80, 4)], 7).to_lists() == [[1, 2], [2**80 % 7, 4]]
        # floats, bools and anything else are refused, not truncated
        for rows, kind in (
            ([[1.5]], "float"),
            ([[1.0, 3]], "float"),
            ([[True, 3, 1]], "bool"),
            ([[np.float64(2.0)]], "float64"),
            (np.array([[1.5]]), "float64"),
            (np.array([[True, False]]), "bool"),
            ([["3"]], "str"),
            ([[None]], "NoneType"),
        ):
            with pytest.raises(TypeError, match=f"^matrix entries must be ints, got {kind}$"):
                FieldMatrix(rows, 5)
        with pytest.raises(ValueError, match="2-d"):
            FieldMatrix([1, 2, 3], 5)

    def test_immutability(self):
        m = FieldMatrix([[1]], 5)
        with pytest.raises(AttributeError):
            m.modulus = 7


class TestNullSpace:
    def test_golden_q5(self):
        h = FieldMatrix([[1, 1, 1], [1, 2, 3]], 5)
        assert h.null_space_basis().to_lists() == [[1, 3, 1]]

    def test_basis_is_orthogonal_and_full(self):
        rng = np.random.default_rng(5)
        for q in (5, 7, 11, 13):
            for n in range(2, min(q, 7)):
                for l in range(1, n):
                    # Vandermonde rows always have full row rank
                    h = FieldMatrix(
                        [[pow(p, i, q) for p in range(n)] for i in range(l)], q
                    )
                    basis = h.null_space_basis()
                    assert basis.shape == (n - l, n)
                    assert basis.rank() == n - l
                    prod = times(h, FieldMatrix(basis.array.T, q))
                    assert prod == FieldMatrix(np.zeros((l, n - l), dtype=np.int64), q)

    def test_canonical_form(self):
        # each basis row has a 1 in its own free column and 0 in the others,
        # with free columns taken in ascending order
        h = FieldMatrix([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]], 5)
        basis = h.null_space_basis()
        _, pivots, _ = rref(h.array, 5)
        free = [c for c in range(5) if c not in pivots]
        assert free == sorted(free)
        for i, fc in enumerate(free):
            for j, other in enumerate(free):
                assert int(basis.array[i, other]) == (1 if i == j else 0), (i, fc)

    def test_deterministic(self):
        h = FieldMatrix([[1, 1, 1, 1], [1, 2, 4, 3]], 7)
        assert h.null_space_basis() == h.null_space_basis()

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            FieldMatrix([[1, 2, 3], [2, 4, 6]], 7).null_space_basis()

    def test_rank(self):
        assert FieldMatrix([[1, 2], [2, 4]], 5).rank() == 1
        assert FieldMatrix([[1, 0], [0, 1]], 5).rank() == 2
        assert FieldMatrix(np.zeros((2, 3), dtype=np.int64), 5).rank() == 0


# Primes whose products of two residues leave int64: the smallest such prime
# and 4294967291, the largest prime below the 4-byte wire symbol.
BIG_PRIMES = (3037000507, 4294967291)
EDGE_PRIME = 2**31 - 1


def py_matmul(a, b, q):
    """Oracle: row-by-column products in Python ints."""
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def residues(rng, q, shape):
    return [[int(x) for x in row] for row in rng.integers(0, q, size=shape, dtype=np.int64)]


class TestExactProducts:
    def test_int64_bound(self):
        # inner * (q-1)^2 + q < 2^63, exactly at the edge
        assert int64_exact(EDGE_PRIME, 2)
        assert not int64_exact(EDGE_PRIME, 3)
        assert not int64_exact(3037000507, 1)
        assert int64_exact(3037000493, 1)
        assert int64_exact(257, 32)

    def test_mod_matmul_matches_python_ints(self):
        rng = np.random.default_rng(5)
        for q in (257, EDGE_PRIME) + BIG_PRIMES:
            for inner in (1, 2, 3, 7):
                a = residues(rng, q, (3, inner))
                b = residues(rng, q, (inner, 4))
                got = mod_matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
                assert got.dtype == np.int64
                assert got.tolist() == py_matmul(a, b, q), (q, inner)

    def test_matmul_and_mat_vec_at_big_moduli(self):
        rng = np.random.default_rng(6)
        for q in (EDGE_PRIME,) + BIG_PRIMES:
            a = residues(rng, q, (4, 5))
            b = residues(rng, q, (5, 3))
            v = [row[0] for row in b]
            got = mod_matmul(FieldMatrix(a, q).array, FieldMatrix(b, q).array, q)
            assert got.tolist() == py_matmul(a, b, q)
            assert FieldMatrix(a, q).mat_vec(v) == tuple(
                row[0] for row in py_matmul(a, [[x] for x in v], q)
            )

    def test_elimination_at_big_moduli(self):
        rng = np.random.default_rng(8)
        for q in BIG_PRIMES:
            for size in (2, 3, 4):
                rows = residues(rng, q, (size, size))
                m = FieldMatrix(rows, q)
                product = mod_matmul(m.array, m.inverse().array, q)
                assert product.tolist() == np.eye(size, dtype=np.int64).tolist()
                if size == 3:
                    assert int(m.determinant()) == det3_oracle(rows, q)
            wide = FieldMatrix(residues(rng, q, (2, 5)), q)
            basis = wide.null_space_basis()
            assert basis.rows == 3 and basis.rank() == 3
            assert mod_matmul(wide.array, basis.array.T, q).tolist() == [[0] * 3] * 2

    @pytest.mark.parametrize("q", (EDGE_PRIME,) + BIG_PRIMES)
    @pytest.mark.parametrize("inner", (1, 2, 3, 2**15 - 1, 2**15, 2**15 + 1))
    def test_mod_matmul_at_limb_boundaries(self, q, inner):
        # every entry q-1, the largest partial products, then random
        # residues; 2^15 - 1 terms fill one chunk of the limb split
        rng = np.random.default_rng(inner)
        for a, b in (
            ([[q - 1] * inner] * 2, [[q - 1] * 3] * inner),
            (residues(rng, q, (2, inner)), residues(rng, q, (inner, 3))),
        ):
            a64, b64 = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
            expected = py_matmul(a, b, q)
            got = mod_matmul(a64, b64, q)
            assert got.dtype == np.int64 and got.tolist() == expected
            # a vector and a stack on the right chunk their own inner axis
            assert mod_matmul(a64, b64[:, 0], q).tolist() == [row[0] for row in expected]
            stacked = mod_matmul(np.stack((a64, a64)), np.stack((b64, b64)), q)
            assert stacked.tolist() == [expected, expected]

    def test_mod_mul_at_the_largest_residues(self):
        for q in (257, EDGE_PRIME) + BIG_PRIMES:
            top = np.full(3, q - 1, dtype=np.int64)
            assert mod_mul(top, top, q).tolist() == [(q - 1) ** 2 % q] * 3
            assert mod_mul(-top, top, q, add=top).tolist() == [(q - 1) * (2 - q) % q] * 3
            assert mod_mul(top, q - 1, q).dtype == np.int64
            assert mod_mul(q - 1, q - 1, q) == (q - 1) ** 2 % q

    def test_kernels_stay_int64_at_the_largest_modulus(self):
        q = BIG_PRIMES[-1]
        points = (q - 1, 7, 0, 2**31, q - 2)
        pair = build_vandermonde_pair(q, 5, 3, points=points)
        h = pair.parity_check.array
        assert h.dtype == pair.generator.array.dtype == np.int64
        assert h.tolist() == [[pow(x, i, q) for x in points] for i in range(3)]
        assert pair.generator.to_lists() == reference_null_space(h.tolist(), 5, q)
        reduced, pivots, _ = rref(pair.generator.array, q)
        assert reduced.dtype == np.int64
        assert (reduced.tolist(), pivots) == reference_rref(pair.generator.to_lists(), 5, q)
        sets = [(0, 1, 2), (4, 2, 0), (1, 3, 4)]
        for cols, inverse in zip(sets, pair._minor_inverses(sets)):
            assert inverse.dtype == np.int64
            assert inverse.tolist() == reference_inverse(h[:, cols].tolist(), q)



def reference_rref(rows, n_cols: int, q: int):
    """Oracle: scalar Gauss-Jordan in Python ints, one row update per
    (pivot, row) pair; returns the reduced rows and the pivot columns."""
    m = [[int(x) % q for x in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((rr for rr in range(r, len(m)) if m[rr][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [x * inv % q for x in m[r]]
        for rr in range(len(m)):
            factor = m[rr][c]
            if rr != r and factor:
                m[rr] = [(x - factor * y) % q for x, y in zip(m[rr], m[r])]
        pivots.append(c)
    return m, pivots


def reference_inverse(rows, q: int):
    """Oracle: the right half of the reduced [A | I], or the first column
    of A without a pivot when A is singular."""
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    m, pivots = reference_rref(augmented, 2 * n, q)
    for c in range(n):
        if pivots[c] != c:
            return c
    return [row[n:] for row in m]


def reference_null_space(rows, n_cols: int, q: int):
    """Oracle: one basis row per free column, ascending, from the reference
    RREF."""
    m, pivots = reference_rref(rows, n_cols, q)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [0] * n_cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc] % q
        basis.append(vec)
    return basis


# Products leave int64 from 3037000507 on, where the limb split starts;
# 4294967291 is the largest prime admitted.
ELIMINATION_PRIMES = (2, 3, 5, 257, 3037000507, 4294967291)


def elimination_cases(q: int):
    """Seeded matrices of every shape elimination meets, as lists of rows
    with their column count: square, wide, tall, rank-deficient, all-zero,
    1 x 1 and 0-row."""
    rng = np.random.default_rng(q % 1000)

    def rand(r, c):
        return [[int(x) for x in row] for row in rng.integers(0, q, size=(r, c))]

    low = py_matmul(rand(4, 2), rand(2, 5), q)  # rank at most 2
    cases = [rand(n, n) for n in (2, 3, 4, 5) for _ in range(3)]
    cases += [rand(2, 5), rand(3, 7), rand(5, 2), rand(6, 3), low]
    cases += [[[0] * 4 for _ in range(3)], [[0] * 3 for _ in range(3)]]
    cases += [[[int(rng.integers(0, q))]], [[0]]]
    return [(rows, len(rows[0])) for rows in cases] + [([], 3)]


def as_matrix(rows, n_cols: int, q: int) -> FieldMatrix:
    return FieldMatrix(np.array(rows, dtype=np.int64).reshape(len(rows), n_cols), q)


class TestEliminationAgainstScalarReference:
    def test_rref_and_rank(self):
        for q in ELIMINATION_PRIMES:
            for rows, n_cols in elimination_cases(q):
                m = as_matrix(rows, n_cols, q)
                reduced, pivots, _ = rref(m.array, q)
                expected, expected_pivots = reference_rref(rows, n_cols, q)
                assert pivots == expected_pivots, (q, rows)
                assert reduced.dtype == np.int64
                assert reduced.tolist() == expected, (q, rows)
                assert m.rank() == len(expected_pivots)

    def test_inverse_and_singular(self):
        seen = set()
        for q in ELIMINATION_PRIMES:
            for rows, n_cols in elimination_cases(q):
                if len(rows) != n_cols:
                    continue
                m = as_matrix(rows, n_cols, q)
                expected = reference_inverse(rows, q)
                if isinstance(expected, int):
                    seen.add((q, "singular"))
                    message = f"singular mod {q}: no pivot in column {expected}$"
                    with pytest.raises(SingularMatrixError, match=message):
                        m.inverse()
                else:
                    seen.add((q, "invertible"))
                    assert m.inverse().to_lists() == expected, (q, rows)
        kinds = ("singular", "invertible")
        assert {(q, kind) for q in ELIMINATION_PRIMES for kind in kinds} <= seen

    def test_every_minor_of_a_pair(self):
        pair = build_vandermonde_pair(11, 6, 3)
        h = pair.parity_check
        for cols in itertools.combinations(range(6), 3):
            inverse = FieldMatrix(h.array[:, cols], 11).inverse()
            assert inverse.array.dtype == np.int64 and inverse.shape == (3, 3)
            assert inverse.to_lists() == reference_inverse(h.array[:, cols].tolist(), 11)

    def test_members_pivot_on_their_own_rows(self):
        # each matrix needs a different row exchange, and one none at all
        for q in (5, 4294967291):
            members = [
                [[0, 1, 2], [0, 0, 1], [1, 2, 3]],
                [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
                [[0, 0, 1], [q - 1, 0, 0], [0, 1, 1]],
            ]
            for rows in members:
                assert FieldMatrix(rows, q).inverse().to_lists() == reference_inverse(rows, q)

    def test_null_space_basis(self):
        for q in ELIMINATION_PRIMES:
            for rows, n_cols in elimination_cases(q):
                m = as_matrix(rows, n_cols, q)
                if len(reference_rref(rows, n_cols, q)[1]) < len(rows):
                    with pytest.raises(RankDeficientError):
                        m.null_space_basis()
                    continue
                assert m.null_space_basis().to_lists() == reference_null_space(
                    rows, n_cols, q
                ), (q, rows)


# Entry points that take a modulus, each fed it as the only bad input.
MODULUS_ENTRIES = {
    "make_association": lambda q: make_association(q, 3, 3, 2),
    "PidConfig": lambda q: PidConfig(q, 1, 1, 1, ((1,),)),
    "FieldMatrix": lambda q: FieldMatrix([[1]], q),
    "build_vandermonde_pair": lambda q: build_vandermonde_pair(q, 3, 2),
    "override_generator": lambda q: override_generator(
        SimpleNamespace(points=(1, 2, 3), msg_len=2, modulus=q), [[1, 3, 1]]
    ),
    "raw_slice_round": lambda q: run_subset_scheme(
        2, 2, 1, 2, (Message(1, (0, 0), q), Message(2, (0, 0), q)), 1
    ),
    "raw_slice_wire_round": lambda q: simulate_subset_round(
        2, 2, 1, 2, (Message(1, (0, 0), q), Message(2, (0, 0), q)), 1
    ),
}
WIRE_TEXT = "does not fit the 4-byte wire symbol: q must be below 2\\^32"
BAD_MODULI = [
    (5.0, TypeError, "modulus must be an int, got float"),
    (True, TypeError, "modulus must be an int, got bool"),
    (2**61 - 1, ValueError, f"modulus {2**61 - 1} {WIRE_TEXT}"),
    (2**89 - 1, ValueError, f"modulus {2**89 - 1} {WIRE_TEXT}"),
]


class TestModulusRule:
    def test_the_rule(self):
        assert MODULUS_LIMIT == 2**32
        check_modulus(2)
        check_modulus(4294967291)
        for q in (0, 1, 4, 2**32 - 1):
            with pytest.raises(ValueError, match=f"modulus {q} is not prime"):
                check_modulus(q)

    @pytest.mark.parametrize("entry", sorted(MODULUS_ENTRIES))
    @pytest.mark.parametrize("q, error, text", BAD_MODULI, ids=["float", "bool", "2^61-1", "2^89-1"])
    def test_every_entry_point_refuses(self, entry, q, error, text):
        # an OverflowError or a served round fails this as well
        with pytest.raises(error, match=f"^{text}$"):
            MODULUS_ENTRIES[entry](q)


SRC = Path(__file__).resolve().parents[1] / "src" / "codedpid"


def private_field_uses(tree: ast.Module, private: set[str]) -> list[str]:
    """Every import of a ``_``-prefixed name from ``codedpid.field``, and
    every attribute read of a ``_``-prefixed name that ``field.py`` defines,
    in one module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "codedpid.field":
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in private:
            found.append(node.attr)
    return found


def test_no_module_reaches_into_field():
    # field's private names: its functions, classes and assigned names, and
    # the attributes it keeps on its objects (``FieldMatrix._a``)
    private = set()
    for node in ast.walk(ast.parse((SRC / "field.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            private.add(node.id)
        elif isinstance(node, ast.Attribute):
            private.add(node.attr)
    private = {n for n in private if n.startswith("_") and not n.startswith("__")}
    assert {"_reduced", "_CHUNK", "_a", "_INT64_LIMIT"} <= private
    uses = {
        path.name: private_field_uses(ast.parse(path.read_text()), private)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "field.py"
    }
    assert {name: found for name, found in uses.items() if found} == {}
    # the walk sees both forms of reaching in
    probe = "from codedpid.field import _reduced\nFieldMatrix(a, q)._a\n"
    assert private_field_uses(ast.parse(probe), private) == ["_reduced", "_a"]


def exactness_leaks(tree: ast.Module, is_field: bool) -> list[str]:
    """Every ``object`` dtype (``dtype=object``, ``astype(object)``) in one
    module's syntax tree, and, outside ``field.py``, every reference to
    ``int64_exact``: residue products are made exact in ``field`` alone."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                dtypes += node.args[:1]
            # ``object`` anywhere in the dtype, ``int64 if ... else object`` too
            found += [
                "object dtype"
                for d in dtypes
                if any(
                    isinstance(n, ast.Name) and n.id == "object"
                    or isinstance(n, ast.Attribute) and n.attr == "object_"
                    for n in ast.walk(d)
                )
            ]
        elif not is_field and (
            isinstance(node, ast.Name) and node.id == "int64_exact"
            or isinstance(node, ast.Attribute) and node.attr == "int64_exact"
            or isinstance(node, ast.alias) and node.name == "int64_exact"
        ):
            found.append("int64_exact")
    return found


def test_exact_arithmetic_lives_in_field():
    leaks = {
        path.name: exactness_leaks(ast.parse(path.read_text()), path.name == "field.py")
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in leaks.items() if found} == {}
    # the walk sees every form it refuses
    probe = (
        "from codedpid.field import int64_exact\n"
        "np.array(x, dtype=object)\nx.astype(np.int64 if w else object)\n"
        "np.ones(3, dtype=np.object_)\n"
        "field.int64_exact(q, 1)\nint64_exact(q, 1)\n"
    )
    assert exactness_leaks(ast.parse(probe), False) == (
        ["int64_exact"] + ["object dtype"] * 3 + ["int64_exact"] * 2
    )
    assert exactness_leaks(ast.parse(probe), True) == ["object dtype"] * 3
