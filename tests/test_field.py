"""Field matrix arithmetic and primality, checked against brute-force oracles."""

import itertools
import time

import numpy as np
import pytest

from codedpid.field import (
    FieldMatrix,
    RankDeficientError,
    SingularMatrixError,
    all_square_submatrices_invertible,
    int64_exact,
    is_prime,
    mod_matmul,
)

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
                assert inverse[0, 0] == brute_force_inverse(v, q)
            with pytest.raises(SingularMatrixError):
                FieldMatrix([[0]], q).inverse()

    def test_inverse_goldens(self):
        for rows, q, expected in INVERSE_GOLDENS:
            m = FieldMatrix(rows, q)
            assert m.inverse().to_lists() == expected

    def test_goldens_are_actual_inverses(self):
        for rows, q, expected in INVERSE_GOLDENS:
            n = len(rows)
            product = FieldMatrix(rows, q) @ FieldMatrix(expected, q)
            assert product == FieldMatrix.identity(n, q)

    def test_inverse_random_matrices(self):
        rng = np.random.default_rng(42)
        for q in (5, 7, 11):
            for size in (1, 2, 3, 4, 5):
                found = 0
                while found < 5:
                    m = FieldMatrix(rng.integers(0, q, size=(size, size)), q)
                    if not m.is_invertible():
                        continue
                    found += 1
                    assert m @ m.inverse() == FieldMatrix.identity(size, q)
                    assert m.inverse() @ m == FieldMatrix.identity(size, q)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            FieldMatrix([[1, 2], [2, 4]], 5).inverse()
        with pytest.raises(SingularMatrixError):
            FieldMatrix([[0]], 7).inverse()

    def test_nonsquare_inverse_raises(self):
        with pytest.raises(ValueError, match="square"):
            FieldMatrix([[1, 2, 3], [4, 5, 6]], 7).inverse()

    def test_determinant_against_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for q in (5, 11):
            for _ in range(100):
                rows = rng.integers(0, q, size=(3, 3)).tolist()
                m = FieldMatrix(rows, q)
                assert int(m.determinant()) == det3_oracle(rows, q)

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
        got = FieldMatrix(a, 7) @ FieldMatrix(b, 7)
        assert got.to_lists() == ((a @ b) % 7).tolist()

    def test_mat_vec(self):
        m = FieldMatrix([[1, 2], [3, 4]], 5)
        assert m.mat_vec((1, 1)) == (3, 2)
        with pytest.raises(ValueError):
            m.mat_vec((1, 2, 3))

    def test_shape_checks(self):
        a = FieldMatrix([[1, 2]], 5)
        b = FieldMatrix([[1], [2]], 5)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a @ a
        with pytest.raises(ValueError):
            a + FieldMatrix([[1, 2]], 7)

    def test_add_sub_neg_scale(self):
        a = FieldMatrix([[1, 2], [3, 4]], 5)
        b = FieldMatrix([[4, 4], [4, 4]], 5)
        assert (a + b).to_lists() == [[0, 1], [2, 3]]
        assert (a - b).to_lists() == [[2, 3], [4, 0]]
        assert (-a).to_lists() == [[4, 3], [2, 1]]
        assert a.scale(2).to_lists() == [[2, 4], [1, 3]]

    def test_selection_and_views(self):
        m = FieldMatrix([[1, 2, 3], [4, 5, 6]], 7)
        assert m.select_columns((0, 2)).to_lists() == [[1, 3], [4, 6]]
        assert m.select_rows((1,)).to_lists() == [[4, 5, 6]]
        assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
        assert m.row_tuples() == ((1, 2, 3), (4, 5, 6))
        assert m.column_tuple(1) == (2, 5)
        assert int(m[1, 2]) == 6
        assert m.shape == (2, 3)

    def test_stack_below(self):
        a = FieldMatrix([[1, 2]], 5)
        b = FieldMatrix([[3, 4]], 5)
        assert a.stack_below(b).to_lists() == [[1, 2], [3, 4]]

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
                    prod = h @ basis.transpose()
                    assert prod == FieldMatrix.zeros(l, n - l, q)

    def test_canonical_form(self):
        # each basis row has a 1 in its own free column and 0 in the others,
        # with free columns taken in ascending order
        h = FieldMatrix([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]], 5)
        basis = h.null_space_basis()
        _, pivots = h._rref()
        free = [c for c in range(5) if c not in pivots]
        assert free == sorted(free)
        for i, fc in enumerate(free):
            for j, other in enumerate(free):
                assert int(basis[i, other]) == (1 if i == j else 0), (i, fc)

    def test_deterministic(self):
        h = FieldMatrix([[1, 1, 1, 1], [1, 2, 4, 3]], 7)
        assert h.null_space_basis() == h.null_space_basis()

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            FieldMatrix([[1, 2, 3], [2, 4, 6]], 7).null_space_basis()

    def test_rank(self):
        assert FieldMatrix([[1, 2], [2, 4]], 5).rank() == 1
        assert FieldMatrix([[1, 0], [0, 1]], 5).rank() == 2
        assert FieldMatrix.zeros(2, 3, 5).rank() == 0


class TestMinorEnumeration:
    def test_vandermonde_is_mds(self):
        h = FieldMatrix([[pow(p, i, 11) for p in range(1, 7)] for i in range(3)], 11)
        assert all_square_submatrices_invertible(h, 3)

    def test_detects_singular_minor(self):
        m = FieldMatrix([[1, 1, 2], [2, 2, 3]], 5)  # columns 0,1 proportional
        assert not all_square_submatrices_invertible(m, 2)

    def test_degenerate_and_errors(self):
        m = FieldMatrix([[1, 2], [3, 4]], 5)
        assert all_square_submatrices_invertible(m, 0)
        with pytest.raises(ValueError):
            all_square_submatrices_invertible(m, 3)

    def test_sampled_mode_agrees_on_mds_matrix(self):
        h = FieldMatrix([[pow(p, i, 13) for p in range(12)] for i in range(4)], 13)
        assert all_square_submatrices_invertible(h, 4, samples=50, seed=1)

    def test_exhaustive_matches_direct_combination_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = FieldMatrix(rng.integers(0, 5, size=(2, 4)), 5)
            expected = all(
                int(m.select_columns(cols).determinant()) != 0
                for cols in itertools.combinations(range(4), 2)
            )
            assert all_square_submatrices_invertible(m, 2) == expected


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
            assert (FieldMatrix(a, q) @ FieldMatrix(b, q)).to_lists() == py_matmul(a, b, q)
            assert FieldMatrix(a, q).mat_vec(v) == tuple(
                row[0] for row in py_matmul(a, [[x] for x in v], q)
            )
            assert FieldMatrix(a, q).scale(q - 2).to_lists() == [
                [x * (q - 2) % q for x in row] for row in a
            ]

    def test_elimination_at_big_moduli(self):
        rng = np.random.default_rng(8)
        for q in BIG_PRIMES:
            for size in (2, 3, 4):
                rows = residues(rng, q, (size, size))
                m = FieldMatrix(rows, q)
                assert m @ m.inverse() == FieldMatrix.identity(size, q)
                if size == 3:
                    assert int(m.determinant()) == det3_oracle(rows, q)
            wide = FieldMatrix(residues(rng, q, (2, 5)), q)
            basis = wide.null_space_basis()
            assert basis.rows == 3 and basis.rank() == 3
            assert wide @ basis.transpose() == FieldMatrix.zeros(2, 3, q)
