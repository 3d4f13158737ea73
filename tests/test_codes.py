"""Code-pair construction, structural invariants, and overrides."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import codedpid.field
from codedpid import cli
from codedpid.codes import CodePair, build_vandermonde_pair, override_generator
from codedpid.field import (
    MODULUS_LIMIT,
    FieldMatrix,
    SingularMatrixError,
    mod_matmul,
)
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import CANONICAL, encode_storage, make_association, random_messages
from codedpid.sim import simulate_round
from test_field import BIG_PRIMES, reference_inverse

# Frozen: the parity check on points 1..6 over F_11 and a compatible
# hand-picked generator (orthogonality and both MDS properties re-verified
# from scratch in the tests below).
H_Q11 = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5, 6],
    [1, 4, 9, 5, 3, 3],
]
G_Q11 = [
    [3, 8, 1, 7, 2, 1],
    [3, 4, 4, 0, 1, 10],
    [6, 10, 6, 5, 1, 5],
]


class TestVandermondeConstruction:
    def test_parity_check_golden_q11(self):
        pair = build_vandermonde_pair(11, 6, 3, points=(1, 2, 3, 4, 5, 6))
        assert pair.parity_check.to_lists() == H_Q11

    def test_parity_check_golden_q5(self):
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        assert pair.parity_check.to_lists() == [[1, 1, 1], [1, 2, 3]]

    def test_default_points(self):
        pair = build_vandermonde_pair(7, 5, 2)
        assert pair.points == (0, 1, 2, 3, 4)
        assert pair.parity_check.to_lists()[0] == [1, 1, 1, 1, 1]
        assert pair.parity_check.to_lists()[1] == [0, 1, 2, 3, 4]

    def test_generator_is_canonical_null_basis(self):
        # the closed form against elimination: K64, L in {1, N-1, N} (N the
        # empty generator), given points (q5-k3's, and ones reduced mod q)
        # and the moduli whose products leave int64
        cases = [(5, 3, 2), (7, 6, 3), (11, 6, 3), (13, 8, 4), (257, 64, 32)]
        cases += [(13, 8, l) for l in (1, 7, 8)]
        cases += [(q, 64, 32) for q in BIG_PRIMES]
        cases += [
            (5, 3, 2, (1, 2, 3)),
            (11, 6, 3, (12, -9, 3, 26, 5, -5)),
            (BIG_PRIMES[1], 5, 2, (4294967290, 7, 0, 2**40, -3)),
            (BIG_PRIMES[0], 4, 3, (-1, 2**33, 5, 3037000506 * 3)),
        ]
        for q, n, l, *points in cases:
            pair = build_vandermonde_pair(q, n, l, *points)
            assert pair.generator == pair.parity_check.null_space_basis(), (q, n, l)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_closed_form_matches_elimination_on_random_points(self, data):
        q = data.draw(st.sampled_from((2, 3, 5, 7, 13, 257, 2**31 - 1) + BIG_PRIMES))
        n = data.draw(st.integers(1, min(q, 10)), label="N")
        l = data.draw(st.integers(1, n), label="L")
        points = data.draw(
            st.lists(
                st.integers(-(2**40), 2**40),
                min_size=n,
                max_size=n,
                unique_by=lambda p: p % q,
            ),
            label="points",
        )
        pair = build_vandermonde_pair(q, n, l, points)
        assert pair.generator == pair.parity_check.null_space_basis()

    def test_orthogonality_every_pair(self):
        for q, n, l in [(5, 3, 1), (5, 3, 2), (7, 5, 2), (11, 6, 3), (13, 7, 5)]:
            pair = build_vandermonde_pair(q, n, l)
            prod = mod_matmul(pair.parity_check.array, pair.generator.array.T, q)
            assert FieldMatrix(prod, q) == FieldMatrix(np.zeros((l, n - l), dtype=np.int64), q)

    def test_full_length_code_has_empty_generator(self):
        pair = build_vandermonde_pair(7, 4, 4)
        assert pair.generator.shape == (0, 4)
        assert pair.mask_len == 0

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct"):
            build_vandermonde_pair(5, 3, 2, points=(1, 2, 1))

    def test_rejects_too_many_servers_for_field(self):
        with pytest.raises(ValueError):
            build_vandermonde_pair(5, 6, 2)

    def test_rejects_bad_msg_len(self):
        with pytest.raises(ValueError):
            build_vandermonde_pair(7, 4, 0)
        with pytest.raises(ValueError):
            build_vandermonde_pair(7, 4, 5)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError, match="prime"):
            build_vandermonde_pair(8, 4, 2)

    def test_modulus_must_fit_a_wire_symbol(self):
        assert MODULUS_LIMIT == 2**32
        assert build_vandermonde_pair(4294967291, 4, 2).modulus == 4294967291
        for q in (2**32, 4294967311, 18446744073709551557):
            with pytest.raises(ValueError, match="below 2\\^32"):
                build_vandermonde_pair(q, 4, 2)


class TestMdsInvariants:
    def test_every_parity_minor_invertible_q11(self):
        h = FieldMatrix(H_Q11, 11)
        for cols in itertools.combinations(range(6), 3):
            assert int(FieldMatrix(h.array[:, cols], 11).determinant()) != 0, cols

    def test_every_generator_minor_invertible_q11(self):
        g = FieldMatrix(G_Q11, 11)
        for cols in itertools.combinations(range(6), 3):
            assert int(FieldMatrix(g.array[:, cols], 11).determinant()) != 0, cols

    def test_constructed_pairs_satisfy_both_mds_sides(self):
        for q, n, l in [(5, 4, 2), (7, 6, 3), (11, 8, 3), (13, 9, 5)]:
            pair = build_vandermonde_pair(q, n, l)
            h, g = pair.parity_check, pair.generator
            for cols in itertools.combinations(range(n), l):
                assert int(FieldMatrix(h.array[:, cols], q).determinant()) != 0
            for cols in itertools.combinations(range(n), n - l):
                assert int(FieldMatrix(g.array[:, cols], q).determinant()) != 0

    def test_mask_shares_are_invisible_to_decoder(self):
        # every share vector produced from the generator decodes to zero
        rng = np.random.default_rng(17)
        for q, n, l in [(5, 3, 2), (11, 6, 3), (13, 7, 4)]:
            pair = build_vandermonde_pair(q, n, l)
            for _ in range(300):
                mask = rng.integers(0, q, size=n - l)
                shares = [
                    int(sum(c * u for c, u in zip(pair.generator.array[:, j], mask)) % q)
                    for j in range(n)
                ]
                assert pair.decode_vector(shares) == (0,) * l


class TestOverrideGenerator:
    def test_accepts_handpicked_generator(self):
        pair = build_vandermonde_pair(11, 6, 3, points=(1, 2, 3, 4, 5, 6))
        new = override_generator(pair, G_Q11)
        assert new.generator.to_lists() == G_Q11
        assert new.parity_check == pair.parity_check

    def test_rejects_non_orthogonal(self):
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        with pytest.raises(ValueError, match="orthogonal"):
            override_generator(pair, [[1, 0, 0]])

    def test_rejects_orthogonal_but_not_mds(self):
        # both rows orthogonal to the all-ones parity check, but columns
        # {0,1} are singular (and column 2 is zero)
        pair = build_vandermonde_pair(5, 3, 1, points=(1, 2, 3))
        assert pair.parity_check.to_lists() == [[1, 1, 1]]
        with pytest.raises(ValueError, match="generator columns"):
            override_generator(pair, [[1, 4, 0], [2, 3, 0]])

    def test_rejects_rank_deficient_generator_past_twelve_servers(self):
        # orthogonal rows that repeat: every 7-column minor is singular
        pair = build_vandermonde_pair(17, 14, 7)
        row = pair.generator.to_lists()[0]
        with pytest.raises(ValueError, match="generator columns"):
            override_generator(pair, [row] * 7)

    @pytest.mark.parametrize("q, n, l", [(5, 3, 1), (17, 14, 7)])
    def test_rank_deficient_generator_names_its_first_columns(self, q, n, l):
        # every (N-L)-column minor of a rank-deficient generator is singular,
        # so the first N-L columns are a failing set at any size
        pair = build_vandermonde_pair(q, n, l)
        row = pair.generator.to_lists()[0]
        with pytest.raises(ValueError) as info:
            override_generator(pair, [row] * (n - l))
        assert str(info.value) == (
            f"generator columns {tuple(range(n - l))} form a singular matrix mod {q}"
        )

    def test_canonical_build_runs_no_elimination(self, monkeypatch):
        # the canonical generator is written in closed form and is full rank
        # by its identity block; any other generator is still ranked
        def no_rref(*_):
            raise AssertionError("eliminated")

        monkeypatch.setattr(codedpid.field, "rref", no_rref)
        pair = build_vandermonde_pair(257, 64, 32)
        random_messages(make_association(257, 64, 64, 32), seed=7)
        assert override_generator(pair, pair.generator.to_lists()) == pair
        rows = pair.generator.to_lists()
        rows[0] = [(a + b) % 257 for a, b in zip(rows[0], rows[1])]
        with pytest.raises(AssertionError, match="eliminated"):
            override_generator(pair, rows)

    def test_vandermonde_pairs_need_no_minor_enumeration(self, monkeypatch):
        # distinct points make every parity-check minor a Vandermonde
        # determinant, and a full-rank orthogonal generator is then MDS
        def no_determinants(self):
            raise AssertionError("minor enumerated")

        monkeypatch.setattr(FieldMatrix, "determinant", no_determinants)
        pair = build_vandermonde_pair(13, 12, 6)
        override_generator(pair, pair.generator.to_lists())

    def test_rejects_wrong_row_count(self):
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        with pytest.raises(ValueError):
            override_generator(pair, [[1, 3, 1], [2, 1, 2]])


REPO = Path(__file__).resolve().parent.parent
Q5_CFG = REPO / "configs" / "q5-k3.cfg"
Q11_CFG = REPO / "configs" / "q11-k8.cfg"


class TestOverridePairBuiltOnce:
    """A config's ``generator_override`` pair is built once, by one
    ``CodePair`` construction, and is the pair ``override_generator`` makes
    of the canonical one: the same value, or the same refusal."""

    @staticmethod
    def two_builds(cfg):
        config = make_association(
            q=cfg.q, k_messages=cfg.k_messages, n_servers=cfg.n_servers,
            msg_len=cfg.msg_len, mode=cfg.mode, association=cfg.association,
        )
        pair = build_vandermonde_pair(cfg.q, cfg.n_servers, cfg.msg_len, points=cfg.points)
        return config, override_generator(pair, cfg.generator_override)

    @staticmethod
    def outcome(build, cfg):
        try:
            return build(cfg)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    @staticmethod
    def count_pairs(monkeypatch, build, *args):
        built = []
        post_init = CodePair.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        with monkeypatch.context() as patch:
            patch.setattr(CodePair, "__post_init__", counted)
            result = build(*args)
        return len(built), result

    @pytest.mark.parametrize(
        "path, instance", [(Q5_CFG, q5_instance), (Q11_CFG, q11_instance)]
    )
    def test_one_construction(self, monkeypatch, path, instance):
        cfg = cli.load_config(path)
        count, built = self.count_pairs(monkeypatch, cli.build_instance, cfg)
        assert count == 1
        assert built == self.two_builds(cfg)
        # the worked instances are the same pairs, built the same way
        assert self.count_pairs(monkeypatch, instance) == (1, built)

    def test_entries_reduced_mod_q(self):
        cfg = dataclasses.replace(
            cli.load_config(Q5_CFG), generator_override=((6, -2, 11),)
        )
        assert cli.build_instance(cfg) == self.two_builds(cfg) == q5_instance()

    @pytest.mark.parametrize(
        "change",
        [
            {"generator_override": ((1, 3),)},  # wrong width
            {"generator_override": ((1, 3, 1), (1, 3, 1))},  # wrong row count
            {"generator_override": ((1, 1, 1),)},  # not orthogonal
            {"generator_override": ((0, 0, 0),)},  # orthogonal, singular
            {"points": (1, 1, 3)},  # repeated
            {"points": (1, 6, 3)},  # repeated mod q
            {"points": (1, 2)},  # too few
            {"points": (1, 1, 3), "generator_override": ((1, 1, 1),)},  # points first
            {  # more servers than points mod q
                "n_servers": 6, "mode": CANONICAL, "association": None,
                "points": None, "generator_override": ((1,) * 6,) * 4,
            },
            {"q": 6},  # not a prime
        ],
        ids=[
            "width", "rows", "orthogonal", "singular", "repeated",
            "repeated-mod-q", "too-few", "points-first", "too-many-for-q",
            "modulus",
        ],
    )
    def test_same_refusal(self, change):
        cfg = dataclasses.replace(cli.load_config(Q5_CFG), **change)
        refusal = self.outcome(self.two_builds, cfg)
        assert issubclass(refusal[0], Exception)
        assert self.outcome(cli.build_instance, cfg) == refusal

    def test_rank_deficient_rows_past_one(self):
        cfg = dataclasses.replace(
            cli.load_config(Q11_CFG), generator_override=(G_Q11[0], G_Q11[0], G_Q11[2])
        )
        expected = (ValueError, "generator columns (0, 1, 2) form a singular matrix mod 11")
        assert self.outcome(self.two_builds, cfg) == expected
        assert self.outcome(cli.build_instance, cfg) == expected


class TestCodePairApi:
    def test_dimension_properties(self):
        pair = build_vandermonde_pair(11, 6, 3)
        assert pair.n_servers == 6
        assert pair.msg_len == 3
        assert pair.mask_len == 3

    def test_generator_given_as_field_matrix(self):
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        again = CodePair(pair.points, pair.msg_len, pair.modulus, pair.generator)
        assert again == pair
        assert again.generator is pair.generator
        assert CodePair((1, 2, 3), 2, 5, FieldMatrix([[1, 3, 1]], 5)) == pair
        # a generator over another field is refused, not reduced
        with pytest.raises(ValueError, match="generator modulus 7 != code modulus 5"):
            CodePair((1, 2, 3), 2, 5, FieldMatrix([[1, 3, 1]], 7))

    def test_generator_entries_follow_the_int_rule(self):
        # ints of any size are reduced mod q, floats and bools are refused:
        # by CodePair and by override_generator alike
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        big = [[1 + 5 * 2**65, 3 - 5 * 2**70, 2**64 * 5 + 1]]
        assert CodePair((1, 2, 3), 2, 5, big) == pair
        assert override_generator(pair, big) == pair
        for rows, kind in (([[1.7, 3, 1]], "float"), ([[True, 3, 1]], "bool")):
            with pytest.raises(TypeError, match=f"matrix entries must be ints, got {kind}$"):
                CodePair((1, 2, 3), 2, 5, rows)
            with pytest.raises(TypeError, match=f"matrix entries must be ints, got {kind}$"):
                override_generator(pair, rows)

    def test_plain_int_views(self):
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        assert pair.parity_check.to_lists() == [[1, 1, 1], [1, 2, 3]]
        assert pair.generator.array.T.tolist() == [[1], [3], [1]]

    def test_sub_inverse_matches_direct_inverse_and_caches(self):
        pair = build_vandermonde_pair(11, 6, 3, points=(1, 2, 3, 4, 5, 6))
        for cols in itertools.combinations(range(6), 3):
            minor = FieldMatrix(pair.parity_check.array[:, cols], 11)
            direct = tuple(map(tuple, minor.inverse().to_lists()))
            assert pair.h_sub_inverse(cols) == direct
            # the cache keeps the inverted array; a second call reads it
            cached = pair._sub_inverse_cache[cols]
            assert pair.h_sub_inverse(cols) == direct
            assert pair._sub_inverse_cache[cols] is cached
            assert not cached.flags.writeable

    def test_sub_inverse_needs_msg_len_columns(self):
        pair = build_vandermonde_pair(11, 6, 3)
        for cols in ((0, 1), (0, 1, 2, 3)):
            with pytest.raises(ValueError, match="square"):
                pair.h_sub_inverse(cols)
        with pytest.raises(SingularMatrixError):
            pair.h_sub_inverse((0, 0, 1))

    def test_sub_inverse_goldens(self):
        pair = build_vandermonde_pair(11, 6, 3, points=(1, 2, 3, 4, 5, 6))
        assert pair.h_sub_inverse((0, 1, 2)) == ((3, 3, 6), (8, 4, 10), (1, 4, 6))
        assert pair.h_sub_inverse((3, 4, 5)) == ((4, 0, 6), (9, 10, 10), (10, 1, 6))

    def test_decode_vector(self):
        pair = build_vandermonde_pair(5, 3, 2, points=(1, 2, 3))
        assert pair.decode_vector((2, 2, 2)) == (1, 2)

    def test_direct_construction_validation(self):
        pair = CodePair((1, 2, 3), 2, 5, [[1, 3, 1]])
        assert pair.generator == FieldMatrix([[1, 3, 1]], 5)
        assert (pair.n_servers, pair.msg_len, pair.mask_len) == (3, 2, 1)
        with pytest.raises(ValueError, match="3 columns but generator has 2"):
            CodePair((1, 2, 3), 2, 5, [[1, 3]])
        with pytest.raises(ValueError, match="row counts 2\\+2 do not sum to 3"):
            CodePair((1, 2, 3), 2, 5, [[1, 3, 1], [2, 1, 2]])
        for l in (-1, 0, 4):
            with pytest.raises(ValueError, match=f"message length {l} must be between 1 and 3"):
                CodePair((1, 2, 3), l, 5, np.eye(3, dtype=np.int64))

    def test_modulus_mismatch(self):
        # the rows of a generator mod 5 are not orthogonal mod 7
        with pytest.raises(ValueError, match="not orthogonal"):
            CodePair((1, 2, 3), 2, 7, [[1, 3, 1]])

    def test_parity_check_must_be_the_points_vandermonde(self):
        # the pair derives its parity check from its points; none is taken
        for points, rows in (
            ((1, 2, 3), [[1, 1, 1], [1, 2, 3]]),
            ((0, 1, 4), [[1, 1, 1], [0, 1, 4]]),
        ):
            h = FieldMatrix(rows, 5)
            g = h.null_space_basis()
            assert CodePair(points, 2, 5, g.array).parity_check == h
        with pytest.raises(TypeError, match="parity_check"):
            CodePair(parity_check=h, generator=g, points=(0, 1, 4), modulus=5)

    def test_points_must_be_distinct_mod_q(self):
        with pytest.raises(ValueError, match="distinct mod 5"):
            CodePair((1, 6, 3), 2, 5, [[1, 4, 0]])


# -- closed-form minor inverses ----------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
MINOR_PRIMES = (2, 3, 5, 13, 257, 65521, 4294967291)


@st.composite
def minor_cases(draw, repeats=False):
    """A prime, L in 1..8, N distinct points mod q (N >= L) and a few column
    sets of L in any order: distinct columns, or columns that may repeat."""
    q = draw(st.sampled_from(MINOR_PRIMES))
    l = draw(st.integers(1, min(8, q)))
    n = draw(st.integers(l, min(l + 4, q)))
    points = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n, unique=True))
    if repeats:
        cols = st.lists(st.integers(0, n - 1), min_size=l, max_size=l).map(tuple)
    else:
        cols = st.permutations(range(n)).map(lambda p: tuple(p[:l]))
    sets = draw(st.lists(cols, min_size=1, max_size=4))
    return q, l, points, sets


def eliminated(pair, sets):
    """The scalar Gauss-Jordan inverse of the minor on each distinct set, by
    set, or, if some minor is singular, the ``SingularMatrixError`` text
    naming the smallest column without a pivot over the sets, the rule
    ``_lagrange_inverses`` follows."""
    h, q = pair.parity_check.array, pair.modulus
    inverses = {cols: reference_inverse(h[:, cols].tolist(), q) for cols in sets}
    failing = [c for c in inverses.values() if isinstance(c, int)]
    if failing:
        return f"matrix is singular mod {q}: no pivot in column {min(failing)}"
    return inverses


class TestClosedFormInverses:
    """The minor inverses are the Lagrange basis coefficients of the set's
    points: equal to what elimination gives, refused where it refuses."""

    @settings(max_examples=150, deadline=None)
    @given(minor_cases())
    def test_closed_form_equals_elimination(self, case):
        q, l, points, sets = case
        pair = build_vandermonde_pair(q, len(points), l, points=points)
        expected = eliminated(pair, sets)
        for cols, inverse in zip(sets, pair._minor_inverses(sets)):
            assert inverse.dtype == np.int64 and not inverse.flags.writeable
            assert inverse.tolist() == expected[cols]
        # one set at a time, on a pair with an empty cache
        alone = build_vandermonde_pair(q, len(points), l, points=points)
        for cols in sets:
            assert alone.h_sub_inverse(cols) == tuple(map(tuple, expected[cols]))

    @settings(max_examples=150, deadline=None)
    @given(minor_cases(repeats=True))
    def test_repeated_columns_are_refused_as_elimination_refuses(self, case):
        q, l, points, sets = case
        pair = build_vandermonde_pair(q, len(points), l, points=points)
        expected = eliminated(pair, sets)
        try:
            got = [inverse.tolist() for inverse in pair._minor_inverses(sets)]
        except SingularMatrixError as exc:
            assert str(exc) == expected
        else:
            assert got == [expected[cols] for cols in sets]

    def test_instances_need_no_elimination(self, monkeypatch, capsys, tmp_path):
        # Nothing may invert by elimination to build, encode, serve or audit
        # an instance: ``FieldMatrix.inverse`` raises.
        def refuse(*_args):
            raise AssertionError("FieldMatrix.inverse was called")

        monkeypatch.setattr(FieldMatrix, "inverse", refuse)
        with pytest.raises(AssertionError, match="inverse was called"):
            FieldMatrix([[1]], 5).inverse()
        churn = tmp_path / "churn.cfg"
        churn.write_text("name = 'churn'\nq = 13\nK = 24\nN = 12\nL = 6\nseed = 4\n")
        k64 = tmp_path / "k64.cfg"
        k64.write_text("name = 'k64'\nq = 257\nK = 64\nN = 64\nL = 32\nseed = 5\n")
        for path in (REPO / "configs" / "q5-k3.cfg", churn, k64):
            cfg = cli.load_config(path)
            config, code = cli.build_instance(cfg)
            messages = cli.instance_messages(cfg, config, cfg.seed)
            assert encode_storage(config, code, messages)
            for d in (1, config.k_messages):
                sim = simulate_round(config, code, messages, d, seed=d)
                assert sim.transcript.decoded == messages[d - 1].symbols
            assert cli.main(["verify", "-c", str(path)]) == 0
            out = capsys.readouterr().out
            assert out.count("VERDICT=pass") == 2 and "VERDICT=fail" not in out
