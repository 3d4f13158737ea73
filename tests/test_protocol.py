"""Protocol core: associations, encoding, masking, answers, decoding, rounds.

The frozen numbers in this file were computed by hand from the inverse
tables in test_field.py and re-derived independently with numpy before being
pinned here.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedpid.codes import build_vandermonde_pair
from codedpid.field import FieldMatrix, int64_exact
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    EXPLICIT,
    DeliveryTranscript,
    Message,
    PidConfig,
    ServerState,
    answer_vector,
    attach_shares,
    decode_answers,
    draw_randomness,
    encode_storage,
    make_association,
    random_messages,
    run_delivery,
    run_subset_scheme,
    server_answer,
    valid_msg_lens,
)


def msgs(q, *rows):
    return tuple(
        Message(index=i + 1, symbols=tuple(r), modulus=q)
        for i, r in enumerate(rows)
    )


def messages_on(config, server):
    """Sorted ids of the messages a server (1-based) hosts, read from the
    config's host incidence."""
    return tuple((np.flatnonzero(config.host_incidence[:, server - 1]) + 1).tolist())


class TestAssociation:
    def test_canonical_blocks(self):
        config = make_association(7, 4, 6, 3)
        assert config.association == ((1, 2, 3), (4, 5, 6), (1, 2, 3), (4, 5, 6))
        assert config.is_balanced
        assert config.server_load(1) == 2

    def test_canonical_wraparound(self):
        config = make_association(5, 3, 3, 2)
        assert config.association == ((1, 2), (1, 3), (2, 3))
        assert all(config.server_load(n) == 2 for n in (1, 2, 3))

    def test_canonical_rejects_unbalanced_length(self):
        with pytest.raises(ValueError, match="valid lengths"):
            make_association(7, 3, 6, 1)

    def test_canonical_rejects_explicit_association(self):
        with pytest.raises(ValueError):
            make_association(5, 3, 3, 2, association=((1, 2), (2, 3), (1, 3)))

    def test_explicit_accepts_and_sorts(self):
        config = make_association(
            5, 2, 3, 2, mode=EXPLICIT, association=((2, 1), (3, 2))
        )
        assert config.association == ((1, 2), (2, 3))

    def test_explicit_requires_association(self):
        with pytest.raises(ValueError):
            make_association(5, 2, 3, 2, mode=EXPLICIT)

    def test_valid_msg_lens(self):
        assert valid_msg_lens(8, 6) == (3, 6)
        assert valid_msg_lens(12, 4) == (1, 2, 3, 4)
        assert valid_msg_lens(5, 9) == (9,)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="twice"):
            PidConfig(5, 2, 3, 2, ((1, 1), (2, 3)))
        with pytest.raises(ValueError, match="outside"):
            PidConfig(5, 2, 3, 2, ((1, 4), (2, 3)))
        with pytest.raises(ValueError, match="sorted"):
            PidConfig(5, 2, 3, 2, ((2, 1), (2, 3)))
        with pytest.raises(ValueError, match="expected L"):
            PidConfig(5, 2, 3, 2, ((1, 2, 3), (2, 3)))
        with pytest.raises(ValueError):
            PidConfig(5, 3, 3, 2, ((1, 2), (2, 3)))  # wrong K
        with pytest.raises(ValueError, match="prime"):
            PidConfig(6, 2, 3, 2, ((1, 2), (2, 3)))
        with pytest.raises(ValueError, match="mode"):
            PidConfig(5, 2, 3, 2, ((1, 2), (2, 3)), mode="nope")

    # The per-message loop that the checks over all ids at once replaced,
    # kept as their oracle: the first message that fails names the first
    # check it fails, in the order length, repeat, range, sorted.
    @staticmethod
    def loop_refusal(association, l, n):
        for idx, hosts in enumerate(association, start=1):
            if len(hosts) != l:
                return f"message {idx} is hosted by {len(hosts)} servers, expected L={l}"
            if len(set(hosts)) != l:
                return f"message {idx} lists a server twice: {hosts}"
            if any(not 1 <= s <= n for s in hosts):
                return f"message {idx} names a server outside 1..{n}: {hosts}"
            if tuple(sorted(hosts)) != tuple(hosts):
                return f"host set for message {idx} must be sorted: {hosts}"
        return None

    def check_against_loop(self, association, l, n):
        expected = self.loop_refusal(association, l, n)
        if expected is None:
            PidConfig(7, len(association), n, l, association)
            return
        with pytest.raises(ValueError) as refusal:
            PidConfig(7, len(association), n, l, association)
        assert str(refusal.value) == expected

    @pytest.mark.parametrize(
        "association, first",
        [
            (((1, 2, 3), (2, 1, 3), (1, 1, 2), (1, 2)), "sorted"),
            (((1, 2, 3), (1, 2), (3, 3, 4), (1, 2, 9)), "expected L"),
            (((1, 2, 6), (4, 4, 4), (3, 2, 1)), "outside"),
            (((3, 2, 2), (1, 2, 9)), "twice"),
            (((0, 0, 1), (5, 4, 3)), "twice"),
            (((2, 1, 9), (1, 1, 1)), "outside"),
            (((1, 1, 2, 2), (0, 1, 2)), "expected L"),
            (((1, 2, 3), (2, 3, 4), (1, 3, 5), (4, 5, 5)), "twice"),
            (((1, 1, 2), (2.0, 3, 4)), "twice"),
            (((1, 2, 3), (4, 3, 5)), "sorted"),
        ],
    )
    def test_first_bad_message_named_as_by_the_loop(self, association, first):
        assert first in self.loop_refusal(association, 3, 5)
        self.check_against_loop(association, 3, 5)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refusals_agree_with_the_loop(self, data):
        n = data.draw(st.integers(1, 6), label="N")
        l = data.draw(st.integers(1, n), label="L")
        # mostly valid host sets, so that one bad set is often the only one;
        # near misses: one id repeated, or the first two ids swapped
        valid = st.sets(st.integers(1, n), min_size=l, max_size=l).map(sorted)
        loose = st.lists(st.integers(0, n + 1), min_size=max(l - 1, 1), max_size=l + 1)
        pairs = valid.filter(lambda h: len(h) > 1)
        repeat = pairs.map(lambda h: sorted(h[1:] + h[1:2]))
        swap = pairs.map(lambda h: [h[1], h[0], *h[2:]])
        hosts = st.one_of(valid, valid, valid, loose, repeat, swap).map(tuple)
        association = tuple(data.draw(st.lists(hosts, min_size=1, max_size=5)))
        self.check_against_loop(association, l, n)

    def test_canonical_matches_the_ring_loop(self):
        for q, k, n, l in ((5, 3, 3, 2), (7, 4, 6, 3), (257, 64, 64, 32), (13, 12, 8, 6)):
            ring = tuple(
                tuple(sorted((j * l + i) % n + 1 for i in range(l))) for j in range(k)
            )
            assert make_association(q, k, n, l).association == ring

    # A host id must be an int and not a bool, by the rule a message id
    # follows: a float does not index a server and True is not server 1.
    @pytest.mark.parametrize(
        "association, first",
        [
            (((1.0, 2.0), (2, 3), (1, 3)), 1),
            (((True, 2), (2, 3), (1, 3)), 1),
            (((1, 2), (2, 3), (1, 3.0)), 3),
        ],
    )
    def test_non_integer_host_ids_are_refused(self, association, first):
        with pytest.raises(TypeError) as refusal:
            PidConfig(5, 3, 3, 2, association)
        assert str(refusal.value) == (
            f"message {first} names a server id that is not an int: "
            f"{association[first - 1]}"
        )

    def test_explicit_association_is_not_truncated(self):
        with pytest.raises(TypeError) as refusal:
            make_association(
                5, 3, 3, 2, mode=EXPLICIT, association=[[1.7, 2.9], [2, 3], [1, 3]]
            )
        assert str(refusal.value) == (
            "message 1 names a server id that is not an int: (1.7, 2.9)"
        )

    def test_lookup_helpers(self):
        config, _ = q5_instance()
        assert config.servers_for(1) == (1, 2)
        assert config.servers_for(3) == (1, 3)
        assert messages_on(config, 1) == (1, 3)
        assert messages_on(config, 2) == (1, 2)
        assert messages_on(config, 3) == (2, 3)
        # server 3 does not host message 1; each view inverts the other
        assert 1 not in messages_on(config, 3)
        for k in (1, 2, 3):
            for server in (1, 2, 3):
                hosted = k in messages_on(config, server)
                assert hosted == (server in config.servers_for(k)), (k, server)
        with pytest.raises(ValueError):
            config.servers_for(4)
        with pytest.raises(ValueError):
            config.server_load(0)

    def test_storage_per_server(self):
        config, _ = q5_instance()
        assert config.storage_per_server == Fraction(1)
        config11, _ = q11_instance()
        assert config11.storage_per_server == Fraction(4, 3)


class TestMessages:
    def test_validation(self):
        with pytest.raises(ValueError):
            Message(index=0, symbols=(1,), modulus=5)
        with pytest.raises(ValueError):
            Message(index=1, symbols=(5,), modulus=5)

    # A float or a bool is not a field symbol: before this check, q5-k3
    # delivered (1, 2) for the message (1.5, 2).
    @pytest.mark.parametrize("symbols", ((1.5, 2), (True, 4), (1, np.float64(2))), ids=repr)
    def test_non_integer_symbols_are_refused(self, symbols):
        with pytest.raises(TypeError) as refusal:
            Message(1, symbols, 5)
        assert str(refusal.value) == f"message 1 has symbols that are not ints: {symbols}"

    # A float or a bool does not name a message: before this check, q5-k3
    # served Message(True, (1, 2), 5) as message 1.
    @pytest.mark.parametrize("index", (True, 1.0, np.int64(1)), ids=repr)
    def test_non_integer_index_is_refused(self, index):
        with pytest.raises(TypeError) as refusal:
            Message(index, (1, 2), 5)
        assert str(refusal.value) == f"message index {index!r} is not an int"

    def test_random_messages_seeded(self):
        config, _ = q5_instance()
        a = random_messages(config, seed=1)
        b = random_messages(config, seed=1)
        c = random_messages(config, seed=2)
        assert a == b
        assert a != c
        assert len(a) == 3
        assert all(len(m.symbols) == 2 for m in a)
        assert all(0 <= s < 5 for m in a for s in m.symbols)

    def test_random_messages_entropy_mode(self):
        config, _ = q5_instance()
        a = random_messages(config)  # OS entropy; just check shape/range
        assert len(a) == 3
        assert all(0 <= s < 5 for m in a for s in m.symbols)


# Storage of messages (1,2), (3,4), (0,1) on the q5 instance, by hand:
#   server 1 holds msg1 frag 2*1+4*2=0 and msg3 frag 4*0+2*1=2
#   server 2 holds msg1 frag 4*1+1*2=1 and msg2 frag 3*3+4*4=0
#   server 3 holds msg2 frag 3*3+1*4=3 and msg3 frag 2*0+3*1=3
Q5_MESSAGES = ((1, 2), (3, 4), (0, 1))
Q5_STORAGE = (
    ((1, (0,)), (3, (2,))),
    ((1, (1,)), (2, (0,))),
    ((2, (3,)), (3, (3,))),
)


class TestEncoding:
    def test_storage_golden_q5(self):
        config, code = q5_instance()
        storage = encode_storage(config, code, msgs(5, *Q5_MESSAGES))
        assert tuple(st.fragments for st in storage) == Q5_STORAGE
        assert all(st.share is None for st in storage)

    def test_each_server_stores_its_load(self):
        config, code = q11_instance()
        storage = encode_storage(config, code, random_messages(config, seed=8))
        for st in storage:
            assert tuple(k for k, _ in st.fragments) == messages_on(config, st.server_id)
            assert st.stored_symbol_count == config.server_load(st.server_id) == 4

    def test_fragments_solve_the_parity_system(self):
        # storing then re-multiplying by the parity minor gives the message back
        config, code = q11_instance()
        messages = random_messages(config, seed=5)
        storage = encode_storage(config, code, messages)
        for k in range(1, 9):
            hosts = config.servers_for(k)
            frags = [storage[s - 1].symbols_for(k)[0] for s in hosts]
            sub = FieldMatrix(code.parity_check.array[:, [s - 1 for s in hosts]], 11)
            assert sub.mat_vec(frags) == messages[k - 1].symbols

    def test_rejects_mismatched_messages(self):
        config, code = q5_instance()
        with pytest.raises(ValueError, match="expected 3"):
            encode_storage(config, code, msgs(5, (1, 2)))
        with pytest.raises(ValueError, match="symbols"):
            encode_storage(config, code, msgs(5, (1,), (2,), (3,)))
        bad_mod = msgs(7, (1, 2), (3, 4), (0, 1))
        with pytest.raises(ValueError, match="modulus"):
            encode_storage(config, code, bad_mod)

    def test_rejects_mismatched_code(self):
        config, _ = q5_instance()
        _, code11 = q11_instance()
        with pytest.raises(ValueError):
            encode_storage(config, code11, msgs(5, *Q5_MESSAGES))


class TestRandomness:
    def test_share_golden_q5(self):
        _, code = q5_instance()
        rnd = draw_randomness(code, mask=(2,))
        assert rnd.mask_vector == (2,)
        assert rnd.shares == (2, 1, 2)  # generator (1,3,1) times u=2, mod 5

    def test_share_golden_q11_unit_masks(self):
        # unit mask vectors pick out generator rows as share vectors
        _, code = q11_instance()
        assert draw_randomness(code, mask=(1, 0, 0)).shares == (3, 8, 1, 7, 2, 1)
        assert draw_randomness(code, mask=(0, 1, 0)).shares == (3, 4, 4, 0, 1, 10)
        assert draw_randomness(code, mask=(0, 0, 1)).shares == (6, 10, 6, 5, 1, 5)

    def test_seeded_determinism(self):
        _, code = q11_instance()
        assert draw_randomness(code, seed=3) == draw_randomness(code, seed=3)
        assert draw_randomness(code, seed=3) != draw_randomness(code, seed=4)

    def test_entropy_mode_shape(self):
        _, code = q11_instance()
        rnd = draw_randomness(code)
        assert len(rnd.mask_vector) == 3
        assert len(rnd.shares) == 6

    def test_mask_length_check(self):
        _, code = q5_instance()
        with pytest.raises(ValueError):
            draw_randomness(code, mask=(1, 2))

    # Before this check both masks below were truncated to (1,).
    @pytest.mark.parametrize("mask", ((1.7,), (True,), (np.int64(1),)), ids=repr)
    def test_non_integer_mask_is_refused(self, mask):
        _, code = q5_instance()
        with pytest.raises(TypeError) as refusal:
            draw_randomness(code, mask=mask)
        assert str(refusal.value) == f"mask has entries that are not ints: {mask}"

    def test_mask_entries_reduce_mod_q(self):
        _, code = q5_instance()
        assert draw_randomness(code, mask=(7,)) == draw_randomness(code, mask=(2,))
        assert draw_randomness(code, mask=[-3]).mask_vector == (2,)


def per_server_shares(code, mask):
    """Oracle for ``draw_randomness``: each share as its own dot product
    ``sum(c * u) % q`` over a generator column, in Python ints."""
    return tuple(
        sum(int(c) * u for c, u in zip(code.generator.array[:, n], mask)) % code.modulus
        for n in range(code.n_servers)
    )


class TestSharesMatchPerServerFormula:
    def check(self, code, seeds=range(3)):
        for seed in seeds:
            rnd = draw_randomness(code, seed=seed)
            assert rnd.shares == per_server_shares(code, rnd.mask_vector)
            assert all(type(s) is int for s in rnd.shares)

    def test_small_instances(self):
        from test_verify import small_configs

        for _, _, code in small_configs():
            self.check(code)

    def test_k64(self):
        self.check(build_vandermonde_pair(257, 64, 32))

    def test_empty_mask(self):
        # L = N: no mask, every share is 0
        code = build_vandermonde_pair(7, 4, 4)
        rnd = draw_randomness(code, seed=1)
        assert rnd.mask_vector == ()
        assert rnd.shares == (0, 0, 0, 0)

    def test_python_int_path(self):
        # one product of residues already leaves int64
        assert not int64_exact(BIG_Q, 1)
        self.check(build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS), range(10))
        self.check(build_vandermonde_pair(BIG_Q, 5, 1, points=(3, *BIG_POINTS)), range(10))


# All three requests on the q5 instance with storage above and mask u=(2,):
# shares are (2,1,2).
Q5_ROUNDS = {
    1: (((2,), (2,), (2,)), (1, 2)),
    2: (((2,), (1,), (0,)), (3, 4)),
    3: (((4,), (1,), (0,)), (0, 1)),
}


class TestAnswersAndDecoding:
    def test_full_round_golden_q5(self):
        config, code = q5_instance()
        storage = encode_storage(config, code, msgs(5, *Q5_MESSAGES))
        masked = attach_shares(storage, draw_randomness(code, mask=(2,)))
        for d, (expected_answers, expected_decode) in Q5_ROUNDS.items():
            answers = answer_vector(masked, d)
            assert answers == expected_answers, d
            assert decode_answers(code, answers) == expected_decode, d

    def test_answer_formulas_q11(self):
        # answers must match the frozen coefficient tables: fragment rows are
        # the inverse parity minors, share coefficients the generator columns
        config, code = q11_instance()
        rng = np.random.default_rng(23)
        w = [tuple(int(x) for x in rng.integers(0, 11, size=3)) for _ in range(8)]
        u = tuple(int(x) for x in rng.integers(0, 11, size=3))
        messages = msgs(11, *w)
        masked = attach_shares(
            encode_storage(config, code, messages), draw_randomness(code, mask=u)
        )
        g_cols = [(3, 3, 6), (8, 4, 10), (1, 4, 6), (7, 0, 5), (2, 1, 1), (1, 10, 5)]
        inv123 = ((3, 3, 6), (8, 4, 10), (1, 4, 6))
        inv456 = ((4, 0, 6), (9, 10, 10), (10, 1, 6))

        def share(j):
            return sum(c * x for c, x in zip(g_cols[j], u)) % 11

        # request 1 (hosts 1,2,3): fragments from inv123 on w[0]
        a = answer_vector(masked, 1)
        for i in range(3):
            frag = sum(c * x for c, x in zip(inv123[i], w[0])) % 11
            assert a[i] == ((frag + share(i)) % 11,)
        for j in range(3, 6):
            assert a[j] == (share(j),)

        # request 5 (hosts 4,5,6): fragments from inv456 on w[4]
        a = answer_vector(masked, 5)
        for j in range(3):
            assert a[j] == (share(j),)
        for i in range(3):
            frag = sum(c * x for c, x in zip(inv456[i], w[4])) % 11
            assert a[3 + i] == ((frag + share(3 + i)) % 11,)

    def test_transmission_pattern_is_request_independent(self):
        config, code = q11_instance()
        masked = attach_shares(
            encode_storage(config, code, random_messages(config, seed=2)),
            draw_randomness(code, seed=3),
        )
        patterns = {
            tuple(len(a) for a in answer_vector(masked, d)) for d in range(1, 9)
        }
        assert patterns == {(1, 1, 1, 1, 1, 1)}

    def test_server_answer_without_share(self):
        # Server 1 of the q5 layout holding raw symbols of messages 1 and 3.
        state = ServerState(
            server_id=1, fragments=((1, (1,)), (3, (0,))), share=None, modulus=5
        )
        assert server_answer(state, 1) == (1,)
        assert server_answer(state, 3) == (0,)
        assert server_answer(state, 2) == ()  # silent: not a host

    def test_decode_rejects_multi_symbol_answers(self):
        _, code = q5_instance()
        with pytest.raises(ValueError):
            decode_answers(code, ((1, 2), (0,), (0,)))

    def test_attach_shares_count_check(self):
        config, code = q5_instance()
        storage = encode_storage(config, code, msgs(5, *Q5_MESSAGES))
        with pytest.raises(ValueError):
            attach_shares(storage[:2], draw_randomness(code, mask=(2,)))


class TestRunDelivery:
    def test_recovers_every_message(self):
        for maker in (q5_instance, q11_instance):
            config, code = maker()
            messages = random_messages(config, seed=13)
            for d in range(1, config.k_messages + 1):
                t = run_delivery(config, code, messages, d, seed=d)
                assert t.decoded == messages[d - 1].symbols
                assert t.requested == d

    def test_transcript_fields(self):
        config, code = q5_instance()
        messages = random_messages(config, seed=1)
        t = run_delivery(config, code, messages, 2, seed=9)
        assert t.transmission_counts == (1, 1, 1)
        assert t.total_symbols == 3
        assert t.rate == Fraction(2, 3)
        assert t.seed == 9
        assert len(t.mask_vector) == 1
        assert t.modulus == 5

    def test_rate_is_capacity_for_many_canonical_instances(self):
        rng = np.random.default_rng(0)
        checked = 0
        for q in (5, 7, 11, 13):
            for n in range(2, min(q, 8) + 1):
                for k in range(2, 7):
                    for l in valid_msg_lens(k, n):
                        if l > n:
                            continue
                        config = make_association(q, k, n, l)
                        from codedpid.codes import build_vandermonde_pair

                        code = build_vandermonde_pair(q, n, l)
                        messages = random_messages(config, seed=checked)
                        d = int(rng.integers(1, k + 1))
                        t = run_delivery(config, code, messages, d, seed=17)
                        assert t.decoded == messages[d - 1].symbols
                        assert t.rate == Fraction(l, n)
                        checked += 1
                        break  # one L per (q, n, k) keeps this quick
        assert checked >= 40

    def test_rejects_bad_request(self):
        config, code = q5_instance()
        with pytest.raises(ValueError):
            run_delivery(config, code, msgs(5, *Q5_MESSAGES), 4)


class TestFullyDistributed:
    # at M = K/N with N dividing L, every server stores a raw slice of
    # every message: the subset round's raw-slice branch on all N servers

    def test_rate_one(self):
        messages = msgs(7, (1, 2, 3, 4), (5, 6, 0, 1))
        t = run_subset_scheme(2, 2, 1, 4, messages, 2)
        assert t.decoded == (5, 6, 0, 1)
        assert t.answers == ((5, 6), (0, 1))
        assert t.rate == Fraction(1)

    def test_divisibility_required(self):
        messages = msgs(7, (1, 2, 3, 4), (5, 6, 0, 1))
        with pytest.raises(ValueError, match="divisible"):
            run_subset_scheme(2, 3, Fraction(2, 3), 4, messages, 1)

    def test_request_range(self):
        messages = msgs(7, (1, 2), (3, 4))
        with pytest.raises(ValueError):
            run_subset_scheme(2, 2, 1, 2, messages, 3)


class TestSubsetScheme:
    def test_coded_branch(self):
        # K=12 messages of L=4 symbols, N=7 servers able to hold M=2 each:
        # ceil(12/2)=6 active servers, rate 4/6 = 2/3, one silent server
        q = 13
        rng = np.random.default_rng(31)
        rows = [tuple(int(x) for x in rng.integers(0, q, size=4)) for _ in range(12)]
        messages = msgs(q, *rows)
        t = run_subset_scheme(12, 7, 2, 4, messages, 5, seed=2)
        assert t.decoded == rows[4]
        assert t.transmission_counts == (1, 1, 1, 1, 1, 1, 0)
        assert t.rate == Fraction(2, 3)

    def test_raw_branch_rate_one(self):
        # L=2 >= active=2: raw slices from the two active servers
        messages = msgs(5, (1, 2), (3, 4), (0, 1), (2, 0))
        t = run_subset_scheme(4, 5, 2, 2, messages, 3)
        assert t.decoded == (0, 1)
        assert t.transmission_counts == (1, 1, 0, 0, 0)
        assert t.rate == Fraction(1)

    def test_all_requests_recovered(self):
        q = 13
        rng = np.random.default_rng(4)
        rows = [tuple(int(x) for x in rng.integers(0, q, size=4)) for _ in range(12)]
        messages = msgs(q, *rows)
        for d in range(1, 13):
            t = run_subset_scheme(12, 7, 2, 4, messages, d, seed=d)
            assert t.decoded == rows[d - 1]

    def test_silence_is_request_independent(self):
        messages = msgs(5, (1, 2), (3, 4), (0, 1), (2, 0))
        patterns = {
            run_subset_scheme(4, 5, 2, 2, messages, d).transmission_counts
            for d in range(1, 5)
        }
        assert len(patterns) == 1

    def test_fractional_storage_limit(self):
        # M=4/3 on the q11 shape: ceil(8/(4/3)) = 6 active of 6 servers
        config, _ = q11_instance()
        messages = random_messages(config, seed=3)
        t = run_subset_scheme(8, 6, Fraction(4, 3), 3, messages, 2, seed=5)
        assert t.decoded == messages[1].symbols
        assert t.rate == Fraction(1, 2)

    def test_insufficient_storage_rejected(self):
        messages = msgs(5, *[(1, 2)] * 12)
        with pytest.raises(ValueError, match="storage limit"):
            run_subset_scheme(12, 5, 2, 2, messages, 1)

    def test_divisibility_rejected(self):
        messages = msgs(7, *[(1, 2)] * 5)
        with pytest.raises(ValueError, match="balance"):
            run_subset_scheme(5, 7, 2, 2, messages, 1)

    def test_raw_branch_divisibility_rejected(self):
        messages = msgs(7, *[(1, 2, 3)] * 4)
        with pytest.raises(ValueError, match="divisible"):
            run_subset_scheme(4, 5, 3, 3, messages, 1)


class TestTranscriptDataclass:
    def test_rate_general(self):
        t = DeliveryTranscript(
            requested=1,
            answers=((1, 2), (), (3,)),
            decoded=(1, 2, 3),
            modulus=5,
            msg_len=3,
        )
        assert t.transmission_counts == (2, 0, 1)
        assert t.rate == Fraction(1)


# The largest prime below 2^32, the 4-byte wire symbol, with evaluation
# points spread over the whole field: every product of two residues
# overflows int64.
BIG_Q = 4294967291
BIG_POINTS = (123456789, 987654321, 2222222222, 3333333333)


def check_defining_equation(config, code, messages, storage):
    """Oracle for ``encode_storage``, in Python ints and independent of any
    inverse: each server stores one symbol for exactly the messages it
    hosts, and message k's fragments f on its sorted host set satisfy
    ``H[:, hosts] . f == w_k (mod q)``, with H rebuilt from the points.
    Every L-column minor of H is invertible, so f is the only solution."""
    q = config.modulus
    h = [[pow(p, i, q) for p in code.points] for i in range(config.msg_len)]
    held = {}
    for n, state in enumerate(storage, start=1):
        assert state.server_id == n
        assert [k for k, _ in state.fragments] == list(messages_on(config, n))
        for k, symbols in state.fragments:
            assert len(symbols) == 1 and type(symbols[0]) is int
            assert 0 <= symbols[0] < q
            held[n, k] = symbols[0]
    for msg in messages:
        hosts = config.servers_for(msg.index)
        fragment = [held[n, msg.index] for n in hosts]
        checked = [
            sum(row[n - 1] * f for n, f in zip(hosts, fragment)) % q for row in h
        ]
        assert checked == list(msg.symbols), msg.index


class TestEncodeMatchesPerSymbolFormula:
    def check(self, config, code, seed=0):
        messages = random_messages(config, seed=seed)
        check_defining_equation(
            config, code, messages, encode_storage(config, code, messages)
        )

    def test_small_instances(self):
        from test_verify import small_configs

        for params, config, code in small_configs():
            for seed in range(3):
                self.check(config, code, seed)

    def test_explicit_q5(self):
        config, code = q5_instance()
        for seed in range(5):
            self.check(config, code, seed)

    def test_k64(self):
        config = make_association(257, 64, 64, 32)
        self.check(config, build_vandermonde_pair(257, 64, 32), seed=3)

    def test_python_int_path(self):
        # 3 * (q-1)^2 + q passes 2^63, so the product leaves int64
        q = 2**31 - 1
        assert not int64_exact(q, 3)
        config = make_association(q, 4, 4, 3)
        self.check(config, build_vandermonde_pair(q, 4, 3, points=(5, 2**30, 2**31 - 7, 99)))

    def test_four_byte_modulus(self):
        config = make_association(BIG_Q, 2, 4, 2)
        code = build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS)
        for seed in range(5):
            self.check(config, code, seed)

    def test_four_byte_modulus_many_host_sets(self):
        # ten distinct 3-server host sets of 5 servers: one stacked inverse
        # in Python ints pivots through all of them
        hosts = list(itertools.combinations(range(1, 6), 3))
        config = make_association(BIG_Q, 10, 5, 3, mode=EXPLICIT, association=hosts)
        code = build_vandermonde_pair(BIG_Q, 5, 3, points=BIG_POINTS + (4294967290,))
        assert len(set(config.association)) == 10
        for seed in range(3):
            self.check(config, code, seed)


class TestFourByteModulus:
    """Rounds at the largest 4-byte prime decode exactly."""

    def test_larger_moduli_refused(self):
        for q in (2**32, 4294967311, 18446744073709551557):
            with pytest.raises(ValueError, match="below 2\\^32"):
                make_association(q, 2, 4, 2)

    def test_run_delivery_decodes_every_seeded_round(self):
        config = make_association(BIG_Q, 2, 4, 2)
        code = build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS)
        for seed in range(20):
            messages = random_messages(config, seed=seed)
            d = seed % 2 + 1
            t = run_delivery(config, code, messages, d, seed=seed)
            assert t.decoded == messages[d - 1].symbols, seed

    def test_every_host_set(self):
        # host sets (1, 3) and (1, 4) need exact elimination in h_sub_inverse
        hosts = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        config = make_association(
            BIG_Q, 6, 4, 2, mode=EXPLICIT, association=hosts
        )
        code = build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS)
        messages = random_messages(config, seed=1)
        for d in range(1, 7):
            t = run_delivery(config, code, messages, d, seed=d)
            assert t.decoded == messages[d - 1].symbols, d
