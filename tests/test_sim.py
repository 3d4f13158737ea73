"""Wire format, actors, the round driver, logs, and sim-vs-library equivalence.

The frame byte golden was laid out by hand from the header packing
(1-byte kind, 2-byte little-endian sender, 4-byte little-endian length,
4-byte little-endian symbols).
"""

import functools
import hashlib
import itertools
import re
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import codedpid.protocol
import codedpid.sim
from codedpid.analysis import (
    DownloadFloorCheck,
    achievable_coded_rate,
    download_floor_check,
)
from codedpid.codes import CodePair, build_vandermonde_pair
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    EXPLICIT,
    DeliveryTranscript,
    Message,
    draw_randomness,
    encode_storage,
    make_association,
    random_messages,
    run_delivery,
    run_subset_scheme,
)
from codedpid.sim import (
    ANSWER,
    COORDINATOR_ID,
    DECODE_RESULT,
    DELIVER_CMD,
    LOG_MAGIC,
    SETUP_SHARE,
    SETUP_STORAGE,
    ByteAccounting,
    Frame,
    FrameError,
    ProtocolViolation,
    ServerActor,
    UserActor,
    byte_accounting,
    decode_frame,
    decode_frames,
    frames_to_bytes,
    read_frame_log,
    simulate_round,
    simulate_subset_round,
    write_frame_log,
)
from codedpid.verify import masked_scheme
from test_protocol import BIG_POINTS, BIG_Q
from test_verify import small_configs


def msgs(q, *rows):
    return tuple(
        Message(index=i + 1, symbols=tuple(r), modulus=q)
        for i, r in enumerate(rows)
    )


class TestFrameBytes:
    def test_encode_golden(self):
        frame = Frame(ANSWER, 2, (7,))
        assert frame.encode() == b"\x04\x02\x00\x04\x00\x00\x00\x07\x00\x00\x00"
        assert frame.wire_size == 11

    def test_empty_payload(self):
        frame = Frame(ANSWER, 3, ())
        assert frame.encode() == b"\x04\x03\x00\x00\x00\x00\x00"
        assert frame.wire_size == 7

    def test_roundtrip_all_kinds(self):
        frames = [
            Frame(SETUP_STORAGE, 0, (2, 1, 1, 4, 3, 1, 0)),
            Frame(SETUP_SHARE, 0, (9,)),
            Frame(DELIVER_CMD, 4, (2,)),
            Frame(ANSWER, 1, ()),
            Frame(DECODE_RESULT, 4, (1, 2)),
        ]
        data = frames_to_bytes(frames)
        offset = 0
        for expected in frames:
            frame, offset = decode_frame(data, offset)
            assert frame == expected
        assert offset == len(data)

    def test_validation(self):
        with pytest.raises(FrameError, match="kind"):
            Frame(9, 0, ())
        with pytest.raises(FrameError, match="2 bytes"):
            Frame(ANSWER, 2**16, ())
        with pytest.raises(FrameError, match="4 bytes"):
            Frame(ANSWER, 1, (2**32,))
        with pytest.raises(FrameError):
            Frame(ANSWER, 1, (-1,))

    def test_non_integer_fields_are_refused(self):
        # The int rule of ``protocol._all_ints``: an int, and not a bool.
        cases = [
            ((1.0, 0, ()), "frame kind 1.0 is not an int"),
            ((True, 0, ()), "frame kind True is not an int"),
            ((ANSWER, 1.5, ()), "sender id 1.5 is not an int"),
            ((ANSWER, True, ()), "sender id True is not an int"),
            ((ANSWER, 1, (1.5,)), "payload symbols must be ints"),
            ((ANSWER, 1, (2, True)), "payload symbols must be ints"),
            ((ANSWER, 1, (np.int64(1),)), "payload symbols must be ints"),
        ]
        for fields, text in cases:
            with pytest.raises(FrameError, match=re.escape(text)):
                Frame(*fields)
        with pytest.raises(FrameError, match="sender id 1.0 is not an int"):
            Frame(ANSWER, 1, ())._replace(sender=1.0)

    def test_decode_errors(self):
        good = Frame(ANSWER, 1, (5,)).encode()
        with pytest.raises(FrameError, match="truncated frame header"):
            decode_frame(good[:4])
        with pytest.raises(FrameError, match="truncated frame payload"):
            decode_frame(good[:-2])
        with pytest.raises(FrameError, match="unknown frame kind"):
            decode_frame(b"\x09" + good[1:])
        bad_len = b"\x04\x01\x00\x03\x00\x00\x00\x00\x00\x00"
        with pytest.raises(FrameError, match="multiple of 4"):
            decode_frame(bad_len)

    def test_negative_offset_is_refused(self):
        # ``unpack_from`` would count a negative offset from the end.
        good = Frame(ANSWER, 1, (5,)).encode()
        for offset in (-1, -len(good), -11):
            with pytest.raises(FrameError, match=f"negative frame offset {offset}"):
                decode_frame(good + good, offset)


class TestFrameLog:
    def test_roundtrip(self, tmp_path):
        config, code = q5_instance()
        result = simulate_round(
            config, code, random_messages(config, seed=4), 2, seed=6
        )
        path = tmp_path / "round.log"
        write_frame_log(path, result.frames)
        assert path.read_bytes().startswith(LOG_MAGIC)
        assert read_frame_log(path) == result.frames

    def test_magic_frozen(self):
        assert LOG_MAGIC == b"PIDSIM01"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_bytes(b"NOTALOG!" + b"\x00" * 8)
        with pytest.raises(FrameError, match="magic"):
            read_frame_log(path)


class TestRoundStructure:
    def test_q5_frame_sequence(self):
        config, code = q5_instance()
        result = simulate_round(
            config, code, random_messages(config, seed=4), 1, seed=6
        )
        kinds = [f.kind for f in result.frames]
        assert kinds == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5]
        senders = [f.sender for f in result.frames]
        assert senders == [0, 0, 0, 0, 0, 0, 4, 4, 4, 1, 2, 3, 4]
        # deliver commands all carry the request, answers carry one symbol
        assert all(f.payload == (1,) for f in result.frames[6:9])
        assert all(len(f.payload) == 1 for f in result.frames[9:12])
        assert len(result.frames[12].payload) == 2

    def test_matches_library_delivery(self):
        for maker in (q5_instance, q11_instance):
            config, code = maker()
            messages = random_messages(config, seed=10)
            for d in (1, config.k_messages):
                sim = simulate_round(config, code, messages, d, seed=d)
                lib = run_delivery(config, code, messages, d, seed=d)
                assert sim.transcript == lib

    def test_every_server_gets_the_codes_share(self):
        # a round draws its own mask: every server receives its share of
        # ``draw_randomness(code, seed)``, and no caller can hand one in
        for maker in (q5_instance, q11_instance):
            config, code = maker()
            messages = random_messages(config, seed=3)
            for seed in range(5):
                sim = simulate_round(config, code, messages, 1, seed=seed)
                drawn = draw_randomness(code, seed)
                shares = [f for f in sim.frames if f.kind == SETUP_SHARE]
                assert [f.sender for f in shares] == [COORDINATOR_ID] * config.n_servers
                assert tuple(f.payload[0] for f in shares) == drawn.shares
                assert sim.transcript.mask_vector == drawn.mask_vector
            for round_ in (run_delivery, simulate_round):
                with pytest.raises(TypeError):
                    round_(config, code, messages, 1, randomness=drawn)

    def test_replay_is_byte_identical(self):
        config, code = q11_instance()
        messages = random_messages(config, seed=1)
        a = simulate_round(config, code, messages, 3, seed=5)
        b = simulate_round(config, code, messages, 3, seed=5)
        assert frames_to_bytes(a.frames) == frames_to_bytes(b.frames)

    def test_many_seeds_decode(self):
        config, code = q5_instance()
        for seed in range(30):
            messages = random_messages(config, seed=seed)
            d = seed % 3 + 1
            sim = simulate_round(config, code, messages, d, seed=seed + 100)
            assert sim.transcript.decoded == messages[d - 1].symbols


class TestSubsetRound:
    def test_coded_branch_structure(self):
        q = 13
        rng = np.random.default_rng(2)
        rows = [tuple(int(x) for x in rng.integers(0, q, size=4)) for _ in range(12)]
        messages = msgs(q, *rows)
        result = simulate_subset_round(12, 7, 2, 4, messages, 5, seed=1)
        kinds = [f.kind for f in result.frames]
        assert kinds == [1] * 7 + [2] * 6 + [3] * 7 + [4] * 7 + [5]
        assert result.transcript.decoded == rows[4]
        assert result.transcript.transmission_counts == (1,) * 6 + (0,)
        assert result.transcript.rate == Fraction(2, 3)
        # the idle server still gets storage (empty) and answers (empty)
        assert result.frames[6].payload == (0,)
        assert result.frames[26].payload == ()

    def test_matches_library_subset(self):
        q = 13
        rng = np.random.default_rng(3)
        rows = [tuple(int(x) for x in rng.integers(0, q, size=4)) for _ in range(12)]
        messages = msgs(q, *rows)
        for d in (1, 7, 12):
            sim = simulate_subset_round(12, 7, 2, 4, messages, d, seed=d)
            lib = run_subset_scheme(12, 7, 2, 4, messages, d, seed=d)
            assert sim.transcript == lib

    def test_frame_sizes_request_independent(self):
        q = 13
        rng = np.random.default_rng(4)
        rows = [tuple(int(x) for x in rng.integers(0, q, size=4)) for _ in range(12)]
        messages = msgs(q, *rows)
        size_profiles = {
            tuple(
                f.wire_size
                for f in simulate_subset_round(12, 7, 2, 4, messages, d, seed=9).frames
            )
            for d in range(1, 13)
        }
        assert len(size_profiles) == 1

    def test_raw_branch(self):
        messages = msgs(5, (1, 2), (3, 4), (0, 1), (2, 0))
        result = simulate_subset_round(4, 5, 2, 2, messages, 3)
        kinds = [f.kind for f in result.frames]
        assert kinds == [1] * 5 + [3] * 5 + [4] * 5 + [5]  # no share phase
        assert result.transcript == run_subset_scheme(4, 5, 2, 2, messages, 3)
        assert result.transcript.rate == Fraction(1)

    def test_rejections(self):
        messages = msgs(5, *[(1, 2)] * 12)
        with pytest.raises(ValueError, match="storage limit"):
            simulate_subset_round(12, 5, 2, 2, messages, 1)
        with pytest.raises(ValueError, match="divisible"):
            simulate_subset_round(4, 5, 3, 3, msgs(7, *[(1, 2, 3)] * 4), 1)


class TestFullyDistributedRound:
    # raw slices on all N servers: a subset round at M = K/N, N dividing L

    def test_rate_one(self):
        messages = msgs(7, (1, 2, 3, 4), (5, 6, 0, 1))
        result = simulate_subset_round(2, 2, 1, 4, messages, 2)
        assert result.transcript == run_subset_scheme(2, 2, 1, 4, messages, 2)
        assert result.transcript.rate == Fraction(1)
        accounting = byte_accounting(result.frames, 2)
        assert accounting.empirical_rate == Fraction(1)

    def test_rejections(self):
        messages = msgs(7, (1, 2, 3), (4, 5, 6))
        with pytest.raises(ValueError, match="divisible"):
            simulate_subset_round(2, 2, 1, 3, messages, 1)
        with pytest.raises(ValueError):
            simulate_subset_round(2, 3, Fraction(2, 3), 3, messages, 9)
        with pytest.raises(ValueError):
            simulate_subset_round(2, 2, 1, 3, (), 1)


# -- one layout per variant, two transports --------------------------------------


RAW_2 = msgs(5, (1, 2), (3, 4), (0, 1), (2, 0))

# (library call, simulator call, arguments, the ValueError both raise)
REFUSALS = [
    # a subset round refuses requests that do not exist, on either branch
    (run_subset_scheme, simulate_subset_round,
     (4, 4, 1, 1, msgs(5, (1,), (2,), (3,), (4,)), 9), "message id 9 outside 1..4"),
    (run_subset_scheme, simulate_subset_round,
     (4, 5, 2, 2, RAW_2, 9), "message id 9 outside 1..4"),
    # ... and message lists that are not K long
    (run_subset_scheme, simulate_subset_round,
     (4, 5, 2, 2, RAW_2[:3], 1), "expected 4 messages, got 3"),
    (run_subset_scheme, simulate_subset_round,
     (4, 4, 1, 1, (), 1), "expected 4 messages, got 0"),
    # ... and messages whose length is not L
    (run_subset_scheme, simulate_subset_round,
     (4, 4, 2, 2, msgs(5, *[(1, 2, 3, 4)] * 4), 1),
     "message 1 has 4 symbols, expected 2"),
    # raw slices (M = K/N, N dividing L) check every message, not only the
    # first
    (run_subset_scheme, simulate_subset_round,
     (2, 2, 1, 4, msgs(7, (1, 2, 3, 4), (5, 6)), 1),
     "message 2 has 2 symbols, expected 4"),
    (run_subset_scheme, simulate_subset_round,
     (2, 2, 1, 2, (Message(1, (1, 2), 7), Message(2, (3, 4), 11)), 2),
     "message 2 modulus 11 != 7"),
    (run_subset_scheme, simulate_subset_round,
     (2, 2, 1, 2, (Message(2, (1, 2), 7), Message(1, (3, 4), 7)), 1),
     "message at position 1 has index 2"),
    (run_subset_scheme, simulate_subset_round,
     (2, 2, 1, 3, msgs(7, (1, 2, 3), (4, 5, 6)), 1),
     "L=3 is not divisible by the 2 active servers"),
    # counts are checked before anything divides by them
    (run_subset_scheme, simulate_subset_round,
     (0, 3, 1, 1, (), 1), "k_messages must be positive, got 0"),
    (run_subset_scheme, simulate_subset_round,
     (4, 0, 1, 1, msgs(5, (1,), (2,), (3,), (4,)), 1),
     "n_servers must be positive, got 0"),
    (run_subset_scheme, simulate_subset_round,
     (1, 0, 1, 2, msgs(7, (1, 2)), 1), "n_servers must be positive, got 0"),
    # raw slices bound their modulus as the coded layouts do
    (run_subset_scheme, simulate_subset_round,
     (2, 2, 1, 2, msgs(2**41, (1, 2), (3, 4)), 1),
     "modulus 2199023255552 does not fit the 4-byte wire symbol: q must be below 2^32"),
    (run_subset_scheme, simulate_subset_round,
     (2, 2, 1, 2, msgs(10, (1, 2), (3, 4)), 1), "modulus 10 is not prime"),
]


@pytest.mark.parametrize(
    "lib_fn, sim_fn, args, text",
    REFUSALS,
    ids=[
        "subset-coded-request", "subset-raw-request", "subset-short-list",
        "subset-no-messages", "subset-long-messages", "raw-ragged",
        "raw-mixed-moduli", "raw-misnumbered", "raw-indivisible",
        "subset-no-k", "subset-no-n", "raw-no-n", "raw-modulus-too-large",
        "raw-modulus-not-prime",
    ],
)
def test_library_and_simulator_refuse_alike(lib_fn, sim_fn, args, text):
    with pytest.raises(ValueError) as lib:
        lib_fn(*args)
    with pytest.raises(ValueError) as sim:
        sim_fn(*args)
    assert str(sim.value) == str(lib.value) == text


# One request rule on every layout and both transports: a float or a bool is
# not a message id, even one that equals an id in range.
@pytest.mark.parametrize("d", (1.5, 2.0, True), ids=repr)
def test_non_integer_requests_are_refused(d):
    config, code = q5_instance()
    messages = random_messages(config, seed=1)
    subset_coded = (4, 4, 1, 1, msgs(5, (1,), (2,), (3,), (4,)))
    calls = [(fn, (config, code, messages)) for fn in (run_delivery, simulate_round)]
    calls += [
        (fn, args)
        for fn in (run_subset_scheme, simulate_subset_round)
        for args in (subset_coded, (4, 5, 2, 2, RAW_2))
    ]
    for fn, args in calls:
        with pytest.raises(TypeError) as refusal:
            fn(*args, d)
        assert str(refusal.value) == f"message id must be an int, got {d!r}"


# (q, K, N, M, L): both branches, M = K/N exactly, a fractional M and the
# largest 4-byte prime.
SUBSET_SHAPES = [
    (13, 12, 7, 2, 4),
    (5, 4, 5, 2, 2),
    (7, 4, 5, 2, 4),
    (7, 6, 3, 2, 2),
    (11, 8, 6, Fraction(4, 3), 3),
    (11, 8, 7, Fraction(4, 3), 6),
    (BIG_Q, 6, 4, 2, 2),
    (BIG_Q, 4, 3, 2, 2),
]


@pytest.mark.parametrize("q, k, n, m, l", SUBSET_SHAPES)
def test_subset_transports_agree_across_shapes(q, k, n, m, l):
    rng = np.random.default_rng(k * n + l)
    rows = [tuple(int(x) for x in rng.integers(0, q, size=l)) for _ in range(k)]
    messages = msgs(q, *rows)
    for d in (1, k):
        lib = run_subset_scheme(k, n, m, l, messages, d, seed=d)
        sim = simulate_subset_round(k, n, m, l, messages, d, seed=d)
        assert sim.transcript == lib
        assert lib.decoded == messages[d - 1].symbols
        assert lib.rate == achievable_coded_rate(k, n, m, l)


class TestRouterAndActors:
    def test_server_storage_parsing(self):
        server = ServerActor(1, 5)
        server.receive(Frame(SETUP_STORAGE, 0, (2, 1, 1, 9, 3, 2, 1, 2)))
        assert server.fragments == {1: (4,), 3: (1, 2)}  # symbols reduced mod 5

    def test_server_storage_violations(self):
        server = ServerActor(1, 5)
        cases = [
            ((), "entry count"),
            ((1, 1), "entry header truncated"),
            ((1, 1, 3, 0, 0), "symbols truncated"),
            ((2, 1, 1, 0, 1, 1, 0), "repeats"),
            ((1, 1, 1, 0, 9), "trailing"),
        ]
        for payload, message in cases:
            with pytest.raises(ProtocolViolation, match=message):
                server.receive(Frame(SETUP_STORAGE, 0, payload))

    def test_server_frame_arity_violations(self):
        server = ServerActor(1, 5)
        with pytest.raises(ProtocolViolation, match="share frame"):
            server.receive(Frame(SETUP_SHARE, 0, (1, 2)))
        with pytest.raises(ProtocolViolation, match="deliver command"):
            server.receive(Frame(DELIVER_CMD, 4, ()))
        with pytest.raises(ProtocolViolation, match="cannot handle"):
            server.receive(Frame(ANSWER, 4, (1,)))

    def test_server_answer_rule(self):
        server = ServerActor(1, 5)

        def answer(d):
            (frame,) = server.receive(Frame(DELIVER_CMD, 4, (d,)))
            assert frame == (ANSWER, 1, frame.payload)
            return frame.payload

        server.receive(Frame(SETUP_STORAGE, 0, (1, 2, 1, 3)))
        # no share: raw fragment for hosts, silence otherwise
        assert answer(2) == (3,)
        assert answer(1) == ()
        server.receive(Frame(SETUP_SHARE, 0, (4,)))
        assert answer(2) == (2,)  # 3 + 4 mod 5
        assert answer(1) == (4,)  # bare share

    def test_user_violations(self):
        user = UserActor(3, 2, decode_fn=lambda a: (0,), modulus=5)
        with pytest.raises(ProtocolViolation, match="cannot handle"):
            user.receive(Frame(DELIVER_CMD, 0, (1,)))
        with pytest.raises(ProtocolViolation, match="unknown server"):
            user.receive(Frame(ANSWER, 9, (1,)))
        user.receive(Frame(ANSWER, 1, (7,)))
        assert user.answers[1] == (2,)  # reduced mod 5
        with pytest.raises(ProtocolViolation, match="answered twice"):
            user.receive(Frame(ANSWER, 1, (1,)))
        with pytest.raises(ProtocolViolation, match="1/2 answers"):
            user.decode_result()

    def test_answers_of_several_symbols(self):
        server = ServerActor(1, 5)
        server.receive(Frame(SETUP_STORAGE, 0, (1, 2, 2, 3, 4)))
        server.receive(Frame(SETUP_SHARE, 0, (4,)))
        (frame,) = server.receive(Frame(DELIVER_CMD, 4, (2,)))
        assert frame.payload == (2, 3)  # (3 + 4, 4 + 4) mod 5
        user = UserActor(2, 1, decode_fn=lambda a: a[0], modulus=5)
        user.receive(Frame(ANSWER, 1, (7, 8, 4)))
        assert user.answers[1] == (2, 3, 4)
        assert user.decode_result() == (DECODE_RESULT, 2, (2, 3, 4))


def reference_load_storage(payload, q):
    """Oracle: a storage payload walked entry by entry into a message id ->
    symbols table, symbols reduced mod q, or the ``ProtocolViolation`` of
    the first entry out of schema."""
    if not payload:
        raise ProtocolViolation("storage frame missing entry count")
    reduced = tuple([s % q for s in payload])
    size = len(payload)
    count = payload[0]
    pos = 1
    table = {}
    for _ in range(count):
        if pos + 2 > size:
            raise ProtocolViolation("storage frame entry header truncated")
        message_id, n_syms = payload[pos], payload[pos + 1]
        pos += 2
        if pos + n_syms > size:
            raise ProtocolViolation("storage frame entry symbols truncated")
        if message_id in table:
            raise ProtocolViolation(f"storage frame repeats message {message_id}")
        table[message_id] = reduced[pos : pos + n_syms]
        pos += n_syms
    if pos != size:
        raise ProtocolViolation("storage frame has trailing symbols")
    return table


@st.composite
def storage_payloads(draw):
    """Storage payloads, mostly of one-symbol entries as a coded server
    stores them, broken at will: a count too high or too low, entries of 0
    or 2 symbols, repeated ids, trailing symbols and truncation."""
    symbol = st.integers(0, 2**32 - 1)
    width = st.sampled_from((1, 1, 1, 0, 2))
    entries = draw(st.lists(st.tuples(st.integers(0, 7), width), max_size=6))
    count = max(0, len(entries) + draw(st.sampled_from((0, 0, 0, -2, -1, 1, 2))))
    payload = [count]
    for message_id, width in entries:
        symbols = draw(st.lists(symbol, min_size=width, max_size=width))
        payload += [message_id, width, *symbols]
    payload += draw(st.lists(symbol, max_size=2))
    return tuple(payload[: len(payload) - draw(st.sampled_from((0, 0, 0, 1, 2)))])


def parse_outcome(parse, payload, q):
    try:
        return dict(parse(payload, q))
    except ProtocolViolation as exc:
        return str(exc)


def actor_parse(payload, q):
    server = ServerActor(1, q)
    server.receive(Frame(SETUP_STORAGE, COORDINATOR_ID, payload))
    return server.fragments


class TestStorageParseOracle:
    """A server's storage table, read in one slice pass when it can be,
    against the entry-by-entry walk: the same table or the same refusal."""

    @settings(max_examples=400, deadline=None)
    @given(storage_payloads(), st.sampled_from((5, 13, 4294967291)))
    def test_random_payloads(self, payload, q):
        assert parse_outcome(actor_parse, payload, q) == parse_outcome(
            reference_load_storage, payload, q
        )

    def test_payloads_off_the_one_pass(self):
        # a count too high, too low; a 0-symbol and a 2-symbol entry among
        # 1-symbol ones (well formed, read by the walk); a repeated id;
        # trailing symbols; a payload cut in an entry's symbols, its header
        for payload in (
            (3, 1, 1, 7, 2, 1, 8),
            (1, 1, 1, 7, 2, 1, 8),
            (3, 1, 1, 7, 2, 0, 3, 1, 8),
            (2, 1, 2, 7, 9, 2, 1, 8),
            (2, 1, 1, 7, 1, 1, 8),
            (2, 1, 1, 7, 2, 1, 8, 9),
            (2, 1, 1, 7, 2, 1),
            (2, 1, 1, 7, 2),
        ):
            assert parse_outcome(actor_parse, payload, 5) == parse_outcome(
                reference_load_storage, payload, 5
            )

    def test_coded_storage_frames(self):
        for config, code in (q5_instance(), q11_instance(), k64_instance()):
            messages = random_messages(config, seed=8)
            sim = simulate_round(config, code, messages, 1, seed=1)
            for frame in sim.frames[: config.n_servers]:
                table = reference_load_storage(frame.payload, config.modulus)
                assert actor_parse(frame.payload, config.modulus) == table


class TestByteAccounting:
    def test_q5_round_golden(self):
        config, code = q5_instance()
        result = simulate_round(
            config, code, random_messages(config, seed=4), 1, seed=6
        )
        accounting = byte_accounting(result.frames, 3)
        assert accounting == ByteAccounting(
            answer_payload_bytes=(4, 4, 4),
            answer_symbols=(1, 1, 1),
            delivered_symbols=2,
            header_bytes=91,  # 13 frames x 7 bytes
            total_bytes=219,
            )
        assert accounting.empirical_rate == Fraction(2, 3)

    def test_headers_excluded_from_rate(self):
        config, code = q11_instance()
        result = simulate_round(
            config, code, random_messages(config, seed=2), 4, seed=1
        )
        accounting = byte_accounting(result.frames, 6)
        assert accounting.header_bytes == 7 * len(result.frames)
        assert accounting.answer_symbols == (1,) * 6
        assert accounting.empirical_rate == Fraction(3, 6)
        assert accounting.total_bytes == sum(f.wire_size for f in result.frames)


class TestWireCensus:
    def test_answer_bytes_census_is_request_independent(self):
        # an eavesdropper seeing the encoded ANSWER frames of the q5 instance
        # learns nothing about d: over all messages and masks, the multiset
        # of answer-phase byte strings is identical for every request
        config, code = q5_instance()
        scheme = masked_scheme(config, code)
        q, k, l = 5, 3, 2
        frame_cache: dict[tuple, bytes] = {}

        def answer_bytes(answer):
            got = frame_cache.get(answer)
            if got is None:
                got = frames_to_bytes(
                    Frame(ANSWER, j + 1, payload)
                    for j, payload in enumerate(answer)
                )
                frame_cache[answer] = got
            return got

        census = [Counter() for _ in range(k)]
        w = np.array(list(itertools.product(range(q), repeat=k * l))).T
        storage = scheme.build_storage(w)
        for u in range(q):
            answers = scheme.answers(storage, np.full((1, w.shape[1]), u))
            for d in range(1, k + 1):
                for row in answers[d - 1].T.tolist():
                    census[d - 1][answer_bytes(tuple((a,) for a in row))] += 1

        assert census[0] == census[1] == census[2]
        assert len(census[0]) == 125
        assert set(census[0].values()) == {625}


# -- pinned frame logs -----------------------------------------------------------


def k64_round():
    config = make_association(257, 64, 64, 32)
    code = build_vandermonde_pair(257, 64, 32)
    return simulate_round(config, code, random_messages(config, seed=5), 17, seed=9)


def q5_round():
    config, code = q5_instance()
    return simulate_round(config, code, random_messages(config, seed=4), 2, seed=6)


def q11_round():
    config, code = q11_instance()
    return simulate_round(config, code, random_messages(config, seed=1), 6, seed=5)


def subset_coded_round():
    rng = np.random.default_rng(2)
    rows = [tuple(int(x) for x in rng.integers(0, 13, size=4)) for _ in range(12)]
    return simulate_subset_round(12, 7, 2, 4, msgs(13, *rows), 5, seed=1)


def subset_raw_round():
    messages = msgs(5, (1, 2), (3, 4), (0, 1), (2, 0))
    return simulate_subset_round(4, 5, 2, 2, messages, 3)


def fully_distributed_round():
    messages = msgs(7, (1, 2, 3, 4), (5, 6, 0, 1))
    return simulate_subset_round(2, 2, 1, 4, messages, 2)


# sha256 of ``frames_to_bytes`` of each round, with its frame and byte counts,
# recorded before the bulk codec and the per-host-set encoding landed.
PINNED_LOGS = {
    k64_round: (
        257, 27527, "e0ec0c6e1cd99d0544e7f0f8278c99bf25a5cdc57a329f7f0f55c54896f3a4ff"
    ),
    q5_round: (
        13, 219, "e1f5561a5c753181ee6e8382feb657a9c0255b065b7e8c18ef89704aeb4f0477"
    ),
    q11_round: (
        25, 571, "fda2adb22e72f94261ebc1c1c4188cd92f00fc3f0b34dceb95659c1d63f5af58"
    ),
    subset_coded_round: (
        28, 892, "05e86f29d9ff59c14fd24a195a3c1c47739e7db3da61d4f23cd3ef035f95594f"
    ),
    subset_raw_round: (
        16, 264, "964b128b0ff5c94d8a15d4d7ddd852a789d548e96c732ef7bfb39ef8d12cefd2"
    ),
    fully_distributed_round: (
        7, 161, "1882bd31147fd2038fb15b85cda762d922edaef3113adcec39ba332f3979da71"
    ),
}


class TestPinnedFrameLogs:
    @pytest.mark.parametrize("make", PINNED_LOGS, ids=lambda f: f.__name__)
    def test_log_bytes(self, make):
        frames = make().frames
        data = frames_to_bytes(frames)
        assert (len(frames), len(data), hashlib.sha256(data).hexdigest()) == (
            PINNED_LOGS[make]
        )
        parsed, offset = [], 0
        while offset < len(data):
            frame, offset = decode_frame(data, offset)
            parsed.append(frame)
        assert tuple(parsed) == frames

    @pytest.mark.parametrize("make", PINNED_LOGS, ids=lambda f: f.__name__)
    def test_log_round_trip(self, make, tmp_path):
        frames = make().frames
        path = tmp_path / "round.log"
        write_frame_log(path, frames)
        assert read_frame_log(path) == frames
        decoded = decode_frames(frames_to_bytes(frames))
        assert decoded == frames
        assert [type(f) for f in decoded] == [type(f) for f in frames]


class TestFourByteModulusRound:
    def test_every_seeded_round_decodes(self):
        config = make_association(BIG_Q, 2, 4, 2)
        code = build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS)
        for seed in range(20):
            messages = random_messages(config, seed=seed)
            d = seed % 2 + 1
            sim = simulate_round(config, code, messages, d, seed=seed)
            assert sim.transcript.decoded == messages[d - 1].symbols, seed
            assert sim.transcript == run_delivery(config, code, messages, d, seed=seed)


# -- encode once, serve many -----------------------------------------------------


def rewritten(messages, d, rng):
    """``messages`` with message d replaced by fresh symbols."""
    old = messages[d - 1]
    symbols = tuple(int(s) for s in rng.integers(0, old.modulus, len(old.symbols)))
    new = Message(index=d, symbols=symbols, modulus=old.modulus)
    return tuple(new if m.index == d else m for m in messages)


class TestEncodeOnce:
    """Rounds on one instance reuse its storage and SETUP_STORAGE frames
    until a message changes, and never serve stale storage."""

    def test_rewritten_message_is_delivered(self):
        config, code = q11_instance()
        messages = random_messages(config, seed=2)
        rng = np.random.default_rng(0)
        for r in range(12):
            d = int(rng.integers(1, config.k_messages + 1))
            if r % 2:
                messages = rewritten(messages, d, rng)
            sim = simulate_round(config, code, messages, d, seed=r)
            lib = run_delivery(config, code, messages, d, seed=r)
            assert sim.transcript == lib
            assert lib.decoded == messages[d - 1].symbols

    def test_list_mutated_in_place_is_delivered(self):
        config, code = q5_instance()
        messages = list(random_messages(config, seed=3))
        before = simulate_round(config, code, messages, 2, seed=1)
        assert before.transcript.decoded == messages[1].symbols
        symbols = tuple((s + 1) % 5 for s in messages[1].symbols)
        messages[1] = Message(index=2, symbols=symbols, modulus=5)
        lib = run_delivery(config, code, messages, 2, seed=1)
        sim = simulate_round(config, code, messages, 2, seed=1)
        assert lib.decoded == sim.transcript.decoded == symbols
        assert sim.transcript == lib
        assert frames_to_bytes(sim.frames) != frames_to_bytes(before.frames)

    def test_reused_frames_match_fresh_instances(self):
        config = make_association(257, 64, 64, 32)
        code = build_vandermonde_pair(257, 64, 32)
        messages = random_messages(config, seed=8)
        rng = np.random.default_rng(1)
        for r in range(20):
            d = int(rng.integers(1, 65))
            if r % 5 == 4:
                messages = rewritten(messages, d, rng)
            served = simulate_round(config, code, messages, d, seed=r)
            fresh_code = build_vandermonde_pair(257, 64, 32)
            fresh = simulate_round(config, fresh_code, messages, d, seed=r)
            assert frames_to_bytes(served.frames) == frames_to_bytes(fresh.frames), r
            assert served.transcript == fresh.transcript
            assert served.transcript.decoded == messages[d - 1].symbols

    def test_storage_is_reused_until_a_message_changes(self):
        config, code = q11_instance()
        messages = random_messages(config, seed=4)
        storage = encode_storage(config, code, messages)
        assert encode_storage(config, code, list(messages)) is storage
        copies = tuple(
            Message(index=m.index, symbols=m.symbols, modulus=m.modulus)
            for m in messages
        )
        assert encode_storage(config, code, copies) is storage
        changed = rewritten(messages, 1, np.random.default_rng(2))
        assert encode_storage(config, code, changed) is not storage

    def test_other_association_never_gets_cached_storage(self):
        # Same (q, K, N, L) and code pair, different host sets.
        explicit, code = q11_instance()
        canonical = make_association(11, 8, 6, 3)
        assert canonical.association != explicit.association
        messages = random_messages(canonical, seed=5)
        for config in (canonical, explicit, canonical, explicit):
            storage = encode_storage(config, code, messages)
            fresh = encode_storage(config, q11_instance()[1], messages)
            assert storage == fresh
            for d in range(1, 9):
                sim = simulate_round(config, code, messages, d, seed=d)
                assert sim.transcript.decoded == messages[d - 1].symbols
                assert sim.transcript == run_delivery(config, code, messages, d, seed=d)


# -- parse once -------------------------------------------------------------------


@pytest.fixture()
def parses(monkeypatch):
    """The payloads ``ServerActor._load_storage`` parses, in order."""
    calls = []
    parse = ServerActor._load_storage

    def counted(self, payload):
        calls.append(payload)
        return parse(self, payload)

    monkeypatch.setattr(ServerActor, "_load_storage", counted)
    return calls


def k64_instance():
    config = make_association(257, 64, 64, 32)
    return config, build_vandermonde_pair(257, 64, 32)


class TestParseOnce:
    """A SETUP_STORAGE frame re-sent round after round is parsed by the first
    server that receives it; any other storage frame is parsed in full.  A
    rewrite re-frames, and so re-parses, only the hosts of the rewritten
    message."""

    def test_rounds_on_one_instance_parse_storage_once(self, parses):
        config, code = k64_instance()
        messages = random_messages(config, seed=6)
        rng = np.random.default_rng(3)
        per_round = []
        for r in range(22):
            d = int(rng.integers(1, 65))
            if r == 20:
                messages = rewritten(messages, d, rng)
            before = len(parses)
            sim = simulate_round(config, code, messages, d, seed=r)
            per_round.append(len(parses) - before)
            assert sim.transcript == run_delivery(config, code, messages, d, seed=r)
        assert per_round == [64] + [0] * 19 + [32, 0]

    def test_alternating_instances_parse_each_frame_once(self, parses):
        instances = []
        for seed in (11, 12):
            config, code = k64_instance()
            instances.append((config, code, random_messages(config, seed=seed)))
        for r in range(20):
            config, code, messages = instances[r % 2]
            d = r % 64 + 1
            sim = simulate_round(config, code, messages, d, seed=r)
            assert sim.transcript.decoded == messages[d - 1].symbols
        assert len(parses) == 2 * 64

    def test_reused_tables_serve_the_fresh_parse(self):
        config, code = k64_instance()
        messages = random_messages(config, seed=7)
        first = simulate_round(config, code, messages, 1, seed=0)
        storage_frames = first.frames[:64]
        for d in (2, 40, 64):
            served = simulate_round(config, code, messages, d, seed=d)
            assert served.frames[:64] == storage_frames
            for n, frame in enumerate(storage_frames, start=1):
                reused, fresh = ServerActor(n, 257), ServerActor(n, 257)
                reused.receive(frame)
                fresh.receive(Frame(frame.kind, frame.sender, frame.payload))
                assert reused.fragments == fresh.fragments
            assert served.transcript.decoded == messages[d - 1].symbols

    def test_equal_copy_is_parsed_in_full(self, parses):
        config, code = k64_instance()
        frame = simulate_round(
            config, code, random_messages(config, seed=8), 3, seed=1
        ).frames[0]
        assert frame.kind == SETUP_STORAGE
        parses.clear()
        original = ServerActor(1, 257)
        original.receive(frame)
        assert parses == []
        built = Frame(frame.kind, frame.sender, frame.payload)
        decoded, _ = decode_frame(frame.encode())
        for copy in (built, decoded):
            assert copy == frame and copy is not frame
            server = ServerActor(1, 257)
            server.receive(copy)
            assert parses[-1] is copy.payload
            assert server.fragments == original.fragments
        assert len(parses) == 2

    def test_other_modulus_is_parsed_in_full(self, parses):
        config, code = k64_instance()
        frame = simulate_round(
            config, code, random_messages(config, seed=9), 3, seed=1
        ).frames[0]
        parses.clear()
        small, large = ServerActor(1, 7), ServerActor(1, 257)
        small.receive(frame)
        large.receive(frame)
        assert len(parses) == 2
        assert all(s < 7 for symbols in small.fragments.values() for s in symbols)
        assert small.fragments != large.fragments

    def test_malformed_frame_raises_on_every_receipt(self, parses):
        bad = Frame(SETUP_STORAGE, 0, (1, 1, 3, 0, 0))
        good = Frame(SETUP_STORAGE, 0, (1, 2, 1, 3))
        for n in range(1, 4):
            with pytest.raises(ProtocolViolation, match="symbols truncated"):
                ServerActor(n, 5).receive(bad)
        assert len(parses) == 3
        for n in range(1, 4):
            server = ServerActor(n, 5)
            server.receive(good)
            assert server.fragments == {2: (3,)}
        assert len(parses) == 4

    def test_tables_are_read_only(self):
        server = ServerActor(1, 5)
        server.receive(Frame(SETUP_STORAGE, 0, (1, 2, 1, 3)))
        with pytest.raises(TypeError):
            server.fragments[2] = (0,)

    def test_other_rounds_parse_every_frame(self, parses):
        # Raw-slice rounds build new states, so every frame is new.
        rows = [tuple((i + j) % 13 for j in range(2)) for i in range(4)]
        messages = msgs(13, *rows)
        for _ in range(3):
            simulate_subset_round(4, 4, 2, 2, messages, 3, seed=1)
            simulate_subset_round(2, 2, 1, 2, msgs(7, (1, 2), (3, 4)), 1)
        assert len(parses) == 3 * (4 + 2)

    def test_coded_subset_rounds_parse_inner_storage_once(self, parses):
        codedpid.protocol._subset_inner.cache_clear()
        rows = [tuple((i + j) % 13 for j in range(4)) for i in range(12)]
        messages = msgs(13, *rows)
        per_round = []
        for r in range(4):
            if r == 3:
                new = Message(index=1, symbols=(5, 6, 7, 8), modulus=13)
                messages = (new,) + messages[1:]
            before = len(parses)
            served = simulate_subset_round(12, 7, 2, 4, messages, 1, seed=r)
            per_round.append(len(parses) - before)
            assert served.transcript.decoded == messages[0].symbols
        # Six active servers from the storage memo, one idle server whose
        # empty state is built each round; the rewrite re-parses message
        # 1's L = 4 hosts.
        assert per_round == [7, 1, 1, 1 + 4]


class TestSubsetInnerReuse:
    """Subset rounds keep the inner config and code pair of each recent
    (q, K, active, L), and log exactly what a fresh build would."""

    def test_logs_match_fresh_builds(self):
        rng = np.random.default_rng(5)
        shapes = ((12, 7, 2, 4), (6, 5, 2, 2))
        messages = {
            shape: msgs(13, *[tuple(int(x) for x in rng.integers(0, 13, shape[3]))
                              for _ in range(shape[0])])
            for shape in shapes
        }
        for r in range(16):
            shape = shapes[r // 4 % 2]
            k = shape[0]
            d = int(rng.integers(1, k + 1))
            if r % 3 == 2:
                messages[shape] = rewritten(messages[shape], d, rng)
            served = simulate_subset_round(*shape, messages[shape], d, seed=r)
            lib = run_subset_scheme(*shape, messages[shape], d, seed=r)
            codedpid.protocol._subset_inner.cache_clear()
            fresh = simulate_subset_round(*shape, messages[shape], d, seed=r)
            assert frames_to_bytes(served.frames) == frames_to_bytes(fresh.frames)
            assert served.transcript == fresh.transcript == lib
            assert lib.decoded == messages[shape][d - 1].symbols

    def test_code_is_built_once_per_shape(self, monkeypatch):
        builds = []
        build = codedpid.protocol.build_vandermonde_pair

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(codedpid.protocol, "build_vandermonde_pair", counted)
        codedpid.protocol._subset_inner.cache_clear()
        messages = msgs(13, *[(i, 1, 2, 3) for i in range(12)])
        for d in range(1, 13):
            simulate_subset_round(12, 7, 2, 4, messages, d, seed=d)
            run_subset_scheme(12, 7, 2, 4, messages, d, seed=d)
        assert builds == [(13, 6, 4)]
        other = msgs(11, *[(i % 11, 1, 2, 3) for i in range(12)])
        simulate_subset_round(12, 7, 2, 4, other, 1, seed=0)
        assert builds == [(13, 6, 4), (11, 6, 4)]
        # Alternating shapes keep both code pairs.
        simulate_subset_round(12, 7, 2, 4, messages, 1, seed=0)
        run_subset_scheme(12, 7, 2, 4, other, 1, seed=0)
        assert builds == [(13, 6, 4), (11, 6, 4)]


# -- incremental encode ----------------------------------------------------------


def big_q_instance():
    config = make_association(BIG_Q, 2, 4, 2)
    return config, build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS)


def canonical_instance(q, k, n, l):
    return make_association(q, k, n, l), build_vandermonde_pair(q, n, l)


# Makers of (config, code): every call builds a fresh code pair.
REWRITE_INSTANCES = st.one_of(
    st.sampled_from(
        [
            functools.partial(canonical_instance, *params)
            for params, _, _ in small_configs()
        ]
    ),
    st.just(k64_instance),
    st.just(q11_instance),  # explicit association, two host groups
    st.just(big_q_instance),
)
REWRITE_KINDS = ("none", "one", "several", "all", "copies", "in-place")
REWRITE_STEPS = st.lists(
    st.tuples(st.sampled_from(REWRITE_KINDS), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=5,
)


def apply_rewrite(messages: list, kind: str, rng) -> list:
    """The messages after one rewrite of ``kind``: the same list object,
    mutated, for ``in-place``, else a new list.  ``copies`` replaces every
    message by an equal copy and then rewrites one."""
    k = len(messages)
    if kind == "none":
        fresh = []
    elif kind == "several":
        fresh = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
    elif kind == "all":
        fresh = range(k)
    else:
        fresh = [int(rng.integers(k))]
    out = messages if kind == "in-place" else list(messages)
    if kind == "copies":
        out = [
            Message(index=m.index, symbols=m.symbols, modulus=m.modulus) for m in out
        ]
    for i in fresh:
        old = out[i]
        symbols = tuple(int(s) for s in rng.integers(0, old.modulus, len(old.symbols)))
        out[i] = Message(index=old.index, symbols=symbols, modulus=old.modulus)
    return out


class TestIncrementalEncode:
    """After a rewrite, ``encode_storage`` rebuilds the states of the changed
    messages' hosts only, and every storage, state and frame log equals a
    fresh code pair's."""

    @settings(max_examples=60, deadline=None)
    @given(REWRITE_INSTANCES, st.integers(0, 2**32 - 1), REWRITE_STEPS)
    def test_rewrites_match_fresh_pairs(self, make, seed, steps):
        config, code = make()
        messages = list(random_messages(config, seed=seed))
        storage = encode_storage(config, code, messages)
        frames = simulate_round(config, code, messages, 1, seed=0).frames
        for r, (kind, step_seed) in enumerate(steps, start=1):
            rng = np.random.default_rng(step_seed)
            before = tuple(messages)
            messages = apply_rewrite(messages, kind, rng)
            changed = {m.index for m, old in zip(messages, before) if m != old}
            touched = {s for k in changed for s in config.servers_for(k)}

            _, fresh_code = make()
            kept = encode_storage(config, code, messages)
            assert kept == encode_storage(config, fresh_code, messages)
            for state, old in zip(kept, storage):
                assert (state is old) == (state.server_id not in touched)

            d = int(rng.integers(1, config.k_messages + 1))
            served = simulate_round(config, code, messages, d, seed=r)
            fresh = simulate_round(config, fresh_code, messages, d, seed=r)
            assert frames_to_bytes(served.frames) == frames_to_bytes(fresh.frames)
            assert served.transcript == fresh.transcript
            assert served.transcript.decoded == messages[d - 1].symbols
            for n in range(1, config.n_servers + 1):
                same = served.frames[n - 1] is frames[n - 1]
                assert same == (n not in touched)
            storage, frames = kept, served.frames


# -- codec properties ------------------------------------------------------------

KINDS = st.sampled_from((SETUP_STORAGE, SETUP_SHARE, DELIVER_CMD, ANSWER, DECODE_RESULT))
SENDERS = st.integers(0, 2**16 - 1)
SYMBOLS = st.integers(0, 2**32 - 1)
FRAMES = st.builds(Frame, KINDS, SENDERS, st.lists(SYMBOLS, max_size=40).map(tuple))
# Arbitrary bytes, and arbitrary bodies behind a header with a known kind.
WIRE = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda kind, sender, length, body: struct.pack("<BHI", kind, sender, length)
        + body,
        KINDS,
        SENDERS,
        st.integers(0, 80),
        st.binary(max_size=80),
    ),
)


class TestCodecProperties:
    @given(FRAMES)
    def test_roundtrip(self, frame):
        data = frame.encode()
        assert len(data) == frame.wire_size
        assert decode_frame(data) == (frame, len(data))

    @given(st.binary(max_size=12), FRAMES, st.binary(max_size=12))
    def test_roundtrip_at_offset(self, before, frame, after):
        data = before + frame.encode() + after
        assert decode_frame(data, len(before)) == (frame, len(data) - len(after))

    @given(FRAMES)
    def test_decoded_frame_equals_built_frame(self, frame):
        decoded, _ = decode_frame(frame.encode())
        built = Frame(frame.kind, frame.sender, frame.payload)
        assert decoded == built and hash(decoded) == hash(built)
        assert repr(decoded) == repr(built)
        assert type(decoded.payload) is tuple
        assert decoded.encode() == built.encode() == frame.encode()

    @given(FRAMES)
    def test_storage_frames_are_packed_once(self, frame):
        data = frame.encode()
        assert frame.encode() == data
        if frame.kind == SETUP_STORAGE:
            assert frame.encode() is data
        n = len(frame.payload)
        assert data == struct.pack(
            f"<BHI{n}I", frame.kind, frame.sender, 4 * n, *frame.payload
        )
        assert frames_to_bytes([frame, frame]) == data + data

    @given(WIRE)
    def test_arbitrary_bytes_raise_only_frame_error(self, data):
        try:
            frame, end = decode_frame(data)
        except FrameError:
            return
        assert frame.encode() == data[:end]

    @given(
        KINDS,
        SENDERS,
        st.lists(SYMBOLS, max_size=8),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=2**32)),
        st.integers(0, 8),
    )
    def test_out_of_range_symbol_rejected(self, kind, sender, payload, bad, at):
        payload.insert(at, bad)
        with pytest.raises(FrameError, match="4 bytes"):
            Frame(kind, sender, tuple(payload))


def decode_one_by_one(data, offset=0):
    """The frames ``decode_frame`` calls parse from ``offset`` to the end,
    or the text of the ``FrameError`` they raise."""
    frames = []
    try:
        while offset < len(data):
            frame, offset = decode_frame(data, offset)
            frames.append(frame)
    except FrameError as exc:
        return str(exc)
    return tuple(frames)


def decode_in_one_loop(data, offset=0):
    try:
        return decode_frames(data, offset)
    except FrameError as exc:
        return str(exc)


class TestCodecReference:
    """Frame bytes against ``struct.pack`` of the whole format string, and
    the bound on the codec caches."""

    @pytest.mark.parametrize("n", (0, 1, 2, 97))
    def test_encode_matches_struct_pack(self, n):
        payload = tuple(range(2**32 - n, 2**32))
        for kind in (SETUP_SHARE, DELIVER_CMD, ANSWER, DECODE_RESULT):
            frame = Frame(kind, 2**16 - 1, payload)
            reference = struct.pack(f"<BHI{n}I", kind, 2**16 - 1, 4 * n, *payload)
            assert frame.encode() == reference
            assert decode_frame(reference) == (frame, len(reference))

    def test_storage_frame_matches_struct_pack(self):
        payload = (2, 1, 1, 9, 3, 2, 1, 2**32 - 1)
        frame = Frame(SETUP_STORAGE, COORDINATOR_ID, payload)
        reference = struct.pack("<BHI8I", SETUP_STORAGE, COORDINATOR_ID, 32, *payload)
        assert frame.encode() == reference
        assert frames_to_bytes([frame]) == reference
        assert decode_frame(reference) == (frame, len(reference))

    def test_codec_caches_stay_bounded(self):
        limit = codedpid.sim._CODEC_CACHE_LIMIT
        frames = tuple(Frame(ANSWER, 1, tuple(range(n))) for n in range(limit + 44))
        data = frames_to_bytes(frames)
        assert decode_frames(data) == frames
        assert 0 < len(codedpid.sim._packers) <= limit
        assert 0 < len(codedpid.sim._unpackers) <= limit
        # Lengths evicted from a full cache are compiled again.
        assert frames_to_bytes(frames) == data
        assert decode_frames(data) == frames


class TestDecodeFrames:
    @given(st.lists(FRAMES, max_size=8))
    def test_concatenated_frames(self, frames):
        decoded = decode_frames(frames_to_bytes(frames))
        assert decoded == tuple(frames)
        assert [type(f) for f in decoded] == [type(f) for f in frames]

    @given(
        st.binary(max_size=8),
        st.lists(st.one_of(FRAMES.map(Frame.encode), WIRE), max_size=5),
    )
    def test_same_frames_or_error_as_decode_frame(self, before, chunks):
        data = before + b"".join(chunks)
        expected = decode_one_by_one(data, len(before))
        assert decode_in_one_loop(data, len(before)) == expected

    def test_negative_offset_is_refused(self):
        good = Frame(ANSWER, 1, (5,)).encode()
        assert len(decode_frames(good + good, 0)) == 2
        for data in (good + good, b""):
            for offset in (-1, -11):
                with pytest.raises(FrameError, match=f"negative frame offset {offset}"):
                    decode_frames(data, offset)

    def test_every_error_text(self):
        good = Frame(ANSWER, 1, (5,)).encode()
        cases = {
            good + good[:4]: "truncated frame header",
            good + good[:-2]: "truncated frame payload",
            good + b"\x09" + good[1:]: "unknown frame kind 9",
            good + b"\x04\x01\x00\x03\x00\x00\x00\x00\x00\x00": (
                "payload length 3 is not a multiple of 4"
            ),
        }
        for data, message in cases.items():
            with pytest.raises(FrameError) as raised:
                decode_frames(data)
            assert str(raised.value) == message == decode_one_by_one(data)


# -- frame records and trusted round frames --------------------------------------


def big_modulus_round():
    config = make_association(BIG_Q, 2, 4, 2)
    code = build_vandermonde_pair(BIG_Q, 4, 2, points=BIG_POINTS)
    return simulate_round(config, code, random_messages(config, seed=3), 2, seed=4)


ROUNDS = (*PINNED_LOGS, big_modulus_round)


class TestFrameRecord:
    def test_equals_and_hashes_like_its_bare_tuple(self):
        # A frame is a tuple record: equal to the bare tuple of its fields.
        frame = Frame(ANSWER, 1, (5,))
        assert frame == (ANSWER, 1, (5,))
        assert hash(frame) == hash((ANSWER, 1, (5,)))
        assert frame != (ANSWER, 1, (6,))
        kind, sender, payload = frame
        assert (kind, sender, payload) == (frame.kind, frame.sender, frame.payload)
        storage = Frame(SETUP_STORAGE, 0, (1, 2, 1, 3))
        assert storage == (SETUP_STORAGE, 0, (1, 2, 1, 3))
        assert hash(storage) == hash((SETUP_STORAGE, 0, (1, 2, 1, 3)))

    def test_fields_are_read_only(self):
        frames = (
            Frame(ANSWER, 1, (5,)),
            Frame(SETUP_STORAGE, 0, (1, 2, 1, 3)),
            decode_frame(Frame(DECODE_RESULT, 4, (1, 2)).encode())[0],
        )
        for frame in frames:
            for field in ("kind", "sender", "payload"):
                with pytest.raises(AttributeError):
                    setattr(frame, field, 1)

    def test_only_storage_frames_carry_a_dict(self):
        for kind in (SETUP_SHARE, DELIVER_CMD, ANSWER, DECODE_RESULT):
            assert not hasattr(Frame(kind, 1, (2,)), "__dict__")
            assert not hasattr(decode_frame(Frame(kind, 1, (2,)).encode())[0], "__dict__")

    def test_payload_is_stored_as_a_tuple(self):
        frame = Frame(ANSWER, 1, [5, 6])
        assert type(frame.payload) is tuple
        assert frame == Frame(ANSWER, 1, (5, 6))

    def test_make_and_replace_validate(self):
        with pytest.raises(FrameError, match="kind"):
            Frame._make((9, 0, ()))
        with pytest.raises(FrameError, match="2 bytes"):
            Frame(ANSWER, 1, ())._replace(sender=2**16)
        with pytest.raises(FrameError, match="4 bytes"):
            Frame(ANSWER, 1, ())._replace(payload=(2**32,))
        storage = Frame(ANSWER, 0, (0,))._replace(kind=SETUP_STORAGE)
        assert storage.encode() is storage.encode()

    def test_repr(self):
        built = Frame(SETUP_STORAGE, 0, (1, 2))
        assert repr(built) == "Frame(kind=1, sender=0, payload=(1, 2))"
        assert repr(decode_frame(built.encode())[0]) == repr(built)
        assert repr(Frame(ANSWER, 3, ())) == "Frame(kind=4, sender=3, payload=())"

    @pytest.mark.parametrize("make", ROUNDS, ids=lambda f: f.__name__)
    def test_round_frames_pass_full_validation(self, make):
        for frame in make().frames:
            rebuilt = Frame(*frame)
            assert rebuilt == frame
            assert type(rebuilt) is type(frame)


class TestTrustedRoundFrames:
    """Round frames skip re-validation only where their values are bounded."""

    def test_no_validation_or_parse_after_the_first_round(self, parses, monkeypatch):
        validations = []
        validate = Frame.__new__

        def counted(cls, kind, sender, payload):
            validations.append(kind)
            return validate(cls, kind, sender, payload)

        monkeypatch.setattr(Frame, "__new__", counted)
        config, code = k64_instance()
        messages = random_messages(config, seed=10)
        per_round = []
        for r in range(20):
            before = len(validations), len(parses)
            d = r % 64 + 1
            sim = simulate_round(config, code, messages, d, seed=r)
            per_round.append((len(validations) - before[0], len(parses) - before[1]))
            assert sim.transcript.decoded == messages[d - 1].symbols
        assert per_round == [(64, 64)] + [(0, 0)] * 19
        assert set(validations) == {SETUP_STORAGE}

    def test_per_round_bounds_raise_frame_error(self):
        # The user is built, and refused, before any server, so no 65 535
        # servers are made and no storage frame is built.
        layout = codedpid.protocol._Layout(
            requested=1,
            storage=(None,) * (2**16 - 1),
            randomness=None,
            decode=lambda ordered: (),
            modulus=5,
            transcript=None,
        )
        with pytest.raises(FrameError, match="sender id 65536 does not fit 2 bytes"):
            codedpid.sim._serve(layout)
        # A request that does not fit 4 bytes never reaches the round: the
        # layout refuses it as outside 1..K.
        config, code = q5_instance()
        messages = random_messages(config, seed=1)
        for d in (2**32, -1):
            with pytest.raises(ValueError, match=f"message id {d} outside 1..3"):
                simulate_round(config, code, messages, d)

    def test_actors_outside_the_bounds_are_refused_when_built(self):
        for sender in (2**16, -1):
            refusal = f"sender id {sender} does not fit 2 bytes"
            with pytest.raises(FrameError, match=refusal):
                ServerActor(sender, 5)
            with pytest.raises(FrameError, match=refusal):
                UserActor(sender, 1, decode_fn=lambda _a: (0,), modulus=5)
        for modulus in (2**32 + 1, 2**40, 0):
            with pytest.raises(FrameError, match="do not fit 4 bytes"):
                ServerActor(1, modulus)
        # the largest modulus allowed answers 2^32 - 1, which fits
        wide = ServerActor(1, 2**32)
        wide.receive(Frame(SETUP_STORAGE, 0, (1, 1, 1, 2**32 - 2)))
        wide.receive(Frame(SETUP_SHARE, 0, (1,)))
        assert wide.receive(Frame(DELIVER_CMD, 4, (1,)))[0].payload == (2**32 - 1,)
        # the decoder is the caller's, so its symbols are still checked
        cases = (((-1,), "4 bytes"), ((2**32,), "4 bytes"), ((1.5,), "ints"))
        for decoded, text in cases:
            user = UserActor(3, 1, decode_fn=lambda _a, out=decoded: out, modulus=5)
            user.receive(Frame(ANSWER, 1, (1,)))
            with pytest.raises(FrameError, match=text):
                user.decode_result()

    def test_non_integer_actor_ids_and_moduli_are_refused(self):
        decode = lambda _a: (0,)  # noqa: E731
        server_cases = [
            ((2.5, 5), "sender id 2.5 is not an int"),
            ((True, 5), "sender id True is not an int"),
            ((np.int64(1), 5), "is not an int"),  # repr varies with numpy
            ((1, 5.5), "modulus 5.5 is not an int"),
            ((1, True), "modulus True is not an int"),
        ]
        for args, text in server_cases:
            with pytest.raises(FrameError, match=re.escape(text)):
                ServerActor(*args)
        for args, text in (
            ((1.5, 1, decode, 5), "sender id 1.5 is not an int"),
            ((3, 1, decode, 5.0), "modulus 5.0 is not an int"),
            ((3, 1, decode, 2**32 + 1), "do not fit 4 bytes"),
        ):
            with pytest.raises(FrameError, match=re.escape(text)):
                UserActor(*args)
        # An int subclass that is not a bool passes the int rule: it misses
        # the constructor's plain-int test and is built by the full checks.
        class Id(int):
            pass

        server = ServerActor(Id(2), Id(5))
        server.receive(Frame(SETUP_STORAGE, 0, (1, 1, 1, 3)))
        server.receive(Frame(SETUP_SHARE, 0, (4,)))
        (answer,) = server.receive(Frame(DELIVER_CMD, 4, (1,)))
        assert answer.encode() == Frame(ANSWER, 2, (2,)).encode()


class TestEveryFrameReachesItsActor:
    """A round hands each frame to its actor's ``receive`` and calls each
    protocol step once, through the names ``perfbench/tracing.py`` wraps, so
    the per-layer metrics keep counting what a round does."""

    @pytest.mark.parametrize(
        "make", (q5_instance, k64_instance), ids=lambda f: f.__name__
    )
    def test_calls_per_round(self, make, monkeypatch):
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[f"{owner.__name__}.{name}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(ServerActor, "receive")
        count(UserActor, "receive")
        count(CodePair, "decode_vector")
        count(codedpid.sim, "draw_randomness")
        count(codedpid.sim, "encode_storage")
        config, code = make()
        messages = random_messages(config, seed=3)
        n = config.n_servers
        for d in (1, config.k_messages):
            calls.clear()
            sim = simulate_round(config, code, messages, d, seed=d)
            assert sim.transcript.decoded == messages[d - 1].symbols
            assert len(sim.frames) == 4 * n + 1
            assert calls == {
                "ServerActor.receive": 3 * n,
                "UserActor.receive": n,
                "CodePair.decode_vector": 1,
                "codedpid.sim.draw_randomness": 1,
                "codedpid.sim.encode_storage": 1,
            }


# -- accounting against the per-term formulas ------------------------------------


def oracle_accounting(frames, n_servers):
    """``byte_accounting`` as a sum over frames of each frame's own terms."""
    payload_bytes = [0] * n_servers
    symbols = [0] * n_servers
    delivered = headers = total = 0
    for frame in frames:
        headers += 7
        total += len(frame.encode())
        if frame.kind == ANSWER:
            payload_bytes[frame.sender - 1] += 4 * len(frame.payload)
            symbols[frame.sender - 1] += len(frame.payload)
        elif frame.kind == DECODE_RESULT:
            delivered += len(frame.payload)
    return ByteAccounting(
        answer_payload_bytes=tuple(payload_bytes),
        answer_symbols=tuple(symbols),
        delivered_symbols=delivered,
        header_bytes=headers,
        total_bytes=total,
    )


def oracle_floor(config, transcript):
    """``download_floor_check`` as one sum per (message, host) term."""
    counts = transcript.transmission_counts
    sums = tuple(
        sum(counts[s - 1] for s in config.servers_for(k))
        for k in range(1, config.k_messages + 1)
    )
    failing = tuple(k for k, total in enumerate(sums, start=1) if total < config.msg_len)
    return DownloadFloorCheck(
        ok=not failing, sums=sums, floor=config.msg_len, failing_messages=failing
    )


def assert_accounting_matches(config, result):
    for frames in (result.frames, decode_frames(frames_to_bytes(result.frames))):
        got = byte_accounting(frames, config.n_servers)
        assert got == oracle_accounting(frames, config.n_servers)
    check = download_floor_check(config, result.transcript)
    assert check == oracle_floor(config, result.transcript)
    assert all(type(s) is int for s in check.sums)
    return check


def subset_config(q, k, n, l, hosts):
    """The N-server config whose message k is hosted by ``hosts(k)``."""
    return make_association(
        q, k, n, l, mode=EXPLICIT, association=[hosts(m) for m in range(1, k + 1)]
    )


class TestAccountingOracles:
    def test_small_configs(self):
        for params, config, code in small_configs():
            messages = random_messages(config, seed=sum(params))
            for d in range(1, config.k_messages + 1):
                result = simulate_round(config, code, messages, d, seed=d)
                assert assert_accounting_matches(config, result).ok, (params, d)

    def test_explicit_q11_and_k64(self):
        rounds = ((q11_instance()[0], q11_round()), (k64_instance()[0], k64_round()))
        for config, result in rounds:
            assert assert_accounting_matches(config, result).ok

    def test_subset_rounds_with_silent_servers(self):
        coded, raw = subset_coded_round(), subset_raw_round()
        inner = make_association(13, 12, 6, 4)
        config = subset_config(13, 12, 7, 4, inner.servers_for)
        assert coded.transcript.transmission_counts[-1] == 0
        assert assert_accounting_matches(config, coded).ok
        config = subset_config(5, 4, 5, 2, lambda k: (1, 2))
        assert raw.transcript.transmission_counts == (1, 1, 0, 0, 0)
        assert assert_accounting_matches(config, raw).ok
        # Host sets that take in the silent servers miss the floor.
        config = subset_config(5, 4, 5, 2, lambda k: (k % 2 + 1, k % 3 + 3))
        check = assert_accounting_matches(config, raw)
        assert check.sums == (1, 1, 1, 1)
        assert check.failing_messages == (1, 2, 3, 4)

    def test_hand_built_transcripts_that_fail(self):
        config = make_association(7, 6, 4, 2)  # hosts (1,2) (3,4) (1,2) ...
        cases = {
            ((1,), (), (1,), (1,)): ((1, 2) * 3, (1, 3, 5)),
            ((), (), (2, 3), ()): ((0, 2) * 3, (1, 3, 5)),
            ((), (), (), ()): ((0, 0) * 3, (1, 2, 3, 4, 5, 6)),
            ((1, 1), (), (), (1,)): ((2, 1) * 3, (2, 4, 6)),
        }
        for answers, (sums, failing) in cases.items():
            t = DeliveryTranscript(
                requested=1, answers=answers, decoded=(0, 0), modulus=7, msg_len=2
            )
            check = download_floor_check(config, t)
            assert check == oracle_floor(config, t)
            assert (check.ok, check.sums, check.failing_messages) == (False, sums, failing)
        rng = np.random.default_rng(11)
        for _ in range(50):
            counts = rng.integers(0, 3, size=config.n_servers)
            t = DeliveryTranscript(
                requested=1,
                answers=tuple((0,) * int(c) for c in counts),
                decoded=(0, 0),
                modulus=7,
                msg_len=2,
            )
            assert download_floor_check(config, t) == oracle_floor(config, t)

    def test_incidence_is_built_once_per_config_and_read_only(self):
        config = make_association(7, 6, 4, 2)
        assert "host_incidence" not in vars(config)
        incidence = config.host_incidence
        assert config.host_incidence is incidence
        assert incidence.tolist() == [
            [1 if s in config.servers_for(k) else 0 for s in range(1, 5)]
            for k in range(1, 7)
        ]
        with pytest.raises(ValueError):
            incidence[0, 0] = 0
