"""Wire format, actors, routing, logs, and sim-vs-library equivalence.

The frame byte golden was laid out by hand from the header packing
(1-byte kind, 2-byte little-endian sender, 4-byte little-endian length,
4-byte little-endian symbols).
"""

import hashlib
import itertools
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from codedpid.codes import build_vandermonde_pair
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    Message,
    encode_storage,
    make_association,
    random_messages,
    run_delivery,
    run_fully_distributed,
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
    Router,
    RoutingError,
    ServerActor,
    UserActor,
    byte_accounting,
    decode_frame,
    frames_to_bytes,
    read_frame_log,
    simulate_fully_distributed_round,
    simulate_round,
    simulate_subset_round,
    write_frame_log,
)
from codedpid.verify import masked_scheme
from test_protocol import BIG_POINTS, BIG_Q


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
    def test_rate_one(self):
        messages = msgs(7, (1, 2, 3, 4), (5, 6, 0, 1))
        result = simulate_fully_distributed_round(messages, 2, 2)
        assert result.transcript == run_fully_distributed(messages, 2, 2)
        assert result.transcript.rate == Fraction(1)
        accounting = byte_accounting(result.frames, 2)
        assert accounting.empirical_rate == Fraction(1)

    def test_rejections(self):
        messages = msgs(7, (1, 2, 3), (4, 5, 6))
        with pytest.raises(ValueError, match="divisible"):
            simulate_fully_distributed_round(messages, 2, 1)
        with pytest.raises(ValueError):
            simulate_fully_distributed_round(messages, 3, 9)
        with pytest.raises(ValueError):
            simulate_fully_distributed_round((), 2, 1)


class TestRouterAndActors:
    def test_server_to_server_banned(self):
        router = Router(2)
        target = ServerActor(2, 5)
        with pytest.raises(RoutingError, match="may not message"):
            router.send(Frame(ANSWER, 1, ()), target)

    def test_router_logs_every_frame(self):
        router = Router(2)
        server = ServerActor(1, 5)
        router.send(Frame(SETUP_SHARE, COORDINATOR_ID, (3,)), server)
        router.record(Frame(DECODE_RESULT, 3, (1,)))
        assert [f.kind for f in router.log] == [SETUP_SHARE, DECODE_RESULT]

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
        server.receive(Frame(SETUP_STORAGE, 0, (1, 2, 1, 3)))
        # no share: raw fragment for hosts, silence otherwise
        assert server._answer(2) == (3,)
        assert server._answer(1) == ()
        server.receive(Frame(SETUP_SHARE, 0, (4,)))
        assert server._answer(2) == (2,)  # 3 + 4 mod 5
        assert server._answer(1) == (4,)  # bare share

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
        w = np.array(list(itertools.product(range(q), repeat=k * l)))
        storage = scheme.build_storage(w)
        for u in range(q):
            mask = np.full((len(w), 1), u)
            for d in range(1, k + 1):
                for row in scheme.answers(storage, mask, d).tolist():
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
    return simulate_fully_distributed_round(messages, 2, 2)


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
