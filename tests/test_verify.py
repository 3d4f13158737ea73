"""Exhaustive audit machinery: counts, censuses, the method rule, fault injection.

Case counts are arithmetic facts (q^(K*L+mask) * K) and are frozen below;
census sizes were derived by hand (answer supports and per-vector counts)
before pinning.
"""

import dataclasses
import itertools
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import codedpid.verify
from codedpid.cli import main
from codedpid.codes import build_vandermonde_pair
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    Message,
    _subset_inner,
    attach_shares,
    answer_vector,
    draw_randomness,
    encode_storage,
    make_association,
    random_messages,
    run_subset_scheme,
    valid_msg_lens,
)
from codedpid.sim import simulate_subset_round
from codedpid.verify import (
    BLOCK_CELLS,
    CHUNK_ROWS,
    DEFAULT_BUDGET,
    DENSE_CENSUS_KEYS,
    CorrectnessReport,
    Counterexample,
    PrivacyMismatch,
    PrivacyReport,
    by_rank,
    case_count,
    case_text,
    masked_scheme,
    power_text,
    scheme_audit,
    scheme_correctness,
    scheme_privacy,
    split_scheme,
    verdict_line,
)

Q5_CFG = Path(__file__).resolve().parent.parent / "configs" / "q5-k3.cfg"
Q5_CASES = 5 ** (3 * 2 + 1) * 3  # 234375
Q5_SPLIT_CASES = 5 ** (3 * 2) * 3  # 46875
Q11_CASES = 11 ** (8 * 3 + 3) * 8


class TestCaseCounts:
    def test_frozen_counts(self):
        assert Q5_CASES == 234375
        assert Q5_SPLIT_CASES == 46875
        assert Q11_CASES == 104879953531999442936491682968

    def test_case_count_q5(self):
        config, code = q5_instance()
        assert case_count(masked_scheme(config, code)) == Q5_CASES
        assert case_count(split_scheme(config)) == Q5_SPLIT_CASES

    def test_case_count_q11(self):
        config, code = q11_instance()
        assert case_count(masked_scheme(config, code)) == Q11_CASES


class TestBudget:
    """``by_rank`` reads the scheme and the properties audited, nothing
    else: a fixed case limit, the block bound q <= CHUNK_ROWS and, for
    privacy, the census bound."""

    def test_default(self):
        # the case limit is 10^7: a split of one 23-symbol message over F_2
        # has 2^23 = 8388608 cases and is enumerated, one of 24 symbols has
        # 2^24 = 16777216 and is ranked
        assert DEFAULT_BUDGET == 10**7
        for l, ranked in ((23, False), (24, True)):
            scheme = split_scheme(make_association(2, 1, l, l))
            assert case_count(scheme) == 2**l
            assert by_rank(scheme, privacy=False) == ranked

    def test_env_override(self, monkeypatch):
        # PID_BUDGET is not read: q5 is still enumerated under a tiny one
        # and q11 still ranked under a huge one
        monkeypatch.setenv("PID_BUDGET", "100")
        report = scheme_correctness(masked_scheme(*q5_instance()))
        assert report.cases == Q5_CASES and not report.ranked
        monkeypatch.setenv("PID_BUDGET", str(10**40))
        assert by_rank(masked_scheme(*q11_instance()), privacy=False)

    def test_invalid_env(self, monkeypatch):
        # nor refused
        monkeypatch.setenv("PID_BUDGET", "lots")
        assert scheme_privacy(masked_scheme(*q5_instance())).passed

    def test_negative_budget_rejected(self):
        # no audit takes a budget, negative or not
        scheme = masked_scheme(*q5_instance())
        for audit in (scheme_audit, scheme_correctness, scheme_privacy):
            with pytest.raises(TypeError, match="budget"):
                audit(scheme, budget=-1)

    # Past the limit every scheme is certified by rank: the stages never
    # run, and the reports are the enumeration's.

    def test_audit_refuses_over_budget(self):
        scheme = stageless(masked_scheme(*q11_instance()))
        assert by_rank(scheme, privacy=False)
        report = scheme_correctness(scheme)
        assert report == CorrectnessReport(True, Q11_CASES, None) and report.ranked

    def test_explicit_budget_argument(self, monkeypatch):
        # ``by_rank`` takes no budget; the limit it reads is inclusive
        scheme = masked_scheme(*q5_instance())
        with pytest.raises(TypeError):
            by_rank(scheme, 10, privacy=False)
        monkeypatch.setattr(codedpid.verify, "DEFAULT_BUDGET", Q5_CASES)
        assert not by_rank(scheme, privacy=True)
        monkeypatch.setattr(codedpid.verify, "DEFAULT_BUDGET", Q5_CASES - 1)
        assert by_rank(scheme, privacy=True)
        assert scheme_audit(stageless(scheme)) == scheme_audit(
            masked_scheme(*q5_instance())
        )

    def test_block_bound(self):
        # 1021 is the largest prime a block of CHUNK_ROWS = 1024 inputs
        # holds; past it, the next prime 1031 is ranked at 1031^2 cases
        assert CHUNK_ROWS == 1024
        for q, ranked in ((1021, False), (1031, True)):
            config = make_association(q, 1, 2, 2)
            scheme = masked_scheme(config, build_vandermonde_pair(q, 2, 2))
            assert case_count(scheme) == q**2 < DEFAULT_BUDGET
            assert by_rank(scheme, privacy=False) == ranked
            assert by_rank(scheme, privacy=True) == ranked

    def test_census_bound(self):
        # one message on server 1 of N over F_17: 17 cases, and a census of
        # 18^N keys, within DENSE_CENSUS_KEYS = 2^21 up to N = 5; past it
        # privacy alone is ranked
        assert DENSE_CENSUS_KEYS == 2**21 and 18**5 < 2**21 < 18**6
        for n, ranked in ((5, False), (6, True)):
            config = make_association(17, 1, n, 1, mode="explicit", association=[[1]])
            scheme = split_scheme(config)
            assert not by_rank(scheme, privacy=False)
            assert by_rank(scheme, privacy=True) == ranked
            correct, private = scheme_correctness(scheme), scheme_privacy(scheme)
            assert correct == CorrectnessReport(True, 17, None) and not correct.ranked
            assert private == PrivacyReport(True, 17, 17, False, None, None)
            assert private.ranked == ranked


def rank_audit(scheme, **properties):
    """``scheme_audit`` sent down the rank path by a zero case limit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codedpid.verify, "DEFAULT_BUDGET", 0)
        return scheme_audit(scheme, **properties)


def stageless(scheme):
    """``scheme`` with no stages: only the rank path can audit it."""
    return dataclasses.replace(scheme, build_storage=None, answers=None, decode=None)


def k64_instance():
    """The q=257, K=N=64, L=32 layout that the serve benchmark serves."""
    return make_association(257, 64, 64, 32), build_vandermonde_pair(257, 64, 32)


class TestSchemesAgree:
    def instances(self):
        yield q5_instance()
        yield q11_instance()
        for _, config, code in small_configs():
            yield config, code
        yield k64_instance()

    def test_masked_scheme_matches_protocol_module(self):
        # the pluggable scheme must reproduce the library's own storage,
        # answers and decoding exactly
        for config, code in self.instances():
            scheme = masked_scheme(config, code)
            messages = random_messages(config, seed=77)
            q = config.modulus
            w = np.array([[s for m in messages for s in m.symbols]]).T
            storage = scheme.build_storage(w)
            states = encode_storage(config, code, messages)
            for st in states:
                # the masked scheme stores message k of server j at [k-1, j-1, b]
                stored = storage[:, st.server_id - 1, 0].tolist()
                assert {k + 1: s for k, s in enumerate(stored) if s != q} == {
                    k: syms[0] for k, syms in st.fragments
                }
            rnd = draw_randomness(code, seed=3)
            masked = attach_shares(states, rnd)
            mask = np.array([rnd.mask_vector], dtype=np.int64).T
            answers = scheme.answers(storage, mask)
            decoded = scheme.decode(answers)
            for d in range(1, config.k_messages + 1):
                a = answers[d - 1, :, 0]
                assert tuple((s,) for s in a.tolist()) == answer_vector(masked, d)
                assert tuple(decoded[d - 1, :, 0].tolist()) == messages[d - 1].symbols

    def test_k64_storage_needs_no_dense_encode_matrix(self):
        # A dense (K*L) x (K*N) int64 encode matrix of the K64 layout is
        # 2048 * 4096 * 8 bytes = 67 MB; the 200 rows built here are 6.6 MB.
        config, code = k64_instance()
        w = np.random.default_rng(0).integers(0, 257, size=(64 * 32, 200))
        tracemalloc.start()
        try:
            storage = masked_scheme(config, code).build_storage(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert storage.shape == (64, 64, 200)
        assert peak < 25 * 10**6


    def test_masked_scheme_refuses_a_pair_of_another_instance(self):
        config, _ = q5_instance()
        for code, text in (
            (build_vandermonde_pair(7, 3, 2), "config modulus 5 != code modulus 7"),
            (build_vandermonde_pair(5, 4, 2), "config has 3 servers, code has 4"),
            (build_vandermonde_pair(5, 3, 1), "config message length 2 != code 1"),
        ):
            with pytest.raises(ValueError) as refusal:
                masked_scheme(config, code)
            assert str(refusal.value) == text


def one_input_answers(scheme, words, mask):
    """``scheme``'s answers to one input, message symbols ``words`` (K*L)
    and mask symbols ``mask``: a (K, N) int64 array, q where silent."""
    w = np.array(words, np.int64).reshape(-1, 1)
    u = np.array(mask, np.int64).reshape(-1, 1)
    return scheme.answers(scheme.build_storage(w), u)[:, :, 0]


class TestServedSubsetAgrees:
    """The subset rounds that ``run_subset_scheme`` and
    ``simulate_subset_round`` serve answer as the audited schemes do: the
    serving answer rule and the batched one are written apart."""

    TRANSPORTS = (
        run_subset_scheme,
        lambda *args, **kw: simulate_subset_round(*args, **kw).transcript,
    )

    def test_raw_slice_branch_answers_as_the_split_scheme(self):
        # K=2, N=2, M=1, L=2: every server holds one raw symbol of each
        # message, the split scheme with both servers hosting both messages
        q, k, n, l = 5, 2, 2, 2
        scheme = split_scheme(make_association(q, k, n, l))
        for words in itertools.product(range(q), repeat=k * l):
            messages = tuple(
                Message(i + 1, words[i * l : (i + 1) * l], q) for i in range(k)
            )
            expected = one_input_answers(scheme, words, ())
            for d in range(1, k + 1):
                for serve in self.TRANSPORTS:
                    served = serve(k, n, 1, l, messages, d)
                    assert served.answers == tuple((a,) for a in expected[d - 1].tolist())

    def test_coded_branch_answers_as_the_masked_scheme(self):
        # K=4, N=3, M=2, L=1: the coded scheme on ceil(K/M) = 2 servers under
        # the round's own mask, and server 3 silent
        q, k, n, l = 5, 4, 3, 1
        scheme = masked_scheme(*_subset_inner(q, k, 2, l))
        rng = np.random.default_rng(5)
        for seed in range(40):
            words = tuple(int(x) for x in rng.integers(0, q, size=k * l))
            messages = tuple(Message(i + 1, (w,), q) for i, w in enumerate(words))
            for d in range(1, k + 1):
                for serve in self.TRANSPORTS:
                    served = serve(k, n, 2, l, messages, d, seed=seed)
                    expected = one_input_answers(scheme, words, served.mask_vector)
                    active = tuple((a,) for a in expected[d - 1].tolist())
                    assert served.answers == active + ((),)


class TestRowsLast:
    """Every stage takes a block's inputs on its last axis and is row-wise:
    a random block gives, column by column, what each input gives alone."""

    def schemes(self):
        config, code = q5_instance()
        yield masked_scheme(config, code)
        yield split_scheme(config)
        yield long_mask_scheme()
        for _, scheme in corrupt_cells(config, code, deltas=(1, 4)):
            yield scheme

    def test_block_equals_its_columns(self):
        rng = np.random.default_rng(18)
        schemes = list(self.schemes())
        assert len(schemes) == 15
        for scheme in schemes:
            q, k, l, n = scheme.modulus, scheme.k_messages, scheme.msg_len, scheme.n_servers
            x = rng.integers(0, q, size=(k * l + scheme.mask_len, 37))
            storage = scheme.build_storage(x[: k * l])
            answers = scheme.answers(storage, x[k * l :])
            decoded = scheme.decode(answers)
            assert (answers.shape, decoded.shape) == ((k, n, 37), (k, l, 37))
            for b in range(37):
                one = x[:, b : b + 1]
                alone = scheme.build_storage(one[: k * l])
                heard = scheme.answers(alone, one[k * l :])
                assert (alone[..., 0] == storage[..., b]).all(), scheme.name
                assert (heard[..., 0] == answers[..., b]).all(), scheme.name
                assert (scheme.decode(heard)[..., 0] == decoded[..., b]).all(), scheme.name

    def test_reduction_matches_remainder(self):
        # the stage bound N*(q-1)^2 + q - 1 at N = 2 and the largest
        # admitted q, and the largest int64
        q = 2**31 - 1
        x = np.array([0, q - 1, q, 2 * (q - 1) ** 2 + q - 1, 2**63 - 1], dtype=np.int64)
        assert (codedpid.verify._mod(x, q) == np.remainder(x, q)).all()


class TestExhaustiveQ5:
    def test_correctness(self):
        config, code = q5_instance()
        report = scheme_correctness(masked_scheme(config, code))
        assert report.passed
        assert report.cases == Q5_CASES
        assert report.counterexample is None

    def test_privacy(self):
        config, code = q5_instance()
        report = scheme_privacy(masked_scheme(config, code))
        assert report.passed
        assert report.cases == Q5_CASES
        # every one of the 5^3 single-symbol answer vectors shows up,
        # each exactly 5^7/5^3 = 625 times per request
        assert report.distinct_answers == 125
        assert report.uniform
        assert report.uniform_count == 625
        assert report.mismatch is None


class TestSplitControl:
    def test_correct_but_leaky(self):
        config, _ = q5_instance()
        scheme = split_scheme(config)
        assert scheme.name == "unmasked-split"
        assert scheme.mask_len == 0

        correct = scheme_correctness(scheme)
        assert correct.passed
        assert correct.cases == Q5_SPLIT_CASES

        privacy = scheme_privacy(scheme)
        assert not privacy.passed
        assert privacy.cases == Q5_SPLIT_CASES
        # each request exposes its own host pattern: 3 patterns x 25 payloads
        assert privacy.distinct_answers == 75
        assert not privacy.uniform
        assert privacy.uniform_count is None
        leak = privacy.mismatch
        assert leak is not None
        assert leak.count_a != leak.count_b
        assert leak.request_a != leak.request_b
        # silent vs transmitting servers distinguish the requests outright
        assert 0 in (leak.count_a, leak.count_b)
        # the witness is the smallest leaking key: d=1 answers (0, 0, silence)
        # 5^4 times and d=2 never; every smaller key has server 3 sending,
        # which neither request does
        assert leak == PrivacyMismatch(((0,), (0,), ()), 1, 625, 2, 0)

    def test_full_length_layout_is_private(self):
        # L = N: every server hosts every message and always transmits, so
        # only L < N raw-slice layouts leak.
        privacy = scheme_privacy(split_scheme(make_association(3, 2, 2, 2)))
        assert privacy.passed and privacy.uniform
        assert privacy.distinct_answers == 9
        assert privacy.cases == 162

    def test_same_storage_cost_as_masked(self):
        config, code = q5_instance()
        masked = masked_scheme(config, code)
        split = split_scheme(config)
        w = np.array([[s for m in random_messages(config, seed=5) for s in m.symbols]]).T
        # the marker q (= 5) stands for "stores nothing"
        masked_cost = int((masked.build_storage(w) != 5).sum())
        split_cost = int((split.build_storage(w) != 5).sum())
        assert masked_cost == split_cost == 6


class TestFaultInjection:
    def test_every_storage_cell_is_audited(self):
        # corrupt each (server, message) cell in turn; the audit must catch
        # each one, and the first failing case is the corrupted message
        # itself on the all-zero input
        config, code = q5_instance()
        cells = [
            (server, k)
            for k in range(1, 4)
            for server in config.servers_for(k)
        ]
        assert len(cells) == 6
        for server, k in cells:
            scheme = masked_scheme(config, code, corrupt=(server, k, 1, 2))
            report = scheme_correctness(scheme)
            assert not report.passed, (server, k)
            assert report.cases == k  # fails on request k of the first input
            ce = report.counterexample
            assert ce.requested == k
            assert ce.messages == ((0, 0), (0, 0), (0, 0))
            assert ce.mask == (0,)
            assert ce.expected == (0, 0)
            assert ce.decoded != ce.expected

    def test_corruption_validation(self):
        config, code = q5_instance()
        with pytest.raises(ValueError, match="nonzero"):
            masked_scheme(config, code, corrupt=(1, 1, 1, 5))
        with pytest.raises(ValueError, match="outside"):
            masked_scheme(config, code, corrupt=(1, 4, 1, 2))
        with pytest.raises(ValueError, match="stores nothing"):
            masked_scheme(config, code, corrupt=(3, 1, 1, 2))
        with pytest.raises(ValueError, match="one symbol"):
            masked_scheme(config, code, corrupt=(1, 1, 2, 2))

    def test_corrupted_delta_wraps(self):
        config, code = q5_instance()
        scheme = masked_scheme(config, code, corrupt=(1, 1, 1, 7))  # 7 = 2 mod 5
        assert not scheme_correctness(scheme).passed


class TestEdgeInstances:
    def test_single_message(self):
        # K=1: nothing to hide, no mask needed (L=N), still correct+private
        config = make_association(2, 1, 2, 2)
        code = build_vandermonde_pair(2, 2, 2)
        assert code.mask_len == 0
        scheme = masked_scheme(config, code)
        assert case_count(scheme) == 4

        correct = scheme_correctness(scheme)
        assert correct.passed and correct.cases == 4

        privacy = scheme_privacy(scheme)
        assert privacy.passed
        assert privacy.distinct_answers == 4
        assert privacy.uniform
        assert privacy.uniform_count == 1

    def test_full_length_messages_without_mask(self):
        # L=N with K=2: answers are a bijection of the requested message,
        # so the census is uniform even with no mask at all
        config = make_association(3, 2, 2, 2)
        code = build_vandermonde_pair(3, 2, 2)
        assert code.mask_len == 0
        scheme = masked_scheme(config, code)
        assert case_count(scheme) == 3**4 * 2 == 162

        assert scheme_correctness(scheme).passed
        privacy = scheme_privacy(scheme)
        assert privacy.passed
        assert privacy.distinct_answers == 9
        assert privacy.uniform
        assert privacy.uniform_count == 9

    def test_many_small_instances_pass_both_audits(self):
        # every canonical instance cheap enough to enumerate must certify
        checked = 0
        for params, scheme in small_instances():
            assert scheme_correctness(scheme).passed, params
            assert scheme_privacy(scheme).passed, params
            checked += 1
        assert checked >= 8


def oracle_correctness(scheme):
    """Per-case reference for ``scheme_correctness``: one input, one request
    at a time, in ``itertools.product`` order."""
    q, k, l = scheme.modulus, scheme.k_messages, scheme.msg_len
    cases = 0
    for x in itertools.product(range(q), repeat=k * l + scheme.mask_len):
        storage = scheme.build_storage(np.array([x[: k * l]], dtype=np.int64).T)
        answers = scheme.answers(storage, np.array([x[k * l :]], dtype=np.int64).T)
        for d in range(1, k + 1):
            decoded = tuple(scheme.decode(answers)[d - 1, :, 0].tolist())
            cases += 1
            if decoded != x[(d - 1) * l : d * l]:
                messages = tuple(x[i * l : (i + 1) * l] for i in range(k))
                return CorrectnessReport(False, cases, Counterexample(
                    messages, x[k * l :], d, decoded, messages[d - 1]))
    return CorrectnessReport(True, cases, None)


def oracle_census(scheme):
    """Per-case census: per request, answer tuple -> count; and the number
    of cases."""
    q, k, l = scheme.modulus, scheme.k_messages, scheme.msg_len
    census = [{} for _ in range(k)]
    cases = 0
    for x in itertools.product(range(q), repeat=k * l + scheme.mask_len):
        storage = scheme.build_storage(np.array([x[: k * l]], dtype=np.int64).T)
        answers = scheme.answers(storage, np.array([x[k * l :]], dtype=np.int64).T)
        for d in range(1, k + 1):
            row = answers[d - 1, :, 0].tolist()
            key = tuple(() if a == q else (a,) for a in row)
            census[d - 1][key] = census[d - 1].get(key, 0) + 1
            cases += 1
    return census, cases


def oracle_privacy(scheme, counted=None):
    """Per-case reference for ``scheme_privacy``, with tuple-keyed censuses;
    ``counted`` is the scheme's ``oracle_census`` if already taken.  The
    witness is the smallest differing answer tuple in census order."""
    q, k, l, n = scheme.modulus, scheme.k_messages, scheme.msg_len, scheme.n_servers
    census, cases = oracle_census(scheme) if counted is None else counted
    mismatch = None
    for d0 in range(1, k):
        a, b = census[0], census[d0]
        if a != b:
            differing = [key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)]
            # census order: server by server, symbols ascending, silence last
            key = min(differing, key=lambda answer: [s[0] if s else q for s in answer])
            mismatch = PrivacyMismatch(key, 1, a.get(key, 0), d0 + 1, b.get(key, 0))
            break
    support = set().union(*census)
    per_vector, rest = divmod(q ** (k * l + scheme.mask_len), q**n)
    uniform = mismatch is None and len(support) == q**n and rest == 0 and all(
        c == per_vector for counts in census for c in counts.values())
    return PrivacyReport(mismatch is None, cases, len(support), uniform,
                         per_vector if uniform else None, mismatch)


_oracle_runs = {}


def oracle_runs(label, scheme):
    """``oracle_correctness`` and ``oracle_census`` of ``scheme``, taken once
    per ``label``."""
    if label not in _oracle_runs:
        _oracle_runs[label] = (oracle_correctness(scheme), oracle_census(scheme))
    return _oracle_runs[label]


def oracle_reports(label, scheme):
    correct, counted = oracle_runs(label, scheme)
    return correct, oracle_privacy(scheme, counted)


def audit_reports(scheme):
    """The joint audit's reports, checked equal to the one-property audits'."""
    joint = scheme_audit(scheme)
    assert joint == (scheme_correctness(scheme), scheme_privacy(scheme))
    return joint


def small_configs():
    """(params, config, code) of every canonical masked instance cheap enough
    to enumerate."""
    for q in (2, 3, 5):
        for n in range(2, 4):
            if n > q:
                continue
            for k in range(1, 4):
                for l in valid_msg_lens(k, n):
                    config = make_association(q, k, n, l)
                    code = build_vandermonde_pair(q, n, l)
                    if case_count(masked_scheme(config, code)) <= 200_000:
                        yield (q, k, n, l), config, code


def small_instances():
    """Every canonical masked instance cheap enough to enumerate."""
    for params, config, code in small_configs():
        yield params, masked_scheme(config, code)


class TestBatchedMatchesPerCase:
    def test_small_instances(self):
        for params, scheme in small_instances():
            assert audit_reports(scheme) == oracle_reports(params, scheme), params

    def test_split_control(self):
        config, _ = q5_instance()
        scheme = split_scheme(config)
        assert audit_reports(scheme) == oracle_reports("q5-split", scheme)

    def test_every_q5_corrupt_cell(self):
        # Correctness fails early, yet the joint pass counts the full census:
        # its privacy report is the privacy-only audit's, whose side is also
        # pinned by the CLI golden outputs.
        for cell, scheme in corrupt_cells(*q5_instance(), deltas=(1, 4)):
            correct = oracle_correctness(scheme)
            assert not correct.passed, cell
            assert scheme_correctness(scheme) == correct, cell
            assert scheme_audit(scheme) == (correct, scheme_privacy(scheme)), cell

    def test_crosses_chunk_boundaries(self):
        # storage corrupted only once message 1's second symbol is nonzero:
        # the first failure is input 5^5, request 2, the first input of the
        # second block of 5^5
        config, code = q5_instance()
        corrupt = masked_scheme(config, code, corrupt=(2, 2, 1, 3))
        honest = masked_scheme(config, code)
        late = dataclasses.replace(
            honest,
            build_storage=lambda w: np.where(
                w[1] > 0, corrupt.build_storage(w), honest.build_storage(w)
            ),
        )
        report = scheme_correctness(late)
        assert report.cases == 5**5 * 3 + 2 > 3 * CHUNK_ROWS * 3
        assert report == oracle_correctness(late)


def corrupt_cells(config, code, deltas):
    """A corrupted copy of the masked scheme for every stored (server,
    message) cell and every delta."""
    for k in range(1, config.k_messages + 1):
        for server in config.servers_for(k):
            for delta in deltas:
                cell = (server, k, 1, delta)
                yield cell, masked_scheme(config, code, corrupt=cell)


def q3_corrupt_cells():
    """The 12 corrupt cells of the q=3, K=3, N=3, L=2 instance."""
    config = make_association(3, 3, 3, 2)
    return corrupt_cells(config, build_vandermonde_pair(3, 3, 2), deltas=(1, 2))


def long_mask_scheme():
    """q=5, K=2, N=5, L=1, one host each: a 4-symbol mask, longer than the
    t < 4 trailing digits of any block of fewer than 5^4 inputs."""
    config = make_association(5, 2, 5, 1, mode="explicit", association=[[1], [2]])
    scheme = masked_scheme(config, build_vandermonde_pair(5, 5, 1))
    assert scheme.mask_len == 4
    return scheme


def cap_q5_blocks(monkeypatch, rows):
    """Set ``BLOCK_CELLS`` so that a block of a scheme with q5-k3's K*N = 9
    answers per input holds at most ``rows`` inputs (and at least q)."""
    monkeypatch.setattr(codedpid.verify, "BLOCK_CELLS", 9 * rows)


@pytest.mark.parametrize("rows", [5, 7, 30, 10**6])
class TestBlockShapes:
    """Every block size gives the per-case reports: blocks of q^t inputs
    shorter or longer than the mask, and the whole input space as one
    block."""

    @pytest.fixture(autouse=True)
    def block_rows(self, monkeypatch, rows):
        cap_q5_blocks(monkeypatch, rows)

    def test_small_instances(self):
        for params, scheme in small_instances():
            assert audit_reports(scheme) == oracle_reports(params, scheme), params

    def test_split_control(self):
        config, _ = q5_instance()
        scheme = split_scheme(config)
        assert audit_reports(scheme) == oracle_reports("q5-split", scheme)

    def test_every_q5_corrupt_cell(self):
        # A per-case privacy census of one q5 cell takes seconds, so the q=3
        # cells below cover the privacy side; the CLI golden outputs pin the
        # q5 cells' privacy at the default block size.
        for cell, scheme in corrupt_cells(*q5_instance(), deltas=(1, 4)):
            assert scheme_correctness(scheme) == oracle_correctness(scheme), cell

    def test_every_q3_corrupt_cell(self):
        for cell, scheme in q3_corrupt_cells():
            assert audit_reports(scheme) == oracle_reports(("q3", cell), scheme), cell

    def test_mask_longer_than_trailing_digits(self):
        scheme = long_mask_scheme()
        assert audit_reports(scheme) == oracle_reports("long-mask", scheme)


def answer_tuple(scheme, key):
    """The answer vector of a census key, as ``oracle_census`` keys it."""
    q = scheme.modulus
    digits = [key // (q + 1) ** e % (q + 1) for e in reversed(range(scheme.n_servers))]
    return tuple(() if a == q else (a,) for a in digits)


class TestCensusPaths:
    """The one census store gives the per-case counts, whatever the block
    size, and is only used while its counters fit ``DENSE_CENSUS_KEYS``."""

    def test_dense_by_total_counters(self):
        # the bound counts requests times keys: one request of 3^13 keys fits
        # 2^21 counters, two do not; the q5-k3 census is 3 rows of 6^3
        for k, ranked in ((1, False), (2, True)):
            hosts = [[j] for j in range(1, k + 1)]
            config = make_association(2, k, 13, 1, mode="explicit", association=hosts)
            assert by_rank(split_scheme(config), privacy=True) == ranked
        assert not by_rank(masked_scheme(*q5_instance()), privacy=True)

    # q5-k3 blocks of 5 and of 625 (at most 1024) inputs, and the default
    # blocks (3125 inputs on q5-k3)
    @pytest.mark.parametrize("rows", [5, 1024, pytest.param(None, id="default")])
    def test_counts_match_per_case_census(self, monkeypatch, rows):
        if rows is not None:
            cap_q5_blocks(monkeypatch, rows)
        config, _ = q5_instance()
        labelled = [("q5-split", split_scheme(config)), ("long-mask", long_mask_scheme())]
        for label, scheme in labelled + list(small_instances()):
            _, census = codedpid.verify._audit(scheme, True, True)
            expected, expected_cases = oracle_runs(label, scheme)[1]
            assert census.sum() == expected_cases, label
            counted = [
                {answer_tuple(scheme, key): int(row[key]) for key in np.flatnonzero(row)}
                for row in census
            ]
            assert counted == expected, label


    def test_census_costs_cases_not_blocks_times_counters(self):
        # one message on server 1 of 3 over F_127: 127^3 cases in blocks of
        # 127 inputs, and a census of 128^3 = 2^21 counters.  A bincount of
        # the whole census per block made this audit take 41 s.
        config = make_association(127, 1, 3, 1, mode="explicit", association=[[1]])
        scheme = masked_scheme(config, build_vandermonde_pair(127, 3, 1))
        assert not by_rank(scheme, privacy=True)
        start = time.perf_counter()
        private = scheme_privacy(scheme)
        elapsed = time.perf_counter() - start
        assert not private.ranked
        assert private == rank_audit(scheme, correctness=False)[1]
        assert elapsed < 10, f"privacy audit took {elapsed:.1f} s"


class TestStorageOncePerMessageTuple:
    def counted(self, scheme, answered=None):
        """``scheme`` with its storage rows counted, and its answered rows
        too when ``answered`` is a list."""
        rows = []
        build, answer = scheme.build_storage, scheme.answers

        def build_storage(w):
            rows.append(w.shape[1])
            return build(w)

        def answers(storage, mask):
            answered.append(storage.shape[2])
            return answer(storage, mask)

        if answered is not None:
            scheme = dataclasses.replace(scheme, answers=answers)
        return dataclasses.replace(scheme, build_storage=build_storage), rows

    def test_q5_audits(self):
        # 5^7 inputs, each message tuple repeated over the 5 mask values:
        # 5^6 storage rows per property
        config, code = q5_instance()
        scheme, rows = self.counted(masked_scheme(config, code))
        assert scheme_correctness(scheme).passed
        assert sum(rows) == 5**6
        rows.clear()
        assert scheme_privacy(scheme).passed
        assert sum(rows) == 5**6

    def test_split_control(self):
        # no mask: one storage row per input
        config, _ = q5_instance()
        scheme, rows = self.counted(split_scheme(config))
        assert scheme_correctness(scheme).passed
        assert sum(rows) == 5**6
        rows.clear()
        assert not scheme_privacy(scheme).passed
        assert sum(rows) == 5**6

    @pytest.mark.parametrize(
        "extra, blocks, code",
        [
            ([], 5**2, 0),
            (["--scheme", "split"], 5, 3),
            (["--corrupt", "1,1,1,2"], 5**2, 3),
        ],
    )
    def test_pid_verify_walks_the_inputs_once(
        self, monkeypatch, capsys, extra, blocks, code
    ):
        # Both properties in one pass: storage for each of the 5^6 message
        # tuples once in all, and one all-requests answers call per block
        # of 5^5 inputs, the largest power of 5 whose 9 answers per input
        # fit BLOCK_CELLS (5 blocks of 5^5 message tuples for the split).
        assert 9 * 5**5 <= BLOCK_CELLS < 9 * 5**6
        answered = []
        tallies = []

        def counting(maker):
            def make(*args, **kwargs):
                scheme, rows = self.counted(maker(*args, **kwargs), answered)
                tallies.append(rows)
                return scheme

            return make

        for name in ("masked_scheme", "split_scheme"):
            monkeypatch.setattr(
                codedpid.verify, name, counting(getattr(codedpid.verify, name))
            )
        assert main(["verify", "-c", str(Q5_CFG), *extra]) == code
        assert len(capsys.readouterr().out.splitlines()) == (3 if code == 0 else 4)
        [rows] = tallies
        assert sum(rows) == 5**6
        assert len(answered) == blocks
        assert sum(answered) == (5**6 if extra[:1] == ["--scheme"] else 5**7)


def q5_layout(tmp_path, q):
    """configs/q5-k3.cfg over ``q``, with the Vandermonde generator."""
    text = Q5_CFG.read_text().replace("q = 5\n", f"q = {q}\n")
    path = tmp_path / f"q5-{q}.cfg"
    path.write_text(
        "\n".join(
            line for line in text.splitlines() if not line.startswith("generator_override")
        )
        + "\n"
    )
    return str(path)


def dtype_recorded(scheme):
    """``scheme`` with every stage recording the dtype of each array it is
    given, and the set of those dtypes."""
    seen = set()

    def recording(stage):
        def record(*arrays):
            seen.update(a.dtype for a in arrays)
            return stage(*arrays)

        return record

    stages = ("build_storage", "answers", "decode")
    recorded = {name: recording(getattr(scheme, name)) for name in stages}
    return dataclasses.replace(scheme, **recorded), seen


class TestStageDtype:
    """Enumeration runs in int32 while a stage's largest value, N*(q-1)^2 + q,
    is below 2^31, and in int64 past it."""

    def test_q5_audits_run_in_int32(self):
        config, code = q5_instance()
        for scheme in (
            masked_scheme(config, code),
            split_scheme(config),
            masked_scheme(config, code, corrupt=(1, 1, 1, 2)),
        ):
            recorded, seen = dtype_recorded(scheme)
            assert scheme_audit(recorded) == scheme_audit(scheme), scheme.name
            assert seen == {np.dtype(np.int32)}, scheme.name

    @pytest.mark.parametrize("n, dtype", [(2064, np.int32), (2065, np.int64)])
    def test_wide_split_switches_at_the_bound(self, n, dtype):
        # one symbol over F_1021 on server 1 of n: 2064 * 1020^2 + 1021 is
        # just below 2^31, 2065 * 1020^2 + 1021 just above
        q = 1021
        assert (n * (q - 1) ** 2 + q < 2**31) == (dtype is np.int32)
        config = make_association(q, 1, n, 1, mode="explicit", association=[[1]])
        recorded, seen = dtype_recorded(split_scheme(config))
        assert not by_rank(recorded, privacy=False)
        assert scheme_correctness(recorded) == CorrectnessReport(True, q, None)
        assert seen == {np.dtype(dtype)}


class TestExactness:
    """The enumeration's bounds, just inside (enumerated, CASES in decimal)
    and just past (by rank, CASES=q^E*K): the verdicts agree, and no
    instance is refused.  Inside them every stage value, input number and
    census key is exact in int64 by construction."""

    # 1021 is the largest prime a block of CHUNK_ROWS = 1024 inputs holds,
    # 1031 the next one
    Q, NEXT = 1021, 1031

    def instance(self, q):
        config = make_association(q, 1, 2, 2, mode="explicit", association=[[1, 2]])
        return config, build_vandermonde_pair(q, 2, 2, points=[1, q - 1])

    def verify(self, capsys, path, text, *argv):
        """``pid verify`` on a config of ``text``: its exit code and stdout,
        after checking that it wrote nothing to stderr."""
        path.write_text(text)
        code = main(["verify", "-c", str(path), *argv])
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    def test_largest_admitted_prime(self):
        q = self.Q
        config, code = self.instance(q)
        # h = [[1, 1], [1, q-1]]: decoding multiplies residues near q
        assert code.parity_check.to_lists() == [[1, 1], [1, q - 1]]
        scheme = masked_scheme(config, code, corrupt=(2, 1, 1, q - 1))
        # enumerated: the corrupted symbol fails case 1
        report = scheme_correctness(scheme)
        assert report.cases == 1 and not report.ranked
        ce = report.counterexample
        assert ce.messages == ((0, 0),) and ce.mask == () and ce.requested == 1
        assert ce.decoded == (q - 1, (q - 1) * (q - 1) % q) == (q - 1, 1)
        assert scheme_correctness(masked_scheme(config, code)).cases == q**2

        # the stages alone stay exact up to 2^31 - 1, the largest prime with
        # 2*(q-1)^2 + q < 2^63 (a rank audit never runs them)
        q = 2**31 - 1
        config, code = self.instance(q)
        honest = masked_scheme(config, code)
        w = np.array([[q - 1, q - 1], [q - 1, 0], [12345, q - 2]])
        storage = honest.build_storage(w.T)
        inverse = code.h_sub_inverse((0, 1))
        # the one message's symbols on servers 1 and 2
        for row, stored in zip(w.tolist(), storage[0].T.tolist()):
            assert stored == [
                sum(c * x for c, x in zip(inv_row, row)) % q for inv_row in inverse
            ]
        decoded = honest.decode(honest.answers(storage, np.zeros((0, 3), np.int64)))
        assert decoded[0].T.tolist() == w.tolist()

    def test_next_prime_refused(self):
        # past the block bound rank decides, with enumeration's counterexample
        reports = []
        for q in (self.Q, self.NEXT):
            config, code = self.instance(q)
            scheme = masked_scheme(config, code, corrupt=(2, 1, 1, q - 1))
            assert by_rank(scheme, privacy=False) == (q == self.NEXT)
            report = scheme_correctness(scheme)
            assert report.counterexample.decoded == (q - 1, 1)
            reports.append(report)
        config, code = self.instance(self.NEXT)
        for honest in (masked_scheme(config, code), split_scheme(config)):
            assert all(r.passed for r in scheme_audit(honest))
        inside, past = reports
        assert (inside.cases, past.cases) == (1, self.NEXT**2)
        assert dataclasses.replace(past.counterexample, decoded=None) == dataclasses.replace(
            inside.counterexample, decoded=None
        )

    def test_stage_bound_in_pid_verify(self, capsys, tmp_path):
        for q, cases in ((self.Q, "1"), (self.NEXT, f"{self.NEXT}^2*1")):
            text = (
                f"q = {q}\nK = 1\nN = 2\nL = 2\nname = 'n2'\n"
                f"mode = 'explicit'\nassociation = [[1, 2]]\npoints = [1, {q - 1}]\n"
            )
            argv = ("--property", "correctness", "--corrupt", f"2,1,1,{q - 1}")
            code, out = self.verify(capsys, tmp_path / "n2.cfg", text, *argv)
            assert code == 3
            assert out == (
                f"PROPERTY=correctness INSTANCE=n2 VERDICT=fail CASES={cases}\n"
                f"  counterexample: messages=((0, 0),) mask=() d=1 "
                f"decoded=({q - 1}, 1) expected=(0, 0)\n"
            )

    def test_input_bound_in_pid_verify(self, capsys, tmp_path):
        # the q5-k3 layout has 7^7 * 3 = 2470629 cases over F_7, within the
        # 10^7 limit, and 11^7 * 3 = 58461513 over F_11, past it; a corrupted
        # symbol fails case 1 either way
        for q, cases in ((7, "1"), (11, "11^7*3")):
            argv = ["verify", "-c", q5_layout(tmp_path, q), "--property", "correctness"]
            assert main([*argv, "--corrupt", "1,1,1,1"]) == 3
            out, err = capsys.readouterr()
            assert err == ""
            verdict, counterexample = out.splitlines()
            assert verdict == f"PROPERTY=correctness INSTANCE=q5-k3 VERDICT=fail CASES={cases}"
            assert counterexample.startswith(
                "  counterexample: messages=((0, 0), (0, 0), (0, 0)) mask=(0,) d=1 "
            )

    def test_key_bound_in_pid_verify(self, capsys, tmp_path):
        # one message on server 1 of N over q = 17: 18^15 and 18^16 census
        # keys are both past DENSE_CENSUS_KEYS, so privacy is ranked and
        # correctness, audited alone, is enumerated
        for n in (15, 16):
            text = f"q = 17\nK = 1\nN = {n}\nL = 1\nmode = 'explicit'\nassociation = [[1]]\n"
            path = tmp_path / "one.cfg"
            code, out = self.verify(capsys, path, text, "--scheme", "split")
            assert code == 0
            assert out == (
                "PROPERTY=correctness INSTANCE=one VERDICT=pass CASES=17^1*1\n"
                "PROPERTY=privacy INSTANCE=one VERDICT=pass CASES=17^1*1\n"
                "  distinct answer vectors: 17; uniform over them: no\n"
            )
            code, out = self.verify(
                capsys, path, text, "--scheme", "split", "--property", "correctness"
            )
            assert code == 0
            assert out == "PROPERTY=correctness INSTANCE=one VERDICT=pass CASES=17\n"

    def test_input_count_past_int64_refused(self):
        # 11^27 inputs cannot be numbered in int64, and are far past 10^7
        config, code = q11_instance()
        scheme = stageless(masked_scheme(config, code))
        assert by_rank(scheme, privacy=False)
        assert scheme_correctness(scheme).passed

    def test_census_key_past_int64_refused(self):
        # 16 servers, 15 of them idle: 17 split cases, but 18^16 > 2^63 keys,
        # so privacy alone is decided by rank
        config = make_association(17, 1, 16, 1, mode="explicit", association=[[1]])
        scheme = split_scheme(config)
        assert not by_rank(scheme, privacy=False) and by_rank(scheme, privacy=True)
        correct, private = scheme_correctness(scheme), scheme_privacy(scheme)
        assert correct == CorrectnessReport(True, 17, None) and not correct.ranked
        assert private == PrivacyReport(True, 17, 17, False, None, None) and private.ranked


class TestProbe:
    """The instances a sampled probe once covered past the budget, each now
    decided exactly by the rank certificate."""

    def test_clean_on_masked_q11(self):
        config, code = q11_instance()
        assert scheme_audit(masked_scheme(config, code)) == (
            CorrectnessReport(passed=True, cases=Q11_CASES, counterexample=None),
            # every request's answers are all 11^6 vectors, each 11^21 times
            PrivacyReport(True, Q11_CASES, 11**6, True, 11**21, None),
        )

    def test_flags_split_scheme_pattern(self):
        # request 1's silence pattern never occurs for request 2
        config, _ = q5_instance()
        _, report = rank_audit(split_scheme(config))
        assert not report.passed and not report.uniform
        assert report.mismatch == PrivacyMismatch(((0,), (0,), ()), 1, 625, 2, 0)

    def test_memory_set_by_trials_not_q(self):
        # a table of every (request, server, symbol) would hold 9 * 1000004
        # counters; the certificate holds K maps of N x N residues
        q = 1000003
        config = make_association(
            q, 3, 3, 2, mode="explicit", association=[[1, 2], [2, 3], [1, 3]]
        )
        code = build_vandermonde_pair(q, 3, 2, points=(1, 2, 3))
        tracemalloc.start()
        try:
            _, report = scheme_audit(masked_scheme(config, code))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.distinct_answers == q**3
        assert peak < 10**6

    def test_cli_probe_on_a_large_modulus(self, tmp_path):
        # the q5-k3 layout over q = 999999937, run in a child process capped
        # at 2 GiB of address space
        cfg = q5_layout(tmp_path, 999999937)
        cap = 2**31
        result = subprocess.run(
            [sys.executable, "-m", "codedpid", "verify", "-c", cfg],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (
            "PROPERTY=correctness INSTANCE=q5-k3 VERDICT=pass CASES=999999937^7*3\n"
            "PROPERTY=privacy INSTANCE=q5-k3 VERDICT=pass CASES=999999937^7*3\n"
            "  distinct answer vectors: 999999937^3; uniform over them: yes\n"
        )

    def test_honest_scheme_passes_when_trials_are_few_against_q(self, capsys, tmp_path):
        # the sampled screen failed the honest scheme at q = 1000003 on 10 of
        # 40 seeds; the certificate draws nothing and decides every case
        cfg = q5_layout(tmp_path, 1000003)
        assert main(["verify", "-c", cfg]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.count("VERDICT=pass CASES=1000003^7*3\n") == 2


def assert_rank_matches_enumeration(scheme):
    """The rank certificate (forced by a zero case limit) gives the
    exhaustive audit's reports, all but the cases a failed correctness audit
    counts: rank decides them all at once."""
    (c_enum, p_enum), (c_rank, p_rank) = scheme_audit(scheme), rank_audit(scheme)
    assert c_rank == dataclasses.replace(c_enum, cases=case_count(scheme))
    assert p_rank == p_enum
    assert p_rank.cases == case_count(scheme)


@st.composite
def random_small_schemes(draw):
    """A masked, split or corrupted scheme on random explicit host sets and
    evaluation points, small enough to enumerate."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, min(q, 4)))
    l = draw(st.integers(1, n))
    k = draw(st.integers(1, 3))
    hosts = [
        draw(st.lists(st.integers(1, n), min_size=l, max_size=l, unique=True))
        for _ in range(k)
    ]
    config = make_association(q, k, n, l, mode="explicit", association=hosts)
    points = draw(st.permutations(range(q)))[:n]
    code = build_vandermonde_pair(q, n, l, points=points)
    kind = draw(st.sampled_from(("masked", "split", "corrupt")))
    if kind == "split":
        scheme = split_scheme(config)
    elif kind == "masked":
        scheme = masked_scheme(config, code)
    else:
        message = draw(st.integers(1, k))
        server = draw(st.sampled_from(config.servers_for(message)))
        scheme = masked_scheme(
            config, code, corrupt=(server, message, 1, draw(st.integers(1, q - 1)))
        )
    assume(case_count(scheme) <= 50_000)
    return scheme


class TestRankCertificate:
    def test_small_instances(self):
        for params, scheme in small_instances():
            assert_rank_matches_enumeration(scheme)

    def test_split_control(self):
        config, _ = q5_instance()
        assert_rank_matches_enumeration(split_scheme(config))
        assert_rank_matches_enumeration(long_mask_scheme())

    def test_every_q5_corrupt_cell(self):
        cells = list(corrupt_cells(*q5_instance(), deltas=(1, 4)))
        assert len(cells) == 12
        for _, scheme in cells:
            assert_rank_matches_enumeration(scheme)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(random_small_schemes())
    def test_random_small_instances(self, scheme):
        assert_rank_matches_enumeration(scheme)

    def test_maps_describe_the_served_encoder(self):
        # A_d [w_d; u] + b_d is what the scheme's own stages answer, silence
        # wherever d's pattern is silent, and D_d decodes as its decode does:
        # both are read from one description
        rng = np.random.default_rng(3)
        config, code = q5_instance()
        schemes = [scheme for _, scheme in small_instances()]
        schemes += [split_scheme(config), long_mask_scheme()]
        schemes += [scheme for _, scheme in corrupt_cells(config, code, deltas=(1, 4))]
        for scheme in schemes:
            q, k, l = scheme.modulus, scheme.k_messages, scheme.msg_len
            maps = scheme.maps
            x = rng.integers(0, q, size=(k * l + scheme.mask_len, 20))
            answers = scheme.answers(scheme.build_storage(x[: k * l]), x[k * l :])
            for d in range(k):
                local = np.concatenate((x[d * l : (d + 1) * l], x[k * l :]))
                expected = (maps.linear[d] @ local + maps.offset[d][:, None]) % q
                expected[~maps.sends[d]] = q
                assert (answers[d] == expected).all(), scheme.name
                heard = np.where(maps.sends[d][:, None], answers[d], 0)
                assert (maps.decoder[d] @ heard % q == scheme.decode(answers)[d]).all()

    def test_rank_path_evaluates_no_case(self):
        # past the case limit the stages never run; within it the maps are never
        # read, so the split control's maps leave the masked audit as it is
        reports = scheme_audit(stageless(masked_scheme(*q11_instance())))
        assert all(report.passed for report in reports)
        config, code = q5_instance()
        small = masked_scheme(config, code)
        misdescribed = dataclasses.replace(small, maps=split_scheme(config).maps)
        assert scheme_audit(misdescribed) == scheme_audit(small)
        assert not rank_audit(misdescribed)[1].passed

    def test_witness_is_the_smallest_differing_answer(self):
        # request 1 answers only on server 2, request 2 only on server 1: the
        # smallest differing vector is request 2's (0, silence), not a point
        # of request 1's coset
        config = make_association(3, 2, 2, 1, mode="explicit", association=[[2], [1]])
        scheme = split_scheme(config)
        witness = PrivacyMismatch(((0,), ()), 1, 0, 2, 3)
        assert scheme_privacy(scheme).mismatch == witness
        assert rank_audit(scheme)[1].mismatch == witness

    def test_k64_certified_by_rank(self):
        scheme = masked_scheme(*k64_instance())
        assert case_text(scheme) == "257^2080*64"
        start = time.perf_counter()
        correct, private = scheme_audit(scheme)
        elapsed = time.perf_counter() - start
        assert correct.passed and private.passed and private.uniform
        assert private.distinct_answers == 257**64
        assert private.uniform_count == 257 ** (2080 - 64)
        assert elapsed < 5.0  # about 0.2 s on 2 vCPU; loose for shared machines

    def test_largest_wire_modulus(self, capsys, tmp_path):
        cfg = q5_layout(tmp_path, 4294967291)
        assert main(["verify", "-c", cfg, "--corrupt", "1,1,1,1"]) == 3
        assert capsys.readouterr().out == (
            "PROPERTY=correctness INSTANCE=q5-k3 VERDICT=fail CASES=4294967291^7*3\n"
            "  counterexample: messages=((0, 0), (0, 0), (0, 0)) mask=(0,) d=1 "
            "decoded=(1, 1) expected=(0, 0)\n"
            "PROPERTY=privacy INSTANCE=q5-k3 VERDICT=pass CASES=4294967291^7*3\n"
            "  distinct answer vectors: 4294967291^3; uniform over them: yes\n"
        )
        assert main(["verify", "-c", cfg]) == 0

    def test_overlapping_cosets_are_refused(self):
        # two requests whose answers are the lines x2 = 0 and x1 = 0 of F_3^2:
        # they share the point (0, 0), which a sum of sizes would count twice
        config = make_association(3, 2, 2, 1, mode="explicit", association=[[1], [2]])
        scheme = split_scheme(config)
        overlapping = dataclasses.replace(
            scheme, maps=scheme.maps._replace(sends=np.ones((2, 2), bool))
        )
        with pytest.raises(ValueError, match="not counted by rank"):
            rank_audit(overlapping, correctness=False)


class TestVerdictLine:
    def test_power_forms(self):
        assert power_text(5**4, 5) == "5^4"
        assert power_text(0, 5) == "0"
        # q itself in decimal, as enumeration counts it
        assert power_text(5, 5) == "5"
        assert power_text(75, 5) == "75"
        assert power_text(257**2016, 257) == "257^2016"
        assert case_text(split_scheme(q5_instance()[0])) == "5^6*3"

    def test_format_frozen(self):
        assert (
            verdict_line("correctness", "q5-k3", True, 234375)
            == "PROPERTY=correctness INSTANCE=q5-k3 VERDICT=pass CASES=234375"
        )
        assert (
            verdict_line("privacy", "x", False, 7)
            == "PROPERTY=privacy INSTANCE=x VERDICT=fail CASES=7"
        )
