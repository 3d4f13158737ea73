"""The audit: counts, censuses, fault injection, and the per-case oracle.

Case counts are arithmetic facts (q^(K*L+mask) * K) and are frozen below;
census sizes were derived by hand (answer supports and per-vector counts)
before pinning.  ``verify`` decides every audit by rank; the oracle here
evaluates a scheme's stages one case at a time and counts, and the rank
reports must equal its reports.
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

from codedpid.cli import main
from codedpid.codes import build_vandermonde_pair
from codedpid.field import rref
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    Message,
    _encoder,
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
    CorrectnessReport,
    Counterexample,
    PrivacyMismatch,
    PrivacyReport,
    _affine_scheme,
    _rank_privacy,
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


def raising(scheme):
    """``scheme`` with every stage replaced by a callable that raises: an
    audit that evaluated a case would fail."""

    def stage(*_):
        raise AssertionError("an audit evaluated a stage")

    return dataclasses.replace(scheme, build_storage=stage, answers=stage, decode=stage)


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
        every = scheme.decode(answers)[:, :, 0].tolist()
        for d in range(1, k + 1):
            decoded = tuple(every[d - 1])
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
    message symbols of an input."""
    config = make_association(5, 2, 5, 1, mode="explicit", association=[[1], [2]])
    scheme = masked_scheme(config, build_vandermonde_pair(5, 5, 1))
    assert scheme.mask_len == 4
    return scheme


class TestBatchedMatchesPerCase:
    """The joint audit, the one-property audits and the per-case oracle give
    the same reports, cases included."""

    def test_small_instances(self):
        for params, scheme in small_instances():
            assert audit_reports(scheme) == oracle_reports(params, scheme), params

    def test_split_control(self):
        config, _ = q5_instance()
        scheme = split_scheme(config)
        assert audit_reports(scheme) == oracle_reports("q5-split", scheme)

    def test_every_q5_corrupt_cell(self):
        # A per-case privacy census of one q5 cell takes over a second, so the
        # q=3 cells below cover the privacy side against the oracle; the CLI
        # golden outputs pin the q5 cells' privacy at deltas 1 and 4.
        for cell, scheme in corrupt_cells(*q5_instance(), deltas=(1, 4)):
            correct = oracle_correctness(scheme)
            assert not correct.passed, cell
            assert scheme_correctness(scheme) == correct, cell
            assert scheme_audit(scheme) == (correct, scheme_privacy(scheme)), cell

    def test_every_q3_corrupt_cell(self):
        for cell, scheme in q3_corrupt_cells():
            assert audit_reports(scheme) == oracle_reports(("q3", cell), scheme), cell


def blocked_reports(scheme, rows):
    """The oracle's reports, from the scheme's stages called on blocks of
    ``rows`` inputs at a time, in enumeration order."""
    q, k, l, n = scheme.modulus, scheme.k_messages, scheme.msg_len, scheme.n_servers
    width = k * l + scheme.mask_len
    total = q**width
    weights = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    key_weights = (q + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = [[] for _ in range(k)]
    correct = None
    for start in range(0, total, rows):
        x = np.arange(start, min(start + rows, total), dtype=np.int64) // weights[:, None] % q
        answers = scheme.answers(scheme.build_storage(x[: k * l]), x[k * l :])
        if correct is None:
            decoded = scheme.decode(answers)
            wrong = (decoded != x[: k * l].reshape(k, l, -1)).any(axis=1)
            if wrong.any():
                b = np.flatnonzero(wrong.any(axis=0))[0]
                d = np.flatnonzero(wrong[:, b])[0]
                first = x[:, b].tolist()
                messages = tuple(tuple(first[i * l : (i + 1) * l]) for i in range(k))
                correct = CorrectnessReport(False, (start + b) * k + d + 1, Counterexample(
                    messages, tuple(first[k * l :]), d + 1,
                    tuple(decoded[d, :, b].tolist()), messages[d]))
        for d in range(k):
            keys[d].append(key_weights @ answers[d])
    census = []
    for d in range(k):
        values, counts = np.unique(np.concatenate(keys[d]), return_counts=True)
        census.append({
            tuple(() if a == q else (a,) for a in (value // key_weights % (q + 1)).tolist()):
            count for value, count in zip(values, counts.tolist())
        })
    cases = total * k
    correct = correct or CorrectnessReport(True, cases, None)
    return correct, oracle_privacy(scheme, (census, cases))


@pytest.mark.parametrize("rows", [5, 7, 30, 10**6])
class TestBlockShapes:
    """A stage's output for an input depends on that input alone: its
    stages called on blocks of ``rows`` inputs give the audit's reports,
    for blocks shorter or longer than the mask's digits, of a size that is
    no power of q, and the whole input space as one block."""

    def test_small_instances(self, rows):
        for params, scheme in small_instances():
            assert blocked_reports(scheme, rows) == audit_reports(scheme), params

    def test_split_control(self, rows):
        config, _ = q5_instance()
        scheme = split_scheme(config)
        assert blocked_reports(scheme, rows) == audit_reports(scheme)

    def test_every_q5_corrupt_cell(self, rows):
        for cell, scheme in corrupt_cells(*q5_instance(), deltas=(1, 4)):
            reports = blocked_reports(scheme, rows)
            assert not reports[0].passed, cell
            assert reports == audit_reports(scheme), cell

    def test_every_q3_corrupt_cell(self, rows):
        for cell, scheme in q3_corrupt_cells():
            assert blocked_reports(scheme, rows) == audit_reports(scheme), cell

    def test_mask_longer_than_trailing_digits(self, rows):
        scheme = long_mask_scheme()
        assert blocked_reports(scheme, rows) == audit_reports(scheme)


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


class TestExactness:
    """The widest inputs and the display bound: ``pid verify`` writes its
    counts in decimal up to 10^7 cases and as q^E*K past it, with the same
    verdicts and counterexamples on both sides, and refuses no instance.
    The stages, which the oracle evaluates, stay exact for every q < 2^32."""

    # two primes near 2^10 whose q^2 cases lie within 10^7
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
        # the corrupted symbol fails case 1
        report = scheme_correctness(scheme)
        assert report.cases == 1
        ce = report.counterexample
        assert ce.messages == ((0, 0),) and ce.mask == () and ce.requested == 1
        assert ce.decoded == (q - 1, (q - 1) * (q - 1) % q) == (q - 1, 1)
        assert scheme_correctness(masked_scheme(config, code)).cases == q**2

        # the stages stay exact at 2^31 - 1, the largest prime with
        # 2*(q-1)^2 + q < 2^63, and at the largest wire modulus past it
        for q in (2**31 - 1, 4294967291):
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
        # no prime is refused, and each reports the same first failure
        reports = []
        for q in (self.Q, self.NEXT):
            config, code = self.instance(q)
            report = scheme_correctness(masked_scheme(config, code, corrupt=(2, 1, 1, q - 1)))
            assert report.counterexample.decoded == (q - 1, 1)
            reports.append(report)
        config, code = self.instance(self.NEXT)
        for honest in (masked_scheme(config, code), split_scheme(config)):
            assert all(r.passed for r in scheme_audit(honest))
        inside, past = reports
        assert (inside.cases, past.cases) == (1, 1)
        assert dataclasses.replace(past.counterexample, decoded=None) == dataclasses.replace(
            inside.counterexample, decoded=None
        )

    def test_stage_bound_in_pid_verify(self, capsys, tmp_path):
        for q in (self.Q, self.NEXT):
            text = (
                f"q = {q}\nK = 1\nN = 2\nL = 2\nname = 'n2'\n"
                f"mode = 'explicit'\nassociation = [[1, 2]]\npoints = [1, {q - 1}]\n"
            )
            argv = ("--property", "correctness", "--corrupt", f"2,1,1,{q - 1}")
            code, out = self.verify(capsys, tmp_path / "n2.cfg", text, *argv)
            assert code == 3
            assert out == (
                f"PROPERTY=correctness INSTANCE=n2 VERDICT=fail CASES=1\n"
                f"  counterexample: messages=((0, 0),) mask=() d=1 "
                f"decoded=({q - 1}, 1) expected=(0, 0)\n"
            )

    def test_input_bound_in_pid_verify(self, capsys, tmp_path):
        # one message on two servers has 3137^2 = 9840769 cases over F_3137,
        # within the 10^7 limit, and 3163^2 = 10004569 over F_3163, past it
        for q, cases, answers in ((3137, "9840769", "9840769"), (3163, "3163^2*1", "3163^2")):
            text = f"q = {q}\nK = 1\nN = 2\nL = 2\nname = 'n2'\n"
            code, out = self.verify(capsys, tmp_path / "n2.cfg", text)
            assert code == 0
            assert out == (
                f"PROPERTY=correctness INSTANCE=n2 VERDICT=pass CASES={cases}\n"
                f"PROPERTY=privacy INSTANCE=n2 VERDICT=pass CASES={cases}\n"
                f"  distinct answer vectors: {answers}; uniform over them: yes\n"
            )
        # the q5-k3 layout has 7^7 * 3 = 2470629 cases over F_7, within it,
        # and 11^7 * 3 = 58461513 over F_11, past it; a corrupted symbol
        # fails case 1 either way
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
        # one message on server 1 of N over q = 17: 17 cases, written in
        # decimal under either property, however many (18^N) answer vectors
        # there could be
        for n in (15, 16):
            text = f"q = 17\nK = 1\nN = {n}\nL = 1\nmode = 'explicit'\nassociation = [[1]]\n"
            path = tmp_path / "one.cfg"
            code, out = self.verify(capsys, path, text, "--scheme", "split")
            assert code == 0
            assert out == (
                "PROPERTY=correctness INSTANCE=one VERDICT=pass CASES=17\n"
                "PROPERTY=privacy INSTANCE=one VERDICT=pass CASES=17\n"
                "  distinct answer vectors: 17; uniform over them: no\n"
            )
            code, out = self.verify(
                capsys, path, text, "--scheme", "split", "--property", "correctness"
            )
            assert code == 0
            assert out == "PROPERTY=correctness INSTANCE=one VERDICT=pass CASES=17\n"

    def test_input_count_past_int64_refused(self):
        # 11^27 inputs cannot be numbered in int64; no case is evaluated
        config, code = q11_instance()
        assert scheme_correctness(raising(masked_scheme(config, code))).passed

    def test_census_key_past_int64_refused(self):
        # 16 servers, 15 of them idle: 17 split cases, but 18^16 > 2^63
        # vectors of silence or a symbol per server
        config = make_association(17, 1, 16, 1, mode="explicit", association=[[1]])
        scheme = split_scheme(config)
        assert scheme_correctness(scheme) == CorrectnessReport(True, 17, None)
        assert scheme_privacy(scheme) == PrivacyReport(True, 17, 17, False, None, None)


class TestProbe:
    """The instances a sampled probe once covered, each decided exactly by
    the rank certificate."""

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
        report = scheme_privacy(split_scheme(config))
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


def assert_rank_matches_enumeration(scheme, label=None):
    """The rank certificate gives the per-case oracle's reports, cases
    included; the oracle's runs are taken once per ``label``, if one is
    given."""
    if label is None:
        expected = oracle_correctness(scheme), oracle_privacy(scheme)
    else:
        expected = oracle_reports(label, scheme)
    assert scheme_audit(scheme) == expected


def assert_one_image(scheme):
    """Every request answers on the whole space of the servers that send
    (its sending rows of A_d have full rank), so requests with one silence
    pattern share one image and ``_rank_privacy`` refuses nothing."""
    maps = scheme.maps
    for d in range(scheme.k_messages):
        senders = maps.sends[d]
        _, pivots, _ = rref(maps.linear[d][senders], scheme.modulus)
        assert len(pivots) == senders.sum(), (scheme.name, d + 1)
    _rank_privacy(scheme)


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
        # the split control of every small configuration (the masked ones
        # are compared in TestBatchedMatchesPerCase)
        for params, config, _ in small_configs():
            assert_rank_matches_enumeration(split_scheme(config), ("split", params))

    def test_split_control(self):
        config, _ = q5_instance()
        assert_rank_matches_enumeration(split_scheme(config), "q5-split")
        assert_rank_matches_enumeration(long_mask_scheme(), "long-mask")

    def test_every_q5_corrupt_cell(self):
        # deltas 2 and 3 here, 1 and 4 in TestBatchedMatchesPerCase
        cells = list(corrupt_cells(*q5_instance(), deltas=(2, 3)))
        assert len(cells) == 12
        for cell, scheme in cells:
            correct = scheme_correctness(scheme)
            assert not correct.passed and correct == oracle_correctness(scheme), cell

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(random_small_schemes())
    def test_random_small_instances(self, scheme):
        assert_rank_matches_enumeration(scheme)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(random_small_schemes())
    def test_served_schemes_answer_on_one_image(self, scheme):
        """``_rank_privacy`` refuses a silence pattern with two images, and
        no scheme the library serves has one.

        * Masked (corrupted too, which moves only b_d): A_d = [P_d*E_d | G^T]
          has rank N and every server sends.  G^T spans ker H, and
          H*P_d*E_d = H[:, hosts of d]*E_d = I, so the two blocks' images
          meet only in 0 and add up to dimension L + (N-L) = N.
        * Split: request d's hosts send its raw symbols, P_d*I, so its image
          is the coordinate subspace of its senders, fixed by its pattern.
        """
        assert_one_image(scheme)

    def test_wide_served_schemes_answer_on_one_image(self):
        for config, code in (q11_instance(), k64_instance()):
            assert_one_image(masked_scheme(config, code))
            assert_one_image(split_scheme(config))
            assert_one_image(masked_scheme(config, code, corrupt=(1, 1, 1, 2)))

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

    def test_first_failure_past_the_zero_input(self):
        # Schemes whose D_d*A_d misses w_d fail first at a unit input.  Raw
        # symbols decoded by H: the last wrong column is message 3's second
        # symbol, input 5^1 (the mask digit after it), case 5*3 + 3 = 18.
        # Shares outside ker H: the mask column, input 1, case 1*3 + 1 = 4.
        config, code = q5_instance()
        k, n, l = 3, 3, 2
        masked = masked_scheme(config, code)
        raw = np.broadcast_to(np.eye(l, dtype=np.int64), (k, l, l))
        parts = (np.ones((k, n), bool), masked.maps.decoder, np.zeros((k, n), np.int64))
        shares = code.generator.array
        for encoders, generator, cases in (
            (raw, shares, 18),
            (_encoder(config, code, range(1, k + 1)), np.ones((1, n), np.int64), 4),
        ):
            scheme = _affine_scheme("miscoded", config, encoders, generator, *parts)
            report = scheme_correctness(scheme)
            assert report == oracle_correctness(scheme)
            assert report.cases == cases

    def test_rank_path_evaluates_no_case(self):
        # an audit reads the maps alone: raising stages change no report,
        # and the split control's maps make the masked scheme leak
        config, code = q5_instance()
        schemes = [masked_scheme(*q11_instance()), split_scheme(config)]
        schemes += [scheme for _, scheme in corrupt_cells(config, code, deltas=(1,))]
        for scheme in schemes:
            assert scheme_audit(raising(scheme)) == scheme_audit(scheme), scheme.name
        masked = masked_scheme(config, code)
        misdescribed = dataclasses.replace(masked, maps=split_scheme(config).maps)
        assert scheme_audit(masked)[1].passed
        assert not scheme_audit(misdescribed)[1].passed

    def test_witness_is_the_smallest_differing_answer(self):
        # request 1 answers only on server 2, request 2 only on server 1: the
        # smallest differing vector is request 2's (0, silence), not a point
        # of request 1's coset
        config = make_association(3, 2, 2, 1, mode="explicit", association=[[2], [1]])
        scheme = split_scheme(config)
        witness = PrivacyMismatch(((0,), ()), 1, 0, 2, 3)
        assert scheme_privacy(scheme).mismatch == witness
        assert oracle_privacy(scheme).mismatch == witness

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
            scheme_privacy(overlapping)


class TestVerdictLine:
    def test_power_forms(self):
        assert power_text(5**4, 5) == "5^4"
        assert power_text(0, 5) == "0"
        # q itself in decimal
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
