"""Exhaustive certification of correctness and privacy on small instances.

For a scheme with K messages of L symbols over F_q, N servers and an
(N-L)-symbol mask, the joint input space has q^(K*L + N-L) points and each
point serves K possible requests, so a full audit covers

    cases = q^(K*L + N-L) * K

delivery cases.  ``scheme_audit`` walks them once and checks both
properties on the same answers: correctness decodes every case and stops
decoding at the first failure; the privacy census counts, for every request
d, how often each complete answer vector occurs over all inputs.  The scheme
keeps the request private exactly when those K count maps are identical:
then the answer distribution (inputs uniform) carries zero information about
d.  ``scheme_correctness`` and ``scheme_privacy`` run the same pass for one
property.  All counting is exact integer arithmetic; no entropies, no
floats.

Evaluation is batched.  The audit walks the inputs in ``itertools.product``
order (message symbols, then mask symbols) as rows of int64 digits, one
aligned block at a time: the q^t inputs that share all but their last t
digits, for the largest q^t <= ``CHUNK_ROWS``.  The table of trailing digits
is built once per audit; a block fills in only its leading digits.  One
``answers`` call gives every request d = 1..K for each row of a block, and
that one array feeds both the decode check and the census keys.  A scheme's
stages are maps mod q applied to a whole block at once, so a case costs a
share of a few numpy calls instead of its own Python work, and the arrays of
one block stay well under 1 MB whatever the budget.  The mask digits vary
fastest, so storage is built once per message tuple of a block and repeated
over its masks.  One order-free tally, ``_Census``, counts integer keys in
groups: in one dense ``bincount`` array while groups times keys is at
most ``DENSE_CENSUS_KEYS``, else in per-group maps of the keys seen.  The
privacy census is K groups of (q+1)^N answer keys (base-(q+1) digits, q for
silence), the probe's marginals K*N groups of q+1 symbols.  A leak's
witness is the smallest key whose count differs between two requests: the
answer vector first server by server, symbols ascending, silence last.

Exactness: all arithmetic is int64.  Every value a scheme's stages compute
is at most N*(q-1)^2 + q: a sum of products of residues, plus one residue
or the no-symbol marker q.  Storage sums L products per symbol (in exact
Python ints past int64, see ``field.mod_matmul``), the mask shares N-L and
decoding N.  ``SchemeUnderTest`` therefore refuses any instance with
N*(q-1)^2 + q >= 2^63, raising
``InexactArithmeticError`` (a ValueError) instead of wrapping around.  The
exhaustive audit numbers its inputs in int64 and the privacy census keys
an answer vector by its base-(q+1) digits, so it refuses in the same way
when q^(K*L + N-L) or (q+1)^N reaches 2^63.  Refusals come in a fixed order,
before any case is evaluated: the budget, then the input numbering, then
(when privacy is audited) the census keys.

Schemes plug in through ``SchemeUnderTest`` (build storage for a batch of
message tuples, then answer every request per mask).  The real masked
protocol's storage comes from ``protocol``'s own encoder, the one that
serves ``pid deliver``; it, the unmasked split variant (a negative control:
correct, and leaky whenever L < N) and fault-injected copies all run
through the same enumerator.

Budgets: audits refuse to start when ``cases`` exceeds the budget, which
defaults to 10**7 and can be overridden by the PID_BUDGET environment
variable or a keyword argument.  For instances past the budget,
``randomized_privacy_probe`` samples random inputs and flags observable
leaks: transmission patterns that vary with d (a hard fail) and per-server
symbol marginals far from uniform (a chi-square screen).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from codedpid.codes import CodePair
from codedpid.field import int64_exact
from codedpid.protocol import PidConfig, _encoder

__all__ = [
    "DEFAULT_BUDGET",
    "CHUNK_ROWS",
    "DENSE_CENSUS_KEYS",
    "BudgetExceededError",
    "InexactArithmeticError",
    "SchemeUnderTest",
    "masked_scheme",
    "split_scheme",
    "case_count",
    "resolve_budget",
    "scheme_audit",
    "scheme_correctness",
    "scheme_privacy",
    "exhaustive_correctness",
    "exhaustive_privacy",
    "CorrectnessReport",
    "Counterexample",
    "PrivacyReport",
    "PrivacyMismatch",
    "randomized_privacy_probe",
    "ProbeReport",
    "verdict_line",
]

DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "PID_BUDGET"
# Most inputs evaluated at once: an audit's blocks hold q^t inputs, the
# largest power of q not above this (chunks of this many inputs when q is
# larger).  Large enough that numpy's per-call overhead is small against the
# work, small enough that a block's arrays stay cache-sized.
CHUNK_ROWS = 1024
# Most counters, groups times keys per group, that a ``_Census`` keeps in
# one dense array: 16 MiB of int64, and a block's bincount makes one more
# array of that size.  Below it, that bincount costs less than merging the
# block's distinct keys in Python; past it, the keys seen are kept in
# per-group maps instead.
DENSE_CENSUS_KEYS = 2**21
_INT64_LIMIT = 2**63


class BudgetExceededError(RuntimeError):
    """An exhaustive audit would exceed the allowed number of cases."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"exhaustive audit needs {needed} cases, budget is {budget}"
        )
        self.needed = needed
        self.budget = budget


class InexactArithmeticError(ValueError):
    """The instance's values would not fit the audit's int64 arithmetic."""


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else PID_BUDGET from the environment, else default."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"the exhaustive budget must be non-negative, got {budget}")
    return budget


@dataclass(frozen=True)
class SchemeUnderTest:
    """The three stages of a delivery scheme, as callables on batches.

    Each stage maps int64 arrays with one row per input to the same; the
    value q, outside F_q, marks "no symbol".

    * ``build_storage(w)``: message symbols, shape (B, K*L) with message k in
      columns (k-1)*L .. k*L-1, to the storage of each row, an array of B
      rows in whatever layout ``answers`` reads.
    * ``answers(storage, mask)``: storage and mask symbols, shape
      (B, mask_len), to every server's answer to every request, shape
      (B, K, N): entry [b, d-1, j] is server j+1's answer to request d, or q
      for a server that sends nothing.
    * ``decode(answers)``: answer vectors, shape (..., N), to the decoded
      symbols, shape (..., L), row by row over all leading axes.

    Stages are called with positional arguments only and must be row-wise:
    row b of a stage's output depends on row b of its inputs alone, so a
    batch gives the rows its inputs would give one at a time.  The audits
    rely on this to build storage once per message tuple and repeat its rows
    over the masks.  Construction refuses moduli too large for exact int64
    arithmetic (see the module docstring).
    """

    name: str
    modulus: int
    k_messages: int
    msg_len: int
    n_servers: int
    mask_len: int
    build_storage: Callable
    answers: Callable
    decode: Callable

    def __post_init__(self):
        q, n = self.modulus, self.n_servers
        if not int64_exact(q, n):
            raise InexactArithmeticError(
                f"q={q} is too large for exact int64 audits of this instance: "
                f"{n}*(q-1)^2 + q must stay below 2^63"
            )


def _storage_layout(config: PidConfig, encode: Callable, corrupt=None) -> Callable:
    """``build_storage`` that lays out what ``encode`` stores in shape
    (B, K, N): entry [b, k-1, j] is what server j+1 stores of message k, or
    q if nothing, so each request's row of servers is contiguous.

    ``encode`` maps message symbols, shape (B, K, L), to what each host
    stores, same shape: [b, k-1, i] goes to the i-th server of k's sorted
    host set.  ``corrupt`` = (server, message, delta), 1-based, adds delta
    to one stored symbol mod q.
    """
    q, k, n, l = config.modulus, config.k_messages, config.n_servers, config.msg_len
    # where message k's i-th host sits in a row of K*N entries
    cells = (np.arange(0, k * n, n)[:, None] + np.array(config.association) - 1).ravel()

    def build_storage(w):
        b = len(w)
        stored = np.full((b, k * n), q, dtype=np.int64)
        stored[:, cells] = encode(w.reshape(b, k, l)).reshape(b, k * l)
        if corrupt is not None:
            server, message, delta = corrupt
            cell = (message - 1) * n + server - 1
            stored[:, cell] = (stored[:, cell] + delta) % q
        return stored.reshape(b, k, n)

    return build_storage


def masked_scheme(
    config: PidConfig,
    code: CodePair,
    corrupt: tuple[int, int, int, int] | None = None,
) -> SchemeUnderTest:
    """The real coded+masked protocol as a pluggable scheme, its storage
    built by ``protocol``'s own encoder.

    ``corrupt`` optionally flips one stored symbol: (server, message,
    position, delta) with 1-based server/message, position indexing that
    server's stored symbols for that message, and delta added mod q.  Fault
    injection for audits; delta % q == 0 is rejected as a no-op.
    """
    q = code.modulus

    if corrupt is not None:
        c_server, c_msg, c_pos, c_delta = corrupt
        if c_delta % q == 0:
            raise ValueError("corruption delta must be nonzero mod q")
        if not 1 <= c_msg <= config.k_messages:
            raise ValueError(f"corrupt message {c_msg} outside 1..{config.k_messages}")
        if c_server not in config.servers_for(c_msg):
            raise ValueError(
                f"server {c_server} stores nothing for message {c_msg}"
            )
        if c_pos != 1:
            raise ValueError("each server stores one symbol per message here")
        corrupt = (c_server, c_msg, c_delta % q)

    encode = _encoder(config, code, range(1, config.k_messages + 1))
    g = code.generator.array
    h_t = code.parity_check.array.T

    def answers(storage, mask):
        # A server holding nothing of message d has the marker q there, which
        # is 0 mod q: it sends its mask share alone.  The shares do not
        # depend on d, so they are computed once for all K requests.
        return (storage + (mask @ g)[:, None, :]) % q

    def decode(answers):
        return answers @ h_t % q

    return SchemeUnderTest(
        name="masked-coded",
        modulus=q,
        k_messages=config.k_messages,
        msg_len=config.msg_len,
        n_servers=config.n_servers,
        mask_len=code.mask_len,
        build_storage=_storage_layout(config, encode, corrupt),
        answers=answers,
        decode=decode,
    )


def split_scheme(config: PidConfig) -> SchemeUnderTest:
    """Unmasked raw-slice variant: correct, same storage cost, and leaky
    when L < N.

    Each host stores one raw symbol of the message; on a request only d's
    hosts transmit and everyone else stays silent.  With L < N the
    transmission pattern is the host set of d in plain sight, so the layout
    serves as the negative control for the privacy audit.  With L = N every
    server hosts every message and transmits on every request, and the
    answers are d's raw symbols, distributed alike for every d when the
    messages are uniform: that layout passes the privacy audit.
    """
    q = config.modulus

    def answers(storage, _mask):
        return storage

    def decode(answers):
        return answers[answers < q].reshape(*answers.shape[:-1], -1)

    return SchemeUnderTest(
        name="unmasked-split",
        modulus=q,
        k_messages=config.k_messages,
        msg_len=config.msg_len,
        n_servers=config.n_servers,
        mask_len=0,
        build_storage=_storage_layout(config, lambda w: w),
        answers=answers,
        decode=decode,
    )


def case_count(scheme: SchemeUnderTest) -> int:
    """q^(K*L + mask_len) * K answer evaluations for a full audit."""
    exponent = scheme.k_messages * scheme.msg_len + scheme.mask_len
    return scheme.modulus**exponent * scheme.k_messages


def _input_count(scheme: SchemeUnderTest, budget: int | None) -> int:
    """The number of inputs an exhaustive audit of ``scheme`` walks.

    Refuses if the audit is over budget, then if the inputs cannot be
    numbered in int64.
    """
    total = case_count(scheme)
    allowed = resolve_budget(budget)
    if total > allowed:
        raise BudgetExceededError(total, allowed)
    inputs = scheme.modulus ** (scheme.k_messages * scheme.msg_len + scheme.mask_len)
    if inputs >= _INT64_LIMIT:
        raise InexactArithmeticError(
            f"{inputs} inputs cannot be numbered in int64"
        )
    return inputs


def _inputs(scheme: SchemeUnderTest, inputs: int):
    """Yield (index of the first input, message symbols, mask symbols,
    storage) for every block of consecutive inputs, in ``itertools.product``
    order.

    A block is the q^t inputs that share all but their last t digits, with
    q^t <= ``CHUNK_ROWS``: the trailing-digit table is built once and each
    block fills in only its leading digits, in one buffer reused from block
    to block.  The mask digits vary fastest, so a block holds each of its
    message tuples q^min(mask_len, t) times in a row; ``build_storage`` runs
    on one row per tuple and its rows are repeated (sound because it is
    row-wise).  When q > ``CHUNK_ROWS`` (t = 0) the inputs come in chunks of
    ``CHUNK_ROWS`` numbered inputs instead, with storage built for every row.
    """
    q = scheme.modulus
    msg_width = scheme.k_messages * scheme.msg_len
    width = msg_width + scheme.mask_len
    powers = np.array([q**e for e in reversed(range(width))], dtype=np.int64)
    t = 0
    while t < width and q ** (t + 1) <= CHUNK_ROWS:
        t += 1
    if t == 0:
        for start in range(0, inputs, CHUNK_ROWS):
            index = np.arange(start, min(start + CHUNK_ROWS, inputs), dtype=np.int64)
            digits = index[:, None] // powers % q
            w = digits[:, :msg_width]
            yield start, w, digits[:, msg_width:], scheme.build_storage(w)
        return
    rows, lead = q**t, width - t
    digits = np.empty((rows, width), dtype=np.int64)
    digits[:, lead:] = np.arange(rows, dtype=np.int64)[:, None] // powers[lead:] % q
    w, mask = digits[:, :msg_width], digits[:, msg_width:]
    stride = q ** min(scheme.mask_len, t)
    for block, leading in enumerate(itertools.product(range(q), repeat=lead)):
        digits[:, :lead] = leading
        storage = scheme.build_storage(w[::stride])
        if stride > 1:
            storage = np.repeat(storage, stride, axis=0)
        yield block * rows, w, mask, storage


@dataclass(frozen=True)
class Counterexample:
    """A failing delivery case, in enumeration order."""

    messages: tuple[tuple[int, ...], ...]
    mask: tuple[int, ...]
    requested: int
    decoded: tuple[int, ...]
    expected: tuple[int, ...]


@dataclass(frozen=True)
class CorrectnessReport:
    passed: bool
    cases: int
    counterexample: Counterexample | None


def _first_failure(
    scheme: SchemeUnderTest, start: int, w, mask, answers
) -> CorrectnessReport | None:
    """The failed report of a block's first wrongly decoded case, or None
    when every case of the block decodes."""
    k, l = scheme.k_messages, scheme.msg_len
    decoded = scheme.decode(answers)
    # Message d's columns of w are what request d must decode to.
    wrong = decoded.reshape(len(w), k * l) != w
    if not wrong.any():
        return None
    # wrong[i, (d-1)*L : d*L]: input start+i decodes request d wrongly.
    # Row-major order is enumeration order, so argmax finds the first failure.
    first = int(wrong.reshape(len(w), k, l).any(axis=2).argmax())
    row, d0 = divmod(first, k)
    symbols = w[row].tolist()
    messages = tuple(tuple(symbols[i * l : (i + 1) * l]) for i in range(k))
    return CorrectnessReport(
        passed=False,
        cases=start * k + first + 1,
        counterexample=Counterexample(
            messages=messages,
            mask=tuple(mask[row].tolist()),
            requested=d0 + 1,
            decoded=tuple(decoded[row, d0].tolist()),
            expected=messages[d0],
        ),
    )


class _Census:
    """Exact counts of keys 0..``keys``-1 in ``groups`` groups, added block
    by block in no order (see the module docstring for its two stores).

    ``counts`` gives, per group, a map from each key seen to its count;
    ``cases`` is the number of keys counted.
    """

    def __init__(self, groups: int, keys: int):
        self.cases = 0
        self.dense = groups * keys <= DENSE_CENSUS_KEYS
        if self.dense:
            # group g's key x counts at g*keys + x
            self.offsets = np.arange(0, groups * keys, keys, dtype=np.int64)
            self.tally = np.zeros(groups * keys, dtype=np.int64)
        else:
            self.maps: list[dict[int, int]] = [dict() for _ in range(groups)]

    def add(self, keys) -> None:
        """Count a block's keys, shape (B, groups): column g is group g's."""
        self.cases += keys.size
        if self.dense:
            self.tally += np.bincount(
                (keys + self.offsets).ravel(), minlength=self.tally.size
            )
            return
        for column, counts in zip(keys.T, self.maps):
            seen, hits = np.unique(column, return_counts=True)
            for key, hit in zip(seen.tolist(), hits.tolist()):
                counts[key] = counts.get(key, 0) + hit

    def counts(self) -> list[dict[int, int]]:
        if not self.dense:
            return self.maps
        return [
            dict(zip(np.flatnonzero(tally).tolist(), tally[tally > 0].tolist()))
            for tally in self.tally.reshape(len(self.offsets), -1)
        ]


def _audit(
    scheme: SchemeUnderTest, budget: int | None, correctness: bool, privacy: bool
) -> tuple[CorrectnessReport | None, _Census | None]:
    """The one pass behind ``scheme_audit``: the correctness report, or None,
    and the filled census, or None."""
    k = scheme.k_messages
    inputs = _input_count(scheme, budget)
    census = None
    if privacy:
        q, n = scheme.modulus, scheme.n_servers
        if (q + 1) ** n >= _INT64_LIMIT:
            raise InexactArithmeticError(
                f"answer vectors of {n} servers over q={q} cannot be keyed in int64"
            )
        # an answer vector's key: its base-(q+1) digits, q for silence
        weights = (q + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        census = _Census(k, (q + 1) ** n)
    failure = None
    checked = 0
    for start, w, mask, storage in _inputs(scheme, inputs):
        answers = scheme.answers(storage, mask)
        if correctness and failure is None:
            failure = _first_failure(scheme, start, w, mask, answers)
            if failure is None:
                checked += len(w) * k
            elif census is None:
                break
        if census is not None:
            census.add(answers @ weights)
    if not correctness:
        return None, census
    if failure is None:
        return CorrectnessReport(passed=True, cases=checked, counterexample=None), census
    return failure, census


@dataclass(frozen=True)
class PrivacyMismatch:
    """The smallest answer vector whose occurrence count depends on the
    request: ordered server by server, symbols ascending, silence after
    every symbol (the order of its census key)."""

    answer: tuple[tuple[int, ...], ...]
    request_a: int
    count_a: int
    request_b: int
    count_b: int


@dataclass(frozen=True)
class PrivacyReport:
    """Exact answer-vector census, per request.

    ``passed`` means the K census maps are identical, i.e. the answer
    distribution is the same whatever the request - zero leakage.
    ``uniform`` additionally says that distribution is uniform over all
    q^N single-symbol answer vectors (true for the masked scheme; stronger
    than what privacy alone needs).
    """

    passed: bool
    cases: int
    distinct_answers: int
    uniform: bool
    uniform_count: int | None
    mismatch: PrivacyMismatch | None


def _privacy_report(scheme: SchemeUnderTest, census: _Census) -> PrivacyReport:
    """Compare the K censuses: the smallest leaking answer key, if any, and
    whether the answers are uniform."""
    q, k, l, n = scheme.modulus, scheme.k_messages, scheme.msg_len, scheme.n_servers
    counted = census.counts()
    reference = counted[0]
    mismatch = None
    for d, other in enumerate(counted[1:], start=2):
        if other != reference:
            key = min(
                x for x in reference.keys() | other.keys()
                if reference.get(x, 0) != other.get(x, 0)
            )
            # the key's base-(q+1) digits, server 1 first; q is silence
            digits = [key // (q + 1) ** e % (q + 1) for e in reversed(range(n))]
            mismatch = PrivacyMismatch(
                answer=tuple(() if a == q else (a,) for a in digits),
                request_a=1,
                count_a=reference.get(key, 0),
                request_b=d,
                count_b=other.get(key, 0),
            )
            break

    support = {key for counts in counted for key in counts}
    inputs_per_request = q ** (k * l + scheme.mask_len)
    full_space = q**n
    uniform = (
        mismatch is None
        and len(support) == full_space
        and inputs_per_request % full_space == 0
        and all(
            count == inputs_per_request // full_space
            for counts in counted
            for count in counts.values()
        )
    )
    return PrivacyReport(
        passed=mismatch is None,
        cases=census.cases,
        distinct_answers=len(support),
        uniform=uniform,
        uniform_count=inputs_per_request // full_space if uniform else None,
        mismatch=mismatch,
    )


def scheme_audit(
    scheme: SchemeUnderTest,
    budget: int | None = None,
    correctness: bool = True,
    privacy: bool = True,
) -> tuple[CorrectnessReport | None, PrivacyReport | None]:
    """Audit correctness and privacy in one pass over the inputs.

    Returns the correctness and privacy reports, None for a property not
    audited.  Each block's answers to all K requests come from one
    ``answers`` call and feed both the decode check and the census.
    Decoding stops at the first failure; the census still counts every
    case, and a correctness-only audit stops there.
    """
    c_report, census = _audit(scheme, budget, correctness, privacy)
    return c_report, None if census is None else _privacy_report(scheme, census)


def scheme_correctness(
    scheme: SchemeUnderTest, budget: int | None = None
) -> CorrectnessReport:
    """Decode every (messages, mask, request) case; stop at the first failure."""
    return scheme_audit(scheme, budget, privacy=False)[0]


def scheme_privacy(
    scheme: SchemeUnderTest, budget: int | None = None
) -> PrivacyReport:
    """Count every answer vector for every request and compare the censuses."""
    return scheme_audit(scheme, budget, correctness=False)[1]


def exhaustive_correctness(
    config: PidConfig, code: CodePair, budget: int | None = None
) -> CorrectnessReport:
    """Full correctness audit of the real masked protocol."""
    return scheme_correctness(masked_scheme(config, code), budget=budget)


def exhaustive_privacy(
    config: PidConfig, code: CodePair, budget: int | None = None
) -> PrivacyReport:
    """Full privacy audit of the real masked protocol."""
    return scheme_privacy(masked_scheme(config, code), budget=budget)


# -- randomized probe for instances beyond the exhaustive budget -------------


def _chi_square_upper(df: int, z: float = 3.719) -> float:
    """Wilson-Hilferty upper quantile approximation (z=3.719 ~ p=1e-4)."""
    t = 2.0 / (9.0 * df)
    return df * (1.0 - t + z * math.sqrt(t)) ** 3


@dataclass(frozen=True)
class ProbeReport:
    """What a sampled audit can see.

    ``pattern_anomaly`` is a hard fail: some request produced a per-server
    transmission-length pattern another request never can.  The chi-square
    screen compares each (request, server) symbol marginal to uniform, when
    trials >= 5q (else both stats are None); ``suspicious`` flags stats
    beyond a p~1e-4 bound.  A clean probe is evidence, not proof.
    """

    trials: int
    patterns_by_request: tuple[tuple[tuple[int, ...], ...], ...]
    pattern_anomaly: bool
    max_marginal_stat: float | None
    stat_bound: float | None
    suspicious: bool


def randomized_privacy_probe(
    config: PidConfig,
    code: CodePair,
    trials: int,
    seed: int | None = 0,
    scheme: SchemeUnderTest | None = None,
) -> ProbeReport:
    """Sample random (messages, mask) inputs and answer all K requests on each.

    Tests the two observable fingerprints of a leak: request-dependent
    transmission patterns (flagged exactly) and non-uniform per-server
    symbol marginals (flagged statistically).  The marginals are counted
    in the audits' ``_Census``, one group per (request, server); once its
    K*N*(q+1) counters pass ``DENSE_CENSUS_KEYS`` it keeps one count per
    symbol a trial sent, so the probe's memory is set by its trials, not
    by q.
    """
    if trials < 0:
        raise ValueError(f"the probe needs a non-negative trial count, got {trials}")
    if scheme is None:
        scheme = masked_scheme(config, code)
    q, k, l = scheme.modulus, scheme.k_messages, scheme.msg_len
    n = scheme.n_servers
    if trials == 0:
        return ProbeReport(
            trials=0,
            patterns_by_request=tuple(() for _ in range(k)),
            pattern_anomaly=False,
            max_marginal_stat=None,
            stat_bound=None,
            suspicious=False,
        )
    rng = np.random.default_rng(seed)
    patterns: list[set[tuple[int, ...]]] = [set() for _ in range(k)]
    # group (d-1)*N + j counts what server j+1 sent for request d; q is silence
    marginals = _Census(k * n, q + 1)
    for start in range(0, trials, CHUNK_ROWS):
        # one row per trial: its K messages, then its mask
        drawn = rng.integers(
            0, q, size=(min(CHUNK_ROWS, trials - start), k * l + scheme.mask_len)
        )
        storage = scheme.build_storage(drawn[:, : k * l])
        answers = scheme.answers(storage, drawn[:, k * l :])
        for seen, sent in zip(patterns, (answers < q).transpose(1, 0, 2)):
            sent = np.unique(sent, axis=0).astype(np.int64)
            seen.update(map(tuple, sent.tolist()))
        marginals.add(answers.reshape(len(drawn), k * n))

    pattern_sets = tuple(tuple(sorted(p)) for p in patterns)
    pattern_anomaly = len(set(pattern_sets)) > 1

    # Chi-square screen only where every server sent exactly one symbol per
    # trial (otherwise the marginal totals differ by construction) and each
    # symbol's expected count T/q is at least 5 (below that, one repeated
    # symbol puts a uniform marginal past the bound).  Then each marginal's
    # counts c sum to the trials T, and its statistic sum over all q symbols
    # of (c - T/q)^2 / (T/q) is q*sum(c^2)/T - T, a sum over the symbols seen.
    max_stat = None
    bound = None
    if trials >= 5 * q and all(p == ((1,) * n,) for p in pattern_sets):
        max_stat = max(
            q * sum(c * c for c in counts.values()) / trials - trials
            for counts in marginals.counts()
        )
        bound = _chi_square_upper(q - 1)
    return ProbeReport(
        trials=trials,
        patterns_by_request=pattern_sets,
        pattern_anomaly=pattern_anomaly,
        max_marginal_stat=max_stat,
        stat_bound=bound,
        suspicious=pattern_anomaly
        or (max_stat is not None and bound is not None and max_stat > bound),
    )


def verdict_line(property_name: str, instance: str, passed: bool, cases: int) -> str:
    """The one-line audit verdict format used by the CLI and the reports."""
    verdict = "pass" if passed else "fail"
    return (
        f"PROPERTY={property_name} INSTANCE={instance} "
        f"VERDICT={verdict} CASES={cases}"
    )
