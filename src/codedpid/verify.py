"""Exact certification of correctness and privacy: by enumerating every
case within the budget, by rank past it.

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
silence).  A leak's witness is the smallest key whose count differs between
two requests: the answer vector first server by server, symbols ascending,
silence last.

Exactness: every value a scheme's stages compute is at most N*(q-1)^2 + q,
a sum of products of residues plus one residue or the no-symbol marker q
(storage sums L products, in exact Python ints past int64, see
``field.mod_matmul``; the mask shares N-L; decoding N).  The enumeration is
int64, so it refuses (``InexactArithmeticError``, a ValueError) N*(q-1)^2 + q,
q^(K*L + N-L) inputs or (q+1)^N answer keys reaching 2^63.  Refusals come
before any case is evaluated: the budget, then the stages, the numbering and
(when privacy is audited) the keys.  Schemes plug in through
``SchemeUnderTest``: the real masked protocol, its storage built by the
encoder that serves ``pid deliver``, the unmasked split variant (a negative
control: correct, and leaky whenever L < N) and fault-injected copies.

The budget, 10**7 cases unless PID_BUDGET or a keyword argument says
otherwise, bounds the enumeration.  Past it, a scheme that declares its
``AffineMaps`` is certified by rank with the same reports, and any other
is refused (``BudgetExceededError``).  Request d's answers are A_d*x + b_d
on the servers that transmit, so they are uniform on the coset
b_d + im A_d, each point hit q^(K*L + N-L - rank A_d) times.  Correctness
holds exactly when D_d*A_d selects w_d and D_d*b_d = 0 for the decoder D_d
of every d; privacy exactly when all requests share one silence pattern and
one coset.  The counterexample is the one enumeration meets first, the leak
witness an answer vector with its exact counts under two requests (not
always the smallest).  ``field.FieldMatrix`` is exact for every q < 2^32.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from codedpid.codes import CodePair
from codedpid.field import FieldMatrix, int64_exact, mod_matmul
from codedpid.protocol import PidConfig, _encoder

__all__ = [
    "DEFAULT_BUDGET",
    "CHUNK_ROWS",
    "DENSE_CENSUS_KEYS",
    "BudgetExceededError",
    "InexactArithmeticError",
    "SchemeUnderTest",
    "AffineMaps",
    "masked_scheme",
    "split_scheme",
    "case_count",
    "case_text",
    "power_text",
    "resolve_budget",
    "by_rank",
    "scheme_audit",
    "scheme_correctness",
    "scheme_privacy",
    "CorrectnessReport",
    "Counterexample",
    "PrivacyReport",
    "PrivacyMismatch",
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


class AffineMaps(NamedTuple):
    """Every request's answers as an affine map of its inputs, in residues
    mod q; entry d-1 of each array is request d's.  Server j transmits when
    ``sends`` (K, N) says so, and answers (A_d [w_d; u] + b_d)[j], where
    A_d is ``linear`` (K, N, L + mask_len), on message d's symbols and the
    mask u (every other message's columns are zero), and b_d is ``offset``
    (K, N).  Request d decodes to D_d = ``decoder`` (K, L, N) times the
    answer vector, silence read as 0.
    """

    sends: np.ndarray
    linear: np.ndarray
    offset: np.ndarray
    decoder: np.ndarray


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
    over the masks.  ``maps``, if given, returns the ``AffineMaps`` the
    stages compute, read off the scheme's structure, for the rank path.
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
    maps: Callable[[], AffineMaps] | None = None


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


def _hosted(config: PidConfig, blocks) -> np.ndarray:
    """A (K, N, L) array holding row i of ``blocks[d-1]`` at the i-th
    server of d's sorted host set, zero on every other server."""
    placed = np.zeros((config.k_messages, config.n_servers, config.msg_len), np.int64)
    hosts = np.array(config.association) - 1
    placed[np.arange(config.k_messages)[:, None], hosts] = blocks
    return placed


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
    q, k, n, l = code.modulus, config.k_messages, config.n_servers, config.msg_len

    if corrupt is not None:
        c_server, c_msg, c_pos, c_delta = corrupt
        if c_delta % q == 0:
            raise ValueError("corruption delta must be nonzero mod q")
        if not 1 <= c_msg <= k:
            raise ValueError(f"corrupt message {c_msg} outside 1..{k}")
        if c_server not in config.servers_for(c_msg):
            raise ValueError(
                f"server {c_server} stores nothing for message {c_msg}"
            )
        if c_pos != 1:
            raise ValueError("each server stores one symbol per message here")
        corrupt = (c_server, c_msg, c_delta % q)

    encode = _encoder(config, code, range(1, k + 1))
    g = code.generator.array
    h = code.parity_check.array
    h_t = h.T

    def answers(storage, mask):
        # A server holding nothing of message d has the marker q there, which
        # is 0 mod q: it sends its mask share alone.  The shares do not
        # depend on d, so they are computed once for all K requests.
        return (storage + (mask @ g)[:, None, :]) % q

    def decode(answers):
        return answers @ h_t % q

    def maps():
        # A_d = [P_d*M_d | G^T]: the encoder's inverse M_d of the parity-check
        # minor on d's hosts, placed at them, then the mask shares; every
        # server sends, H decodes, and a corruption is its message's b_d
        cols = [tuple(s - 1 for s in hosts) for hosts in config.association]
        minors = code._minor_inverses(cols)
        offset = np.zeros((k, n), np.int64)
        if corrupt is not None:
            offset[corrupt[1] - 1, corrupt[0] - 1] = corrupt[2]
        shares = np.broadcast_to(g.T, (k, n, code.mask_len))
        linear = np.concatenate((_hosted(config, minors), shares), axis=2)
        decoder = np.broadcast_to(h, (k, l, n))
        return AffineMaps(np.ones((k, n), bool), linear, offset, decoder)

    return SchemeUnderTest(
        name="masked-coded",
        modulus=q,
        k_messages=k,
        msg_len=l,
        n_servers=n,
        mask_len=code.mask_len,
        build_storage=_storage_layout(config, encode, corrupt),
        answers=answers,
        decode=decode,
        maps=maps,
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

    def maps():
        # w_d placed on d's hosts, which alone send and are read back in order
        placed = _hosted(config, np.eye(config.msg_len, dtype=np.int64))
        offset = np.zeros((config.k_messages, config.n_servers), np.int64)
        sends = config.host_incidence.astype(bool)
        return AffineMaps(sends, placed, offset, placed.transpose(0, 2, 1))

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
        maps=maps,
    )


def _width(scheme: SchemeUnderTest) -> int:
    """The symbols of one input: K*L message symbols, then the mask."""
    return scheme.k_messages * scheme.msg_len + scheme.mask_len


def case_count(scheme: SchemeUnderTest) -> int:
    """q^(K*L + mask_len) * K answer evaluations for a full audit."""
    return scheme.modulus ** _width(scheme) * scheme.k_messages


def case_text(scheme: SchemeUnderTest) -> str:
    """``case_count`` written as q^E*K: past the budget it can run to more
    digits than ``str`` writes (257^2080*64 has 5012)."""
    return f"{scheme.modulus}^{_width(scheme)}*{scheme.k_messages}"


def power_text(count: int, q: int) -> str:
    """``count`` written as q^e when it is a power of q, else in decimal:
    the counts of a rank certificate are powers of q or sums of them."""
    if count > 0:
        e = round(math.log(count, q))
        if q**e == count:
            return f"{q}^{e}"
    return str(count)


def by_rank(scheme: SchemeUnderTest, budget: int | None = None) -> bool:
    """Whether ``scheme_audit`` certifies ``scheme`` by rank: it declares
    its maps and its cases exceed the budget."""
    return scheme.maps is not None and case_count(scheme) > resolve_budget(budget)


def _input_count(scheme: SchemeUnderTest, budget: int | None) -> int:
    """The number of inputs an exhaustive audit of ``scheme`` walks.

    Refuses if the audit is over budget, then if its stages cannot compute
    in exact int64, then if the inputs cannot be numbered in int64.
    """
    total = case_count(scheme)
    allowed = resolve_budget(budget)
    if total > allowed:
        raise BudgetExceededError(total, allowed)
    q, n = scheme.modulus, scheme.n_servers
    if not int64_exact(q, n):
        raise InexactArithmeticError(
            f"q={q} is too large for exact int64 audits of this instance: "
            f"{n}*(q-1)^2 + q must stay below 2^63"
        )
    inputs = scheme.modulus ** _width(scheme)
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
    width = _width(scheme)
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


def _failed(scheme: SchemeUnderTest, cases: int, x, d0: int, decoded):
    """The failed report of request d0+1 on input ``x``, its message symbols
    then its mask, decoded to ``decoded``."""
    k, l = scheme.k_messages, scheme.msg_len
    symbols = x.tolist()
    messages = tuple(tuple(symbols[i * l : (i + 1) * l]) for i in range(k))
    return CorrectnessReport(
        passed=False,
        cases=cases,
        counterexample=Counterexample(
            messages=messages,
            mask=tuple(symbols[k * l :]),
            requested=d0 + 1,
            decoded=tuple(decoded.tolist()),
            expected=messages[d0],
        ),
    )


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
    x = np.concatenate((w[row], mask[row]))
    return _failed(scheme, start * k + first + 1, x, d0, decoded[row, d0])


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
    q, n = scheme.modulus, scheme.n_servers
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
    inputs_per_request = q ** _width(scheme)
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


# -- the rank certificate, for schemes that declare their maps ----------------


def _rank_correctness(scheme: SchemeUnderTest, maps: AffineMaps) -> CorrectnessReport:
    """The first failing case in enumeration order: the zero input, for the
    first d with D_d*b_d != 0; else the unit input at the last coordinate
    where some D_d*A_d differs from selecting w_d, for the first such d."""
    q, k, l = scheme.modulus, scheme.k_messages, scheme.msg_len
    sends = maps.sends[..., None]
    through = mod_matmul(maps.decoder, maps.linear * sends, q)  # D_d*A_d
    shift = mod_matmul(maps.decoder, maps.offset[..., None] * sends, q)[..., 0]
    wrong = (through != np.eye(l, through.shape[2], dtype=np.int64)).any(axis=1)
    x = np.zeros(_width(scheme), dtype=np.int64)
    if shift.any():
        d0 = int(shift.any(axis=1).argmax())
        return _failed(scheme, case_count(scheme), x, d0, shift[d0])
    if not wrong.any():
        return CorrectnessReport(True, case_count(scheme), counterexample=None)
    # request d's column c is input coordinate (d-1)*L + c, or K*L + c-L (mask)
    c = np.arange(through.shape[2])
    coordinate = np.where(c < l, np.arange(k)[:, None] * l + c, k * l + c - l)
    last = coordinate[wrong].max()
    x[last] = 1
    d0, c0 = np.argwhere(wrong & (coordinate == last))[0]
    return _failed(scheme, case_count(scheme), x, int(d0), through[d0, :, c0])


def _rank_privacy(scheme: SchemeUnderTest, maps: AffineMaps) -> PrivacyReport:
    """The census figures from the cosets b_d + im A_d, each in a form equal
    for equal cosets: the silence pattern, the reduced row echelon basis of
    the image, and b_d reduced against it.  Cosets with one pattern and one
    image are equal or disjoint, so a point of request 1's is a witness
    against any other; a pattern with two images is refused, as the overlap
    of its cosets is not counted."""
    q, k, n, width = scheme.modulus, scheme.k_messages, scheme.n_servers, _width(scheme)
    images: dict[bytes, bytes] = {}  # silence pattern -> basis of its image
    ranks: dict[tuple[bytes, bytes], int] = {}  # each distinct coset's rank
    mismatch = None
    for d in range(k):
        sends = maps.sends[d]
        rref, pivots = FieldMatrix(maps.linear[d][sends].T, q)._rref()
        basis = rref[: len(pivots)].astype(np.int64)
        offset = maps.offset[d][sends] % q
        offset = (offset - mod_matmul(offset[pivots], basis, q)) % q
        if images.setdefault(sends.tobytes(), basis.tobytes()) != basis.tobytes():
            raise ValueError(
                f"request {d + 1} answers on another image than an earlier "
                f"request with its silence pattern: not counted by rank"
            )
        coset = (sends.tobytes(), offset.tobytes())
        ranks.setdefault(coset, len(pivots))
        if d == 0:
            first, symbols = coset, iter(offset.tolist())
            answer = tuple((next(symbols),) if s else () for s in sends)
        elif coset != first and mismatch is None:
            mismatch = PrivacyMismatch(answer, 1, q ** (width - ranks[first]), d + 1, 0)
    # rank N needs every server to send: the answers are all q^N vectors
    uniform = mismatch is None and ranks[first] == n
    return PrivacyReport(
        passed=mismatch is None,
        cases=case_count(scheme),
        distinct_answers=sum(q**rank for rank in ranks.values()),
        uniform=uniform,
        uniform_count=q ** (width - n) if uniform else None,
        mismatch=mismatch,
    )


def scheme_audit(
    scheme: SchemeUnderTest,
    budget: int | None = None,
    correctness: bool = True,
    privacy: bool = True,
) -> tuple[CorrectnessReport | None, PrivacyReport | None]:
    """Audit correctness and privacy in one pass over the inputs, or by
    rank past the budget (``by_rank``).

    Returns the correctness and privacy reports, None for a property not
    audited.  Each block's answers to all K requests come from one
    ``answers`` call and feed both the decode check and the census.
    Decoding stops at the first failure; the census still counts every
    case, and a correctness-only audit stops there.
    """
    if by_rank(scheme, budget):
        maps = scheme.maps()
        return (
            _rank_correctness(scheme, maps) if correctness else None,
            _rank_privacy(scheme, maps) if privacy else None,
        )
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


def verdict_line(property_name: str, instance: str, passed: bool, cases: int) -> str:
    """The one-line audit verdict format used by the CLI and the reports."""
    verdict = "pass" if passed else "fail"
    return (
        f"PROPERTY={property_name} INSTANCE={instance} "
        f"VERDICT={verdict} CASES={cases}"
    )
