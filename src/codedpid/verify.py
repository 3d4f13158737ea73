"""Exact certification of correctness and privacy: by enumerating every
case of a small instance, by rank everywhere else.

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
order (message symbols, then mask symbols) one aligned block at a time: the
q^t inputs that share all but their last t digits, for the largest q^t with
K*N*q^t answer cells at most ``BLOCK_CELLS`` (3125 inputs on q5-k3), and
never fewer than q.  A block is a (width, B) table of digits, its B rows
(one per input) on the last axis: the trailing digits are built once per
audit, and a block fills in only its leading digits, one broadcast column.
One ``answers`` call gives every request d = 1..K for each row of a block,
and that one array feeds both the decode check and the census keys.  A
scheme's stages are maps mod q applied to a whole block at once, with the
block's rows innermost, so each numpy call runs one contiguous loop over
them and a case costs a share of a few calls instead of its own Python
work; their contractions are ``einsum``s, faster than integer ``matmul`` on
these shapes.  The mask digits vary fastest, so storage is built once per
message tuple of a block and repeated over its masks.  The privacy census
is one order-free tally, a dense ``bincount`` array of K rows of (q+1)^N
answer keys (base-(q+1) digits, q for silence).  A leak's witness is the
smallest key whose count differs between request 1 and the first request
that differs: the answer vector first server by server, symbols ascending,
silence last.

Every scheme here is affine and described once, by one private
constructor: request d answers A_d*[w_d; u] + b_d on the servers its
silence pattern lets send, A_d = [P_d*E_d | G^T] with d's encoder E_d (I for
raw symbols) placed at its hosts and the share generator G (no rows
when unmasked), b_d a corruption offset and D_d its decoder; the stages and
the ``AffineMaps`` are read from those arrays.  The schemes are the real
masked protocol, with the encoder that serves ``pid deliver``, the unmasked
split variant (a negative control: correct, and leaky whenever L < N) and
fault-injected copies.

The method follows from the input alone (``by_rank``).  ``scheme_audit``
enumerates when the cases are at most ``DEFAULT_BUDGET`` (10**7), a block
holds the q inputs of at least one digit (q <= ``CHUNK_ROWS``) and, when
privacy is audited, the census fits ``DENSE_CENSUS_KEYS`` counters.  Within
those limits the arithmetic is exact by construction: the inputs are
numbered below 10**7, the census keys below 2**21, and a stage's values
stay at most N*(q-1)^2 + q (storage sums L products of residues, the shares
N-L, decoding N, plus a residue or the no-symbol marker q).  Digits and
stages are int32 while that bound is below 2^31 (``_stage_dtype``), as on
every masked instance and privacy audit enumerated, else int64 (a
correctness-only split with N >= 2065 idle servers at q = 1021), exact for
any N under 8*10**12.  Otherwise it certifies by rank, exact for every
q < 2^32 (``field.rref``).  Request d's answers are uniform on the coset
b_d + im A_d, each point hit q^(K*L + N-L - rank A_d) times.  Correctness
holds exactly when D_d*A_d selects w_d and D_d*b_d = 0 for every d; privacy
exactly when all requests share one silence pattern and one coset.  The
counterexample and the witness are the ones enumeration finds; such reports
are flagged ``ranked``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from codedpid.codes import CodePair
from codedpid.field import mod_matmul, rref
from codedpid.protocol import PidConfig, _check_instance, _encoder

__all__ = [
    "DEFAULT_BUDGET",
    "CHUNK_ROWS",
    "BLOCK_CELLS",
    "DENSE_CENSUS_KEYS",
    "SchemeUnderTest",
    "AffineMaps",
    "masked_scheme",
    "split_scheme",
    "case_count",
    "case_text",
    "power_text",
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

# Most cases an audit enumerates; past it, the audit is by rank.
DEFAULT_BUDGET = 10**7
# Largest q an audit enumerates: a block holds the q inputs of at least one
# digit, and a larger q is audited by rank.
CHUNK_ROWS = 1024
# Most answer cells, K*N*B, in a block of B = q^t inputs (but B >= q): large
# enough that numpy's per-call overhead is small against the work, small
# enough that a block's arrays stay cache-sized (128 KiB of int32 answers).
BLOCK_CELLS = 2**15
# Most counters, groups times keys per group, that a privacy census keeps in
# its one dense array: 16 MiB of int64, and a block's bincount makes one
# more array of that size.  A wider census is audited by rank.
DENSE_CENSUS_KEYS = 2**21


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
    """The three stages of a delivery scheme, as callables on batches, and
    the affine maps they compute.

    Each stage maps integer arrays (``_stage_dtype``) of B rows, one per
    input and on the last axis, to the same; q, outside F_q, marks "no symbol".

    * ``build_storage(w)``: message symbols, shape (K*L, B) with message k
      at (k-1)*L .. k*L-1 on the first axis, to the storage of each row, an
      array with its B rows last in whatever layout ``answers`` reads.
    * ``answers(storage, mask)``: storage and mask symbols, shape
      (mask_len, B), to every server's answer to every request, shape
      (K, N, B): entry [d-1, j, b] is server j+1's answer to request d, or q
      for a server that sends nothing.
    * ``decode(answers)``: answers of that shape to the decoded symbols,
      shape (K, L, B): entry [d-1, :, b] is what request d decodes to.

    Stages are called with positional arguments only and must be row-wise:
    row b of a stage's output depends on row b of its inputs alone, so a
    batch gives the rows its inputs would give one at a time.  The audits
    rely on this to build storage once per message tuple and repeat its rows
    over the masks.  ``maps`` are the ``AffineMaps`` the stages compute, the
    rank path's whole input; enumeration never reads them.
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
    maps: AffineMaps


def _mod(x, q: int):
    """``x % q`` for non-negative integer ``x``, in one temporary: numpy
    divides by a scalar through a fast path that its remainder does not take."""
    r = x // q
    r *= q
    return np.subtract(x, r, out=r)


def _stage_dtype(q: int, n: int) -> type:
    """int32 if it holds a stage's largest value, N*(q-1)^2 + q, else int64."""
    return np.int32 if n * (q - 1) ** 2 + q < 2**31 else np.int64


def _affine_scheme(
    name: str, config: PidConfig, encoders, shares, sends, decoder, offset
) -> SchemeUnderTest:
    """The scheme of the module docstring's A_d, b_d and D_d: ``encoders``
    (K, L, L) stacks each E_d, I for raw symbols; ``shares`` is G,
    (mask_len, N); ``sends`` (K, N), ``decoder`` (K, L, N) and ``offset``
    (K, N).  Storage [k-1, j, b] is what server j+1 holds of message k, or
    q.  The stages compute in ``_stage_dtype``, exact while N*(q-1)^2 + q <
    2^63, as at every q an audit enumerates.
    """
    q, k, n, l = config.modulus, config.k_messages, config.n_servers, config.msg_len
    dtype = _stage_dtype(q, n)
    hosts = np.array(config.association) - 1
    # P_d: column i is a unit vector at the i-th server of d's sorted hosts
    placed = np.eye(n, dtype=np.int64)[hosts].transpose(0, 2, 1)
    placed = mod_matmul(placed, encoders, q)  # P_d*E_d
    # where message k's i-th host sits among the K*N storage cells, and the
    # corruption there
    cells = (np.arange(0, k * n, n)[:, None] + hosts).ravel()
    shift = offset.ravel()[cells, None].astype(dtype)
    # silence read as 0: D_d is zero on the servers d silences
    decoder = decoder * sends[:, None, :]
    coders, stage_shares = encoders.astype(dtype), shares.astype(dtype)
    stage_decoder = decoder.astype(dtype)
    silent = None if sends.all() else ~sends

    def build_storage(w):
        w = _mod(np.einsum("kij,kjb->kib", coders, w.reshape(k, l, -1)), q)
        w = w.reshape(k * l, -1)
        stored = np.full((k * n, w.shape[1]), q, dtype=dtype)
        stored[cells] = _mod(w + shift, q) if shift.any() else w
        return stored.reshape(k, n, -1)

    def answers(storage, mask):
        # A server holding nothing of message d has the marker q there, which
        # is 0 mod q: it sends its mask share alone.
        heard = _mod(storage + np.einsum("mn,mb->nb", stage_shares, mask), q)
        if silent is not None:
            heard[silent] = q
        return heard

    def decode(answers):
        return _mod(np.einsum("dln,dnb->dlb", stage_decoder, answers), q)

    mask_columns = np.broadcast_to(shares.T, (k, n, len(shares)))
    linear = np.concatenate((placed, mask_columns), axis=2)
    return SchemeUnderTest(
        name=name,
        modulus=q,
        k_messages=k,
        msg_len=l,
        n_servers=n,
        mask_len=len(shares),
        build_storage=build_storage,
        answers=answers,
        decode=decode,
        maps=AffineMaps(sends, linear, offset, decoder),
    )


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
    injection for audits; delta % q == 0 is rejected as a no-op.  A code
    pair of another instance (q, N or L) is refused as ``encode_storage``
    refuses it.
    """
    _check_instance(config, code)
    q, k, n, l = code.modulus, config.k_messages, config.n_servers, config.msg_len
    offset = np.zeros((k, n), np.int64)
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
        offset[c_msg - 1, c_server - 1] = c_delta % q
    # every server sends its share on every request, and H decodes
    return _affine_scheme(
        "masked-coded",
        config,
        _encoder(config, code, range(1, k + 1)),
        code.generator.array,
        np.ones((k, n), bool),
        np.broadcast_to(code.parity_check.array, (k, l, n)),
        offset,
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
    k, n, l = config.k_messages, config.n_servers, config.msg_len
    # d's hosts alone send, and are read back in order: D_d = P_d^T
    return _affine_scheme(
        "unmasked-split",
        config,
        np.broadcast_to(np.eye(l, dtype=np.int64), (k, l, l)),
        np.zeros((0, n), np.int64),
        config.host_incidence.astype(bool),
        np.eye(n, dtype=np.int64)[np.array(config.association) - 1],
        np.zeros((k, n), np.int64),
    )


def _width(scheme: SchemeUnderTest) -> int:
    """The symbols of one input: K*L message symbols, then the mask."""
    return scheme.k_messages * scheme.msg_len + scheme.mask_len


def case_count(scheme: SchemeUnderTest) -> int:
    """q^(K*L + mask_len) * K answer evaluations for a full audit."""
    return scheme.modulus ** _width(scheme) * scheme.k_messages


def case_text(scheme: SchemeUnderTest) -> str:
    """``case_count`` written as q^E*K: past ``DEFAULT_BUDGET`` it can run
    to more digits than ``str`` writes (257^2080*64 has 5012)."""
    return f"{scheme.modulus}^{_width(scheme)}*{scheme.k_messages}"


def power_text(count: int, q: int) -> str:
    """``count`` as q^e when it is a power of q with e >= 2, else in decimal:
    the counts of a rank certificate are powers of q or sums of them."""
    if count > 0:
        e = round(math.log(count, q))
        if e > 1 and q**e == count:
            return f"{q}^{e}"
    return str(count)


def by_rank(scheme: SchemeUnderTest, privacy: bool) -> bool:
    """Whether ``scheme_audit`` certifies ``scheme`` by rank: its cases
    exceed ``DEFAULT_BUDGET``, q exceeds ``CHUNK_ROWS`` (a block could not
    hold the q inputs of one digit) or, when ``privacy`` is audited, its
    census needs more than ``DENSE_CENSUS_KEYS`` counters."""
    q = scheme.modulus
    counters = scheme.k_messages * (q + 1) ** scheme.n_servers
    return (
        case_count(scheme) > DEFAULT_BUDGET
        or q > CHUNK_ROWS
        or (privacy and counters > DENSE_CENSUS_KEYS)
    )


def _inputs(scheme: SchemeUnderTest):
    """Yield (index of the first input, message symbols, mask symbols,
    storage) for every block of consecutive inputs, in ``itertools.product``
    order, each with its rows (one per input) on the last axis, its digits
    in ``_stage_dtype``.

    A block is the q^t inputs that share all but their last t digits, for
    the largest q^t whose K*N*q^t answer cells are at most ``BLOCK_CELLS``,
    and t >= 1: the trailing-digit table is built once and each block fills
    in only its leading digits, in one buffer reused from block to block.
    The mask digits vary fastest, so a block holds each of its message tuples
    q^min(mask_len, t) times in a row; ``build_storage`` runs on one row per
    tuple and its rows are repeated (sound because it is row-wise).
    """
    q = scheme.modulus
    msg_width = scheme.k_messages * scheme.msg_len
    width = _width(scheme)
    cells = scheme.k_messages * scheme.n_servers
    t = 1
    while t < width and cells * q ** (t + 1) <= BLOCK_CELLS:
        t += 1
    rows, lead = q**t, width - t
    digits = np.empty((width, rows), dtype=_stage_dtype(q, scheme.n_servers))
    digits[lead:] = np.indices((q,) * t, dtype=digits.dtype).reshape(t, rows)
    w, mask = digits[:msg_width], digits[msg_width:]
    stride = q ** min(scheme.mask_len, t)
    for block, leading in enumerate(itertools.product(range(q), repeat=lead)):
        digits[:lead] = np.reshape(leading, (lead, 1))
        storage = scheme.build_storage(w[:, ::stride])
        if stride > 1:
            storage = np.repeat(storage, stride, axis=2)
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
    ranked: bool = field(default=False, compare=False)  # decided by rank


def _failed(scheme: SchemeUnderTest, cases: int, x, d0: int, decoded, ranked=False):
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
        ranked=ranked,
    )


def _first_failure(
    scheme: SchemeUnderTest, start: int, w, mask, answers
) -> CorrectnessReport | None:
    """The failed report of a block's first wrongly decoded case, or None
    when every case of the block decodes."""
    k, l = scheme.k_messages, scheme.msg_len
    decoded = scheme.decode(answers)
    # w[(d-1)*L : d*L] is what request d must decode to.
    wrong = decoded.reshape(k * l, -1) != w
    if not wrong.any():
        return None
    # wrong[(d-1)*L : d*L, i]: input start+i decodes request d wrongly.
    # (input, request) order is enumeration order: argmax finds the first.
    first = int(wrong.reshape(k, l, -1).any(axis=1).T.argmax())
    row, d0 = divmod(first, k)
    x = np.concatenate((w[:, row], mask[:, row]))
    return _failed(scheme, start * k + first + 1, x, d0, decoded[d0, :, row])


def _audit(
    scheme: SchemeUnderTest, correctness: bool, privacy: bool
) -> tuple[CorrectnessReport | None, np.ndarray | None]:
    """The one pass behind ``scheme_audit``: the correctness report, or None,
    and the census, or None: a (K, (q+1)^N) array whose [d-1, x] counts the
    inputs on which request d's answer vector has key x.  Keys are held
    until there are as many as the census has counters, then counted by one
    ``bincount``: the count costs cases, not blocks times counters."""
    k = scheme.k_messages
    census = None
    held, held_keys = [], 0
    if privacy:
        q, n = scheme.modulus, scheme.n_servers
        keys = (q + 1) ** n
        # an answer vector's key: its base-(q+1) digits, q for silence;
        # request d's keys are counted at (d-1)*keys + key
        weights = (q + 1) ** np.arange(n - 1, -1, -1, dtype=np.int32)
        offsets = np.arange(0, k * keys, keys, dtype=np.int32)[:, None]
        census = np.zeros(k * keys, dtype=np.int64)
    report = None
    checked = 0
    for start, w, mask, storage in _inputs(scheme):
        answers = scheme.answers(storage, mask)
        if correctness and report is None:
            report = _first_failure(scheme, start, w, mask, answers)
            if report is None:
                checked += w.shape[1] * k
            elif census is None:
                break
        if census is not None:
            held.append((np.einsum("n,dnb->db", weights, answers) + offsets).ravel())
            held_keys += held[-1].size
            if held_keys >= census.size:
                census += np.bincount(np.concatenate(held), minlength=census.size)
                held, held_keys = [], 0
    if held:
        census += np.bincount(np.concatenate(held), minlength=census.size)
    if correctness and report is None:
        report = CorrectnessReport(passed=True, cases=checked, counterexample=None)
    return report, None if census is None else census.reshape(k, -1)


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
    ranked: bool = field(default=False, compare=False)  # decided by rank


def _privacy_report(scheme: SchemeUnderTest, census: np.ndarray) -> PrivacyReport:
    """Compare the K censuses: the smallest leaking answer key, if any, and
    whether the answers are uniform."""
    q, n = scheme.modulus, scheme.n_servers
    reference = census[0]
    differs = census != reference
    mismatch = None
    if differs.any():
        # the first request whose census differs, at its smallest such key
        d0 = int(differs.any(axis=1).argmax())
        key = int(differs[d0].argmax())
        # the key's base-(q+1) digits, server 1 first; q is silence
        digits = [key // (q + 1) ** e % (q + 1) for e in reversed(range(n))]
        mismatch = PrivacyMismatch(
            answer=tuple(() if a == q else (a,) for a in digits),
            request_a=1,
            count_a=int(reference[key]),
            request_b=d0 + 1,
            count_b=int(census[d0, key]),
        )

    support = int(census.any(axis=0).sum())
    # with one census for every request, its q^(K*L + N-L) inputs hit all
    # q^N answer vectors alike exactly when there are q^N of them, each
    # counted as often as the others
    seen = reference[reference > 0]
    uniform = mismatch is None and support == q**n and bool((seen == seen[0]).all())
    return PrivacyReport(
        passed=mismatch is None,
        cases=int(census.sum()),
        distinct_answers=support,
        uniform=uniform,
        uniform_count=q ** (_width(scheme) - n) if uniform else None,
        mismatch=mismatch,
    )


# -- the rank certificate -----------------------------------------------------


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
        return _failed(scheme, case_count(scheme), x, d0, shift[d0], ranked=True)
    if not wrong.any():
        return CorrectnessReport(True, case_count(scheme), None, ranked=True)
    # request d's column c is input coordinate (d-1)*L + c, or K*L + c-L (mask)
    c = np.arange(through.shape[2])
    coordinate = np.where(c < l, np.arange(k)[:, None] * l + c, k * l + c - l)
    last = coordinate[wrong].max()
    x[last] = 1
    d0, c0 = np.argwhere(wrong & (coordinate == last))[0]
    return _failed(scheme, case_count(scheme), x, int(d0), through[d0, :, c0], True)


def _rank_privacy(scheme: SchemeUnderTest, maps: AffineMaps) -> PrivacyReport:
    """The census figures from the cosets b_d + im A_d, each in a form equal
    for equal cosets: the silence pattern, the reduced row echelon basis of
    the image, and b_d reduced against it.  Cosets with one pattern and one
    image are equal or disjoint, so the witness against the first request
    whose coset differs from request 1's is the smaller of the two cosets'
    smallest points: their reduced offsets, silence read as q.  A pattern
    with two images is refused, as the overlap of its cosets is not
    counted."""
    q, k, n, width = scheme.modulus, scheme.k_messages, scheme.n_servers, _width(scheme)
    images: dict[bytes, bytes] = {}  # silence pattern -> basis of its image
    ranks: dict[tuple[bytes, bytes], int] = {}  # each distinct coset's rank
    mismatch = None
    for d in range(k):
        sends = maps.sends[d]
        reduced, pivots, _ = rref(maps.linear[d][sends].T, q)
        basis = reduced[: len(pivots)]
        offset = maps.offset[d][sends] % q
        offset = (offset - mod_matmul(offset[pivots], basis, q)) % q
        if images.setdefault(sends.tobytes(), basis.tobytes()) != basis.tobytes():
            raise ValueError(
                f"request {d + 1} answers on another image than an earlier "
                f"request with its silence pattern: not counted by rank"
            )
        coset = (sends.tobytes(), offset.tobytes())
        ranks.setdefault(coset, len(pivots))
        point = np.full(n, q, dtype=np.int64)
        point[sends] = offset
        point = point.tolist()
        if d == 0:
            first, least = coset, point
        elif coset != first and mismatch is None:
            if least < point:
                counts = (q ** (width - ranks[first]), 0)
            else:
                counts = (0, q ** (width - len(pivots)))
            answer = tuple(() if a == q else (a,) for a in min(least, point))
            mismatch = PrivacyMismatch(answer, 1, counts[0], d + 1, counts[1])
    # rank N needs every server to send: the answers are all q^N vectors
    uniform = mismatch is None and ranks[first] == n
    return PrivacyReport(
        passed=mismatch is None,
        cases=case_count(scheme),
        distinct_answers=sum(q**rank for rank in ranks.values()),
        uniform=uniform,
        uniform_count=q ** (width - n) if uniform else None,
        mismatch=mismatch,
        ranked=True,
    )


def scheme_audit(
    scheme: SchemeUnderTest, *, correctness: bool = True, privacy: bool = True
) -> tuple[CorrectnessReport | None, PrivacyReport | None]:
    """Audit correctness and privacy in one pass over the inputs, or by
    rank where ``by_rank`` says so.

    Returns the correctness and privacy reports, None for a property not
    audited.  Each block's answers to all K requests come from one
    ``answers`` call and feed both the decode check and the census.
    Decoding stops at the first failure; the census still counts every
    case, and a correctness-only audit stops there.
    """
    if by_rank(scheme, privacy):
        return (
            _rank_correctness(scheme, scheme.maps) if correctness else None,
            _rank_privacy(scheme, scheme.maps) if privacy else None,
        )
    c_report, census = _audit(scheme, correctness, privacy)
    return c_report, None if census is None else _privacy_report(scheme, census)


def scheme_correctness(scheme: SchemeUnderTest) -> CorrectnessReport:
    """Decode every (messages, mask, request) case; stop at the first failure."""
    return scheme_audit(scheme, privacy=False)[0]


def scheme_privacy(scheme: SchemeUnderTest) -> PrivacyReport:
    """Count every answer vector for every request and compare the censuses."""
    return scheme_audit(scheme, correctness=False)[1]


def verdict_line(property_name: str, instance: str, passed: bool, cases: int) -> str:
    """The one-line audit verdict format used by the CLI and the reports."""
    verdict = "pass" if passed else "fail"
    return (
        f"PROPERTY={property_name} INSTANCE={instance} "
        f"VERDICT={verdict} CASES={cases}"
    )
