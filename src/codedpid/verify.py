"""Exact certification of correctness and privacy, by rank.

For a scheme with K messages of L symbols over F_q, N servers and an
(N-L)-symbol mask, the joint input space has q^(K*L + N-L) points and each
point serves K possible requests, so a full audit covers

    cases = q^(K*L + N-L) * K

delivery cases.  Every scheme here is affine and described once, by one
private constructor: request d answers A_d*[w_d; u] + b_d on the servers
its silence pattern lets send, A_d = [P_d*E_d | G^T] with d's encoder E_d
(I for raw symbols) placed at its hosts and the share generator G (no rows
when unmasked), b_d a corruption offset and D_d its decoder; the stages and
the ``AffineMaps`` are read from those arrays.  The schemes are the real
masked protocol, with the encoder that serves ``pid deliver``, the unmasked
split variant (a negative control: correct, and leaky whenever L < N) and
fault-injected copies.

``scheme_audit`` decides every case at once from the maps, exactly for
every q < 2^32 (``field.rref``).  With the inputs uniform, request d's
answers are uniform on the coset b_d + im A_d, each point hit
q^(K*L + N-L - rank A_d) times.  Correctness holds exactly when D_d*A_d
selects w_d and D_d*b_d = 0 for every d.  Privacy, that the answers carry
zero information about d, holds exactly when all requests share one
silence pattern and one coset.  The reports are the ones a count over every
case gives, and the tests count them case by case as the audit's oracle: a
failed correctness report names the first failing case in
``itertools.product`` order (message symbols, then mask symbols, each
input's requests d = 1..K innermost) and its 1-based index, and a leak's
witness is the smallest answer vector, server by server, symbols
ascending, silence last, whose count differs between request 1 and the
first request that differs.  All counting is exact integer arithmetic; no
entropies, no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from codedpid.codes import CodePair
from codedpid.field import mod_matmul, rref
from codedpid.protocol import PidConfig, _check_instance, _encoder

__all__ = [
    "SchemeUnderTest",
    "AffineMaps",
    "masked_scheme",
    "split_scheme",
    "case_count",
    "case_text",
    "power_text",
    "scheme_audit",
    "scheme_correctness",
    "scheme_privacy",
    "CorrectnessReport",
    "Counterexample",
    "PrivacyReport",
    "PrivacyMismatch",
    "verdict_line",
]


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
    """A delivery scheme: the affine maps that the audits read, and the
    same scheme as three stages, callables on batches of inputs that the
    audits never call (the tests evaluate them case by case).

    Each stage maps int64 arrays of B rows, one per input and on the last
    axis, to the same, exactly for every q < 2^32; q, outside F_q, marks
    "no symbol".

    * ``build_storage(w)``: message symbols, shape (K*L, B) with message k
      at (k-1)*L .. k*L-1 on the first axis, to the storage of each row, an
      array with its B rows last in whatever layout ``answers`` reads.
    * ``answers(storage, mask)``: storage and mask symbols, shape
      (mask_len, B), to every server's answer to every request, shape
      (K, N, B): entry [d-1, j, b] is server j+1's answer to request d, or q
      for a server that sends nothing.
    * ``decode(answers)``: answers of that shape to the decoded symbols,
      shape (K, L, B): entry [d-1, :, b] is what request d decodes to.

    Stages are called with positional arguments only, and row b of a
    stage's output depends on row b of its inputs alone.
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


def _affine_scheme(
    name: str, config: PidConfig, encoders, shares, sends, decoder, offset
) -> SchemeUnderTest:
    """The scheme of the module docstring's A_d, b_d and D_d: ``encoders``
    (K, L, L) stacks each E_d, I for raw symbols; ``shares`` is G,
    (mask_len, N); ``sends`` (K, N), ``decoder`` (K, L, N) and ``offset``
    (K, N).  Storage [k-1, j, b] is what server j+1 holds of message k, or
    q.
    """
    q, k, n, l = config.modulus, config.k_messages, config.n_servers, config.msg_len
    hosts = np.array(config.association) - 1
    # P_d: column i is a unit vector at the i-th server of d's sorted hosts
    placed = np.eye(n, dtype=np.int64)[hosts].transpose(0, 2, 1)
    placed = mod_matmul(placed, encoders, q)  # P_d*E_d
    # where message k's i-th host sits among the K*N storage cells, and the
    # corruption there
    cells = (np.arange(0, k * n, n)[:, None] + hosts).ravel()
    shift = offset.ravel()[cells, None]
    # silence read as 0: D_d is zero on the servers d silences
    decoder = decoder * sends[:, None, :]
    silent = ~sends

    def build_storage(w):
        w = mod_matmul(encoders, w.reshape(k, l, -1), q).reshape(k * l, -1)
        stored = np.full((k * n, w.shape[1]), q, dtype=np.int64)
        stored[cells] = (w + shift) % q
        return stored.reshape(k, n, -1)

    def answers(storage, mask):
        # A server holding nothing of message d has the marker q there, which
        # is 0 mod q: it sends its mask share alone.
        heard = (storage + mod_matmul(shares.T, mask, q)) % q
        heard[silent] = q
        return heard

    def decode(answers):
        return mod_matmul(decoder, answers, q)

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
    """``case_count`` written as q^E*K: it can run to more digits than
    ``str`` writes (257^2080*64 has 5012)."""
    return f"{scheme.modulus}^{_width(scheme)}*{scheme.k_messages}"


def power_text(count: int, q: int) -> str:
    """``count`` as q^e when it is a power of q with e >= 2, else in decimal:
    the counts of a rank certificate are powers of q or sums of them."""
    if count > 0:
        e = round(math.log(count, q))
        if e > 1 and q**e == count:
            return f"{q}^{e}"
    return str(count)


@dataclass(frozen=True)
class Counterexample:
    """A failing delivery case, the first in enumeration order."""

    messages: tuple[tuple[int, ...], ...]
    mask: tuple[int, ...]
    requested: int
    decoded: tuple[int, ...]
    expected: tuple[int, ...]


@dataclass(frozen=True)
class CorrectnessReport:
    """``cases`` is ``case_count`` when every case decodes, else the 1-based
    index of ``counterexample`` in enumeration order."""

    passed: bool
    cases: int
    counterexample: Counterexample | None


def _failed(scheme: SchemeUnderTest, x, d0: int, decoded) -> CorrectnessReport:
    """The failed report of request d0+1 on input ``x``, its message symbols
    then its mask, decoded to ``decoded``.  The inputs before x are its
    digits read in base q, and each has K cases."""
    q, k, l = scheme.modulus, scheme.k_messages, scheme.msg_len
    symbols = x.tolist()
    before = 0
    for s in symbols:
        before = before * q + s
    messages = tuple(tuple(symbols[i * l : (i + 1) * l]) for i in range(k))
    return CorrectnessReport(
        passed=False,
        cases=before * k + d0 + 1,
        counterexample=Counterexample(
            messages=messages,
            mask=tuple(symbols[k * l :]),
            requested=d0 + 1,
            decoded=tuple(decoded.tolist()),
            expected=messages[d0],
        ),
    )


@dataclass(frozen=True)
class PrivacyMismatch:
    """The smallest answer vector whose occurrence count depends on the
    request: ordered server by server, symbols ascending, silence after
    every symbol."""

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


# -- the rank certificate -----------------------------------------------------


def _rank_correctness(scheme: SchemeUnderTest) -> CorrectnessReport:
    """The first failing case in enumeration order: the zero input, for the
    first d with D_d*b_d != 0; else the unit input at the last coordinate
    where some D_d*A_d differs from selecting w_d, for the first such d.
    Every input before that one is supported on coordinates past it, where
    each D_d*A_d selects w_d."""
    q, k, l, maps = scheme.modulus, scheme.k_messages, scheme.msg_len, scheme.maps
    sends = maps.sends[..., None]
    through = mod_matmul(maps.decoder, maps.linear * sends, q)  # D_d*A_d
    shift = mod_matmul(maps.decoder, maps.offset[..., None] * sends, q)[..., 0]
    wrong = (through != np.eye(l, through.shape[2], dtype=np.int64)).any(axis=1)
    x = np.zeros(_width(scheme), dtype=np.int64)
    if shift.any():
        d0 = int(shift.any(axis=1).argmax())
        return _failed(scheme, x, d0, shift[d0])
    if not wrong.any():
        return CorrectnessReport(True, case_count(scheme), None)
    # request d's column c is input coordinate (d-1)*L + c, or K*L + c-L (mask)
    c = np.arange(through.shape[2])
    coordinate = np.where(c < l, np.arange(k)[:, None] * l + c, k * l + c - l)
    last = coordinate[wrong].max()
    x[last] = 1
    d0, c0 = np.argwhere(wrong & (coordinate == last))[0]
    return _failed(scheme, x, int(d0), through[d0, :, c0])


def _rank_privacy(scheme: SchemeUnderTest) -> PrivacyReport:
    """The census figures from the cosets b_d + im A_d, each in a form equal
    for equal cosets: the silence pattern, the reduced row echelon basis of
    the image, and b_d reduced against it.  Cosets with one pattern and one
    image are equal or disjoint, so the witness against the first request
    whose coset differs from request 1's is the smaller of the two cosets'
    smallest points: their reduced offsets, silence read as q.  A pattern
    with two images is refused, as the overlap of its cosets is not
    counted; no masked, split or corrupted scheme has one, since each
    request's image is the whole space of the servers that send."""
    q, k, n, width = scheme.modulus, scheme.k_messages, scheme.n_servers, _width(scheme)
    maps = scheme.maps
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
    )


def scheme_audit(
    scheme: SchemeUnderTest, *, correctness: bool = True, privacy: bool = True
) -> tuple[CorrectnessReport | None, PrivacyReport | None]:
    """Audit correctness and privacy of every case by rank, from
    ``scheme.maps`` alone.

    Returns the correctness and privacy reports, None for a property not
    audited.
    """
    return (
        _rank_correctness(scheme) if correctness else None,
        _rank_privacy(scheme) if privacy else None,
    )


def scheme_correctness(scheme: SchemeUnderTest) -> CorrectnessReport:
    """Whether every (messages, mask, request) case decodes; the first that
    does not."""
    return scheme_audit(scheme, privacy=False)[0]


def scheme_privacy(scheme: SchemeUnderTest) -> PrivacyReport:
    """Every request's answer census, compared across requests."""
    return scheme_audit(scheme, correctness=False)[1]


def verdict_line(property_name: str, instance: str, passed: bool, cases: int) -> str:
    """The one-line audit verdict format used by the CLI and the reports."""
    verdict = "pass" if passed else "fail"
    return (
        f"PROPERTY={property_name} INSTANCE={instance} "
        f"VERDICT={verdict} CASES={cases}"
    )
