"""The delivery protocol: storage encoding, masking, answers, decoding.

Entities and flow
-----------------
K messages of L symbols each live over a prime field.  Each message k is
associated with a set of L servers (its *host set*); each of the N servers
therefore hosts a share of K*L/N messages when the association is balanced.

* ``encode_storage`` gives server n, for each hosted message k, one symbol of
  the fragment vector  inverse(parity_check restricted to k's host set) @ w_k.
  One private encoder, ``_encoder``, stacks those inverses, one per distinct
  host set, and has two callers, each multiplying the stack itself mod q
  (``field.mod_matmul``: int64 when L*(q-1)^2 + q < 2^63, exact Python ints
  above): ``encode_storage``, and the auditor's ``verify.masked_scheme``,
  which builds the audited storage and the rank maps from it, so the audit
  certifies the encoder that serves.
  Storage depends on the code pair, the config and the messages only, so it
  is encoded once per (code pair, config, messages) and reused, round after
  round, until a message changes; then only the changed messages are
  encoded again, and only their host servers get new states.
* ``draw_randomness`` picks a uniform mask vector of length N-L and hands
  server n the scalar share  generator_column_n . mask: all N shares are one
  product  mask @ generator  mod q.  Every coded round draws its own, from
  the round's seed; no caller hands a round its shares.
* On a request for message d, servers in d's host set answer their stored
  fragment symbol plus their mask share; all other servers answer the mask
  share alone.  Every server sends exactly one symbol, so the transmission
  pattern is independent of d.
* ``decode_answers`` applies the parity check to the N answers: the mask
  shares cancel (generator rows are orthogonal to the parity check) and the
  fragment terms collapse back to w_d.

Delivery variants
-----------------
Each variant is laid out once, by a private function that checks the
request (an int in 1..K, by the one rule ``_check_request``), the messages
and the parameters and returns the server states, the randomness (None
when unmasked) and the decoder: ``_coded_layout``, ``_raw_slice_layout``
(every server stores a raw slice of every message, rate 1) and
``_subset_layout`` (M >= K/N: a coded or raw-slice layout on ceil(K/M)
servers, the rest silent; ``analysis.achievable_coded_rate`` shares its
checks).  With M = K/N and N dividing L, the subset layout is
the raw-slice layout on all N servers.  ``run_delivery`` and
``run_subset_scheme`` answer a layout locally; ``sim.simulate_round`` and
``simulate_subset_round`` answer the same layout over the wire.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import secrets
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from codedpid.codes import CodePair, build_vandermonde_pair
from codedpid.field import check_modulus, mod_matmul

__all__ = [
    "CANONICAL",
    "EXPLICIT",
    "PidConfig",
    "Message",
    "ServerState",
    "SharedRandomness",
    "DeliveryTranscript",
    "make_association",
    "random_messages",
    "encode_storage",
    "draw_randomness",
    "attach_shares",
    "server_answer",
    "answer_vector",
    "decode_answers",
    "run_delivery",
    "run_subset_scheme",
]

CANONICAL = "biregular-canonical"
EXPLICIT = "explicit"


def valid_msg_lens(k_messages: int, n_servers: int) -> tuple[int, ...]:
    """Message lengths L in 1..N for which a balanced association exists.

    Balanced means every server hosts the same number of message fragments,
    i.e. N divides K*L; these are exactly the multiples of N/gcd(K, N).
    """
    step = n_servers // math.gcd(k_messages, n_servers)
    return tuple(range(step, n_servers + 1, step))


@dataclass(frozen=True)
class PidConfig:
    """Instance parameters plus the message-to-server association.

    ``association[k-1]`` is the sorted tuple of 1-based server ids hosting
    message k; its length is the message length L.  ``mode`` records how the
    association was produced (canonical round-robin or explicit).
    """

    modulus: int
    k_messages: int
    n_servers: int
    msg_len: int
    association: tuple[tuple[int, ...], ...]
    mode: str = CANONICAL

    def __post_init__(self):
        q, k, n, l = self.modulus, self.k_messages, self.n_servers, self.msg_len
        check_modulus(q)
        if k < 1:
            raise ValueError(f"need at least one message, got K={k}")
        if not 1 <= l <= n:
            raise ValueError(
                f"message length L={l} must be between 1 and N={n}"
            )
        if self.mode not in (CANONICAL, EXPLICIT):
            raise ValueError(f"unknown association mode {self.mode!r}")
        if len(self.association) != k:
            raise ValueError(
                f"association has {len(self.association)} entries for K={k} messages"
            )
        _check_host_sets(self.association, l, n)

    # -- association views ----------------------------------------------------

    def servers_for(self, k: int) -> tuple[int, ...]:
        """Sorted 1-based host set of message k."""
        _check_request(k, self.k_messages)
        return self.association[k - 1]

    def server_load(self, server: int) -> int:
        self._check_server(server)
        return int(self.host_incidence[:, server - 1].sum())

    @functools.cached_property
    def is_balanced(self) -> bool:
        """Whether every server hosts as many fragments: worked out on first
        use and kept for the life of the config, as ``host_incidence`` is."""
        loads = self.host_incidence.sum(axis=0)
        return bool(loads.min() == loads.max())

    @property
    def storage_per_server(self) -> Fraction:
        """Storage per server in units of messages, for a balanced instance."""
        if not self.is_balanced:
            raise ValueError("storage per server is uniform only when balanced")
        return Fraction(self.k_messages, self.n_servers)

    @functools.cached_property
    def host_incidence(self) -> np.ndarray:
        """Read-only K x N int64 0/1 matrix: row k-1 marks the host set of
        message k.  Built on first use, not in ``__post_init__``, and kept
        for the life of the config."""
        incidence = np.zeros((self.k_messages, self.n_servers), dtype=np.int64)
        rows = np.repeat(np.arange(self.k_messages), self.msg_len)
        incidence[rows, np.array(self.association).ravel() - 1] = 1
        incidence.flags.writeable = False
        return incidence

    def _check_server(self, n: int) -> None:
        if not 1 <= n <= self.n_servers:
            raise ValueError(f"server id {n} outside 1..{self.n_servers}")


def make_association(
    q: int,
    k_messages: int,
    n_servers: int,
    msg_len: int,
    mode: str = CANONICAL,
    association=None,
) -> PidConfig:
    """Build a PidConfig, deriving the canonical association if none is given.

    The canonical association assigns message k the L consecutive servers
    starting at position (k-1)*L mod N (1-based, wrapping), which is balanced
    exactly when N divides K*L.
    """
    if mode == CANONICAL:
        if association is not None:
            raise ValueError("canonical mode derives the association itself")
        _check_positive(n_servers=n_servers)
        if (k_messages * msg_len) % n_servers != 0:
            raise ValueError(
                f"L={msg_len} does not balance K={k_messages} messages over "
                f"N={n_servers} servers; valid lengths are "
                f"{valid_msg_lens(k_messages, n_servers)}"
            )
        ring = np.arange(k_messages)[:, None] * msg_len + np.arange(msg_len)
        assoc = tuple(tuple(sorted(hosts)) for hosts in (ring % n_servers + 1).tolist())
    elif mode == EXPLICIT:
        if association is None:
            raise ValueError("explicit mode needs an association")
        assoc = tuple(tuple(sorted(hosts)) for hosts in association)
    else:
        raise ValueError(f"unknown association mode {mode!r}")
    return PidConfig(
        modulus=q,
        k_messages=k_messages,
        n_servers=n_servers,
        msg_len=msg_len,
        association=assoc,
        mode=mode,
    )


@dataclass(frozen=True)
class Message:
    """One message: a 1-based index and its L field symbols."""

    index: int
    symbols: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if not _all_ints((self.index,)):
            raise TypeError(f"message index {self.index!r} is not an int")
        if self.index < 1:
            raise ValueError(f"message index {self.index} must be positive")
        symbols = self.symbols
        if not _all_ints(symbols):
            raise TypeError(
                f"message {self.index} has symbols that are not ints: {symbols}"
            )
        if symbols and not 0 <= min(symbols) <= max(symbols) < self.modulus:
            raise ValueError(
                f"message {self.index} has symbols outside 0..{self.modulus - 1}"
            )


def random_messages(config: PidConfig, seed: int | None = None) -> tuple[Message, ...]:
    """K uniform messages; seeded for reproducibility, OS entropy if seed is None."""
    q, k, l = config.modulus, config.k_messages, config.msg_len
    if seed is None:
        draw = lambda: secrets.randbelow(q)  # noqa: E731
        values = [[draw() for _ in range(l)] for _ in range(k)]
    else:
        rng = np.random.default_rng(seed)
        values = rng.integers(0, q, size=(k, l)).tolist()
    return tuple(
        Message(index=i + 1, symbols=tuple(row), modulus=q)
        for i, row in enumerate(values)
    )


@dataclass(frozen=True)
class ServerState:
    """What one server holds: coded fragments per message, plus a mask share.

    ``fragments`` maps message id -> tuple of stored symbols (a 1-tuple in the
    coded scheme; possibly longer in the raw-slice variants).  ``share`` is
    None until the shared randomness is attached.
    """

    server_id: int
    fragments: tuple[tuple[int, tuple[int, ...]], ...]
    share: int | None
    modulus: int

    def __post_init__(self):
        ids = [k for k, _ in self.fragments]
        if ids != sorted(ids) or len(ids) != len(set(ids)):
            raise ValueError(
                f"server {self.server_id} fragment list must be sorted and unique"
            )
        object.__setattr__(self, "_by_message", dict(self.fragments))

    def symbols_for(self, k: int) -> tuple[int, ...]:
        """Stored symbols for message k; empty tuple when not hosted."""
        return self._by_message.get(k, ())  # type: ignore[attr-defined]

    @property
    def stored_symbol_count(self) -> int:
        return sum(len(syms) for _, syms in self.fragments)


@dataclass(frozen=True)
class SharedRandomness:
    """The dealer's mask vector and the per-server scalar shares derived from it."""

    mask_vector: tuple[int, ...]
    shares: tuple[int, ...]
    modulus: int


def encode_storage(
    config: PidConfig, code: CodePair, messages
) -> tuple[ServerState, ...]:
    """Encode all messages into per-server fragment tables (no shares yet).

    Message k becomes the fragment vector
    ``inverse(parity_check[:, hosts_of_k]) @ w_k``; its i-th entry is stored
    at the i-th server of k's sorted host set.  The messages encoded go
    through ``_encoder`` together: one inverse per distinct host set and one
    product mod q, in int64 when L*(q-1)^2 + q < 2^63 and in exact Python
    ints otherwise.

    The result is memoised in one slot per code pair: a call with a config
    and a messages tuple equal (by value) to the last ones encoded on
    ``code`` returns the same storage tuple without encoding again.  A call
    with that same config and other messages encodes only the messages that
    differ from the memo's, and builds new states only for the servers that
    host one of them: every other server's state is the memo's own object.
    """
    _check_instance(config, code)
    messages = tuple(messages)
    slot = code._storage_memo
    memo = slot[0]
    if memo is not None and memo[0] == config and memo[1] == messages:
        return memo[2]
    _check_messages(messages, config.k_messages, config.modulus, config.msg_len)
    if memo is not None and memo[0] == config:
        base = memo[2]
        todo = [
            msg for msg, old in zip(messages, memo[1]) if msg is not old and msg != old
        ]
    else:
        base = (None,) * config.n_servers
        todo = messages
    ids = [msg.index for msg in todo]
    coded = mod_matmul(
        _encoder(config, code, ids),
        np.array([msg.symbols for msg in todo], dtype=np.int64)[..., None],
        config.modulus,
    )[..., 0].tolist()
    fragments: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for k, row in zip(ids, coded):
        for server, symbol in zip(config.association[k - 1], row):
            fragments.setdefault(server, []).append((k, (symbol,)))
    storage = tuple(
        state
        if state is not None and n not in fragments
        else _with_fragments(config, n, state, fragments.get(n, ()))
        for n, state in enumerate(base, start=1)
    )
    slot[0] = (config, messages, storage)
    return storage


def _encoder(config: PidConfig, code: CodePair, ids) -> np.ndarray:
    """The coded storage of messages ``ids`` as one stacked array, shape
    (len(ids), L, L): entry j is ``inverse(parity_check[:, hosts])`` for
    message ids[j]'s sorted host set, whose row i times the message's
    symbols is what the i-th host stores.  The inverses come from the code
    pair's minor-inverse cache, the missing ones in one stacked call.
    """
    cols = [tuple(s - 1 for s in config.association[k - 1]) for k in ids]
    return np.array(code._minor_inverses(cols), dtype=np.int64).reshape(
        len(cols), config.msg_len, config.msg_len
    )


def _with_fragments(
    config: PidConfig, server_id: int, state: ServerState | None, entries
) -> ServerState:
    """A new state of ``server_id`` holding ``entries`` (message id, symbols)
    in place of the same messages' fragments of ``state``, or alone when
    ``state`` is None (a full encode builds no empty states to merge into)."""
    if state is not None:
        entries = (state._by_message | dict(entries)).items()  # type: ignore[attr-defined]
    return ServerState(
        server_id=server_id,
        fragments=tuple(sorted(entries)),
        share=None,
        modulus=config.modulus,
    )


def draw_randomness(
    code: CodePair, seed: int | None = None, mask=None
) -> SharedRandomness:
    """Draw the mask vector (length N-L) and derive one scalar share per server.

    ``seed`` gives a reproducible numpy stream; None uses OS entropy.  Pass
    ``mask`` explicitly to fix the vector (tests, replay): ints, reduced mod
    q; a float or a bool is refused as ``Message`` refuses it.  The shares are
    ``mask @ generator`` mod q, all zero when the mask is empty (L = N).
    """
    q = code.modulus
    r = code.mask_len
    if mask is not None:
        mask = tuple(mask)
        if not _all_ints(mask):
            raise TypeError(f"mask has entries that are not ints: {mask}")
        mask = tuple(u % q for u in mask)
        if len(mask) != r:
            raise ValueError(f"mask must have {r} entries, got {len(mask)}")
        vector = np.array(mask, dtype=np.int64)
    elif seed is None:
        mask = tuple(secrets.randbelow(q) for _ in range(r))
        vector = np.array(mask, dtype=np.int64)
    else:
        vector = np.random.default_rng(seed).integers(0, q, size=r)
        mask = tuple(vector.tolist())
    shares = tuple(mod_matmul(vector, code.generator.array, q).tolist())
    return SharedRandomness(mask_vector=mask, shares=shares, modulus=q)


def attach_shares(storage, randomness: SharedRandomness) -> tuple[ServerState, ...]:
    """Return new server states with the randomness shares filled in."""
    storage = tuple(storage)
    if len(randomness.shares) != len(storage):
        raise ValueError(
            f"{len(randomness.shares)} shares for {len(storage)} servers"
        )
    return tuple(
        ServerState(
            server_id=st.server_id,
            fragments=st.fragments,
            share=int(share),
            modulus=st.modulus,
        )
        for st, share in zip(storage, randomness.shares)
    )


def server_answer(state: ServerState, d: int) -> tuple[int, ...]:
    """One server's local answer to a request for message d (see ``_answer``)."""
    return _answer(state.symbols_for(d), state.share, state.modulus)


def _answer(symbols: tuple[int, ...], share: int | None, q: int) -> tuple[int, ...]:
    """The answer rule, also ``sim.ServerActor``'s: a server storing
    ``symbols`` of the request (none if not a host) sends fragment + share
    per symbol, or its bare share; with no share, raw fragments or silence."""
    if share is None:
        return symbols
    if len(symbols) == 1:  # the coded scheme's fragment
        return ((symbols[0] + share) % q,)
    if symbols:
        return tuple([(s + share) % q for s in symbols])
    return (share,)


def answer_vector(storage, d: int) -> tuple[tuple[int, ...], ...]:
    """All servers' answers, in server-id order."""
    return tuple(server_answer(st, d) for st in storage)


def decode_answers(code: CodePair, answers) -> tuple[int, ...]:
    """Recover the requested message from one symbol per server.

    The decoding map is the parity check and does not depend on d: masks
    cancel because generator rows are orthogonal to it, and what remains is
    exactly the requested message's symbol vector.
    """
    flat: list[int] = []
    for a in answers:
        if len(a) != 1:
            raise ValueError(f"expected one symbol per server, got {len(a)}")
        flat.append(a[0])
    return code.decode_vector(flat)


@dataclass(frozen=True)
class DeliveryTranscript:
    """Everything observable about one delivery round."""

    requested: int
    answers: tuple[tuple[int, ...], ...]
    decoded: tuple[int, ...]
    modulus: int
    msg_len: int
    seed: int | None = None
    mask_vector: tuple[int, ...] | None = None

    @property
    def transmission_counts(self) -> tuple[int, ...]:
        """Symbols sent per server (the download pattern)."""
        return tuple(len(a) for a in self.answers)

    @property
    def total_symbols(self) -> int:
        return sum(self.transmission_counts)

    @property
    def rate(self) -> Fraction:
        """Delivered symbols over downloaded symbols, exact."""
        return Fraction(self.msg_len, self.total_symbols)


# -- delivery layouts ----------------------------------------------------------


class _Layout(NamedTuple):
    """One variant laid out for one request: a state per server, in
    server-id order; the randomness whose shares go to the leading servers,
    one each (None when unmasked); the decoder from the answers, in
    server-id order, to the delivered symbols; and the transcript that the
    answers and the decoded symbols complete."""

    requested: int
    storage: tuple[ServerState, ...]
    randomness: SharedRandomness | None
    decode: Callable
    modulus: int
    transcript: Callable[..., DeliveryTranscript]


def _coded_layout(
    config: PidConfig,
    code: CodePair,
    messages,
    d: int,
    seed: int | None = None,
    encode=encode_storage,
    draw=draw_randomness,
) -> _Layout:
    """The coded scheme on all N servers, masked by a fresh draw of
    ``draw(code, seed)``: N shares, each in F_q, that the decoder cancels.
    The wire round passes as ``encode`` and ``draw`` the names it looks up
    in its own module."""
    _check_request(d, config.k_messages)
    storage = encode(config, code, messages)
    randomness = draw(code, seed)
    transcript = functools.partial(
        DeliveryTranscript,
        requested=d,
        modulus=config.modulus,
        msg_len=config.msg_len,
        seed=seed,
        mask_vector=randomness.mask_vector,
    )
    decode = lambda answers: code.decode_vector([a[0] for a in answers])  # noqa: E731
    return _Layout(d, storage, randomness, decode, config.modulus, transcript)


def _raw_slice_layout(messages, n_servers: int, d: int, msg_len: int) -> _Layout:
    """Raw slices, unmasked: server n stores the n-th of N equal slices of
    every message.  Messages 1..K in order, K > 0, all with message 1's
    modulus (a prime below 2^32, as every layout's) and length ``msg_len``,
    which N must divide (``_subset_active`` checks both counts)."""
    q = messages[0].modulus
    check_modulus(q)
    _check_messages(messages, len(messages), q, msg_len)
    _check_request(d, len(messages))
    part = msg_len // n_servers
    storage = tuple(
        ServerState(
            server_id=n + 1,
            fragments=tuple(
                (msg.index, tuple(msg.symbols[n * part : (n + 1) * part]))
                for msg in messages
            ),
            share=None,
            modulus=q,
        )
        for n in range(n_servers)
    )
    decode = lambda answers: tuple(s for a in answers for s in a)  # noqa: E731
    transcript = functools.partial(
        DeliveryTranscript, requested=d, modulus=q, msg_len=msg_len
    )
    return _Layout(d, storage, None, decode, q, transcript)


@functools.lru_cache(maxsize=8)
def _subset_inner(
    q: int, k_messages: int, active: int, msg_len: int
) -> tuple[PidConfig, CodePair]:
    """The canonical config and code pair on the ``active`` servers of a
    coded subset round, kept per (q, K, active, L) for the last few shapes
    served, so that successive rounds also reuse their encoded storage."""
    return (
        make_association(q, k_messages, active, msg_len),
        build_vandermonde_pair(q, active, msg_len),
    )


def _active_count(k_messages: int, storage_limit) -> int:
    """ceil(K/M): how many servers hold K messages at M > 0 messages each."""
    m = Fraction(storage_limit)
    if m <= 0:
        raise ValueError(f"storage limit must be positive, got {m}")
    return math.ceil(Fraction(k_messages) / m)


def _subset_active(k_messages: int, n_servers: int, storage_limit, msg_len: int) -> int:
    """The active count ceil(K/M) of a subset round, once K, N, L > 0, M holds
    the K messages on the N servers (K/N <= M, hence ceil(K/M) <= N) and L
    balances over the active servers: they divide K*L when L is below their
    count (coded branch) and L otherwise (raw-slice branch)."""
    _check_positive(k_messages=k_messages, n_servers=n_servers, msg_len=msg_len)
    active = _active_count(k_messages, storage_limit)
    m = Fraction(storage_limit)
    if Fraction(k_messages, n_servers) > m:
        raise ValueError(
            f"storage limit {m} cannot hold K={k_messages} messages on "
            f"N={n_servers} servers (needs at least {Fraction(k_messages, n_servers)})"
        )
    if msg_len < active and (k_messages * msg_len) % active != 0:
        raise ValueError(
            f"L={msg_len} does not balance K={k_messages} messages over "
            f"{active} active servers"
        )
    if msg_len >= active and msg_len % active != 0:
        raise ValueError(f"L={msg_len} is not divisible by the {active} active servers")
    return active


def _subset_layout(
    k_messages: int, n_servers: int, storage_limit, msg_len: int, messages, d: int, seed
) -> _Layout:
    """A coded (L below ceil(K/M)) or raw-slice layout on the first ceil(K/M)
    servers, then silent servers that hold and send nothing."""
    active = _subset_active(k_messages, n_servers, storage_limit, msg_len)
    messages = tuple(messages)
    if len(messages) != k_messages:
        raise ValueError(f"expected {k_messages} messages, got {len(messages)}")
    q = messages[0].modulus
    if msg_len < active:
        inner_config, inner_code = _subset_inner(q, k_messages, active, msg_len)
        inner = _coded_layout(inner_config, inner_code, messages, d, seed)
    else:
        inner = _raw_slice_layout(messages, active, d, msg_len)
    silent = tuple(
        ServerState(server_id=n, fragments=(), share=None, modulus=q)
        for n in range(active + 1, n_servers + 1)
    )
    return inner._replace(
        storage=inner.storage + silent,
        decode=lambda answers: inner.decode(answers[:active]),
    )


def _answer_locally(layout: _Layout) -> DeliveryTranscript:
    """Answer a layout in process: shares attached, every server answers."""
    storage, randomness = layout.storage, layout.randomness
    if randomness is not None:
        shared = len(randomness.shares)
        storage = attach_shares(storage[:shared], randomness) + storage[shared:]
    answers = answer_vector(storage, layout.requested)
    return layout.transcript(answers=answers, decoded=layout.decode(answers))


def run_delivery(
    config: PidConfig,
    code: CodePair,
    messages,
    d: int,
    seed: int | None = None,
) -> DeliveryTranscript:
    """One full coded delivery round: encode, mask with a fresh draw from
    ``seed`` (OS entropy when None), answer, decode."""
    return _answer_locally(_coded_layout(config, code, messages, d, seed))


def run_subset_scheme(
    k_messages: int,
    n_servers: int,
    storage_limit: Fraction | int,
    msg_len: int,
    messages,
    d: int,
    seed: int | None = None,
) -> DeliveryTranscript:
    """Delivery when servers can store M >= K/N messages: use fewer servers.

    Only the first ceil(K/M) servers participate; the rest stay silent (their
    silence is d-independent, so privacy is preserved).  With L below the
    active count the coded scheme runs on the active servers at rate
    L/ceil(K/M); once L reaches the active count, raw slices achieve rate 1.
    At M = K/N with N dividing L, every server stores a raw slice of every
    message and answers every request with as many raw symbols, distributed
    alike for every d when the messages are uniform; only raw-slice layouts
    with L < N, where d's host set alone transmits, leak d (see
    ``verify.split_scheme``).
    """
    return _answer_locally(
        _subset_layout(k_messages, n_servers, storage_limit, msg_len, messages, d, seed)
    )


# -- shared validation helpers ----------------------------------------------


def _check_positive(**named: int) -> None:
    for name, value in named.items():
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


def _check_request(d: int, k_messages: int) -> None:
    """Refuse a message id that is not an int (a bool is not one) in 1..K."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"message id must be an int, got {d!r}")
    if not 1 <= d <= k_messages:
        raise ValueError(f"message id {d} outside 1..{k_messages}")


def _all_ints(values) -> bool:
    """Whether every value is an int and none is a bool, ``_check_request``'s
    rule, read off the set of their types in one pass."""
    types = set(map(type, values))
    return all(issubclass(t, int) and not issubclass(t, bool) for t in types)


def _check_host_sets(rows, l: int, n: int) -> None:
    """Refuse host sets, naming the first message whose set is not L long,
    holds a server id that is not an int (``TypeError``), a repeat, an id
    outside 1..N or is unsorted, checked in that order.  All pass when, on
    the ids laid end to end, every id inside a set is below the next and the
    least and greatest lie in 1..N: each a pass in C, with no per-id step in
    Python; the sets are walked one by one only to name a refusal."""
    flat = list(itertools.chain.from_iterable(rows))
    if set(map(len, rows)) == {l} and _all_ints(flat):
        rising = list(map(operator.lt, flat, flat[1:]))
        del rising[l - 1 :: l]  # the pairs that straddle two sets
        if all(rising) and 1 <= min(flat) and max(flat) <= n:
            return
    for idx, hosts in enumerate(rows):
        at = f"message {idx + 1}"
        if len(hosts) != l:
            raise ValueError(f"{at} is hosted by {len(hosts)} servers, expected L={l}")
        if not _all_ints(hosts):
            raise TypeError(f"{at} names a server id that is not an int: {hosts}")
        if len(set(hosts)) != l:
            raise ValueError(f"{at} lists a server twice: {hosts}")
        if not 1 <= min(hosts) <= max(hosts) <= n:
            raise ValueError(f"{at} names a server outside 1..{n}: {hosts}")
        if list(hosts) != sorted(hosts):
            raise ValueError(f"host set for {at} must be sorted: {hosts}")


def _check_instance(config: PidConfig, code: CodePair) -> None:
    if config.modulus != code.modulus:
        raise ValueError(
            f"config modulus {config.modulus} != code modulus {code.modulus}"
        )
    if config.n_servers != code.n_servers:
        raise ValueError(
            f"config has {config.n_servers} servers, code has {code.n_servers}"
        )
    if config.msg_len != code.msg_len:
        raise ValueError(
            f"config message length {config.msg_len} != code {code.msg_len}"
        )


def _check_messages(
    messages: tuple[Message, ...], k_messages: int, modulus: int, msg_len: int
) -> None:
    """Refuse all but K messages numbered 1..K in order, each of
    ``msg_len`` symbols mod ``modulus``."""
    if len(messages) != k_messages:
        raise ValueError(f"expected {k_messages} messages, got {len(messages)}")
    for i, msg in enumerate(messages, start=1):
        if msg.index != i:
            raise ValueError(f"message at position {i} has index {msg.index}")
        if msg.modulus != modulus:
            raise ValueError(f"message {i} modulus {msg.modulus} != {modulus}")
        if len(msg.symbols) != msg_len:
            raise ValueError(
                f"message {i} has {len(msg.symbols)} symbols, expected {msg_len}"
            )
