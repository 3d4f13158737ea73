"""The delivery protocol: storage encoding, masking, answers, decoding.

Entities and flow
-----------------
K messages of L symbols each live over a prime field.  Each message k is
associated with a set of L servers (its *host set*); each of the N servers
therefore hosts a share of K*L/N messages when the association is balanced.

* ``encode_storage`` gives server n, for each hosted message k, one symbol of
  the fragment vector  inverse(parity_check restricted to k's host set) @ w_k.
  Messages with the same host set share that inverse, so encoding is one
  matrix product mod q per host set, not one per message: int64 when
  L*(q-1)^2 + q < 2^63, exact Python ints above (``field.mod_matmul``).
  Storage depends on the code pair, the config and the messages only, so it
  is encoded once per (code pair, config, messages) and reused, round after
  round, until a message changes.
* ``draw_randomness`` picks a uniform mask vector of length N-L and hands
  server n the scalar share  generator_column_n . mask: all N shares are one
  product  mask @ generator  mod q.
* On a request for message d, servers in d's host set answer their stored
  fragment symbol plus their mask share; all other servers answer the mask
  share alone.  Every server sends exactly one symbol, so the transmission
  pattern is independent of d.
* ``decode_answers`` applies the parity check to the N answers: the mask
  shares cancel (generator rows are orthogonal to the parity check) and the
  fragment terms collapse back to w_d.

``run_delivery`` drives one full round and returns a transcript.  Two
reference variants are included: ``run_fully_distributed`` (every server
stores a raw slice of every message, rate 1) and ``run_subset_scheme``
(only ceil(K/M) servers participate; the rest stay silent).
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from codedpid.codes import CodePair, build_vandermonde_pair
from codedpid.field import is_prime, mod_matmul

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
    "split_storage",
    "draw_randomness",
    "attach_shares",
    "server_answer",
    "answer_vector",
    "decode_answers",
    "run_delivery",
    "run_fully_distributed",
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
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
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
        for idx, hosts in enumerate(self.association, start=1):
            if len(hosts) != l:
                raise ValueError(
                    f"message {idx} is hosted by {len(hosts)} servers, expected L={l}"
                )
            if len(set(hosts)) != l:
                raise ValueError(f"message {idx} lists a server twice: {hosts}")
            if any(not 1 <= s <= n for s in hosts):
                raise ValueError(
                    f"message {idx} names a server outside 1..{n}: {hosts}"
                )
            if tuple(sorted(hosts)) != tuple(hosts):
                raise ValueError(
                    f"host set for message {idx} must be sorted: {hosts}"
                )
        hosted: list[list[int]] = [[] for _ in range(n)]
        for idx, hosts in enumerate(self.association, start=1):
            for s in hosts:
                hosted[s - 1].append(idx)
        object.__setattr__(
            self, "_hosted", tuple(tuple(m) for m in hosted)
        )
        loads = tuple(len(m) for m in hosted)
        object.__setattr__(self, "_loads", loads)

    # -- association views ----------------------------------------------------

    def servers_for(self, k: int) -> tuple[int, ...]:
        """Sorted 1-based host set of message k."""
        self._check_message(k)
        return self.association[k - 1]

    def server_at(self, k: int, pos: int) -> int:
        """The server holding fragment symbol ``pos`` (1-based) of message k."""
        hosts = self.servers_for(k)
        if not 1 <= pos <= len(hosts):
            raise ValueError(f"fragment position {pos} outside 1..{len(hosts)}")
        return hosts[pos - 1]

    def position_of(self, k: int, server: int) -> int:
        """Which fragment symbol (1-based) of message k server ``server`` holds."""
        hosts = self.servers_for(k)
        try:
            return hosts.index(server) + 1
        except ValueError:
            raise ValueError(
                f"server {server} does not host message {k} (hosts: {hosts})"
            ) from None

    def messages_for(self, server: int) -> tuple[int, ...]:
        """Sorted message ids hosted by a server (1-based)."""
        self._check_server(server)
        return self._hosted[server - 1]  # type: ignore[attr-defined]

    def server_load(self, server: int) -> int:
        self._check_server(server)
        return self._loads[server - 1]  # type: ignore[attr-defined]

    @property
    def is_balanced(self) -> bool:
        loads = self._loads  # type: ignore[attr-defined]
        return min(loads) == max(loads)

    @property
    def storage_per_server(self) -> Fraction:
        """Storage per server in units of messages, for a balanced instance."""
        if not self.is_balanced:
            raise ValueError("storage per server is uniform only when balanced")
        return Fraction(self.k_messages, self.n_servers)

    def _check_message(self, k: int) -> None:
        if not 1 <= k <= self.k_messages:
            raise ValueError(f"message id {k} outside 1..{self.k_messages}")

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
        if (k_messages * msg_len) % n_servers != 0:
            raise ValueError(
                f"L={msg_len} does not balance K={k_messages} messages over "
                f"N={n_servers} servers; valid lengths are "
                f"{valid_msg_lens(k_messages, n_servers)}"
            )
        assoc = tuple(
            tuple(
                sorted(((k * msg_len + i) % n_servers) + 1 for i in range(msg_len))
            )
            for k in range(k_messages)
        )
    elif mode == EXPLICIT:
        if association is None:
            raise ValueError("explicit mode needs an association")
        assoc = tuple(tuple(sorted(int(s) for s in hosts)) for hosts in association)
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
        if self.index < 1:
            raise ValueError(f"message index {self.index} must be positive")
        if any(not 0 <= s < self.modulus for s in self.symbols):
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
        Message(index=i + 1, symbols=tuple(int(v) for v in row), modulus=q)
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
    def hosted_messages(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.fragments)

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
    at the i-th server of k's sorted host set.  The messages of one host set
    are encoded together, as ``inverse @ [w_k ...]`` mod q: one inverse and
    one product per host set.  The product runs in int64 when
    L*(q-1)^2 + q < 2^63 and in exact Python ints otherwise.

    The result is memoised in one slot per code pair: a call with a config
    and a messages tuple equal (by value) to the last ones encoded on
    ``code`` returns the same storage tuple without encoding again.
    """
    _check_instance(config, code)
    messages = tuple(messages)
    slot = code._storage_memo
    memo = slot[0]
    if memo is not None and memo[0] == config and memo[1] == messages:
        return memo[2]
    messages = _check_messages(config, messages)
    q = config.modulus
    groups: dict[tuple[int, ...], list[Message]] = {}
    for msg in messages:
        groups.setdefault(config.servers_for(msg.index), []).append(msg)
    per_server: list[list[tuple[int, tuple[int, ...]]]] = [
        [] for _ in range(config.n_servers)
    ]
    for hosts, group in groups.items():
        inv = np.array(code.h_sub_inverse(tuple(s - 1 for s in hosts)), dtype=np.int64)
        words = np.array([msg.symbols for msg in group], dtype=np.int64)
        # Row i holds the group's fragment symbols for server hosts[i].
        coded = mod_matmul(inv, words.T, q).tolist()
        ids = [msg.index for msg in group]
        for server, row in zip(hosts, coded):
            per_server[server - 1].extend(zip(ids, zip(row)))
    storage = tuple(
        ServerState(
            server_id=n + 1,
            fragments=tuple(sorted(per_server[n])),
            share=None,
            modulus=q,
        )
        for n in range(config.n_servers)
    )
    slot[0] = (config, messages, storage)
    return storage


def split_storage(config: PidConfig, messages) -> tuple[ServerState, ...]:
    """Uncoded variant: each host stores a raw consecutive slice of the message.

    Message k's L symbols are dealt one each, in order, to k's sorted host
    set.  Storage cost matches the coded scheme; there is no masking, so this
    variant trades privacy away (useful as a negative control).
    """
    messages = _check_messages(config, messages)
    q = config.modulus
    per_server: list[list[tuple[int, tuple[int, ...]]]] = [
        [] for _ in range(config.n_servers)
    ]
    for msg in messages:
        for i, server in enumerate(config.servers_for(msg.index)):
            per_server[server - 1].append((msg.index, (msg.symbols[i],)))
    return tuple(
        ServerState(
            server_id=n + 1,
            fragments=tuple(sorted(per_server[n])),
            share=None,
            modulus=q,
        )
        for n in range(config.n_servers)
    )


def draw_randomness(
    code: CodePair, seed: int | None = None, mask=None
) -> SharedRandomness:
    """Draw the mask vector (length N-L) and derive one scalar share per server.

    ``seed`` gives a reproducible numpy stream; None uses OS entropy.  Pass
    ``mask`` explicitly to fix the vector (tests, replay).  The shares are
    ``mask @ generator`` mod q, all zero when the mask is empty (L = N).
    """
    q = code.modulus
    r = code.mask_len
    if mask is not None:
        mask = tuple(int(u) % q for u in mask)
        if len(mask) != r:
            raise ValueError(f"mask must have {r} entries, got {len(mask)}")
    elif seed is None:
        mask = tuple(secrets.randbelow(q) for _ in range(r))
    else:
        rng = np.random.default_rng(seed)
        mask = tuple(int(x) for x in rng.integers(0, q, size=r))
    vector = np.array(mask, dtype=np.int64)
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
    """One server's local answer to a request for message d.

    If the server hosts a fragment of d it sends fragment + share per symbol;
    otherwise it sends its bare share.  With no share attached it sends raw
    fragments (or stays silent) - that is the unmasked variant's behaviour.
    """
    symbols = state.symbols_for(d)
    if state.share is None:
        return symbols
    q = state.modulus
    if symbols:
        return tuple((s + state.share) % q for s in symbols)
    return (state.share,)


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
        if isinstance(a, int):
            flat.append(a)
        else:
            if len(a) != 1:
                raise ValueError(
                    f"expected one symbol per server, got {len(a)}"
                )
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


def run_delivery(
    config: PidConfig,
    code: CodePair,
    messages,
    d: int,
    seed: int | None = None,
    randomness: SharedRandomness | None = None,
) -> DeliveryTranscript:
    """One full coded delivery round: encode, mask, answer, decode."""
    config._check_message(d)
    storage = encode_storage(config, code, messages)
    if randomness is None:
        randomness = draw_randomness(code, seed)
    masked = attach_shares(storage, randomness)
    answers = answer_vector(masked, d)
    decoded = decode_answers(code, answers)
    return DeliveryTranscript(
        requested=d,
        answers=answers,
        decoded=decoded,
        modulus=config.modulus,
        msg_len=config.msg_len,
        seed=seed,
        mask_vector=randomness.mask_vector,
    )


def run_fully_distributed(messages, n_servers: int, d: int) -> DeliveryTranscript:
    """Reference point: every server stores a raw slice of every message.

    Requires N to divide L.  The requested message is downloaded slice by
    slice, nothing else is sent, so the rate is exactly 1 - but every server
    learns d from the request itself; this variant documents the bandwidth
    optimum, not a private protocol.
    """
    messages = tuple(messages)
    if not messages:
        raise ValueError("need at least one message")
    q = messages[0].modulus
    l = len(messages[0].symbols)
    if l % n_servers != 0:
        raise ValueError(
            f"message length {l} is not divisible by {n_servers} servers"
        )
    if not 1 <= d <= len(messages):
        raise ValueError(f"message id {d} outside 1..{len(messages)}")
    part = l // n_servers
    answers = tuple(
        tuple(messages[d - 1].symbols[n * part : (n + 1) * part])
        for n in range(n_servers)
    )
    decoded = tuple(s for a in answers for s in a)
    return DeliveryTranscript(
        requested=d,
        answers=answers,
        decoded=decoded,
        modulus=q,
        msg_len=l,
    )


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
    """
    m = Fraction(storage_limit)
    if m <= 0:
        raise ValueError(f"storage limit must be positive, got {m}")
    if Fraction(k_messages, n_servers) > m:
        raise ValueError(
            f"storage limit {m} cannot hold K={k_messages} messages on "
            f"N={n_servers} servers (needs at least {Fraction(k_messages, n_servers)})"
        )
    active = math.ceil(Fraction(k_messages) / m)
    if active > n_servers:
        raise ValueError(
            f"need {active} active servers but only {n_servers} exist"
        )
    messages = tuple(messages)
    if len(messages) != k_messages:
        raise ValueError(f"expected {k_messages} messages, got {len(messages)}")
    q = messages[0].modulus
    silent = n_servers - active

    if msg_len < active:
        if (k_messages * msg_len) % active != 0:
            raise ValueError(
                f"L={msg_len} does not balance K={k_messages} messages over "
                f"{active} active servers"
            )
        inner_config = make_association(q, k_messages, active, msg_len)
        inner_code = build_vandermonde_pair(q, active, msg_len)
        inner = run_delivery(inner_config, inner_code, messages, d, seed=seed)
        answers = inner.answers + ((),) * silent
        return DeliveryTranscript(
            requested=d,
            answers=answers,
            decoded=inner.decoded,
            modulus=q,
            msg_len=msg_len,
            seed=seed,
            mask_vector=inner.mask_vector,
        )

    if msg_len % active != 0:
        raise ValueError(
            f"L={msg_len} is not divisible by the {active} active servers"
        )
    inner = run_fully_distributed(messages, active, d)
    answers = inner.answers + ((),) * silent
    return DeliveryTranscript(
        requested=d,
        answers=answers,
        decoded=inner.decoded,
        modulus=q,
        msg_len=msg_len,
    )


# -- shared validation helpers ----------------------------------------------


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


def _check_messages(config: PidConfig, messages) -> tuple[Message, ...]:
    messages = tuple(messages)
    if len(messages) != config.k_messages:
        raise ValueError(
            f"expected {config.k_messages} messages, got {len(messages)}"
        )
    for i, msg in enumerate(messages, start=1):
        if msg.index != i:
            raise ValueError(f"message at position {i} has index {msg.index}")
        if msg.modulus != config.modulus:
            raise ValueError(
                f"message {i} modulus {msg.modulus} != config {config.modulus}"
            )
        if len(msg.symbols) != config.msg_len:
            raise ValueError(
                f"message {i} has {len(msg.symbols)} symbols, expected {config.msg_len}"
            )
    return messages
