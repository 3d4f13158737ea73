"""In-process actor simulation of delivery rounds, with a binary wire format.

Frames on the wire are::

    1 byte  kind
    2 bytes sender id, little-endian
    4 bytes payload length in bytes, little-endian
    payload: a sequence of 4-byte little-endian field symbols

Kinds: 1 SETUP_STORAGE (coordinator -> server: [entry count, then per entry
message id, symbol count, symbols...]), 2 SETUP_SHARE (coordinator -> server:
[share]), 3 DELIVER_CMD (user -> server: [d]), 4 ANSWER (server -> user: the
answer symbols, possibly none), 5 DECODE_RESULT (user -> coordinator: the L
decoded symbols).  Actor ids: coordinator 0, servers 1..N, user N+1.

A round always runs in fixed phases - storage setup, share setup, deliver
commands, answers in server-id order, decode result - so the frame log of a
round is a deterministic byte string: replays are byte-identical.  Storage
is encoded once per instance and messages (see ``protocol.encode_storage``),
so successive rounds on one instance re-send the same SETUP_STORAGE frames,
built once; only the shares, the command and the answers change.  Logs
serialize to files with an 8-byte magic header.

The router forwards every frame and enforces the topology: servers never
talk to each other.  Actors validate every frame they receive and raise
``ProtocolViolation`` on anything out of schema.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from codedpid.codes import CodePair, build_vandermonde_pair
# ``attach_shares`` is not called here (storage frames carry no shares);
# it stays importable under this module for tracers such as
# ``perfbench/tracing.py``, which wrap the names they look up here.
from codedpid.protocol import (  # noqa: F401
    DeliveryTranscript,
    PidConfig,
    ServerState,
    SharedRandomness,
    _check_messages,
    attach_shares,
    draw_randomness,
    encode_storage,
    make_association,
)

__all__ = [
    "SETUP_STORAGE",
    "SETUP_SHARE",
    "DELIVER_CMD",
    "ANSWER",
    "DECODE_RESULT",
    "COORDINATOR_ID",
    "Frame",
    "FrameError",
    "ProtocolViolation",
    "RoutingError",
    "Router",
    "ServerActor",
    "UserActor",
    "SimResult",
    "decode_frame",
    "simulate_round",
    "simulate_subset_round",
    "simulate_fully_distributed_round",
    "write_frame_log",
    "read_frame_log",
    "frames_to_bytes",
    "byte_accounting",
    "ByteAccounting",
    "LOG_MAGIC",
]

SETUP_STORAGE = 1
SETUP_SHARE = 2
DELIVER_CMD = 3
ANSWER = 4
DECODE_RESULT = 5
_KINDS = {SETUP_STORAGE, SETUP_SHARE, DELIVER_CMD, ANSWER, DECODE_RESULT}

COORDINATOR_ID = 0
LOG_MAGIC = b"PIDSIM01"

_HEADER = struct.Struct("<BHI")


class FrameError(ValueError):
    """Malformed bytes that do not parse as a frame."""


class ProtocolViolation(RuntimeError):
    """An actor received a frame outside its expected schema or phase."""


class RoutingError(RuntimeError):
    """A frame was offered to a forbidden destination."""


@dataclass(frozen=True)
class Frame:
    """One wire frame: kind, sender id, and a tuple of field symbols."""

    kind: int
    sender: int
    payload: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise FrameError(f"unknown frame kind {self.kind}")
        if not 0 <= self.sender < 2**16:
            raise FrameError(f"sender id {self.sender} does not fit 2 bytes")
        if self.payload and not (
            0 <= min(self.payload) and max(self.payload) < 2**32
        ):
            raise FrameError("payload symbols must fit 4 bytes each")

    def encode(self) -> bytes:
        n = len(self.payload)
        return struct.pack(
            f"<BHI{n}I", self.kind, self.sender, 4 * n, *self.payload
        )

    @property
    def wire_size(self) -> int:
        return _HEADER.size + 4 * len(self.payload)


def decode_frame(data: bytes, offset: int = 0) -> tuple[Frame, int]:
    """Parse one frame at ``offset``; returns (frame, next offset)."""
    if len(data) - offset < _HEADER.size:
        raise FrameError("truncated frame header")
    kind, sender, length = _HEADER.unpack_from(data, offset)
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind}")
    if length % 4 != 0:
        raise FrameError(f"payload length {length} is not a multiple of 4")
    start = offset + _HEADER.size
    if len(data) - start < length:
        raise FrameError("truncated frame payload")
    payload = struct.unpack_from(f"<{length // 4}I", data, start)
    return Frame(kind=kind, sender=sender, payload=payload), start + length


def frames_to_bytes(frames) -> bytes:
    return b"".join(f.encode() for f in frames)


def write_frame_log(path, frames) -> None:
    with open(path, "wb") as fh:
        fh.write(LOG_MAGIC)
        fh.write(frames_to_bytes(frames))


def read_frame_log(path) -> tuple[Frame, ...]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(LOG_MAGIC):
        raise FrameError(f"log file lacks the {LOG_MAGIC!r} magic header")
    frames = []
    offset = len(LOG_MAGIC)
    while offset < len(data):
        frame, offset = decode_frame(data, offset)
        frames.append(frame)
    return tuple(frames)


class Router:
    """Delivers frames to actors, logging everything and policing topology."""

    def __init__(self, n_servers: int):
        self.n_servers = n_servers
        self.log: list[Frame] = []

    def _is_server(self, actor_id: int) -> bool:
        return 1 <= actor_id <= self.n_servers

    def send(self, frame: Frame, recipient) -> list[Frame]:
        if self._is_server(frame.sender) and self._is_server(recipient.actor_id):
            raise RoutingError(
                f"server {frame.sender} may not message server {recipient.actor_id}"
            )
        self.log.append(frame)
        return recipient.receive(frame)

    def record(self, frame: Frame) -> None:
        """Log a frame addressed to the coordinator (which only listens)."""
        self.log.append(frame)


class ServerActor:
    """Holds fragments and a mask share; answers deliver commands locally.

    The answer rule is the protocol's: with a share attached, send fragment
    plus share for a hosted message and the bare share otherwise; with no
    share, send raw fragments or stay silent.
    """

    def __init__(self, server_id: int, modulus: int):
        self.actor_id = server_id
        self.modulus = modulus
        self.fragments: dict[int, tuple[int, ...]] = {}
        self.share: int | None = None

    def receive(self, frame: Frame) -> list[Frame]:
        if frame.kind == SETUP_STORAGE:
            self._load_storage(frame.payload)
            return []
        if frame.kind == SETUP_SHARE:
            if len(frame.payload) != 1:
                raise ProtocolViolation(
                    f"share frame must carry one symbol, got {len(frame.payload)}"
                )
            self.share = frame.payload[0] % self.modulus
            return []
        if frame.kind == DELIVER_CMD:
            if len(frame.payload) != 1:
                raise ProtocolViolation(
                    f"deliver command must carry one symbol, got {len(frame.payload)}"
                )
            return [Frame(ANSWER, self.actor_id, self._answer(frame.payload[0]))]
        raise ProtocolViolation(
            f"server {self.actor_id} cannot handle frame kind {frame.kind}"
        )

    def _load_storage(self, payload: tuple[int, ...]) -> None:
        if not payload:
            raise ProtocolViolation("storage frame missing entry count")
        q = self.modulus
        reduced = tuple([s % q for s in payload])
        size = len(payload)
        count = payload[0]
        pos = 1
        table: dict[int, tuple[int, ...]] = {}
        for _ in range(count):
            if pos + 2 > size:
                raise ProtocolViolation("storage frame entry header truncated")
            message_id, n_syms = payload[pos], payload[pos + 1]
            pos += 2
            if pos + n_syms > size:
                raise ProtocolViolation("storage frame entry symbols truncated")
            if message_id in table:
                raise ProtocolViolation(
                    f"storage frame repeats message {message_id}"
                )
            table[message_id] = reduced[pos : pos + n_syms]
            pos += n_syms
        if pos != size:
            raise ProtocolViolation("storage frame has trailing symbols")
        self.fragments = table

    def _answer(self, d: int) -> tuple[int, ...]:
        symbols = self.fragments.get(d, ())
        if self.share is None:
            return symbols
        if symbols:
            return tuple((s + self.share) % self.modulus for s in symbols)
        return (self.share,)


class UserActor:
    """Collects one answer per server, then decodes."""

    def __init__(self, user_id: int, n_servers: int, decode_fn, modulus: int):
        self.actor_id = user_id
        self.n_servers = n_servers
        self.decode_fn = decode_fn
        self.modulus = modulus
        self.answers: dict[int, tuple[int, ...]] = {}

    def receive(self, frame: Frame) -> list[Frame]:
        if frame.kind != ANSWER:
            raise ProtocolViolation(f"user cannot handle frame kind {frame.kind}")
        if not 1 <= frame.sender <= self.n_servers:
            raise ProtocolViolation(f"answer from unknown server {frame.sender}")
        if frame.sender in self.answers:
            raise ProtocolViolation(f"server {frame.sender} answered twice")
        self.answers[frame.sender] = tuple(s % self.modulus for s in frame.payload)
        return []

    def decode_result(self) -> Frame:
        if len(self.answers) != self.n_servers:
            raise ProtocolViolation(
                f"decoding with {len(self.answers)}/{self.n_servers} answers"
            )
        ordered = tuple(self.answers[n] for n in range(1, self.n_servers + 1))
        decoded = self.decode_fn(ordered)
        return Frame(DECODE_RESULT, self.actor_id, tuple(decoded))


@dataclass(frozen=True)
class SimResult:
    transcript: DeliveryTranscript
    frames: tuple[Frame, ...]


def _storage_frame(state: ServerState) -> Frame:
    payload: list[int] = [len(state.fragments)]
    for message_id, symbols in state.fragments:
        payload.extend([message_id, len(symbols)])
        payload.extend(symbols)
    return Frame(SETUP_STORAGE, COORDINATOR_ID, tuple(payload))


def _storage_frames(storage) -> tuple[Frame, ...]:
    """One SETUP_STORAGE frame per server state, in server-id order."""
    return tuple(_storage_frame(state) for state in storage)


# (storage, its frames) for the storage tuple ``simulate_round`` framed last.
_last_framed: list = [None]


def _framed(storage: tuple[ServerState, ...]) -> tuple[Frame, ...]:
    """The storage frames of ``storage``, reused while it is the same tuple
    object: ``encode_storage`` returns the same one until the instance or a
    message changes."""
    last = _last_framed[0]
    if last is not None and last[0] is storage:
        return last[1]
    frames = _storage_frames(storage)
    _last_framed[0] = (storage, frames)
    return frames


def _run_phases(
    n_servers: int,
    modulus: int,
    storage_frames,
    shares: tuple[int, ...] | None,
    d: int,
    decode_fn,
) -> tuple[tuple[Frame, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Drive one round through the actors; returns (frames, answers, decoded).

    ``storage_frames`` holds one SETUP_STORAGE frame per server, in server-id
    order.  ``shares`` may be None (no share phase) or shorter than the
    server list (only that prefix of servers receives a share).
    """
    router = Router(n_servers)
    servers = [ServerActor(n, modulus) for n in range(1, n_servers + 1)]
    user_id = n_servers + 1
    user = UserActor(user_id, n_servers, decode_fn, modulus)

    for frame, actor in zip(storage_frames, servers):
        router.send(frame, actor)
    if shares is not None:
        for share, actor in zip(shares, servers):
            router.send(Frame(SETUP_SHARE, COORDINATOR_ID, (share,)), actor)

    replies = []
    for actor in servers:
        cmd = Frame(DELIVER_CMD, user_id, (d,))
        router.log.append(cmd)
        replies.append(actor.receive(cmd))

    answer_frames: list[Frame] = []
    for reply in replies:
        if len(reply) != 1 or reply[0].kind != ANSWER:
            raise ProtocolViolation("server must reply with exactly one answer")
        answer_frames.append(reply[0])
    for frame in answer_frames:
        router.send(frame, user)

    result = user.decode_result()
    router.record(result)
    answers = tuple(frame.payload for frame in answer_frames)
    return tuple(router.log), answers, result.payload


def simulate_round(
    config: PidConfig,
    code: CodePair,
    messages,
    d: int,
    seed: int | None = None,
    randomness: SharedRandomness | None = None,
) -> SimResult:
    """One coded delivery round as message-passing actors.

    Produces exactly the same transcript as ``protocol.run_delivery`` with
    the same inputs, plus the frame log.  Storage and its SETUP_STORAGE
    frames are reused from the previous round while the instance and the
    messages are unchanged; the shares travel in their own frames.
    """
    config._check_message(d)
    storage = encode_storage(config, code, messages)
    if randomness is None:
        randomness = draw_randomness(code, seed)
    frames, answers, decoded = _run_phases(
        n_servers=config.n_servers,
        modulus=config.modulus,
        storage_frames=_framed(storage),
        shares=randomness.shares,
        d=d,
        decode_fn=lambda ordered: code.decode_vector([a[0] for a in ordered]),
    )
    transcript = DeliveryTranscript(
        requested=d,
        answers=answers,
        decoded=decoded,
        modulus=config.modulus,
        msg_len=config.msg_len,
        seed=seed,
        mask_vector=randomness.mask_vector,
    )
    return SimResult(transcript=transcript, frames=frames)


def simulate_fully_distributed_round(
    messages, n_servers: int, d: int
) -> SimResult:
    """Raw-slice reference variant over the wire (rate 1, not private)."""
    messages = tuple(messages)
    if not messages:
        raise ValueError("need at least one message")
    q = messages[0].modulus
    l = len(messages[0].symbols)
    if l % n_servers != 0:
        raise ValueError(f"message length {l} is not divisible by {n_servers}")
    if not 1 <= d <= len(messages):
        raise ValueError(f"message id {d} outside 1..{len(messages)}")
    part = l // n_servers
    storage = tuple(
        ServerState(
            server_id=n + 1,
            fragments=tuple(
                (m.index, tuple(m.symbols[n * part : (n + 1) * part]))
                for m in messages
            ),
            share=None,
            modulus=q,
        )
        for n in range(n_servers)
    )
    frames, answers, decoded = _run_phases(
        n_servers=n_servers,
        modulus=q,
        storage_frames=_storage_frames(storage),
        shares=None,
        d=d,
        decode_fn=lambda ordered: tuple(s for a in ordered for s in a),
    )
    transcript = DeliveryTranscript(
        requested=d,
        answers=answers,
        decoded=decoded,
        modulus=q,
        msg_len=l,
    )
    return SimResult(transcript=transcript, frames=frames)


def simulate_subset_round(
    k_messages: int,
    n_servers: int,
    storage_limit,
    msg_len: int,
    messages,
    d: int,
    seed: int | None = None,
) -> SimResult:
    """Subset variant over the wire: ceil(K/M) active servers, the rest idle.

    Idle servers receive the deliver command like everyone else and answer
    with an empty payload, so the frame pattern stays request-independent.
    """
    m = Fraction(storage_limit)
    if m <= 0:
        raise ValueError(f"storage limit must be positive, got {m}")
    if Fraction(k_messages, n_servers) > m:
        raise ValueError(
            f"storage limit {m} cannot hold K={k_messages} on N={n_servers}"
        )
    active = math.ceil(Fraction(k_messages) / m)
    if active > n_servers:
        raise ValueError(f"need {active} active servers, have {n_servers}")
    messages = tuple(messages)
    q = messages[0].modulus
    silent = tuple(
        ServerState(server_id=i + 1, fragments=(), share=None, modulus=q)
        for i in range(active, n_servers)
    )

    if msg_len < active:
        inner_config = make_association(q, k_messages, active, msg_len)
        inner_code = build_vandermonde_pair(q, active, msg_len)
        _check_messages(inner_config, messages)
        storage = encode_storage(inner_config, inner_code, messages) + silent
        randomness = draw_randomness(inner_code, seed)
        frames, answers, decoded = _run_phases(
            n_servers=n_servers,
            modulus=q,
            storage_frames=_storage_frames(storage),
            shares=randomness.shares,  # prefix: only active servers
            d=d,
            decode_fn=lambda ordered: inner_code.decode_vector(
                [a[0] for a in ordered[:active]]
            ),
        )
        transcript = DeliveryTranscript(
            requested=d,
            answers=answers,
            decoded=decoded,
            modulus=q,
            msg_len=msg_len,
            seed=seed,
            mask_vector=randomness.mask_vector,
        )
        return SimResult(transcript=transcript, frames=frames)

    if msg_len % active != 0:
        raise ValueError(f"L={msg_len} is not divisible by {active} active servers")
    part = msg_len // active
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
        for n in range(active)
    ) + silent
    frames, answers, decoded = _run_phases(
        n_servers=n_servers,
        modulus=q,
        storage_frames=_storage_frames(storage),
        shares=None,
        d=d,
        decode_fn=lambda ordered: tuple(s for a in ordered for s in a),
    )
    transcript = DeliveryTranscript(
        requested=d,
        answers=answers,
        decoded=decoded,
        modulus=q,
        msg_len=msg_len,
    )
    return SimResult(transcript=transcript, frames=frames)


@dataclass(frozen=True)
class ByteAccounting:
    """Wire-cost breakdown of one round's frame log.

    ``answer_payload_bytes`` counts only ANSWER payloads (the download the
    rate is measured on); headers are tallied separately and excluded from
    the empirical rate.
    """

    answer_payload_bytes: tuple[int, ...]
    answer_symbols: tuple[int, ...]
    delivered_symbols: int
    header_bytes: int
    total_bytes: int

    @property
    def empirical_rate(self) -> Fraction:
        return Fraction(self.delivered_symbols, sum(self.answer_symbols))


def byte_accounting(frames, n_servers: int) -> ByteAccounting:
    payload_bytes = [0] * n_servers
    symbols = [0] * n_servers
    delivered = 0
    headers = 0
    total = 0
    for frame in frames:
        headers += _HEADER.size
        total += frame.wire_size
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
