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

One function, ``_serve``, drives a round in fixed phases - storage setup,
share setup, deliver commands, answers in server-id order, decode result -
and builds the round's log a phase at a time: a phase's frames are handed
to their actors' ``receive`` one by one, in server-id order, and appended
to the log together, so the log is a deterministic byte string: replays
are byte-identical.  The deliver phase logs one command frame N times.  No
frame passes between servers, and actors raise ``ProtocolViolation`` on
any frame out of schema.

Storage is encoded once per instance and messages, and a rewrite
re-encodes only the servers that host a changed message (see
``protocol.encode_storage``); every other server keeps its state object.
A state's SETUP_STORAGE frame is built once and kept on that state, so
successive rounds re-send the same frame objects for every unchanged
server, and only the shares, the command and the answers change.  Those
frames also cost almost nothing after their first round: a storage frame
packs its bytes once and keeps them, and keeps the fragment table its
first server parsed (see ``ServerActor``).  Frames are immutable, so that
parse holds for the frame for good.  These caches live on the objects they
describe, not in a module-level slot, so they last as long as the caller
keeps those objects, and instances served alternately do not evict each
other's.  The codec's own caches are module-level and bounded: the
compiled packer and unpacker of each payload length, in two dicts of at
most 256 lengths each; a one-symbol frame (every share, command and coded
answer) is packed by one precompiled struct.  Logs serialize to files with
an 8-byte magic header.

A ``Frame`` is a tuple record (kind, sender, payload), so each frame of a
round costs what a tuple costs.  Its public constructor validates the three
fields (``FrameError``).  A parsed frame, and the share, command, answer and
decode-result frames of a round, are built without that check, because
their fields are bounded where they enter: the wire format bounds what is
parsed; every layout's modulus is a prime below 2^32
(``field.check_modulus``) and every layout refuses a request outside 1..K;
an actor refuses, when it is built, an id or a modulus that is not an
int, an id that does not fit 2 bytes and a modulus above 2^32, so every
symbol it sends, reduced mod q, fits 4 bytes; the shares are residues
mod q (``protocol`` draws them itself, every round); and the user checks
the symbols its decoder returns.

Privacy is claimed against one observer, the user: the answers it
receives, a round's ANSWER frames, are distributed alike for every request
(``verify`` counts them).  In the paper the servers' side picks ``d``; here
actor N+1 stands in for it and sends ``d`` in every DELIVER_CMD, so the
frame log, which holds every frame of the round, is not the user's view
and shows ``d``.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from codedpid.codes import CodePair
# ``attach_shares`` is not called here (storage frames carry no shares);
# it stays importable under this module for tracers such as
# ``perfbench/tracing.py``, which wrap the names they look up here.
from codedpid.protocol import (  # noqa: F401
    DeliveryTranscript,
    PidConfig,
    ServerState,
    _coded_layout,
    _Layout,
    _all_ints,
    _answer,
    _subset_layout,
    attach_shares,
    draw_randomness,
    encode_storage,
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
    "ServerActor",
    "UserActor",
    "SimResult",
    "decode_frame",
    "decode_frames",
    "simulate_round",
    "simulate_subset_round",
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

COORDINATOR_ID = 0
LOG_MAGIC = b"PIDSIM01"

_HEADER = struct.Struct("<BHI")
_HEADER_SIZE = _HEADER.size
_unpack_header = _HEADER.unpack_from
# A whole frame of one payload symbol: a round's share, command and answer
# frames, packed without a star-args call.
_pack_one = struct.Struct("<BHII").pack
_SENDER_LIMIT = 2**16
_SYMBOL_LIMIT = 2**32
# Builds a record of a tuple subclass from a 3-tuple without calling its
# ``__new__``: the construction of frames whose fields are bounded already.
_record = tuple.__new__


class FrameError(ValueError):
    """Malformed bytes that do not parse as a frame."""


class ProtocolViolation(RuntimeError):
    """An actor received a frame outside its expected schema or phase."""


# The checks below let plain ints through on one test of their types and
# apply the int rule of ``protocol._all_ints`` (an int, and not a bool) only
# to anything else.
_PLAIN_INT = {int}


def _check_int(value, what: str) -> None:
    if type(value) is not int and not _all_ints((value,)):
        raise FrameError(f"{what} {value!r} is not an int")


def _check_symbols(payload: tuple[int, ...]) -> None:
    if not (set(map(type, payload)) <= _PLAIN_INT or _all_ints(payload)):
        raise FrameError("payload symbols must be ints")
    if payload and not (0 <= min(payload) and max(payload) < _SYMBOL_LIMIT):
        raise FrameError("payload symbols must fit 4 bytes each")


def _check_sender(sender: int) -> None:
    _check_int(sender, "sender id")
    if not 0 <= sender < _SENDER_LIMIT:
        raise FrameError(f"sender id {sender} does not fit 2 bytes")


def _check_modulus(modulus: int) -> None:
    _check_int(modulus, "modulus")
    if not 0 < modulus <= _SYMBOL_LIMIT:
        raise FrameError(f"modulus {modulus} gives symbols that do not fit 4 bytes")


class Frame(namedtuple("Frame", ("kind", "sender", "payload"))):
    """One wire frame: kind, sender id, and a tuple of field symbols.

    A frame is an immutable tuple record, so building, comparing, hashing
    and reading one run at the cost of a tuple, and only a storage frame
    has a ``__dict__``.  It is a tuple in every respect: it equals, and
    hashes like, the bare tuple ``(kind, sender, payload)`` of the same
    values, and it unpacks as one.

    The constructor validates: the kind, the sender and every symbol must
    be ints and not bools, the kind must be known, the sender must fit 2
    bytes and every symbol 4 bytes, else ``FrameError``; the payload is
    stored as a tuple.  Frames that ``decode_frame`` parses, and the share,
    deliver-command, answer and decode-result frames of a simulated round,
    are built without that check (the record is made directly): the wire
    format bounds what is parsed, and a round's values are bounded before
    its frames are built (see ``_serve``, the actors' constructors and
    ``UserActor.decode_result``).  Every frame, built either way, has the
    class its kind calls for: SETUP_STORAGE frames are ``_StorageFrame``s.
    """

    __slots__ = ()

    def __new__(cls, kind: int, sender: int, payload) -> Frame:
        payload = tuple(payload)
        _check_int(kind, "frame kind")
        frame_class = _FRAME_CLASS.get(kind)
        if frame_class is None:
            raise FrameError(f"unknown frame kind {kind}")
        _check_sender(sender)
        _check_symbols(payload)
        return _record(frame_class, (kind, sender, payload))

    @classmethod
    def _make(cls, iterable) -> Frame:
        # ``namedtuple``'s own ``_make`` (and ``_replace`` through it) would
        # skip validation.
        return cls(*iterable)

    def __repr__(self) -> str:
        return "Frame(kind=%r, sender=%r, payload=%r)" % tuple(self)

    def encode(self) -> bytes:
        """The frame's wire bytes."""
        kind, sender, payload = self
        n = len(payload)
        if n == 1:
            return _pack_one(kind, sender, 4, payload[0])
        return _packers[n](kind, sender, 4 * n, *payload)

    @property
    def wire_size(self) -> int:
        return _HEADER_SIZE + 4 * len(self[2])


class _StorageFrame(Frame):
    """A SETUP_STORAGE frame, which packs its bytes once and keeps them, and
    keeps the fragment table parsed from it: storage frames are re-sent,
    re-encoded and re-parsed round after round.  It is the one frame class
    with a ``__dict__``; keeping the bytes of the one-off per-round frames
    would cost more than it saves."""

    _wire = None
    # (modulus, table) of the last parse that succeeded.
    _parsed = None

    def encode(self) -> bytes:
        wire = self._wire
        if wire is None:
            wire = self._wire = Frame.encode(self)
        return wire

    def table(self, modulus: int, parse):
        """``parse(payload)``, the fragment table under ``modulus``: kept
        from the last parse under the same modulus.  A parse that raises
        keeps nothing, so a malformed frame raises on every receipt."""
        parsed = self._parsed
        if parsed is None or parsed[0] != modulus:
            parsed = self._parsed = (modulus, parse(self[2]))
        return parsed[1]


_FRAME_CLASS = {
    SETUP_STORAGE: _StorageFrame,
    SETUP_SHARE: Frame,
    DELIVER_CMD: Frame,
    ANSWER: Frame,
    DECODE_RESULT: Frame,
}
# The same map indexed by a header's kind byte: None for an unknown kind.
_KIND_BYTE_CLASS = tuple(_FRAME_CLASS.get(kind) for kind in range(256))


_CODEC_CACHE_LIMIT = 256


class _CodecCache(dict):
    """Compiled codecs by payload length in symbols, each found with one
    subscript and compiled on its first use.  A log holds few distinct
    lengths (a round has at most four besides its storage frames); a cache
    that holds ``_CODEC_CACHE_LIMIT`` lengths is emptied before the next one
    is added, so arbitrary input cannot grow it."""

    def __init__(self, compile_length: Callable[[int], Callable]):
        super().__init__()
        self.compile_length = compile_length

    def __missing__(self, n: int) -> Callable:
        if len(self) >= _CODEC_CACHE_LIMIT:
            self.clear()
        codec = self[n] = self.compile_length(n)
        return codec


# The packer of a whole frame and the unpacker of a payload.
_packers = _CodecCache(lambda n: struct.Struct(f"<BHI{n}I").pack)
_unpackers = _CodecCache(lambda n: struct.Struct(f"<{n}I").unpack_from)


def decode_frame(data: bytes, offset: int = 0) -> tuple[Frame, int]:
    """Parse one frame at ``offset``; returns (frame, next offset).

    The ``<BHI`` header and ``<I`` symbols bound the sender and the
    symbols, so the frame is built without re-validation once its kind is
    known.  A negative ``offset`` is refused, not counted from the end."""
    size = len(data)
    if size - offset < _HEADER_SIZE or offset < 0:
        raise FrameError(
            f"negative frame offset {offset}" if offset < 0
            else "truncated frame header"
        )
    kind, sender, length = _unpack_header(data, offset)
    frame_class = _KIND_BYTE_CLASS[kind]
    if frame_class is None:
        raise FrameError(f"unknown frame kind {kind}")
    if length & 3:
        raise FrameError(f"payload length {length} is not a multiple of 4")
    start = offset + _HEADER_SIZE
    end = start + length
    if end > size:
        raise FrameError("truncated frame payload")
    payload = _unpackers[length >> 2](data, start)
    return _record(frame_class, (kind, sender, payload)), end


def decode_frames(data: bytes, offset: int = 0) -> tuple[Frame, ...]:
    """Parse every frame from ``offset`` to the end of ``data``; raises the
    ``FrameError`` of the first frame that does not parse, or of a negative
    ``offset``."""
    frames = []
    while offset < len(data):
        frame, offset = decode_frame(data, offset)
        frames.append(frame)
    return tuple(frames)


def frames_to_bytes(frames) -> bytes:
    return b"".join([frame.encode() for frame in frames])


def write_frame_log(path, frames) -> None:
    with open(path, "wb") as fh:
        fh.write(LOG_MAGIC)
        fh.write(frames_to_bytes(frames))


def read_frame_log(path) -> tuple[Frame, ...]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(LOG_MAGIC):
        raise FrameError(f"log file lacks the {LOG_MAGIC!r} magic header")
    return decode_frames(data, len(LOG_MAGIC))


class ServerActor:
    """Holds fragments and a mask share; answers deliver commands locally.

    The answer rule is the protocol's own: ``protocol._answer``, which
    ``server_answer`` applies too.

    A SETUP_STORAGE frame is parsed once per frame object and modulus: the
    frame keeps the fragment table the first server to receive it parsed
    (``_StorageFrame.table``), and a later server handed that very object,
    under the same modulus, takes the table without parsing.  There is no
    global cache: a round re-sends the frame kept on each unchanged server
    state, so its tables are reused for as long as the caller keeps the
    instance, across any number of other instances.  That is sound because
    a frame is immutable, so the first parse's result, or its
    ``ProtocolViolation``, holds for it.  Every other storage frame - a new
    state's (every raw-slice round builds new states), a frame built by
    hand, an equal copy - is parsed in full, and a frame that fails to parse
    keeps nothing.

    The constructor refuses (``FrameError``) an id that is not an int or
    does not fit the 2-byte sender field, and a modulus that is not an int
    or lies outside 1..2^32, so every answer frame, whose symbols are
    reduced mod q, is built without re-validation.
    """

    __slots__ = ("actor_id", "modulus", "fragments", "share")

    def __init__(self, server_id: int, modulus: int):
        # A round builds N servers: plain ints in range pass one inline
        # test, anything else takes the checks that name what is wrong.
        if not (
            type(server_id) is int
            and type(modulus) is int
            and 0 <= server_id < _SENDER_LIMIT
            and 0 < modulus <= _SYMBOL_LIMIT
        ):
            _check_sender(server_id)
            _check_modulus(modulus)
        self.actor_id = server_id
        self.modulus = modulus
        self.fragments: Mapping[int, tuple[int, ...]] = {}
        self.share: int | None = None

    def receive(self, frame: Frame) -> list[Frame]:
        kind, _, payload = frame
        if kind == SETUP_STORAGE:
            self.fragments = frame.table(self.modulus, self._load_storage)
            return []
        if kind == SETUP_SHARE:
            if len(payload) != 1:
                raise ProtocolViolation(
                    f"share frame must carry one symbol, got {len(payload)}"
                )
            self.share = payload[0] % self.modulus
            return []
        if kind == DELIVER_CMD:
            if len(payload) != 1:
                raise ProtocolViolation(
                    f"deliver command must carry one symbol, got {len(payload)}"
                )
            symbols = self.fragments.get(payload[0], ())
            answer = _answer(symbols, self.share, self.modulus)
            return [_record(Frame, (ANSWER, self.actor_id, answer))]
        raise ProtocolViolation(
            f"server {self.actor_id} cannot handle frame kind {kind}"
        )

    def _load_storage(
        self, payload: tuple[int, ...]
    ) -> Mapping[int, tuple[int, ...]]:
        """Parse a storage payload into a read-only message id -> symbols
        table, symbols reduced mod q."""
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
        return MappingProxyType(table)


class UserActor:
    """Collects one answer per server, then decodes.  The constructor
    refuses (``FrameError``) an id that is not an int or does not fit the
    2-byte sender field, and a modulus as ``ServerActor`` does."""

    __slots__ = ("actor_id", "n_servers", "decode_fn", "modulus", "answers")

    def __init__(self, user_id: int, n_servers: int, decode_fn, modulus: int):
        _check_sender(user_id)
        _check_modulus(modulus)
        self.actor_id = user_id
        self.n_servers = n_servers
        self.decode_fn = decode_fn
        self.modulus = modulus
        self.answers: dict[int, tuple[int, ...]] = {}

    def receive(self, frame: Frame) -> list[Frame]:
        kind, sender, payload = frame
        if kind != ANSWER:
            raise ProtocolViolation(f"user cannot handle frame kind {kind}")
        if not 1 <= sender <= self.n_servers:
            raise ProtocolViolation(f"answer from unknown server {sender}")
        if sender in self.answers:
            raise ProtocolViolation(f"server {sender} answered twice")
        q = self.modulus
        # A coded round's answers carry one symbol each.
        self.answers[sender] = (
            (payload[0] % q,) if len(payload) == 1 else tuple([s % q for s in payload])
        )
        return []

    def decode_result(self) -> Frame:
        if len(self.answers) != self.n_servers:
            raise ProtocolViolation(
                f"decoding with {len(self.answers)}/{self.n_servers} answers"
            )
        ordered = tuple(self.answers[n] for n in range(1, self.n_servers + 1))
        decoded = tuple(self.decode_fn(ordered))
        # ``decode_fn`` is the caller's, so its symbols are checked here;
        # kind and sender need no check.
        _check_symbols(decoded)
        return _record(Frame, (DECODE_RESULT, self.actor_id, decoded))


@dataclass(frozen=True)
class SimResult:
    transcript: DeliveryTranscript
    frames: tuple[Frame, ...]


def _storage_frame(state: ServerState) -> Frame:
    """The SETUP_STORAGE frame of ``state``, built once and kept on the
    state (set through its ``__dict__``, as ``_by_message`` is):
    ``encode_storage`` returns the same state object until a message that
    the server hosts changes, so its frame, and the table parsed from it,
    are reused round after round."""
    frame = state.__dict__.get("_storage_frame")
    if frame is None:
        payload: list[int] = [len(state.fragments)]
        for message_id, symbols in state.fragments:
            payload.append(message_id)
            payload.append(len(symbols))
            payload += symbols
        frame = Frame(SETUP_STORAGE, COORDINATOR_ID, tuple(payload))
        state.__dict__["_storage_frame"] = frame
    return frame


def _serve(layout: _Layout) -> SimResult:
    """Answer a ``protocol`` layout over the wire, in the fixed phases of
    the module docstring.  The log is built a phase at a time: each phase's
    frames are made, handed to their actors in order and appended together.
    One command frame goes to every server: frames are immutable.  Only the
    storage frames were validated, when built.  The user, built before the
    servers, refuses an id N+1 (the round's largest sender) that does not
    fit 2 bytes (``FrameError``) before any server is made."""
    storage, modulus = layout.storage, layout.modulus
    n_servers = len(storage)
    user_id = n_servers + 1
    user = UserActor(user_id, n_servers, layout.decode, modulus)
    servers = [ServerActor(n, modulus) for n in range(1, user_id)]
    log = [_storage_frame(state) for state in storage]
    for frame, server in zip(log, servers):
        server.receive(frame)
    if layout.randomness is not None:
        shares = [
            _record(Frame, (SETUP_SHARE, COORDINATOR_ID, (share,)))
            for share in layout.randomness.shares
        ]
        for frame, server in zip(shares, servers):
            server.receive(frame)
        log += shares
    cmd = _record(Frame, (DELIVER_CMD, user_id, (layout.requested,)))
    log += [cmd] * n_servers
    answer_frames = [frame for server in servers for frame in server.receive(cmd)]
    for frame in answer_frames:
        user.receive(frame)
    log += answer_frames
    result = user.decode_result()
    log.append(result)
    transcript = layout.transcript(
        answers=tuple([frame.payload for frame in answer_frames]),
        decoded=result.payload,
    )
    return SimResult(transcript=transcript, frames=tuple(log))


def simulate_round(
    config: PidConfig,
    code: CodePair,
    messages,
    d: int,
    seed: int | None = None,
) -> SimResult:
    """One coded delivery round as message-passing actors.

    Produces exactly the same transcript as ``protocol.run_delivery`` with
    the same inputs, plus the frame log.  Storage is reused from the
    previous round on ``code`` while the instance and the messages are
    unchanged, and each server state's SETUP_STORAGE frame is built once;
    the shares, drawn from ``seed`` as in ``run_delivery``, travel apart.
    """
    # Pass the names as looked up in this module, where tracers wrap them.
    return _serve(
        _coded_layout(config, code, messages, d, seed, encode_storage, draw_randomness)
    )


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
    Produces the same transcript as ``protocol.run_subset_scheme``.
    """
    return _serve(
        _subset_layout(k_messages, n_servers, storage_limit, msg_len, messages, d, seed)
    )


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
    symbols = [0] * n_servers
    delivered = 0
    count = 0
    carried = 0
    for kind, sender, payload in frames:
        n = len(payload)
        count += 1
        carried += n
        if kind == ANSWER:
            symbols[sender - 1] += n
        elif kind == DECODE_RESULT:
            delivered += n
    headers = _HEADER.size * count
    return ByteAccounting(
        answer_payload_bytes=tuple([4 * s for s in symbols]),
        answer_symbols=tuple(symbols),
        delivered_symbols=delivered,
        header_bytes=headers,
        total_bytes=headers + 4 * carried,
    )
