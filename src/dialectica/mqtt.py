"""Toy MQTT: client and broker state machines plus the payload codec.

A client's command list is the request messages it will send, in order
(``ConnectMsg`` to its broker, then ``SubMsg``, ``UnsubMsg``, ``PubMsg``
and ``DisconnectMsg`` to the connected peer); it blocks until the broker
acknowledges where an acknowledgement exists.  The broker tracks connected
peers and per-topic subscriber sets and fans published values out to
subscribers.

``encode_mqtt``/``decode_mqtt`` map protocol messages to payload values:
one tag byte followed by length-prefixed UTF-8 fields, read big-endian as a
natural or zero-padded into a bit-vector of configured width.  The decoder
is a strict parser: anything not produced by the encoder comes back as
RetractFailure instead of raising, so the pair forms the data adaptor
``mqtt_codec_adaptor``, the simulator's only message codec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .core import SpaceViolation
from .transforms import DataAdaptor, RetractFailure, WidthOverflow
from .values import (
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    Value,
)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

def encoded_size(values) -> int:
    """Bytes ``encode_mqtt`` writes for a message with these field values: a
    tag byte, then per field a length byte and 1..255 UTF-8 bytes (else
    ValueError)."""
    size = 1
    for v in values:
        n = len(v.encode("utf-8"))
        if not 1 <= n <= 255:
            raise ValueError(f"field {v[:20]!r} must be 1..255 UTF-8 bytes, "
                             f"got {n}")
        size += 1 + n
    return size


@dataclass(frozen=True)
class ConnectMsg:
    broker: str


@dataclass(frozen=True)
class ConnAck:
    pass


@dataclass(frozen=True)
class SubMsg:
    topic: str


@dataclass(frozen=True)
class SubAck:
    pass


@dataclass(frozen=True)
class UnsubMsg:
    topic: str


@dataclass(frozen=True)
class UnsubAck:
    pass


@dataclass(frozen=True)
class PubMsg:
    topic: str
    value: str


@dataclass(frozen=True)
class Forward:
    topic: str
    value: str


@dataclass(frozen=True)
class DisconnectMsg:
    pass


MqttMsg = Union[ConnectMsg, ConnAck, SubMsg, SubAck, UnsubMsg, UnsubAck,
                PubMsg, Forward, DisconnectMsg]


@dataclass(frozen=True)
class Reject:
    """Protocol-level rejection of an incoming message."""

    reason: str = ""


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MqttClient:
    oid: str
    peer: Optional[str] = None
    cmd_list: tuple[MqttMsg, ...] = ()   # the requests to send, in order
    last_recv: tuple[tuple[str, str], ...] = ()
    awaiting: Optional[str] = None   # blocks the command list until acked

    def digest(self) -> dict:
        return {"type": "client", "peer": self.peer,
                "last_recv": dict(self.last_recv),
                "pending_cmds": len(self.cmd_list), "awaiting": self.awaiting}

    def _with_recv(self, topic: str, value: str) -> "MqttClient":
        entries = dict(self.last_recv)
        entries[topic] = value
        return replace(self, last_recv=tuple(sorted(entries.items())))


@dataclass(frozen=True)
class MqttBroker:
    oid: str
    peers: frozenset[str] = frozenset()
    subscribers: tuple[tuple[str, frozenset[str]], ...] = ()

    def digest(self) -> dict:
        return {"type": "broker", "peers": sorted(self.peers),
                "subscribers": {t: sorted(s) for t, s in self.subscribers}}

    def subscriber_map(self) -> dict[str, frozenset[str]]:
        return dict(self.subscribers)

    def _with_subscribers(self, subs: dict[str, frozenset[str]]) -> "MqttBroker":
        pruned = {t: s for t, s in subs.items() if s}
        return replace(self, subscribers=tuple(sorted(pruned.items())))


Actor = Union[MqttClient, MqttBroker]
Outbound = list[tuple[str, MqttMsg]]


def actor_step(actor: Actor, incoming: Optional[tuple[str, MqttMsg]]
               ) -> Union[tuple[Actor, Outbound], Reject]:
    """One transition: with ``incoming=None``, let the actor act
    spontaneously (clients working their command list); otherwise deliver
    ``(src, msg)``.  Unknown or ill-timed messages come back as Reject."""
    if isinstance(actor, MqttClient):
        return _client_step(actor, incoming)
    if isinstance(actor, MqttBroker):
        return _broker_step(actor, incoming)
    raise TypeError(f"not an actor: {actor!r}")


# The ack each request blocks the command list for; other requests are
# not acknowledged.
_AWAITS = {ConnectMsg: "connack", SubMsg: "suback", UnsubMsg: "unsuback"}


def _client_step(c: MqttClient, incoming) -> Union[tuple[Actor, Outbound], Reject]:
    if incoming is None:
        if c.awaiting is not None or not c.cmd_list:
            return c, []
        msg, rest = c.cmd_list[0], c.cmd_list[1:]
        if isinstance(msg, ConnectMsg):
            if c.peer is not None:
                return c, []
            dst = msg.broker
        elif c.peer is None:
            return c, []   # blocked until connected
        else:
            dst = c.peer
        peer = None if isinstance(msg, DisconnectMsg) else c.peer
        return (replace(c, cmd_list=rest, peer=peer,
                        awaiting=_AWAITS.get(type(msg))), [(dst, msg)])

    src, msg = incoming
    if isinstance(msg, ConnAck):
        if c.peer is None and c.awaiting == "connack":
            return replace(c, peer=src, awaiting=None), []
        return Reject("unexpected connack")
    if isinstance(msg, SubAck):
        if c.awaiting == "suback":
            return replace(c, awaiting=None), []
        return Reject("unexpected suback")
    if isinstance(msg, UnsubAck):
        if c.awaiting == "unsuback":
            return replace(c, awaiting=None), []
        return Reject("unexpected unsuback")
    if isinstance(msg, Forward):
        return c._with_recv(msg.topic, msg.value), []
    return Reject(f"client cannot handle {type(msg).__name__}")


def _broker_step(b: MqttBroker, incoming) -> Union[tuple[Actor, Outbound], Reject]:
    if incoming is None:
        return b, []
    src, msg = incoming
    if isinstance(msg, ConnectMsg):
        if msg.broker != b.oid:
            return Reject("connect addressed to a different broker")
        return replace(b, peers=b.peers | {src}), [(src, ConnAck())]
    if src not in b.peers:
        return Reject(f"{src} is not a connected peer")
    if isinstance(msg, SubMsg):
        subs = b.subscriber_map()
        subs[msg.topic] = subs.get(msg.topic, frozenset()) | {src}
        return b._with_subscribers(subs), [(src, SubAck())]
    if isinstance(msg, UnsubMsg):
        subs = b.subscriber_map()
        subs[msg.topic] = subs.get(msg.topic, frozenset()) - {src}
        return b._with_subscribers(subs), [(src, UnsubAck())]
    if isinstance(msg, PubMsg):
        targets = sorted(b.subscriber_map().get(msg.topic, frozenset()))
        return b, [(t, Forward(msg.topic, msg.value)) for t in targets]
    if isinstance(msg, DisconnectMsg):
        subs = {t: s - {src} for t, s in b.subscriber_map().items()}
        return replace(b, peers=b.peers - {src})._with_subscribers(subs), []
    return Reject(f"broker cannot handle {type(msg).__name__}")


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------

# Tag byte per message kind; a tag of 0 never occurs, so encodings are
# nonzero and survive the integer round trip without length framing.
_TAGS: list[tuple[type, int, tuple[str, ...]]] = [
    (ConnectMsg, 1, ("broker",)),
    (ConnAck, 2, ()),
    (SubMsg, 3, ("topic",)),
    (SubAck, 4, ()),
    (UnsubMsg, 5, ("topic",)),
    (UnsubAck, 6, ()),
    (PubMsg, 7, ("topic", "value")),
    (Forward, 8, ("topic", "value")),
    (DisconnectMsg, 9, ()),
]
_BY_TYPE = {t: (tag, fields) for t, tag, fields in _TAGS}
_BY_TAG = {tag: (t, fields) for t, tag, fields in _TAGS}

DEFAULT_BITVEC_WIDTH = 512


def encode_mqtt(msg: MqttMsg, width: Optional[int] = None) -> Value:
    """Message to payload value: a natural, or a width-bit vector when
    ``width`` is given (WidthOverflow if the encoding does not fit).  A
    non-message raises SpaceViolation: the codec's ``from_space`` is opaque,
    so ``apply_f`` lets any payload through to here."""
    entry = _BY_TYPE.get(type(msg))
    if entry is None:
        raise SpaceViolation(f"{msg!r} is not an MQTT message")
    tag, fields = entry
    values = [getattr(msg, f) for f in fields]
    size = encoded_size(values)
    if width is not None and size * 8 > width:
        raise WidthOverflow(
            f"{type(msg).__name__} needs {size * 8} bits, width is {width}")
    out = bytes([tag])
    for v in values:
        data = v.encode("utf-8")
        out += bytes([len(data)]) + data
    n = int.from_bytes(out, "big")
    return Nat(n) if width is None else BitVec(width, n)


def decode_mqtt(v: Value) -> Union[MqttMsg, RetractFailure]:
    """Strict inverse of encode_mqtt; total over arbitrary values."""
    if isinstance(v, Nat):
        n = v.n
    elif isinstance(v, BitVec):
        if not v.in_range:
            return RetractFailure("bits exceed declared width")
        n = v.bits
    else:
        return RetractFailure(f"{type(v).__name__} payloads are not decodable")
    if n == 0:
        return RetractFailure("empty payload")
    data = n.to_bytes((n.bit_length() + 7) // 8, "big")
    tag = data[0]
    if tag not in _BY_TAG:
        return RetractFailure(f"unknown tag {tag}")
    msg_type, fields = _BY_TAG[tag]
    pos = 1
    parsed = []
    for _ in fields:
        if pos >= len(data):
            return RetractFailure("truncated field")
        length = data[pos]
        pos += 1
        if length == 0 or pos + length > len(data):
            return RetractFailure("bad field length")
        try:
            parsed.append(data[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError:
            return RetractFailure("field is not UTF-8")
        pos += length
    if pos != len(data):
        return RetractFailure("trailing bytes")
    return msg_type(*parsed)


def mqtt_codec_adaptor(width: Optional[int] = None) -> DataAdaptor:
    """Section-retract pair between protocol messages and payload values;
    pre-composing it with a payload lingo yields a lingo on messages."""
    return DataAdaptor(name="mqtt_codec", from_space=None,
                       to_space=NatSpace() if width is None else BitVecSpace(width),
                       j=lambda m: encode_mqtt(m, width), r=decode_mqtt)

