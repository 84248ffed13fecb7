"""Toy MQTT: client and broker state machines plus the payload codec.

A client's command list is the request messages it will send, in order
(``ConnectMsg`` to its broker, then ``SubMsg``, ``UnsubMsg``, ``PubMsg``
and ``DisconnectMsg`` to the connected peer); it blocks until the broker
acknowledges where an acknowledgement exists.  The broker tracks connected
peers and per-topic subscriber sets and fans published values out to
subscribers.

``encode_mqtt``/``decode_mqtt`` map protocol messages to payload values:
one tag byte followed by length-prefixed UTF-8 fields, read big-endian as a
natural or zero-padded into a bit-vector of configured width; each field is
encoded once, into one buffer, through the check ``encoded_size`` also
applies.  The decoder is a strict parser: anything not produced by the
encoder comes back as RetractFailure instead of raising, so the pair forms
the data adaptor ``mqtt_codec_adaptor``, the simulator's only message codec.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

from .core import SpaceViolation
from .transforms import DataAdaptor, RetractFailure
from .values import (
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    OpaqueSpace,
    Value,
)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

def _field(v: str) -> bytes:
    """A field's UTF-8 bytes; ValueError unless there are 1..255."""
    data = v.encode("utf-8")
    if not 1 <= len(data) <= 255:
        raise ValueError(f"field {v[:20]!r} must be 1..255 UTF-8 bytes, "
                         f"got {len(data)}")
    return data


def encoded_size(values) -> int:
    """Bytes ``encode_mqtt`` writes for a message with these field values."""
    size = 1
    for v in values:
        size += 1 + len(_field(v))
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

Outbound = list[tuple[str, MqttMsg]]

# The ack each request blocks the command list for; other requests are
# not acknowledged.
_AWAITS = {ConnectMsg: "connack", SubMsg: "suback", UnsubMsg: "unsuback"}
_ACK_NAMES = {ConnAck: "connack", SubAck: "suback", UnsubAck: "unsuback"}


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
        return MqttClient(oid=self.oid, peer=self.peer, cmd_list=self.cmd_list,
                          last_recv=tuple(sorted(entries.items())),
                          awaiting=self.awaiting)

    def step(self, incoming) -> Union[tuple["MqttClient", Outbound], Reject]:
        if incoming is None:
            if self.awaiting is not None or not self.cmd_list:
                return self, []
            msg, rest = self.cmd_list[0], self.cmd_list[1:]
            if isinstance(msg, ConnectMsg):
                if self.peer is not None:
                    return self, []
                dst = msg.broker
            elif self.peer is None:
                return self, []   # blocked until connected
            else:
                dst = self.peer
            peer = None if isinstance(msg, DisconnectMsg) else self.peer
            return (MqttClient(oid=self.oid, peer=peer, cmd_list=rest,
                               last_recv=self.last_recv,
                               awaiting=_AWAITS.get(type(msg))), [(dst, msg)])

        src, msg = incoming
        ack = _ACK_NAMES.get(type(msg))
        if ack is not None:
            if self.awaiting != ack or (ack == "connack" and self.peer is not None):
                return Reject(f"unexpected {ack}")
            peer = src if ack == "connack" else self.peer
            return MqttClient(oid=self.oid, peer=peer, cmd_list=self.cmd_list,
                              last_recv=self.last_recv, awaiting=None), []
        if isinstance(msg, Forward):
            return self._with_recv(msg.topic, msg.value), []
        return Reject(f"client cannot handle {type(msg).__name__}")


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
        return MqttBroker(oid=self.oid, peers=self.peers,
                          subscribers=tuple(sorted(pruned.items())))

    def step(self, incoming) -> Union[tuple["MqttBroker", Outbound], Reject]:
        if incoming is None:
            return self, []
        src, msg = incoming
        if isinstance(msg, ConnectMsg):
            if msg.broker != self.oid:
                return Reject("connect addressed to a different broker")
            return (MqttBroker(oid=self.oid, peers=self.peers | {src},
                               subscribers=self.subscribers), [(src, ConnAck())])
        if src not in self.peers:
            return Reject(f"{src} is not a connected peer")
        subs = self.subscriber_map()
        if isinstance(msg, SubMsg):
            subs[msg.topic] = subs.get(msg.topic, frozenset()) | {src}
            return self._with_subscribers(subs), [(src, SubAck())]
        if isinstance(msg, UnsubMsg):
            subs[msg.topic] = subs.get(msg.topic, frozenset()) - {src}
            return self._with_subscribers(subs), [(src, UnsubAck())]
        if isinstance(msg, PubMsg):
            targets = sorted(subs.get(msg.topic, frozenset()))
            return self, [(t, Forward(msg.topic, msg.value)) for t in targets]
        if isinstance(msg, DisconnectMsg):
            subs = {t: s - {src} for t, s in subs.items()}
            gone = MqttBroker(oid=self.oid, peers=self.peers - {src})
            return gone._with_subscribers(subs), []
        return Reject(f"broker cannot handle {type(msg).__name__}")


Actor = Union[MqttClient, MqttBroker]


def actor_step(actor: Actor, incoming: Optional[tuple[str, MqttMsg]]
               ) -> Union[tuple[Actor, Outbound], Reject]:
    """One transition: with ``incoming=None``, let the actor act
    spontaneously (clients working their command list); otherwise deliver
    ``(src, msg)``.  Unknown or ill-timed messages come back as Reject."""
    # Kept as a module function: the simulator calls it through its own
    # global, which is where the benchmark's probe wraps it.
    return actor.step(incoming)


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------

# Tag byte per message kind; a tag of 0 never occurs, so encodings are
# nonzero and survive the integer round trip without length framing.
_TAGS: list[tuple[type, int]] = [
    (ConnectMsg, 1),
    (ConnAck, 2),
    (SubMsg, 3),
    (SubAck, 4),
    (UnsubMsg, 5),
    (UnsubAck, 6),
    (PubMsg, 7),
    (Forward, 8),
    (DisconnectMsg, 9),
]
_BY_TYPE = {t: (tag, tuple(f.name for f in fields(t))) for t, tag in _TAGS}
_BY_TAG = {tag: (t, names) for t, (tag, names) in _BY_TYPE.items()}

DEFAULT_BITVEC_WIDTH = 512


def encode_mqtt(msg: MqttMsg, width: Optional[int] = None) -> Value:
    """Message to payload value: a natural, or a width-bit vector when
    ``width`` is given.  An encoding that does not fit, or a non-message,
    raises SpaceViolation: the codec's ``from_space`` is opaque and admits
    any value, so this is where a typed payload is checked."""
    entry = _BY_TYPE.get(type(msg))
    if entry is None:
        raise SpaceViolation(f"{msg!r} is not an MQTT message")
    tag, names = entry
    out = bytearray((tag,))
    for name in names:
        data = _field(getattr(msg, name))
        out.append(len(data))
        out += data
    if width is not None and len(out) * 8 > width:
        raise SpaceViolation(
            f"{type(msg).__name__} needs {len(out) * 8} bits, width is {width}")
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
    msg_type, names = _BY_TAG[tag]
    pos = 1
    parsed = []
    for _ in names:
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
    return DataAdaptor(name="mqtt_codec", from_space=OpaqueSpace(),
                       to_space=NatSpace() if width is None else BitVecSpace(width),
                       j=lambda m: encode_mqtt(m, width), r=decode_mqtt)

