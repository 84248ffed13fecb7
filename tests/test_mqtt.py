import ast
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dialectica

from conftest import initial_configuration
from dialectica.core import Rng, SpaceViolation
from dialectica.mqtt import (
    ConnAck,
    ConnectMsg,
    DisconnectMsg,
    Forward,
    MqttBroker,
    MqttClient,
    MqttMsgSpace,
    PubMsg,
    Reject,
    RetractFailure,
    SubAck,
    SubMsg,
    UnsubAck,
    UnsubMsg,
    actor_step,
    decode_mqtt,
    encode_mqtt,
    mqtt_codec_adaptor,
)
from dialectica.rng import SAMPLE_TAG
from dialectica.values import AtomSet, BitVec, Nat, Pair, Tagged

field_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FF),
    min_size=1, max_size=60)


class TestClientRules:
    def test_send_connect_only_when_unconnected(self):
        c = MqttClient(oid="c1", cmd_list=(ConnectMsg("b"), SubMsg("t")))
        c2, outs = actor_step(c, None)
        assert outs == [("b", ConnectMsg("b"))]
        assert c2.awaiting == "connack"
        # blocked until the ack arrives
        c3, outs = actor_step(c2, None)
        assert outs == [] and c3 == c2

    def test_recv_connack_sets_peer(self):
        c = MqttClient(oid="c1", awaiting="connack")
        c2, outs = actor_step(c, ("b", ConnAck()))
        assert c2.peer == "b" and c2.awaiting is None and outs == []

    def test_unexpected_connack_rejected(self):
        c = MqttClient(oid="c1", peer="b")
        assert isinstance(actor_step(c, ("b", ConnAck())), Reject)

    def test_subscribe_blocked_until_connected(self):
        c = MqttClient(oid="c1", cmd_list=(SubMsg("t"),))
        c2, outs = actor_step(c, None)
        assert outs == [] and c2 == c

    def test_command_sequence(self):
        c = MqttClient(oid="c1", peer="b",
                       cmd_list=(SubMsg("t"), PubMsg("t", "v"),
                                 UnsubMsg("t"), DisconnectMsg()))
        c, outs = actor_step(c, None)
        assert outs == [("b", SubMsg("t"))]
        c, _ = actor_step(c, ("b", SubAck()))
        c, outs = actor_step(c, None)
        assert outs == [("b", PubMsg("t", "v"))]
        c, outs = actor_step(c, None)
        assert outs == [("b", UnsubMsg("t"))]
        c, _ = actor_step(c, ("b", UnsubAck()))
        c, outs = actor_step(c, None)
        assert outs == [("b", DisconnectMsg())] and c.peer is None

    def test_forward_recorded(self):
        c = MqttClient(oid="c1", peer="b")
        c2, _ = actor_step(c, ("b", Forward("temp", "34")))
        assert dict(c2.last_recv) == {"temp": "34"}


class TestBrokerRules:
    def test_accept_connect(self):
        b = MqttBroker(oid="b")
        b2, outs = actor_step(b, ("c1", ConnectMsg("b")))
        assert b2.peers == {"c1"}
        assert outs == [("c1", ConnAck())]

    def test_connect_for_other_broker_rejected(self):
        b = MqttBroker(oid="b")
        assert isinstance(actor_step(b, ("c1", ConnectMsg("other"))), Reject)

    def test_subscribe_and_fanout(self):
        b = MqttBroker(oid="b", peers=frozenset({"c1", "c2", "c3"}))
        b, outs = actor_step(b, ("c1", SubMsg("t")))
        assert outs == [("c1", SubAck())]
        b, outs = actor_step(b, ("c3", SubMsg("t")))
        assert outs == [("c3", SubAck())]
        b, outs = actor_step(b, ("c2", PubMsg("t", "v")))
        assert outs == [("c1", Forward("t", "v")), ("c3", Forward("t", "v"))]

    def test_publish_without_subscribers(self):
        b = MqttBroker(oid="b", peers=frozenset({"c1"}))
        b2, outs = actor_step(b, ("c1", PubMsg("t", "v")))
        assert outs == [] and b2 == b

    def test_non_peer_rejected(self):
        b = MqttBroker(oid="b")
        assert isinstance(actor_step(b, ("c1", SubMsg("t"))), Reject)

    def test_unsubscribe_drops_only_its_sender(self):
        b = MqttBroker(oid="b", peers=frozenset({"c1", "c2"}))
        b, _ = actor_step(b, ("c1", SubMsg("t")))
        b, _ = actor_step(b, ("c2", SubMsg("t")))
        b, outs = actor_step(b, ("c1", UnsubMsg("t")))
        assert outs == [("c1", UnsubAck())]
        assert b.subscriber_map() == {"t": frozenset({"c2"})}
        b, outs = actor_step(b, ("c2", UnsubMsg("t")))
        assert outs == [("c2", UnsubAck())]
        assert b.subscriber_map() == {}

    def test_disconnect_clears_peer_and_subscriptions(self):
        b = MqttBroker(oid="b", peers=frozenset({"c1", "c2"}))
        b, _ = actor_step(b, ("c1", SubMsg("t")))
        b, _ = actor_step(b, ("c1", DisconnectMsg()))
        assert b.peers == {"c2"}
        assert b.subscriber_map() == {}


ALL_MSGS = [
    ConnectMsg("b"), ConnAck(), SubMsg("temp"), SubAck(), UnsubMsg("temp"),
    UnsubAck(), PubMsg("temp", "34"), Forward("temp", "34"), DisconnectMsg(),
]


class TestCodec:
    @pytest.mark.parametrize("msg", ALL_MSGS, ids=lambda m: type(m).__name__)
    def test_round_trip_each_kind(self, msg):
        assert decode_mqtt(encode_mqtt(msg)) == msg
        assert decode_mqtt(encode_mqtt(msg, 512)) == msg

    @given(topic=field_text, value=field_text)
    def test_round_trip_random_fields(self, topic, value):
        for msg in (SubMsg(topic), PubMsg(topic, value), Forward(topic, value)):
            assert decode_mqtt(encode_mqtt(msg)) == msg

    def test_zero_payload_malformed(self):
        assert isinstance(decode_mqtt(Nat(0)), RetractFailure)

    def test_width_overflow(self):
        # PubMsg("temp", "34") needs 72 bits.
        assert not MqttMsgSpace(8).contains(PubMsg("temp", "34"))
        assert not MqttMsgSpace(71).contains(PubMsg("temp", "34"))
        assert MqttMsgSpace(72).contains(PubMsg("temp", "34"))

    def test_overwidth_bitvec_malformed(self):
        assert isinstance(decode_mqtt(BitVec(8, 1 << 20)), RetractFailure)

    def test_non_numeric_values_malformed(self):
        for v in (Pair(Nat(1), Nat(2)), AtomSet(("a",)), Tagged(1, Nat(2))):
            assert isinstance(decode_mqtt(v), RetractFailure)

    def test_random_payloads_overwhelmingly_malformed(self):
        rng = Rng(404, 1)
        bad = 0
        trials = 10_000
        for _ in range(trials):
            n = (rng.next_u64() << 64) | rng.next_u64()
            if isinstance(decode_mqtt(Nat(n)), RetractFailure):
                bad += 1
        assert bad / trials >= 0.99

    @given(st.integers(0, 2**64))
    def test_decode_is_total(self, n):
        decode_mqtt(Nat(n))   # must not raise

    def test_field_limits(self):
        for bad in (SubMsg(""), SubMsg("x" * 256), SubMsg("\u00e9" * 128),
                    SubMsg("\ud800"), SubMsg(3), Nat(3)):
            assert not MqttMsgSpace().contains(bad)
        assert MqttMsgSpace().contains(SubMsg("x" * 255))

    @pytest.mark.parametrize("width", [None, 8, 64, 512])
    @given(seed=st.integers(0, 2**64 - 1))
    def test_drawn_messages_are_members_and_round_trip(self, width, seed):
        space, codec = MqttMsgSpace(width), mqtt_codec_adaptor(width)
        rng = Rng(seed, SAMPLE_TAG)
        for _ in range(20):
            msg = space.sample(rng)
            assert space.contains(msg) and codec.r(codec.j(msg)) == msg
            # Only the kinds without fields fit one byte.
            assert width != 8 or not fields(msg)

    def test_draws_reach_every_kind(self):
        rng = Rng(0, SAMPLE_TAG)
        drawn = {type(MqttMsgSpace(512).sample(rng)) for _ in range(200)}
        assert drawn == set(map(type, ALL_MSGS))

    @given(msg=st.sampled_from(ALL_MSGS) | st.builds(PubMsg, field_text, field_text),
           delta=st.integers(-9, 9))
    @example(msg=PubMsg("t", "v"), delta=1)   # 35 bits, in 5 bytes
    def test_decoded_bitvecs_are_members(self, msg, delta):
        # A bit-vector decodes to a message only where the message's
        # encoding fits the vector's width, so the codec can encode it back.
        n = encode_mqtt(msg).n
        width = max(8, n.bit_length() + delta)
        fits = MqttMsgSpace(width).contains(msg)
        assert decode_mqtt(BitVec(width, n)) == (
            msg if fits else RetractFailure("bits exceed declared width"))


def test_initial_configuration_shape():
    actors = initial_configuration()
    assert [a.oid for a in actors] == ["c1", "c2", "b"]
    assert actors[0].cmd_list == (ConnectMsg("b"), SubMsg("temp"))
    assert actors[1].cmd_list == (ConnectMsg("b"), PubMsg("temp", "34"))


# ---------------------------------------------------------------------------
# Oracle: frozen copies of the free step functions that each actor's own
# ``step`` replaced.  ``actor_step`` must agree with them on every state,
# reachable or not, and every message from every source, down to the
# Reject text.
# ---------------------------------------------------------------------------

_OLD_AWAITS = {ConnectMsg: "connack", SubMsg: "suback", UnsubMsg: "unsuback"}


def _old_actor_step(actor, incoming):
    if isinstance(actor, MqttClient):
        return _old_client_step(actor, incoming)
    if isinstance(actor, MqttBroker):
        return _old_broker_step(actor, incoming)
    raise TypeError(f"not an actor: {actor!r}")


def _old_client_step(c, incoming):
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
                        awaiting=_OLD_AWAITS.get(type(msg))), [(dst, msg)])

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


def _old_broker_step(b, incoming):
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


# A small pool of names, so sources are often connected peers, often not,
# and connects often name the broker, often another actor.
_names = st.sampled_from(["b", "b2", "c1", "c2"])
_topics = st.sampled_from(["t", "u"])
_values = st.sampled_from(["1", "34"])
_msgs = st.one_of(
    st.builds(ConnectMsg, _names), st.just(ConnAck()),
    st.builds(SubMsg, _topics), st.just(SubAck()),
    st.builds(UnsubMsg, _topics), st.just(UnsubAck()),
    st.builds(PubMsg, _topics, _values), st.builds(Forward, _topics, _values),
    st.just(DisconnectMsg()))
_clients = st.builds(
    MqttClient, oid=_names, peer=st.none() | _names,
    cmd_list=st.lists(_msgs, max_size=3).map(tuple),
    last_recv=st.dictionaries(_topics, _values).map(
        lambda d: tuple(sorted(d.items()))),
    awaiting=st.sampled_from([None, "connack", "suback", "unsuback"]))
_brokers = st.builds(
    MqttBroker, oid=_names, peers=st.frozensets(_names),
    subscribers=st.dictionaries(_topics, st.frozensets(_names)).map(
        lambda d: tuple(sorted(d.items()))))


@given(actor=_clients | _brokers,
       incoming=st.none() | st.tuples(_names, _msgs))
@example(actor=MqttClient(oid="c1", peer="b", awaiting="connack"),
         incoming=("b", ConnAck()))
@example(actor=MqttBroker(oid="b", subscribers=(("t", frozenset({"c1"})),)),
         incoming=("c1", ConnectMsg("b")))
def test_actor_step_matches_the_old_ladder(actor, incoming):
    new, old = actor_step(actor, incoming), _old_actor_step(actor, incoming)
    assert new == old
    if not isinstance(old, Reject):
        assert new[0].digest() == old[0].digest()


# ---------------------------------------------------------------------------
# Oracle: a frozen copy of the encoder that checked every field, then
# encoded each field again and grew its frame by concatenation.
# ``encode_mqtt`` must return the same value, or raise the same exception
# class with the same message, for every message and width.
# ---------------------------------------------------------------------------

_OLD_TAGS = {ConnectMsg: 1, ConnAck: 2, SubMsg: 3, SubAck: 4, UnsubMsg: 5,
             UnsubAck: 6, PubMsg: 7, Forward: 8, DisconnectMsg: 9}


def _old_encoded_size(values):
    size = 1
    for v in values:
        n = len(v.encode("utf-8"))
        if not 1 <= n <= 255:
            raise ValueError(f"field {v[:20]!r} must be 1..255 UTF-8 bytes, "
                             f"got {n}")
        size += 1 + n
    return size


def _old_encode_mqtt(msg, width=None):
    tag = _OLD_TAGS[type(msg)]
    values = [getattr(msg, f.name) for f in fields(msg)]
    size = _old_encoded_size(values)
    if width is not None and size * 8 > width:
        raise SpaceViolation(
            f"{type(msg).__name__} needs {size * 8} bits, width is {width}")
    out = bytes([tag])
    for v in values:
        data = v.encode("utf-8")
        out += bytes([len(data)]) + data
    n = int.from_bytes(out, "big")
    return Nat(n) if width is None else BitVec(width, n)


def _clip_utf8(text: str, limit: int = 256) -> str:
    """The longest prefix of ``text`` of at most ``limit`` UTF-8 bytes."""
    return text.encode("utf-8")[:limit].decode("utf-8", "ignore")


# Fields of 0 to 256 UTF-8 bytes: 1..255 frame, the ends do not.  One- to
# four-byte characters, and runs of one character to reach the long ones.
_chars = st.characters(codec="utf-8")
_wire_fields = (st.text(_chars, max_size=256)
                | st.builds(lambda c, k: c * k, _chars, st.integers(0, 256))
                ).map(_clip_utf8)
_wire_msgs = st.one_of(
    st.builds(ConnectMsg, _wire_fields), st.just(ConnAck()),
    st.builds(SubMsg, _wire_fields), st.just(SubAck()),
    st.builds(UnsubMsg, _wire_fields), st.just(UnsubAck()),
    st.builds(PubMsg, _wire_fields, _wire_fields),
    st.builds(Forward, _wire_fields, _wire_fields),
    st.just(DisconnectMsg()))


def _encoding(encode, msg, width):
    try:
        value = encode(msg, width)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(value), value


@given(msg=_wire_msgs)
@example(msg=PubMsg("x" * 255, "\u00e9" * 128))
@example(msg=Forward("\U0001f600" * 63 + "abc", ""))
@example(msg=SubMsg("t" * 62))
def test_encode_matches_the_old_encoder(msg):
    # Where the old encoder raised, the message is outside the space the
    # encoder takes; elsewhere the encodings are equal.
    for width in (None, 8, 64, 512):
        old = _encoding(_old_encode_mqtt, msg, width)
        fits = MqttMsgSpace(width).contains(msg)
        assert fits != issubclass(old[0], ValueError)
        if fits:
            assert _encoding(encode_mqtt, msg, width) == old


# ---------------------------------------------------------------------------
# Guard: each actor owns its step, so no module tests an actor's class
# ---------------------------------------------------------------------------

_ACTOR_CLASSES = {"MqttClient", "MqttBroker"}
_SOURCES = sorted(Path(dialectica.__file__).parent.glob("*.py"))


def _actor_isinstance_calls(tree) -> list[str]:
    """Each ``isinstance`` call whose class, or one of whose classes, is
    an actor class, by bare name or as a module attribute."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        named = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        if any((getattr(c, "id", None) or getattr(c, "attr", ""))
               in _ACTOR_CLASSES for c in named):
            found.append(ast.unparse(node))
    return found


def test_actor_guard_reads_every_module():
    assert {p.name for p in _SOURCES} >= {"mqtt.py", "runtime.py",
                                          "scenario.py", "attacker.py"}


def test_actor_guard_catches_each_isinstance_form():
    source = ("if isinstance(a, MqttClient) or isinstance(a, mqtt.MqttBroker):\n"
              "    pass\n"
              "ok = isinstance(a, (ConnectMsg, MqttBroker))\n"
              "fine = isinstance(msg, ConnectMsg), isinstance(a, MqttClientish)\n")
    assert sorted(_actor_isinstance_calls(ast.parse(source))) == [
        "isinstance(a, (ConnectMsg, MqttBroker))",
        "isinstance(a, MqttClient)",
        "isinstance(a, mqtt.MqttBroker)",
    ]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_actor_isinstance_in_source(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _actor_isinstance_calls(tree) == []
