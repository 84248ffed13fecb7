import ast
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dialectica

from conftest import initial_configuration
from dialectica.core import Rng
from dialectica.mqtt import (
    ConnAck,
    ConnectMsg,
    DisconnectMsg,
    Forward,
    MqttBroker,
    MqttClient,
    PubMsg,
    Reject,
    RetractFailure,
    SubAck,
    SubMsg,
    UnsubAck,
    UnsubMsg,
    WidthOverflow,
    actor_step,
    decode_mqtt,
    encode_mqtt,
)
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
        with pytest.raises(WidthOverflow):
            encode_mqtt(PubMsg("temp", "34"), 8)

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
        with pytest.raises(ValueError):
            encode_mqtt(SubMsg(""))
        with pytest.raises(ValueError):
            encode_mqtt(SubMsg("x" * 256))


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
