import pytest
from hypothesis import given, strategies as st

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
