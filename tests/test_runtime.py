import json

import pytest

from dialectica.attacker import AttackerState
from dialectica.mqtt import (
    Connect,
    MqttBroker,
    MqttClient,
    Publish,
    encode_mqtt,
    initial_configuration,
    mqtt_codec_adaptor,
)
from dialectica.net import Message
from dialectica.runtime import (
    AperiodicPolicy,
    Quiescent,
    StaticPolicy,
    actor_digest,
    aperiodic_advance,
    aperiodic_init,
    build_report,
    make_configuration,
    rule_deliver,
    rule_in,
    rule_out,
    run,
    step,
)
from dialectica.specs import build_lingo
from dialectica.values import BitVec, Nat, Pair


def xor_nat():
    return build_lingo({"kind": "xor_nat"})


def final_digests(cfg):
    return {oid: actor_digest(w.actor) for oid, w in sorted(cfg.wrappers.items())}


class TestRules:
    def make_pair(self, lingo_spec=None, seed=5):
        policy = StaticPolicy(build_lingo(lingo_spec or {"kind": "xor_nat"}))
        actors = [MqttClient(oid="c1", cmd_list=(Connect("b"),)),
                  MqttBroker(oid="b")]
        return make_configuration(actors, policy, seed, codec=mqtt_codec_adaptor())

    def test_out_transforms_and_counts(self):
        cfg = self.make_pair()
        rule_out(cfg, "c1")
        assert cfg.wrappers["c1"].send_counters == {"b": 1}
        [msg] = list(cfg.channel("c1", "b"))
        lingo = cfg.wrappers["c1"].policy.lingo
        expected = lingo.f([encode_mqtt(__import__("dialectica.mqtt",
                           fromlist=["ConnectMsg"]).ConnectMsg("b"))],
                           lingo.param(0, 5))
        assert [msg.payload] == expected

    def test_identity_lingo_wire_equals_payload(self):
        cfg = self.make_pair({"kind": "identity", "space": "nat"})
        rule_out(cfg, "c1")
        [msg] = list(cfg.channel("c1", "b"))
        from dialectica.mqtt import ConnectMsg
        assert msg.payload == encode_mqtt(ConnectMsg("b"))

    def test_deliver_moves_head(self):
        cfg = self.make_pair()
        rule_out(cfg, "c1")
        rule_deliver(cfg, "c1", "b")
        assert not cfg.channel("c1", "b")
        assert len(cfg.wrappers["b"].in_buffers["c1"]) == 1

    def test_in_decodes_and_replies(self):
        cfg = self.make_pair()
        rule_out(cfg, "c1")
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        assert cfg.stats["delivered"] == 1
        assert cfg.wrappers["b"].actor.peers == {"c1"}
        assert cfg.wrappers["b"].outbox   # the connack reply
        assert cfg.wrappers["b"].recv_counters == {"c1": 1}

    def test_split_lingo_two_wires_one_logical_send(self):
        policy = StaticPolicy(build_lingo({"kind": "split_bitvec",
                                           "half_width": 64}))
        actors = [MqttClient(oid="c1", cmd_list=(Connect("b"),)),
                  MqttBroker(oid="b")]
        cfg = make_configuration(actors, policy, 5, codec=mqtt_codec_adaptor(128))
        rule_out(cfg, "c1")
        assert len(cfg.channel("c1", "b")) == 2
        assert cfg.wrappers["c1"].send_counters == {"b": 1}
        rule_deliver(cfg, "c1", "b")
        # one wire message is not enough for an egress-2 lingo
        assert ("in", "b", "c1") not in _instances(cfg)
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        assert cfg.stats["delivered"] == 1
        assert cfg.wrappers["b"].recv_counters == {"c1": 1}

    def test_replayed_wire_rejected(self):
        cfg = self.make_pair()
        rule_out(cfg, "c1")
        head = cfg.channel("c1", "b")[0]
        replay = Message(dst=head.dst, src=head.src, payload=head.payload,
                         seq=head.seq, injected=True)
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        cfg.channel("c1", "b").append(replay)
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        # decoded under the advanced counter: garbage, hence rejected
        assert cfg.stats["rejected"] == 1
        assert cfg.stats["delivered"] == 1

    def test_rejection_advances_recv_counter(self):
        cfg = self.make_pair()
        cfg.channel("c1", "b").append(
            Message(dst="b", src="c1", payload=Nat(12345), injected=True))
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        assert cfg.stats["rejected"] == 1
        assert cfg.wrappers["b"].recv_counters == {"c1": 1}

    def test_overwidth_wire_fails_the_shape_gate(self):
        policy = StaticPolicy(build_lingo({"kind": "xor_bitvec", "width": 128}))
        actors = [MqttClient(oid="c1"), MqttBroker(oid="b")]
        cfg = make_configuration(actors, policy, 5, codec=mqtt_codec_adaptor(128))
        cfg.channel("c1", "b").append(Message(
            dst="b", src="c1", payload=BitVec(128, 1 << 200), injected=True))
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        [reject] = [e for e in cfg.event_log if e["ev"] == "reject"]
        assert reject["reason"] == "decode:wire value has the wrong shape"


def _instances(cfg):
    from dialectica.runtime import _enabled_instances
    return _enabled_instances(cfg)


class TestScheduler:
    def test_empty_configuration_is_quiescent(self):
        cfg = make_configuration([], None, 0)
        with pytest.raises(Quiescent):
            step(cfg)

    def test_same_seed_same_trace(self):
        def one_run():
            cfg = make_configuration(initial_configuration(),
                                     StaticPolicy(xor_nat()), 11,
                                     codec=mqtt_codec_adaptor())
            run(cfg, 500)
            return json.dumps(cfg.event_log, sort_keys=True)

        assert one_run() == one_run()

    def test_different_seed_different_trace(self):
        traces = []
        for seed in (11, 12):
            cfg = make_configuration(initial_configuration(),
                                     StaticPolicy(xor_nat()), seed,
                                     codec=mqtt_codec_adaptor())
            run(cfg, 500)
            traces.append(json.dumps(cfg.event_log, sort_keys=True))
        assert traces[0] != traces[1]

    def test_run_takes_exactly_the_budget(self):
        from conftest import scenario_path
        from dialectica.scenario import build_configuration, load_scenario
        cfg = build_configuration(load_scenario(scenario_path("mqtt_xor.json")))
        assert run(cfg, 3) == (False, 3)
        assert cfg.clock == 3
        assert len(cfg.event_log) == 3

    def test_fifo_order_preserved(self):
        actors = [MqttClient(oid="c1", peer="b",
                             cmd_list=tuple(Publish("t", f"v{i}")
                                            for i in range(20))),
                  MqttBroker(oid="b", peers=frozenset({"c1"}))]
        cfg = make_configuration(actors, StaticPolicy(xor_nat()), 7,
                                 codec=mqtt_codec_adaptor())
        run(cfg, 2000)
        seqs = [e["seq"] for e in cfg.event_log if e["ev"] == "deliver"]
        assert seqs == sorted(seqs)
        assert cfg.stats["delivered"] == 20


class TestTransparency:
    WRAPPINGS = {
        "xor_nat": ({"kind": "xor_nat"}, None),
        "xor_bitvec": ({"kind": "xor_bitvec", "width": 128}, 128),
        "horizontal": ({"horizontal": {
            "branches": [{"kind": "xor_nat"}, {"kind": "divide_check"}],
            "defaults": [{"nat": "0"}, {"pair": [{"nat": "0"}, {"nat": "0"}]}],
            "bias": [1, 1]}}, None),
        "functional": ({"functional": [{"kind": "xor_nat"},
                                       {"kind": "divide_check"}]}, None),
    }

    def run_variant(self, policy, width, seed=11, budget=600):
        codec = None if policy is None else mqtt_codec_adaptor(width)
        cfg = make_configuration(initial_configuration(), policy, seed,
                                 codec=codec)
        quiesced, _ = run(cfg, budget)
        assert quiesced
        return final_digests(cfg), tuple(sorted(cfg.delivered_log))

    def test_wrapped_runs_match_bare_run(self):
        bare_digest, bare_delivered = self.run_variant(None, None, budget=64)
        assert bare_digest["c1"]["last_recv"] == {"temp": "34"}
        for name, (spec, width) in self.WRAPPINGS.items():
            digest, delivered = self.run_variant(
                StaticPolicy(build_lingo(spec)), width)
            assert digest == bare_digest, name
            assert delivered == bare_delivered, name

    def test_counter_sync_attacker_free(self):
        # every accepted message decodes under its encode index; the runtime
        # raises on any violation in attacker-free runs and none may occur
        cfg = make_configuration(initial_configuration(),
                                 StaticPolicy(xor_nat()), 11,
                                 codec=mqtt_codec_adaptor())
        quiesced, _ = run(cfg, 600)
        assert quiesced
        assert not [e for e in cfg.event_log if e["ev"] == "desync"]
        assert cfg.stats["rejected"] == 0


class TestAperiodic:
    def test_epoch_bound_switching(self):
        policy = AperiodicPolicy(msg_bound=3, lingos=(
            build_lingo({"kind": "xor_nat"}),
            build_lingo({"kind": "divide_check"})))
        state = aperiodic_init(policy, 42, "a", "b")
        names = []
        for _ in range(7):
            lingo, state, switched = aperiodic_advance(policy, state, 42, "a", "b")
            names.append((lingo.name, state.epoch))
        # three messages per epoch, switch taking effect on the fourth
        assert [e for _, e in names] == [0, 0, 1, 1, 1, 2, 2]
        assert names[0][0] == names[1][0] == names[2][0]

    def test_msg_bound_one_redraws_every_message(self):
        policy = AperiodicPolicy(msg_bound=1, lingos=(
            build_lingo({"kind": "xor_nat"}),
            build_lingo({"kind": "divide_check"})))
        state = aperiodic_init(policy, 9, "a", "b")
        epochs = []
        for _ in range(5):
            _, state, switched = aperiodic_advance(policy, state, 9, "a", "b")
            assert switched
            epochs.append(state.epoch)
        assert epochs == [1, 2, 3, 4, 5]

    def test_sender_and_receiver_agree(self):
        policy = AperiodicPolicy(msg_bound=2, lingos=(
            build_lingo({"kind": "xor_nat"}),
            build_lingo({"kind": "divide_check"})))
        s1 = aperiodic_init(policy, 11, "c2", "b")
        s2 = aperiodic_init(policy, 11, "c2", "b")
        for _ in range(20):
            l1, s1, _ = aperiodic_advance(policy, s1, 11, "c2", "b")
            l2, s2, _ = aperiodic_advance(policy, s2, 11, "c2", "b")
            assert l1.name == l2.name

    def test_end_to_end_run_switches_and_delivers(self):
        policy = AperiodicPolicy(msg_bound=2, lingos=(
            build_lingo({"kind": "xor_nat"}),
            build_lingo({"kind": "divide_check"})))
        cfg = make_configuration(initial_configuration(), policy, 11,
                                 codec=mqtt_codec_adaptor())
        quiesced, _ = run(cfg, 600)
        assert quiesced
        assert final_digests(cfg)["c1"]["last_recv"] == {"temp": "34"}
        assert any(e["ev"] == "switch" for e in cfg.event_log)
        assert cfg.stats["rejected"] == 0


class TestAttackerIntegration:
    def test_on_path_order_preserved(self):
        # honest wire messages are delivered in exactly the order sent
        from conftest import scenario_path
        from dialectica.scenario import build_configuration, load_scenario
        scenario = load_scenario(scenario_path("mqtt_adversarial.json"))
        cfg = build_configuration(scenario)
        run(cfg, scenario.max_steps)
        honest_sent = [e for e in cfg.event_log if e["ev"] == "out"]
        assert honest_sent
        injected_seqs = {e["seq"] for e in cfg.event_log if e["ev"] == "inject"}
        delivered = [e["seq"] for e in cfg.event_log
                     if e["ev"] == "deliver" and e["seq"] not in injected_seqs]
        by_channel = {}
        for e in cfg.event_log:
            if e["ev"] == "deliver" and e["seq"] not in injected_seqs:
                by_channel.setdefault((e["src"], e["dst"]), []).append(e["seq"])
        for seqs in by_channel.values():
            assert seqs == sorted(seqs)

    def test_dc_witness_injection_rejected_as_noncompliant(self):
        actors = [MqttClient(oid="c1"), MqttBroker(oid="b")]
        policy = StaticPolicy(build_lingo({"kind": "divide_check"}))
        cfg = make_configuration(actors, policy, 4, codec=mqtt_codec_adaptor())
        a = policy.lingo.param(0, 4)
        witness = Pair(Nat(0), Nat(a.n + 2))
        cfg.channel("c1", "b").append(
            Message(dst="b", src="c1", payload=witness, injected=True))
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        [reject] = [e for e in cfg.event_log if e["ev"] == "reject"]
        assert reject["reason"] == "noncompliant"
        assert cfg.stats["forgeries_accepted"] == 0

    def test_zero_injection_rate_disables_attacker(self):
        atk = AttackerState(strategies=("random_wire",), max_injections=50,
                            injection_rate=0.0)
        actors = [MqttClient(oid="c1"), MqttBroker(oid="b")]
        cfg = make_configuration(actors, StaticPolicy(xor_nat()), 4,
                                 codec=mqtt_codec_adaptor(), attacker=atk,
                                 attacker_targets=[("c1", "b")])
        quiesced, _ = run(cfg, 500)
        assert quiesced
        assert cfg.stats["injected"] == 0


class TestReport:
    def test_report_shape(self):
        policy = StaticPolicy(xor_nat())
        cfg = make_configuration(initial_configuration(), policy, 11,
                                 codec=mqtt_codec_adaptor())
        quiesced, steps = run(cfg, 600)
        report = build_report(cfg, quiesced, steps, policy)
        assert report["quiesced"]
        assert report["delivered"] + report["rejected"] >= report["honest_sends"]
        assert report["final_actors"]["c1"]["last_recv"] == {"temp": "34"}
        assert all(l["passed"] for l in report["law_checks"])
        json.dumps(report)   # must be serializable
