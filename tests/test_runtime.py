import ast
import dataclasses
import inspect
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import (
    ALL_SCENARIOS,
    delivered_messages,
    event_json,
    initial_configuration,
    load_scenario_doc,
    scenario_path,
    trace_form,
)
from dialectica.attacker import AttackerConfig, NoAttempt
from dialectica.core import is_compliant
from dialectica.mqtt import (
    ConnectMsg,
    MqttBroker,
    MqttClient,
    PubMsg,
    Reject,
    SubMsg,
    actor_step,
    encode_mqtt,
    mqtt_codec_adaptor,
)
from dialectica.net import Message
from dialectica.rng import (
    MASK64,
    RATE_TAG,
    SCHED_TAG,
    derive,
    fnv64,
    throw_biased,
    uniform01,
)
from dialectica import runtime
from dialectica.runtime import (
    TRACE_LINES,
    AperiodicPolicy,
    Quiescent,
    StaticPolicy,
    _attack_candidates,
    _enabled_instances,
    build_report,
    make_configuration,
    rule_deliver,
    rule_in,
    rule_out,
    run,
    step,
)
from dialectica.scenario import build_configuration, load_scenario, parse_scenario
from dialectica.specs import build_lingo

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))
from scale import scale_scenario  # noqa: E402
from dialectica.values import BitVec, Nat, Pair, value_from_json


def xor_nat():
    return build_lingo({"kind": "xor_nat"})


def final_digests(cfg):
    return {oid: w.actor.digest() for oid, w in sorted(cfg.wrappers.items())}


class TestRules:
    def make_pair(self, lingo_spec=None, seed=5):
        policy = StaticPolicy(build_lingo(lingo_spec or {"kind": "xor_nat"}))
        actors = [MqttClient(oid="c1", cmd_list=(ConnectMsg("b"),)),
                  MqttBroker(oid="b")]
        return make_configuration(actors, policy, seed, codec=mqtt_codec_adaptor())

    def test_out_transforms_and_counts(self):
        cfg = self.make_pair()
        rule_out(cfg, "c1")
        assert cfg.wrappers["c1"].send_counters == {"b": 1}
        [msg] = list(cfg.channel("c1", "b"))
        lingo = cfg.wrappers["c1"].policy.lingo
        expected = lingo.f(encode_mqtt(__import__("dialectica.mqtt",
                           fromlist=["ConnectMsg"]).ConnectMsg("b")),
                           lingo.param(0, 5))
        assert msg.payload == expected

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

    def test_split_lingo_one_wire_message_per_send(self):
        policy = StaticPolicy(build_lingo({"kind": "split_bitvec",
                                           "half_width": 64}))
        actors = [MqttClient(oid="c1", cmd_list=(ConnectMsg("b"),)),
                  MqttBroker(oid="b")]
        cfg = make_configuration(actors, policy, 5, codec=mqtt_codec_adaptor(128))
        rule_out(cfg, "c1")
        [m] = cfg.channel("c1", "b")
        assert isinstance(m.payload, Pair)
        assert cfg.wrappers["c1"].send_counters == {"b": 1}
        rule_deliver(cfg, "c1", "b")
        assert ("in", "b", "c1") in _enabled_instances(cfg)
        rule_in(cfg, "b", "c1")
        assert cfg.stats["delivered"] == 1
        assert cfg.wrappers["b"].recv_counters == {"c1": 1}

    def test_replayed_wire_rejected(self):
        cfg = self.make_pair()
        rule_out(cfg, "c1")
        head = cfg.channel("c1", "b")[0]
        replay = Message(dst=head.dst, src=head.src, payload=head.payload,
                         seq=head.seq, strategy="replay")
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
            Message(dst="b", src="c1", payload=Nat(12345),
                    strategy="random_wire"))
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        assert cfg.stats["rejected"] == 1
        assert cfg.wrappers["b"].recv_counters == {"c1": 1}

    def test_overwidth_wire_fails_the_shape_gate(self):
        policy = StaticPolicy(build_lingo({"kind": "xor_bitvec", "width": 128}))
        actors = [MqttClient(oid="c1"), MqttBroker(oid="b")]
        cfg = make_configuration(actors, policy, 5, codec=mqtt_codec_adaptor(128))
        cfg.channel("c1", "b").append(Message(
            dst="b", src="c1", payload=BitVec(128, 1 << 200),
            strategy="random_wire"))
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        [reject] = [e for e in cfg.event_log if e["ev"] == "reject"]
        assert reject["reason"] == "decode:wire value has the wrong shape"

    def test_encoding_wider_than_the_codec_is_malformed(self):
        # PubMsg("t", "v") takes 35 bits in 5 bytes: the vector holds it,
        # but 40 bits exceed the codec's width, so the broker could not
        # encode the Forward it would send.
        policy = StaticPolicy(build_lingo({"kind": "identity",
                                           "space": {"bitvec": 36}}))
        actors = [MqttClient(oid="c1", cmd_list=(ConnectMsg("b"), SubMsg("t"))),
                  MqttBroker(oid="b")]
        cfg = make_configuration(actors, policy, 5, codec=mqtt_codec_adaptor(36))
        assert run(cfg, 100)[0]
        cfg.channel("c1", "b").append(Message(
            dst="b", src="c1", strategy="random_wire",
            payload=BitVec(36, int.from_bytes(bytes([7, 1, 116, 1, 118]), "big"))))
        quiesced, _ = run(cfg, 100)
        [reject] = [e for e in cfg.event_log if e["ev"] == "reject"]
        assert quiesced
        assert reject["reason"] == "malformed:bits exceed declared width"


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
            return event_json(cfg.event_log, sort_keys=True)

        assert one_run() == one_run()

    def test_different_seed_different_trace(self):
        traces = []
        for seed in (11, 12):
            cfg = make_configuration(initial_configuration(),
                                     StaticPolicy(xor_nat()), seed,
                                     codec=mqtt_codec_adaptor())
            run(cfg, 500)
            traces.append(event_json(cfg.event_log, sort_keys=True))
        assert traces[0] != traces[1]

    def test_run_takes_exactly_the_budget(self):
        from conftest import scenario_path
        from dialectica.scenario import build_configuration, load_scenario
        cfg = build_configuration(load_scenario(scenario_path("mqtt_xor.json")))
        assert run(cfg, 3) == (False, 3)
        assert cfg.clock == 3
        assert len(cfg.event_log) == 3

    @pytest.mark.parametrize("rate", [0.0, 0.05, 1.0])
    def test_rate_gate_is_drawn_only_below_rate_1(self, monkeypatch, rate):
        # Every step() call, the one that raises Quiescent too, and run's
        # final check draw the gate while budget is left; at rate 1 the
        # gate cannot fail and is never drawn.
        doc = scale_scenario(6, 4, 3, 128, True, 0)
        doc["attacker"]["injection_rate"] = rate
        cfg = build_configuration(parse_scenario(doc))
        tags = Counter()

        def counted(seed, tag, index):
            tags[tag] += 1
            return derive(seed, tag, index)
        monkeypatch.setattr(runtime, "derive", counted)
        quiesced, steps = run(cfg, 3000)
        assert cfg.attacker.budget_left > 0
        assert (cfg.stats["injected"] > 0) == (rate > 0)
        assert set(tags) <= {SCHED_TAG, RATE_TAG}
        assert tags[SCHED_TAG] == steps
        assert tags[RATE_TAG] == (0 if rate == 1 else steps + 1)

    def test_fifo_order_preserved(self):
        actors = [MqttClient(oid="c1", peer="b",
                             cmd_list=tuple(PubMsg("t", f"v{i}")
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
        return final_digests(cfg), delivered_messages(cfg)

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


# Reference: the per-flow rotation state machine the runtime used to keep
# next to its counters.  The counter-derived ``lingo_at`` must select the
# same lingo for every message and log the same switches.
@dataclass
class RefAperState:
    count: int
    lingo_index: int
    epoch: int


def ref_draw(policy, seed, src, dst, epoch):
    if len(policy.lingos) == 1:
        return 0
    bias = (1,) * len(policy.lingos)
    return throw_biased(seed, (epoch ^ fnv64(src + "|" + dst)) & MASK64, bias) - 1


def ref_init(policy, seed, src, dst):
    return RefAperState(0, ref_draw(policy, seed, src, dst, 0), 0)


def ref_advance(policy, state, seed, src, dst):
    """(active lingo, successor state, switched) for one message."""
    active = policy.lingos[state.lingo_index]
    count = state.count + 1
    if count >= policy.msg_bound:
        epoch = state.epoch + 1
        idx = ref_draw(policy, seed, src, dst, epoch)
        return active, RefAperState(0, idx, epoch), True
    return active, RefAperState(count, state.lingo_index, state.epoch), False


ROTATION_LINGOS = (
    build_lingo({"kind": "xor_nat"}),
    build_lingo({"kind": "divide_check"}),
    build_lingo({"kind": "reverse_divide_check"}),
)


def rotation_events(cfg):
    return [e for e in cfg.event_log if e["ev"] in ("out", "in", "reject")]


class TestAperiodic:
    @pytest.mark.parametrize("msg_bound", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lingo_at_matches_the_state_machine(self, msg_bound, k):
        policy = AperiodicPolicy(msg_bound=msg_bound, lingos=ROTATION_LINGOS[:k])
        for seed in (0, 9, 11, 42, 1729):
            for src, dst in (("a", "b"), ("b", "a"), ("c2", "b"), ("b", "c12")):
                state = ref_init(policy, seed, src, dst)
                for n in range(40):
                    active, state, switched = ref_advance(policy, state, seed,
                                                          src, dst)
                    assert policy.lingo_at(seed, src, dst, n) is active
                    assert switched == ((n + 1) % msg_bound == 0)
                    assert state.epoch == (n + 1) // msg_bound
                    assert (policy.lingo_at(seed, src, dst, n + 1)
                            is policy.lingos[state.lingo_index])

    @pytest.mark.parametrize("msg_bound", [1, 2, 3])
    def test_runtime_switch_events_match_the_state_machine(self, msg_bound):
        policy = AperiodicPolicy(msg_bound=msg_bound, lingos=ROTATION_LINGOS[:2])
        seed = 11
        cfg = make_configuration(initial_configuration(), policy, seed,
                                 codec=mqtt_codec_adaptor())
        run(cfg, 600)
        states, expected = {}, []
        for e in rotation_events(cfg):
            sending = e["ev"] == "out"
            oid, peer = (e["src"], e["dst"]) if sending else (e["dst"], e["src"])
            src, dst = e["src"], e["dst"]
            key = (src, dst, sending)
            if key not in states:
                states[key] = ref_init(policy, seed, src, dst)
            active, states[key], switched = ref_advance(policy, states[key],
                                                        seed, src, dst)
            if e["ev"] == "out":
                assert e["lingo"] == active.name
            if switched:
                expected.append({
                    "t": e["t"], "ev": "switch", "oid": oid, "peer": peer,
                    "direction": "send" if sending else "recv",
                    "epoch": states[key].epoch,
                    "lingo": policy.lingos[states[key].lingo_index].name})
        switches = [e for e in cfg.event_log if e["ev"] == "switch"]
        assert switches == expected
        assert switches
        # each switch is logged in the step of the message that ends the epoch
        for i, e in enumerate(cfg.event_log):
            if e["ev"] == "switch":
                nxt = cfg.event_log[i + 1]
                assert nxt["t"] == e["t"] and nxt["ev"] in ("out", "in", "reject")

    def test_epoch_bound_switching(self):
        policy = AperiodicPolicy(msg_bound=3, lingos=ROTATION_LINGOS[:2])
        names = [policy.lingo_at(42, "a", "b", n).name for n in range(30)]
        # three messages per epoch: the lingo can change only at n % 3 == 0
        assert all(names[n] == names[n - 1] for n in range(1, 30) if n % 3)
        assert len(set(names)) == 2

    def test_msg_bound_one_redraws_every_message(self):
        policy = AperiodicPolicy(msg_bound=1, lingos=ROTATION_LINGOS[:2])
        names = [policy.lingo_at(9, "a", "b", n).name for n in range(40)]
        assert len(set(names)) == 2
        cfg = make_configuration(initial_configuration(), policy, 9,
                                 codec=mqtt_codec_adaptor())
        run(cfg, 600)
        epochs = {}
        for e in cfg.event_log:
            if e["ev"] == "switch":
                epochs.setdefault((e["oid"], e["peer"], e["direction"]),
                                  []).append(e["epoch"])
        # a switch after every message of every flow
        assert sum(map(len, epochs.values())) == len(rotation_events(cfg))
        assert all(v == list(range(1, len(v) + 1)) for v in epochs.values())

    def test_sender_and_receiver_agree(self):
        policy = AperiodicPolicy(msg_bound=2, lingos=ROTATION_LINGOS[:2])
        cfg = make_configuration(initial_configuration(), policy, 11,
                                 codec=mqtt_codec_adaptor())
        run(cfg, 600)
        sent = {(e["src"], e["dst"], e["n"]): e["lingo"]
                for e in cfg.event_log if e["ev"] == "out"}
        for (src, dst, n), name in sent.items():
            receiver = cfg.wrappers[dst]
            assert policy.lingo_at(receiver.seed, src, dst, n).name == name
        assert len(set(sent.values())) == 2

    def test_lingos_must_have_distinct_names(self):
        # Switch and out events name a lingo, and the attacker counts uses
        # by name, so two lingos of one name could not be told apart.
        with pytest.raises(ValueError, match=r"share the names \['xor_nat'\]"):
            AperiodicPolicy(msg_bound=1, lingos=(
                build_lingo({"kind": "xor_nat"}),
                build_lingo({"kind": "divide_check"}),
                build_lingo({"kind": "xor_nat"})))

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
    def test_builds_share_the_parsed_scenario(self):
        # One parse, two builds: each run gets its own attacker state over
        # the one parsed config, and the runs match byte for byte.
        scenario = load_scenario(scenario_path("mqtt_sharp_attack.json"))

        def one_run():
            cfg = build_configuration(scenario)
            lines = []
            cfg.sink = lambda e: lines.append(TRACE_LINES[e["ev"]](e))
            quiesced, steps = run(cfg, 2000)
            report = build_report(cfg, quiesced, steps, scenario.policy,
                                  law_samples=10)
            return cfg, "".join(lines), json.dumps(report, sort_keys=True)

        first, trace1, report1 = one_run()
        second, trace2, report2 = one_run()
        assert first.stats["injected"] > 0
        assert (trace1, report1) == (trace2, report2)
        assert first.attacker is not second.attacker
        assert first.attacker.config is second.attacker.config \
            is scenario.attacker
        assert second.attacker.records is not first.attacker.records

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
            Message(dst="b", src="c1", payload=witness,
                    strategy="dc_zero_remainder"))
        rule_deliver(cfg, "c1", "b")
        rule_in(cfg, "b", "c1")
        [reject] = [e for e in cfg.event_log if e["ev"] == "reject"]
        assert reject["reason"] == "noncompliant"
        assert cfg.stats["forgeries_accepted"] == 0

    @staticmethod
    def forgery_run(stack, payload, strategy):
        doc = {"seed": 5, "payload": payload, "lingo_stack": stack,
               "policy": "static",
               "actors": [
                   {"client": {"oid": "c1", "cmds": [{"connect": "b"}] + [
                       {"publish": ["t", str(i)]} for i in range(10)]}},
                   {"client": {"oid": "c2", "cmds": [{"connect": "b"},
                                                     {"subscribe": "t"}]}},
                   {"broker": {"oid": "b"}}],
               "attacker": {"strategies": [strategy], "max_injections": 200,
                            "targets": [["c1", "b"]]},
               "max_steps": 20000}
        cfg = build_configuration(parse_scenario(doc))
        quiesced, _ = run(cfg, doc["max_steps"])
        assert quiesced and cfg.stats["injected"] == 200
        return cfg

    @pytest.mark.parametrize("strategy", ["random_wire", "replay"])
    def test_auth_code_rejects_every_forgery(self, strategy):
        stack = {"auth": {"base": {"kind": "xor_bitvec", "width": 128},
                          "oids": ["b", "c1"], "m": 128, "j": 16, "k": 16,
                          "seed": 3}}
        cfg = self.forgery_run(stack, {"bitvec": 128}, strategy)
        assert cfg.stats["forgeries_accepted"] == 0
        reasons = {e["reason"] for e in cfg.event_log
                   if e["ev"] == "reject" and e["injected"]}
        assert reasons == {"noncompliant"}

    @pytest.mark.parametrize("strategy", ["random_wire", "replay"])
    def test_forgeries_past_the_lingo_layer_are_compliant(self, strategy):
        # Rebuilt from the log: the n-th wire message the receiver reads on
        # a flow is the n-th message delivered on it.
        stack = {"horizontal": {
            "branches": [{"kind": "xor_nat"}, {"kind": "divide_check"}],
            "defaults": [{"nat": "0"}, {"pair": [{"nat": "0"}, {"nat": "0"}]}],
            "bias": [1, 1]}}
        cfg = self.forgery_run(stack, "nat", strategy)
        lingo = cfg.wrappers["b"].policy.lingo
        wires = {e["seq"]: trace_form(e)["wire"]
                 for e in cfg.event_log if e["ev"] == "inject"}
        delivered = [e["seq"] for e in cfg.event_log if e["ev"] == "deliver"
                     and (e["src"], e["dst"]) == ("c1", "b")]
        lingo_rejects = ("decode:", "default_fallback", "noncompliant")
        passed = {delivered[e["n"]] for e in cfg.event_log
                  if e["ev"] in ("reject", "in")
                  and (e["src"], e["dst"]) == ("c1", "b")
                  and not e.get("reason", "").startswith(lingo_rejects)}
        forged = [(n, wires[seq]) for n, seq in enumerate(delivered)
                  if seq in wires and seq in passed]
        assert len(forged) == cfg.stats["forgeries_accepted"] > 0
        for n, wire in forged:
            assert is_compliant(lingo, value_from_json(wire),
                                lingo.param(n, cfg.seed))

    def test_replayed_forgeries_are_delivered_and_desync_the_flow(self):
        # Under the identity lingo each replay of c1's messages is accepted
        # and delivered, and each moves b's receive counter, so the honest
        # messages after it arrive under a counter they were not encoded at.
        doc = {"seed": 1, "payload": "nat",
               "lingo_stack": {"kind": "identity", "space": "nat"},
               "actors": [
                   {"client": {"oid": "c1", "cmds": [
                       {"connect": "b"}, {"subscribe": "t"},
                       {"publish": ["t", "1"]}, {"publish": ["t", "2"]},
                       {"unsubscribe": "t"}, {"publish": ["t", "3"]}]}},
                   {"broker": {"oid": "b"}}],
               "attacker": {"strategies": ["replay"], "max_injections": 3,
                            "targets": [["c1", "b"]]}}
        scenario = parse_scenario(doc)
        for seed in range(1, 9):
            cfg = build_configuration(scenario, seed_override=seed)
            quiesced, _ = run(cfg, 1000)
            assert quiesced
            assert [cfg.stats[k] for k in ("injected", "forgeries_accepted",
                                           "forgeries_delivered")] == [3, 3, 3]
            assert cfg.per_strategy == {"replay": {
                "attempts": 3, "dialect_accepted": 3, "delivered": 3}}
            desyncs = [e for e in cfg.event_log if e["ev"] == "desync"]
            assert len(desyncs) == 5, seed
            assert all(e["encoded"] != e["used"] for e in desyncs)
            assert cfg.wrappers["b"].actor.subscriber_map() == {}

    def test_no_attempt_injects_nothing(self, monkeypatch):
        # xor_recipe needs an xor-shaped wire value; a divide-check flow
        # carries pairs, so every attempt comes back NoAttempt.
        outcomes = []
        attempt = runtime.attempt_forgery
        monkeypatch.setattr(runtime, "attempt_forgery",
                            lambda *args: outcomes.append(attempt(*args))
                            or outcomes[-1])
        cfg = build_configuration(parse_scenario(ORACLE_DOCS["no_attempt"]))
        quiesced, steps = run(cfg, 400)
        assert outcomes and set(outcomes) == {NoAttempt("wire is not xor-shaped")}
        assert cfg.stats["injected"] == 0 and cfg.per_strategy == {}
        assert not [e for e in cfg.event_log if e["ev"] == "inject"]
        # Each NoAttempt drops its one candidate until a step of another
        # kind has run, so the run quiesces instead of spinning to its
        # budget, and no two NoAttempts come in a row.
        assert quiesced and steps < 400
        assert len(outcomes) <= steps - len(outcomes) + 1
        assert cfg.stats["delivered"] == cfg.stats["honest_sends"]

    def test_zero_injection_rate_disables_attacker(self):
        atk = AttackerConfig(strategies=("random_wire",), max_injections=50,
                             injection_rate=0.0, targets=(("c1", "b"),))
        actors = [MqttClient(oid="c1"), MqttBroker(oid="b")]
        cfg = make_configuration(actors, StaticPolicy(xor_nat()), 4,
                                 codec=mqtt_codec_adaptor(), attacker=atk)
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


# ---------------------------------------------------------------------------
# Reference scheduler: the full rebuild of the enabled set on every step,
# with attack candidates found by scanning the attacker's registry and a
# log of its reveals.  The runtime maintains the same list incrementally;
# it must match in order.
# ---------------------------------------------------------------------------

def log_reveals(cfg, reveals):
    """Append to ``reveals`` the records revealed since it was last
    updated, in record order, and return how many.  Called after every
    step, the log holds the records in reveal order: sweep by sweep, record
    order within a sweep.  The registry itself keeps no reveal order."""
    if cfg.attacker is None:
        return 0
    seen = {id(r) for r in reveals}
    new = [r for r in cfg.attacker.records if r.revealed and id(r) not in seen]
    reveals.extend(new)
    return len(new)


def reference_strategy_ready(atk, reveals, strategy, src, dst):
    if strategy in ("replay", "xor_recipe", "xor_sharp_recipe"):
        return any(r.src == src and r.dst == dst for r in reversed(atk.records))
    if strategy == "param_reuse_oracle":
        return any(r.hidden.param is not None and r.src == src and r.dst == dst
                   for r in reveals)
    return strategy in ("dc_zero_remainder", "random_wire")


def reference_flows(atk):
    """The flows the attacker has captured on, and those it has seen leak
    a parameter on; neither set ever shrinks."""
    return ({(r.src, r.dst) for r in atk.records},
            {(r.src, r.dst) for r in atk.records
             if r.revealed and r.hidden.param is not None})


def reference_attack_candidates(cfg, reveals, dropped):
    """The ready (strategy, flow) pairs, less those in ``dropped``: each
    that came back NoAttempt since the last step of another outcome,
    mapped to ``reference_flows`` when it did, and dropped until those
    flows grow."""
    atk = cfg.attacker
    oids = sorted(cfg.wrappers)
    if atk.config.targets is not None:
        pairs = list(atk.config.targets)
    else:
        pairs = [(s, d) for s in oids for d in oids if s != d]
    flows = reference_flows(atk) if dropped else None
    return [(strategy, pair) for strategy in atk.config.strategies
            for pair in pairs
            if reference_strategy_ready(atk, reveals, strategy, *pair)
            and ((strategy, pair) not in dropped
                 or dropped[(strategy, pair)] != flows)]


def reference_enabled_instances(cfg, reveals, dropped):
    def out_pending(w):
        if w.outbox:
            return True
        stepped = actor_step(w.actor, None)
        return not isinstance(stepped, Reject) and bool(stepped[1])

    instances = []
    for oid in sorted(cfg.wrappers):
        if out_pending(cfg.wrappers[oid]):
            instances.append(("out", oid))
    for (src, dst) in sorted(cfg.channels):
        if cfg.channels[(src, dst)]:
            instances.append(("deliver", src, dst))
    for oid in sorted(cfg.wrappers):
        w = cfg.wrappers[oid]
        for src in sorted(w.in_buffers):
            if w.in_buffers[src]:
                instances.append(("in", oid, src))
    atk = cfg.attacker
    if atk is not None and atk.budget_left > 0:
        gate = uniform01(derive(cfg.seed, RATE_TAG, cfg.clock))
        if gate < atk.config.injection_rate and \
                reference_attack_candidates(cfg, reveals, dropped):
            instances.append(("attacker",))
    return instances


def assert_indexes_match_records(atk, reveals):
    # The (lingo, parameter) key is built only for the strong-reveal rule.
    keyed = bool(atk.config.advantage.s_max)
    latest, lingo_counts, pair_counts = {}, {}, {}
    for rec in atk.records:
        latest[(rec.src, rec.dst)] = rec
        name = rec.hidden.lingo_name
        if name is not None:
            lingo_counts[name] = lingo_counts.get(name, 0) + 1
            if keyed:
                key = (name, repr(rec.hidden.param))
                pair_counts[key] = pair_counts.get(key, 0) + 1
    assert {k: id(v) for k, v in atk.latest.items()} == \
        {k: id(v) for k, v in latest.items()}
    assert atk.lingo_counts == lingo_counts
    assert atk.pair_counts == pair_counts
    assert [id(r) for r, _ in atk.unrevealed] == \
        [id(r) for r in atk.records if not r.revealed]
    assert [k for _, k in atk.unrevealed] == [
        None if r.hidden.lingo_name is None or not keyed
        else (r.hidden.lingo_name, repr(r.hidden.param))
        for r in atk.records if not r.revealed]
    leaked = {}
    for r in reveals:
        if r.hidden.param is not None:
            leaked[(r.src, r.dst)] = r
    assert {k: id(v) for k, v in atk.leaked.items()} == \
        {k: id(v) for k, v in leaked.items()}


def policy_lingos(cfg):
    """id -> lingo for every lingo the wrappers' policies name."""
    return {id(lingo): lingo for w in cfg.wrappers.values()
            if w.policy is not None for lingo in w.policy.lingos}


def assert_param_memo(cfg):
    """The memo holds exactly the (lingo, n) of the honest messages sent so
    far, each under the lingo the policy names for it, and every entry is
    the parameter that lingo derives for n."""
    sent = set()
    for src, w in cfg.wrappers.items():
        if w.policy is not None:
            for dst, count in w.send_counters.items():
                sent.update((id(w.policy.lingo_at(cfg.seed, src, dst, n)), n)
                            for n in range(count))
    assert set(cfg.params) == sent
    lingos = policy_lingos(cfg)
    for (key, n), a in cfg.params.items():
        assert a == lingos[key].param(n, cfg.seed), (lingos[key], n)


def applied_instance(events) -> tuple:
    """The rule instance a step applied, read from the first event it
    logged.  Every rule but the attacker's logs at least one event."""
    if not events:
        return ("attacker",)
    e = events[0]
    if e["ev"] == "switch":
        if e["direction"] == "send":
            return ("out", e["oid"])
        return ("in", e["oid"], e["peer"])
    if e["ev"] == "out":
        return ("out", e["src"])
    if e["ev"] == "deliver":
        return ("deliver", e["src"], e["dst"])
    if e["ev"] in ("in", "reject", "desync"):
        return ("in", e["dst"], e["src"])
    assert e["ev"] in ("reveal", "inject"), e
    return ("attacker",)


def step_picks_from_reference(cfg, reveals, dropped) -> bool:
    """One ``step``, checked to apply instance ``derive(seed, SCHED_TAG,
    clock) % len`` of the reference enabled set, or to raise Quiescent
    when that set is empty, with ``reveals`` brought up to date.  A
    ``reveal`` event counts the records the step revealed.  False when
    quiescent."""
    ref = reference_enabled_instances(cfg, reveals, dropped)
    if not ref:
        with pytest.raises(Quiescent):
            step(cfg)
        return False
    expected = ref[derive(cfg.seed, SCHED_TAG, cfg.clock) % len(ref)]
    start = len(cfg.event_log)
    assert step(cfg) == expected[0], f"step {cfg.clock}"
    if dropped.get(None) != cfg.clock - 1:   # the step was no NoAttempt
        dropped.clear()
    assert applied_instance(cfg.event_log[start:]) == expected, \
        f"step {cfg.clock - 1}"
    assert log_reveals(cfg, reveals) == sum(
        e["revealed"] for e in cfg.event_log[start:] if e["ev"] == "reveal")
    return True


def note_no_attempts(patch, cfg, dropped):
    """Patch ``runtime.attempt_forgery`` so that each (strategy, flow) whose
    attempt comes back NoAttempt is mapped in ``dropped`` to the
    attacker's ``reference_flows`` at that time; ``dropped[None]`` is the
    clock of the last NoAttempt."""
    attempt = runtime.attempt_forgery

    def noting(atk, strategy, target, lingo):
        out = attempt(atk, strategy, target, lingo)
        if isinstance(out, NoAttempt):
            dropped[(strategy, target)] = reference_flows(atk)
            dropped[None] = cfg.clock
        return out

    patch.setattr(runtime, "attempt_forgery", noting)


def run_against_reference(cfg, budget):
    """Step ``cfg`` like ``run`` does, checking the enabled set, the
    attacker indexes and the parameter memo against full recomputation
    before every step, and each step's pick against the reference set."""
    steps = 0
    reveals = []
    dropped = {}
    log_reveals(cfg, reveals)
    with pytest.MonkeyPatch.context() as patch:
        note_no_attempts(patch, cfg, dropped)
        while True:
            got = _enabled_instances(cfg)
            assert got == reference_enabled_instances(cfg, reveals, dropped), \
                f"step {cfg.clock}"
            assert_param_memo(cfg)
            if cfg.attacker is not None:
                assert_indexes_match_records(cfg.attacker, reveals)
                assert _attack_candidates(cfg) == \
                    reference_attack_candidates(cfg, reveals, dropped)
            if not got or steps == budget:
                return steps
            assert step_picks_from_reference(cfg, reveals, dropped)
            steps += 1


def _oracle_docs():
    docs = {name: load_scenario_doc(name) for name in ALL_SCENARIOS}
    for attacker in (False, True):
        docs[f"scale6_attacker{int(attacker)}"] = scale_scenario(
            6, 4, 3, 128, attacker, 0)
    targeted = load_scenario_doc("mqtt_adversarial.json")
    targeted["attacker"]["targets"] = [["c1", "b"], ["b", "c2"], ["c1", "c2"],
                                       ["b", "c1"]]
    targeted["attacker"]["max_injections"] = 60
    docs["targets"] = targeted
    oracle = scale_scenario(6, 4, 3, 128, False, 0)
    oracle["attacker"] = {
        "strategies": ["param_reuse_oracle", "replay"],
        "injection_rate": 0.3, "max_injections": 40,
        "advantage": {"s_max": [[1, 0.2]], "t_max": [[30, 0.05]]}}
    docs["param_reuse_oracle"] = oracle
    # xor and split under one aperiodic policy: the wire rotates between a
    # bit-vector and a pair of halves.
    mixed = scale_scenario(6, 4, 3, 128, False, 0)
    del mixed["lingo_stack"]
    mixed["policy"] = {"aperiodic": {"msg_bound": 2, "lingos": [
        {"kind": "xor_bitvec", "width": 128},
        {"kind": "split_bitvec", "half_width": 64}]}}
    docs["aperiodic_xor_split"] = mixed
    mixed_attacked = json.loads(json.dumps(mixed))
    mixed_attacked["attacker"] = {"strategies": ["replay", "random_wire"],
                                  "injection_rate": 0.1, "max_injections": 20}
    docs["aperiodic_xor_split_attacked"] = mixed_attacked
    # The bundled attacks inject at rate 1 and scale6_attacker1 at 0.05.
    idle = load_scenario_doc("mqtt_adversarial.json")
    idle["attacker"]["injection_rate"] = 0
    docs["injection_rate_0"] = idle
    # Every attempt of xor_recipe on a divide-check flow comes back
    # NoAttempt, which drops the candidate.
    no_attempt = load_scenario_doc("mqtt_xor.json")
    no_attempt["lingo_stack"] = {"kind": "divide_check"}
    no_attempt["attacker"] = {"strategies": ["xor_recipe"],
                              "targets": [["c2", "b"]]}
    docs["no_attempt"] = no_attempt
    # Under rotation an xor_recipe attempt fails on the split epochs and
    # succeeds on the xor ones.
    recipe = json.loads(json.dumps(mixed))
    recipe["attacker"] = {"strategies": ["xor_recipe", "xor_sharp_recipe"],
                          "max_injections": 20}
    docs["aperiodic_xor_split_recipe"] = recipe
    return docs


ORACLE_DOCS = _oracle_docs()


class TestIncrementalEnabledSet:
    @pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
    def test_matches_full_rebuild_at_every_step(self, name):
        scenario = parse_scenario(ORACLE_DOCS[name])
        cfg = build_configuration(scenario)
        steps = run_against_reference(cfg, scenario.max_steps)
        assert steps > 0

    def test_direct_channel_append_is_seen(self):
        cfg = TestRules().make_pair()
        run_against_reference(cfg, 0)
        cfg.channel("c1", "b").append(
            Message(dst="b", src="c1", payload=Nat(1), strategy="random_wire"))
        run_against_reference(cfg, 100)


@pytest.mark.parametrize("name", [*ALL_SCENARIOS, "scale6_attacker1"])
def test_no_actor_is_stepped_spontaneously_twice(name, monkeypatch):
    # ``rule_out`` applies the transition the enabled-set probe computed, so
    # each actor object takes at most one spontaneous step.
    stepped = []   # the actors themselves, kept alive so no id is reused

    def recording_step(actor, incoming):
        if incoming is None:
            stepped.append(actor)
        return actor_step(actor, incoming)

    monkeypatch.setattr(runtime, "actor_step", recording_step)
    scenario = parse_scenario(ORACLE_DOCS[name])
    run(build_configuration(scenario), scenario.max_steps)
    assert stepped
    assert len({id(actor) for actor in stepped}) == len(stepped)


class TestParamMemo:
    def test_each_parameter_is_derived_once(self):
        cfg = build_configuration(parse_scenario(
            scale_scenario(6, 4, 3, 128, False, 0)))
        lingo = cfg.wrappers["b"].policy.lingo
        calls = Counter()

        def param(n, seed):
            calls[n] += 1
            return lingo.param(n, seed)
        counted = StaticPolicy(dataclasses.replace(lingo, param=param))
        for w in cfg.wrappers.values():
            w.policy = counted
        assert run(cfg, 100_000)[0]
        sent = [e["n"] for e in cfg.event_log if e["ev"] == "out"]
        assert len(sent) > len(set(sent))     # flows share counters
        assert calls == Counter(set(sent))

    def test_forgery_flood_leaves_the_memo_empty(self):
        # c1 sends nothing, so every wire b reads is a forgery, and a
        # receive that misses the memo does not fill it.
        scenario = load_scenario(scenario_path("mqtt_sharp_attack.json"))
        cfg = build_configuration(scenario)
        run(cfg, scenario.max_steps)
        assert cfg.stats["injected"] == 10_000
        assert cfg.params == {}

    def test_lingos_at_one_counter_keep_their_own_entries(self):
        cfg = build_configuration(parse_scenario(
            ORACLE_DOCS["aperiodic_xor_split"]))
        assert run(cfg, 100_000)[0]
        lingos = policy_lingos(cfg)
        held = {(lingos[key].name, n) for key, n in cfg.params}
        assert held == {(e["lingo"], e["n"])
                        for e in cfg.event_log if e["ev"] == "out"}
        names_at = Counter(n for _, n in held)
        assert max(names_at.values()) == 2
        for (key, n), a in cfg.params.items():
            assert a == lingos[key].param(n, cfg.seed)


def generic_line(event) -> str:
    return event_json(event, sort_keys=True, separators=(",", ":")) + "\n"


# Quotes, backslashes, a newline and other control characters, non-ASCII
# and an astral character, in every string field.
HARD = 'a"b\\c\nd\t\x00\x1f\x7fé☃\U0001d11e'


def hard_events(text=HARD, injected=True, lingo=None):
    """One event of each kind the runtime logs, as ``Configuration.log``
    builds it."""
    wide = BitVec(4096, 2 ** 4096 - 1)
    raw = PubMsg(text, text)
    return [
        dict(src=text, dst=text, n=3, lingo=lingo, wire=wide, t=0, ev="out"),
        dict(src=text, dst=text, seq=7, t=1, ev="deliver"),
        dict(dst=text, src=text, n=3, outcome=text, msg=text, t=2, ev="in"),
        dict(dst=text, src=text, n=4, reason=text, injected=injected, t=3,
             ev="reject"),
        dict(oid=text, peer=text, direction=text, epoch=2, lingo=text, t=4,
             ev="switch"),
        dict(dst=text, src=text, encoded=5, used=6, t=5, ev="desync"),
        dict(revealed=2, t=6, ev="reveal"),
        dict(src=text, dst=text, strategy=text, seq=8, wire=raw, t=7,
             ev="inject"),
    ]


def logged_kinds() -> set[str]:
    """Every event kind a ``log`` call in the runtime's source names."""
    tree = ast.parse(inspect.getsource(runtime))
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "log"
            and isinstance(node.args[0], ast.Constant)}


class TestTraceLines:
    def test_table_covers_exactly_the_logged_kinds(self):
        assert set(TRACE_LINES) == logged_kinds() == {
            "out", "deliver", "in", "reject", "switch", "desync", "reveal",
            "inject"}

    @pytest.mark.parametrize("injected", [True, False])
    @pytest.mark.parametrize("lingo", [None, "xor_nat", HARD])
    def test_each_kind_writes_the_generic_line(self, injected, lingo):
        events = hard_events(injected=injected, lingo=lingo)
        assert [e["ev"] for e in events] == list(TRACE_LINES)
        for event in events:
            assert TRACE_LINES[event["ev"]](event) == generic_line(event)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(), injected=st.booleans(),
           lingo=st.none() | st.text())
    def test_arbitrary_text_writes_the_generic_line(self, text, injected,
                                                    lingo):
        for event in hard_events(text, injected, lingo):
            assert TRACE_LINES[event["ev"]](event) == generic_line(event)


# ---------------------------------------------------------------------------
# Runtime invariants under seeded stepping
# ---------------------------------------------------------------------------

def honest_seqs_per_flow(cfg):
    """(sent, delivered): per (src, dst), the seqs of honest wire messages in
    send order and in delivery order, rebuilt from the trace.  Each out
    event takes one seq per wire value and each injection one."""
    sent, delivered, injected = {}, {}, set()
    seq = 0
    for e in cfg.event_log:
        if e["ev"] == "out":
            n = len(trace_form(e)["wire"])
            sent.setdefault((e["src"], e["dst"]), []).extend(range(seq, seq + n))
            seq += n
        elif e["ev"] == "inject":
            assert e["seq"] == seq
            injected.add(seq)
            seq += 1
    for e in cfg.event_log:
        if e["ev"] == "deliver" and e["seq"] not in injected:
            delivered.setdefault((e["src"], e["dst"]), []).append(e["seq"])
    return sent, delivered


class RuntimeMachine(RuleBasedStateMachine):
    @initialize(name=st.sampled_from(sorted(ORACLE_DOCS)),
                seed=st.integers(0, 2 ** 32 - 1))
    def build(self, name, seed):
        self.cfg = build_configuration(parse_scenario(ORACLE_DOCS[name]),
                                       seed_override=seed)
        self.reveals = []
        self.dropped = {}
        self.patch = pytest.MonkeyPatch()
        note_no_attempts(self.patch, self.cfg, self.dropped)

    def teardown(self):
        if hasattr(self, "patch"):
            self.patch.undo()

    @rule(n=st.integers(1, 40))
    def advance(self, n):
        for _ in range(n):
            if not step_picks_from_reference(self.cfg, self.reveals,
                                             self.dropped):
                return

    @invariant()
    def fifo_per_flow(self):
        cfg = self.cfg
        for (src, dst), channel in cfg.channels.items():
            held = list(cfg.wrappers[dst].in_buffers.get(src, ())) + list(channel)
            seqs = [m.seq for m in held if m.strategy is None]
            assert seqs == sorted(set(seqs)), (src, dst)

    @invariant()
    def counters_in_sync(self):
        # Receive n takes as many wires as send n made (both follow the
        # flow's lingo sequence), at least one each, so receives can only
        # outrun sends by wires the attacker added.
        cfg = self.cfg
        injections = {}
        for e in cfg.event_log:
            if e["ev"] == "inject":
                flow = (e["src"], e["dst"])
                injections[flow] = injections.get(flow, 0) + 1
        for dst, w in cfg.wrappers.items():
            for src, received in w.recv_counters.items():
                sent = cfg.wrappers[src].send_counters.get(dst, 0)
                assert received <= sent + injections.get((src, dst), 0), \
                    (src, dst)

    @invariant()
    def attacker_keeps_honest_traffic(self):
        # Delivered honest traffic is a prefix of what was sent, and the
        # rest of what was sent is still in the channel, in order.
        sent, delivered = honest_seqs_per_flow(self.cfg)
        for flow, seqs in sent.items():
            done = delivered.get(flow, [])
            assert done == seqs[:len(done)], flow
            in_flight = [m.seq for m in self.cfg.channels.get(flow, ())
                         if m.strategy is None]
            assert done + in_flight == seqs, flow

    @invariant()
    def enabled_set_matches_reference(self):
        assert _enabled_instances(self.cfg) == \
            reference_enabled_instances(self.cfg, self.reveals, self.dropped)


RuntimeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None)
TestRuntimeInvariants = RuntimeMachine.TestCase
