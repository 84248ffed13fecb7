import json
import os
import sys
from dataclasses import dataclass

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import ALL_SCENARIOS, delivered_messages, load_scenario_doc
from dialectica.attacker import AttackerState
from dialectica.mqtt import (
    Connect,
    MqttBroker,
    MqttClient,
    Publish,
    Reject,
    actor_step,
    encode_mqtt,
    initial_configuration,
    mqtt_codec_adaptor,
)
from dialectica.net import Message
from dialectica.rng import MASK64, RATE_TAG, derive, fnv64, throw_biased, uniform01
from dialectica.runtime import (
    AperiodicPolicy,
    Quiescent,
    StaticPolicy,
    _attack_candidates,
    _enabled_instances,
    actor_digest,
    build_report,
    make_configuration,
    rule_deliver,
    rule_in,
    rule_out,
    run,
    step,
)
from dialectica.scenario import build_configuration, parse_scenario
from dialectica.specs import build_lingo

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))
from scale import scale_scenario  # noqa: E402
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
        assert ("in", "b", "c1") not in _enabled_instances(cfg)
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


# ---------------------------------------------------------------------------
# Reference scheduler: the full rebuild of the enabled set on every step,
# with attack candidates found by scanning the attacker's registries.  The
# runtime maintains the same list incrementally; it must match in order.
# ---------------------------------------------------------------------------

def reference_strategy_ready(atk, strategy, src, dst):
    if strategy in ("replay", "xor_recipe", "xor_sharp_recipe"):
        return any(r.src == src and r.dst == dst for r in reversed(atk.records))
    if strategy == "param_reuse_oracle":
        return any(c.params is not None and c.src == src and c.dst == dst
                   for c in atk.clear)
    return strategy in ("dc_zero_remainder", "random_wire")


def reference_attack_candidates(cfg):
    atk = cfg.attacker
    oids = sorted(cfg.wrappers)
    if cfg.attacker_targets is not None:
        pairs = list(cfg.attacker_targets)
    else:
        pairs = [(s, d) for s in oids for d in oids if s != d]
    return [(strategy, pair) for strategy in atk.strategies for pair in pairs
            if reference_strategy_ready(atk, strategy, *pair)]


def reference_enabled_instances(cfg):
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
            buf = w.in_buffers[src]
            if not buf:
                continue
            lingo = w.lingo_for(src, sending=False)
            need = lingo.egress_arity if lingo else 1
            if len(buf) >= need:
                instances.append(("in", oid, src))
    atk = cfg.attacker
    if atk is not None and atk.budget_left > 0:
        gate = uniform01(derive(cfg.seed, RATE_TAG, cfg.clock))
        if gate < atk.injection_rate and reference_attack_candidates(cfg):
            instances.append(("attacker",))
    return instances


def assert_indexes_match_records(atk):
    latest, lingo_counts, pair_counts = {}, {}, {}
    for rec in atk.records:
        latest[(rec.src, rec.dst)] = rec
        name = rec.hidden.lingo_name
        if name is not None:
            lingo_counts[name] = lingo_counts.get(name, 0) + 1
            key = (name, repr(rec.hidden.param))
            pair_counts[key] = pair_counts.get(key, 0) + 1
    assert {k: id(v) for k, v in atk.latest.items()} == \
        {k: id(v) for k, v in latest.items()}
    assert atk.lingo_counts == lingo_counts
    assert atk.pair_counts == pair_counts
    assert [id(r) for r, _ in atk.unrevealed] == \
        [id(r) for r in atk.records if not r.revealed]
    assert [k for _, k in atk.unrevealed] == [
        None if r.hidden.lingo_name is None
        else (r.hidden.lingo_name, repr(r.hidden.param))
        for r in atk.records if not r.revealed]
    leaked = {}
    for c in atk.clear:
        if c.params is not None:
            leaked[(c.src, c.dst)] = c
    assert {k: id(v) for k, v in atk.leaked.items()} == \
        {k: id(v) for k, v in leaked.items()}


def run_against_reference(cfg, budget):
    """Step ``cfg`` like ``run`` does, checking the enabled set and the
    attacker indexes against full recomputation before every step."""
    steps = 0
    while True:
        got = _enabled_instances(cfg)
        assert got == reference_enabled_instances(cfg), f"step {cfg.clock}"
        if cfg.attacker is not None:
            assert_indexes_match_records(cfg.attacker)
            assert _attack_candidates(cfg) == reference_attack_candidates(cfg)
        if not got or steps == budget:
            return steps
        step(cfg)
        steps += 1


def _oracle_docs():
    docs = {name: load_scenario_doc(name) for name in ALL_SCENARIOS}
    for attacker in (False, True):
        docs[f"scale6_attacker{int(attacker)}"] = scale_scenario(
            6, 4, 3, 128, attacker, 0)
    targeted = load_scenario_doc("mqtt_adversarial.json")
    targeted["attacker"]["targets"] = [["c1", "b"], ["b", "c2"], ["c1", "c2"],
                                       ["c1", "b"]]
    targeted["attacker"]["max_injections"] = 60
    docs["targets"] = targeted
    oracle = scale_scenario(6, 4, 3, 128, False, 0)
    oracle["attacker"] = {
        "strategies": ["param_reuse_oracle", "replay"],
        "injection_rate": 0.3, "max_injections": 40,
        "advantage": {"s_max": [[1, 0.2]], "t_max": [[30, 0.05]]}}
    docs["param_reuse_oracle"] = oracle
    # Egress arity 1 and 2 under one aperiodic policy: in-readiness of a
    # buffered wire flips with the receive lingo.
    mixed = scale_scenario(6, 4, 3, 128, False, 0)
    del mixed["lingo_stack"]
    mixed["policy"] = {"aperiodic": {"msg_bound": 2, "lingos": [
        {"kind": "xor_bitvec", "width": 128},
        {"kind": "split_bitvec", "half_width": 64}]}}
    docs["aperiodic_mixed_arity"] = mixed
    mixed_attacked = json.loads(json.dumps(mixed))
    mixed_attacked["attacker"] = {"strategies": ["replay", "random_wire"],
                                  "injection_rate": 0.1, "max_injections": 20}
    docs["aperiodic_mixed_arity_attacked"] = mixed_attacked
    return docs


ORACLE_DOCS = _oracle_docs()


class TestIncrementalEnabledSet:
    @pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
    def test_matches_full_rebuild_at_every_step(self, name):
        scenario = parse_scenario(ORACLE_DOCS[name])
        cfg = build_configuration(scenario)
        steps = run_against_reference(cfg, scenario.max_steps)
        assert steps > 0

    def test_mixed_arity_flips_in_readiness(self):
        # One buffered wire is enough under xor_bitvec and too few under
        # split_bitvec: both must be seen, or the oracle run above proves
        # nothing about arity.
        cfg = build_configuration(parse_scenario(
            ORACLE_DOCS["aperiodic_mixed_arity"]))
        seen = set()
        while True:
            enabled = _enabled_instances(cfg)
            for oid, w in cfg.wrappers.items():
                for src, buf in w.in_buffers.items():
                    if len(buf) == 1:
                        seen.add(("in", oid, src) in enabled)
            if not enabled:
                break
            step(cfg)
        assert seen == {True, False}
        assert cfg.stats["rejected"] == 0

    def test_direct_channel_append_is_seen(self):
        cfg = TestRules().make_pair()
        run_against_reference(cfg, 0)
        cfg.channel("c1", "b").append(
            Message(dst="b", src="c1", payload=Nat(1), injected=True))
        run_against_reference(cfg, 100)


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
            n = len(e["wire"])
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

    @rule(n=st.integers(1, 40))
    def advance(self, n):
        for _ in range(n):
            try:
                step(self.cfg)
            except Quiescent:
                return

    @invariant()
    def fifo_per_flow(self):
        cfg = self.cfg
        for (src, dst), channel in cfg.channels.items():
            held = list(cfg.wrappers[dst].in_buffers.get(src, ())) + list(channel)
            seqs = [m.seq for m in held if not m.injected]
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
                         if not m.injected]
            assert done + in_flight == seqs, flow

    @invariant()
    def enabled_set_matches_reference(self):
        assert _enabled_instances(self.cfg) == \
            reference_enabled_instances(self.cfg)


RuntimeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None)
TestRuntimeInvariants = RuntimeMachine.TestCase
