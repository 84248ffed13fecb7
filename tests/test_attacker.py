import pytest

from dialectica.attacker import (
    AdvantageConfig,
    AttackerState,
    NoAttempt,
    PerMessage,
    ReuseK,
    STRATEGIES,
    attempt_forgery,
    craft_forgery,
    eval_step,
    observe,
    reveal_sweep,
    run_match_experiment,
    run_spoof_experiment,
    strategy_ready,
    wilson_interval,
)
from dialectica.core import Rng, apply_f
from dialectica.mqtt import PubMsg, encode_mqtt
from dialectica.net import HiddenCtx, Message
from dialectica.rng import ATTACKER_TAG
from dialectica.specs import build_lingo
from dialectica.values import Nat, Pair, Tagged


def observed_state(lingo, count=5, seed=77, reuse=1, advantage=None):
    # The advantage is fixed before the first capture: observe keeps the
    # (lingo, parameter) count only for an s_max rule.
    state = AttackerState(advantage=advantage or AdvantageConfig())
    rng = Rng(seed, 123)
    for i in range(count):
        a = lingo.param(i // reuse, seed)
        d = lingo.input_space.sample(rng)
        wire = apply_f(lingo, d, a)
        observe(state, Message(dst="b", src="a", payload=wire, seq=i), t=i,
                hidden=HiddenCtx(lingo_name=lingo.name, param=a, plaintext=d,
                                 index=i))
    return state


class TestObservation:
    def test_counts_and_channels(self):
        state = observed_state(build_lingo({"kind": "xor_nat"}), count=5)
        assert len(state.records) == 5
        assert all(r.src == "a" and r.dst == "b" for r in state.records)


class TestAdvantage:
    def test_step_function_evaluation(self):
        steps = ((2, 0.25), (10, 0.75))
        assert eval_step(steps, 0) == 0.0
        assert eval_step(steps, 2) == 0.25
        assert eval_step(steps, 9) == 0.25
        assert eval_step(steps, 10) == 0.75

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            AdvantageConfig(t_max=((5, 0.1), (3, 0.2)))
        with pytest.raises(ValueError):
            AdvantageConfig(s_max=((1, 1.5),))

    def test_json_parse(self):
        cfg = AdvantageConfig.from_json(
            {"t_max": [[10, 0.5]], "w_max": [], "s_max": [[2, 1.0]]})
        assert cfg.t_max == ((10, 0.5),)
        assert cfg.s_max == ((2, 1.0),)


class TestRevealSweep:
    def test_zero_advantage_reveals_nothing(self):
        state = observed_state(build_lingo({"kind": "xor_nat"}))
        reveal_sweep(state, now=100, rng=Rng(1, ATTACKER_TAG))
        assert state.clear == []

    def test_cleartext_revealed_immediately_with_null_info(self):
        state = AttackerState()
        observe(state, Message(dst="b", src="a", payload=Nat(7)), t=0,
                hidden=HiddenCtx(lingo_name=None, param=None, plaintext=Nat(7),
                                 index=0))
        reveal_sweep(state, now=1, rng=Rng(2, ATTACKER_TAG))
        [rec] = state.clear
        assert rec.clear == Nat(7)
        assert rec.lingo_info is None and rec.params is None

    def test_strong_reuse_reveals_deterministically(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=3, reuse=3,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        reveal_sweep(state, now=3, rng=Rng(3, ATTACKER_TAG))
        assert len(state.clear) == 3
        for rec in state.clear:
            assert rec.params is not None

    def test_revealed_params_re_encode_the_cleartext(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=4, reuse=4,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        reveal_sweep(state, now=4, rng=Rng(4, ATTACKER_TAG))
        for rec in state.clear:
            assert apply_f(lingo, rec.clear, rec.params) == rec.wire

    def test_weak_reuse_rule(self):
        # same lingo, different parameters each time
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=4, reuse=1,
                               advantage=AdvantageConfig(w_max=((4, 1.0),)))
        reveal_sweep(state, now=4, rng=Rng(30, ATTACKER_TAG))
        assert len(state.clear) == 4
        state2 = observed_state(lingo, count=3, reuse=1,
                                advantage=AdvantageConfig(w_max=((4, 1.0),)))
        reveal_sweep(state2, now=3, rng=Rng(30, ATTACKER_TAG))
        assert state2.clear == []   # below the reuse threshold

    def test_age_rule(self):
        state = observed_state(build_lingo({"kind": "xor_nat"}), count=2,
                               advantage=AdvantageConfig(t_max=((50, 1.0),)))
        reveal_sweep(state, now=10, rng=Rng(5, ATTACKER_TAG))
        assert state.clear == []
        reveal_sweep(state, now=100, rng=Rng(5, ATTACKER_TAG))
        assert len(state.clear) == 2

    def test_monotone(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=6, reuse=6,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        sizes = []
        for now in (6, 7, 8):
            reveal_sweep(state, now=now, rng=Rng(6, ATTACKER_TAG))
            sizes.append(len(state.clear))
        assert sizes == sorted(sizes)


class TestForgeryCrafting:
    def test_replay_resends_verbatim(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=2)
        msg = attempt_forgery(state, "replay", ("a", "b"),
                              Rng(7, ATTACKER_TAG), lingo)
        assert isinstance(msg, Message) and msg.strategy == "replay"
        assert msg.payload == state.records[-1].wire

    def test_requirements_gate(self):
        state = AttackerState()
        assert not strategy_ready(state, "replay", "a", "b")
        out = craft_forgery(state, "replay", "a", "b", Rng(8, ATTACKER_TAG))
        assert isinstance(out, NoAttempt)
        assert strategy_ready(state, "random_wire", "a", "b")
        assert not strategy_ready(state, "passive", "a", "b")

    def test_dc_zero_remainder_wraps_tagged_wire(self):
        dc = {"kind": "divide_check"}
        zero = {"pair": [{"nat": "0"}, {"nat": "0"}]}
        lingo = build_lingo({"horizontal": {
            "branches": [dc, dc], "defaults": [zero, zero], "bias": [1, 1]}})
        state = AttackerState()
        payload, intent = craft_forgery(state, "dc_zero_remainder", "a", "b",
                                        Rng(9, ATTACKER_TAG), lingo)
        assert isinstance(payload, Tagged) and payload.branch == 1
        assert intent is None

    # Each strategy on a lingo whose wire it can act on; param_reuse_oracle
    # reads revealed cleartext by design and is left out.
    GROUND_TRUTH_BLIND = {
        "passive": {"kind": "xor_bitvec", "width": 8},
        "replay": {"kind": "xor_bitvec", "width": 8},
        "xor_recipe": {"kind": "xor_bitvec", "width": 8},
        "xor_sharp_recipe": {"sharp": {"kind": "xor_bitvec", "width": 8}},
        "dc_zero_remainder": {"kind": "divide_check"},
        "random_wire": {"kind": "xor_bitvec", "width": 8},
    }

    def test_ground_truth_cases_cover_every_strategy(self):
        assert set(self.GROUND_TRUTH_BLIND) == \
            set(STRATEGIES) - {"param_reuse_oracle"}

    @pytest.mark.parametrize("strategy", sorted(GROUND_TRUTH_BLIND))
    def test_strategies_read_no_ground_truth(self, strategy):
        # Rewriting every record's hidden plaintext and parameter leaves the
        # crafted payload as it was.
        lingo = build_lingo(self.GROUND_TRUTH_BLIND[strategy])
        state = observed_state(lingo, count=3)
        before = craft_forgery(state, strategy, "a", "b",
                               Rng(10, ATTACKER_TAG), lingo)
        assert isinstance(before, NoAttempt) == (strategy == "passive")
        rng = Rng(11, 123)
        for rec in state.records:
            old = rec.hidden
            d, a = old.plaintext, old.param
            while d == old.plaintext:
                d = lingo.input_space.sample(rng)
            while a == old.param:
                a = lingo.param_space.sample(rng)
            rec.hidden = HiddenCtx(lingo_name=old.lingo_name, param=a,
                                   plaintext=d, index=old.index)
        after = craft_forgery(state, strategy, "a", "b",
                              Rng(10, ATTACKER_TAG), lingo)
        if strategy == "passive":
            assert after == before
        else:
            assert after[0] == before[0]


# A bare flow has no lingo, so its wire space is opaque.  Each strategy
# against one captured publish, carried raw as a bare run sends it, or as
# its codec encoding: the outcome (a NoAttempt reason, or the payload and
# the resolved intent) and the attacker stream's next word.  Strategies
# that draw nothing leave the stream at word 0; one draw moves it to word 1.
_WORD0, _WORD1 = 7527320677765747599, 15816010485259326836
_PUB = PubMsg("temp", "34")
_PUB_NAT = Nat(129448201510122042164)      # encode_mqtt(_PUB)
_DC_FORGERY = ((Pair(Nat(19195), Nat(0)), None), _WORD1)
BARE_FLOW_FORGERIES = {
    (_PUB, "passive"): ("passive strategy never injects", _WORD0),
    (_PUB, "replay"): ((_PUB, _PUB), _WORD0),
    (_PUB, "xor_recipe"): ("wire is not xor-shaped", _WORD0),
    (_PUB, "xor_sharp_recipe"): ("no bitvec-pair observation", _WORD0),
    (_PUB, "dc_zero_remainder"): _DC_FORGERY,
    (_PUB, "random_wire"): ("no wire space to sample", _WORD0),
    (_PUB, "param_reuse_oracle"): ("no revealed parameters", _WORD0),
    (_PUB_NAT, "passive"): ("passive strategy never injects", _WORD0),
    (_PUB_NAT, "replay"): ((_PUB_NAT, _PUB_NAT), _WORD0),
    # The mask is a natural drawn in place of the missing wire space.
    (_PUB_NAT, "xor_recipe"): ((Nat(129448201508589674683),
                                Nat(129448201508589674683)), _WORD1),
    (_PUB_NAT, "xor_sharp_recipe"): ("no bitvec-pair observation", _WORD0),
    (_PUB_NAT, "dc_zero_remainder"): _DC_FORGERY,
    (_PUB_NAT, "random_wire"): ("no wire space to sample", _WORD0),
    (_PUB_NAT, "param_reuse_oracle"): ("no revealed parameters", _WORD0),
}


def test_bare_flow_cases_cover_every_strategy():
    assert _PUB_NAT == encode_mqtt(_PUB)
    assert set(BARE_FLOW_FORGERIES) == {
        (wire, s) for wire in (_PUB, _PUB_NAT) for s in STRATEGIES}


@pytest.mark.parametrize("wire, strategy", list(BARE_FLOW_FORGERIES),
                         ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_bare_flow_forgery(wire, strategy):
    state = AttackerState()
    observe(state, Message(dst="b", src="c2", payload=wire), t=0,
            hidden=HiddenCtx(lingo_name=None, param=None, plaintext=wire,
                             index=0))
    rng = Rng(5, ATTACKER_TAG)
    out = craft_forgery(state, strategy, "c2", "b", rng, lingo=None)
    if isinstance(out, NoAttempt):
        outcome = out.reason
    else:
        payload, intent = out
        outcome = (payload, intent if intent is None else intent.resolve())
    assert (outcome, rng.next_u64()) == BARE_FLOW_FORGERIES[wire, strategy]


class TestWilson:
    def test_contains_the_point_estimate(self):
        lo, hi = wilson_interval(39, 10_000)
        assert lo < 39 / 10_000 < hi

    def test_degenerate_counts(self):
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == pytest.approx(1.0)


class TestExperiments:
    def test_replay_blocked_by_per_message_params(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(x8, PerMessage(), "replay",
                                   trials=100, seed=5)
        assert rep.spoof_rate == 0.0
        assert rep.compliance_rate == 1.0   # xor takes any wire value

    def test_xor_recipe_needs_no_parameter_knowledge(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(x8, ReuseK(2), "xor_recipe",
                                   trials=100, seed=5)
        assert rep.spoof_rate == 1.0

    def test_sharp_blocks_random_wires_at_two_to_minus_n(self):
        sx = build_lingo({"sharp": {"kind": "xor_bitvec", "width": 8}})
        rep = run_spoof_experiment(sx, PerMessage(), "random_wire",
                                   trials=20_000, seed=0)
        lo, hi = wilson_interval(rep.compliance_hits, rep.trials)
        assert lo <= 2**-8 <= hi

    def test_sharp_recipe_defeats_the_check_only_during_reuse(self):
        # the forgery check does not make the pair encoding non-malleable:
        # while a parameter is live the recipe passes it every time
        sx = build_lingo({"sharp": {"kind": "xor_bitvec", "width": 8}})
        reuse = run_spoof_experiment(sx, ReuseK(2), "xor_sharp_recipe",
                                     trials=200, seed=6)
        assert reuse.compliance_rate == 1.0 and reuse.spoof_rate == 1.0
        fresh = run_spoof_experiment(sx, PerMessage(), "xor_sharp_recipe",
                                     trials=200, seed=6)
        assert fresh.spoof_rate == 0.0
        assert fresh.compliance_rate <= 0.05

    def test_param_reuse_oracle_after_strong_reuse_reveal(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(
            x8, ReuseK(3), "param_reuse_oracle", trials=100, seed=5,
            observations=2, advantage=AdvantageConfig(s_max=((2, 1.0),)))
        assert rep.spoof_rate == 1.0

    def test_match_game_reports_for_guessing_strategy(self):
        dc = build_lingo({"kind": "divide_check"})
        rep = run_match_experiment(dc, "dc_zero_remainder", trials=200, seed=5)
        assert rep.distinguish_hits is not None
        assert "distinguish" in rep.to_json()

    def test_match_game_not_applicable_otherwise(self):
        dc = build_lingo({"kind": "divide_check"})
        rep = run_match_experiment(dc, "replay", trials=50, seed=5)
        assert rep.distinguish_hits is None
        assert "distinguish" not in rep.to_json()

    def test_report_serialization(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(x8, PerMessage(), "random_wire",
                                   trials=50, seed=5)
        js = rep.to_json()
        assert js["trials"] == 50
        assert js["spoof"] is None
        assert 0.0 <= js["compliance"]["rate"] <= 1.0
