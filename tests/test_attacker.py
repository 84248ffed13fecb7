import pytest
from hypothesis import given, settings, strategies as st

from dialectica.attacker import (
    AdvantageConfig,
    AttackerConfig,
    AttackerState,
    NoAttempt,
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


def fresh_state():
    return AttackerState(AttackerConfig(), Rng(0, ATTACKER_TAG))


def observed_state(lingo, count=5, seed=77, reuse=1, advantage=None):
    # The advantage is fixed before the first capture: observe keeps the
    # (lingo, parameter) count only for an s_max rule.
    config = AttackerConfig(advantage=advantage or AdvantageConfig())
    state = AttackerState(config, Rng(seed, ATTACKER_TAG))
    rng = Rng(seed, 123)
    for i in range(count):
        a = lingo.param(i // reuse, seed)
        d = lingo.input_space.sample(rng)
        wire = apply_f(lingo, d, a)
        hidden = HiddenCtx(lingo_name=lingo.name, param=a, plaintext=d, index=i)
        observe(state, Message(dst="b", src="a", payload=wire, seq=i,
                               hidden=hidden), t=i)
    return state


def sweep(state, now, seed):
    """A reveal sweep whose draws come from the fresh stream
    ``Rng(seed, ATTACKER_TAG)``, set on the state."""
    state.rng = Rng(seed, ATTACKER_TAG)
    return reveal_sweep(state, now=now)


def craft(state, strategy, src, dst, seed, lingo=None):
    """``craft_forgery`` drawing from the fresh stream
    ``Rng(seed, ATTACKER_TAG)``, set on the state."""
    state.rng = Rng(seed, ATTACKER_TAG)
    return craft_forgery(state, strategy, src, dst, lingo)


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


def revealed(state):
    return [r for r in state.records if r.revealed]


class TestRevealSweep:
    def test_zero_advantage_reveals_nothing(self):
        state = observed_state(build_lingo({"kind": "xor_nat"}))
        assert sweep(state, now=100, seed=1) == 0
        assert revealed(state) == []

    def test_cleartext_revealed_immediately_with_null_info(self):
        state = fresh_state()
        observe(state, Message(dst="b", src="a", payload=Nat(7),
                               hidden=HiddenCtx(lingo_name=None, param=None,
                                                plaintext=Nat(7), index=0)),
                t=0)
        assert sweep(state, now=1, seed=2) == 1
        [rec] = revealed(state)
        assert rec.hidden.plaintext == Nat(7)
        assert rec.hidden.lingo_name is None and rec.hidden.param is None
        assert state.leaked == {}   # a bare record has no parameter to leak

    def test_strong_reuse_reveals_deterministically(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=3, reuse=3,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        assert sweep(state, now=3, seed=3) == 3
        assert len(revealed(state)) == 3
        for rec in revealed(state):
            assert rec.hidden.param is not None
        assert state.leaked == {("a", "b"): state.records[-1]}

    def test_revealed_params_re_encode_the_cleartext(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=4, reuse=4,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        sweep(state, now=4, seed=4)
        assert revealed(state)
        for rec in revealed(state):
            assert apply_f(lingo, rec.hidden.plaintext,
                           rec.hidden.param) == rec.wire

    def test_weak_reuse_rule(self):
        # same lingo, different parameters each time
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=4, reuse=1,
                               advantage=AdvantageConfig(w_max=((4, 1.0),)))
        assert sweep(state, now=4, seed=30) == 4
        assert len(revealed(state)) == 4
        state2 = observed_state(lingo, count=3, reuse=1,
                                advantage=AdvantageConfig(w_max=((4, 1.0),)))
        assert sweep(state2, now=3, seed=30) == 0
        assert revealed(state2) == []   # below the reuse threshold

    def test_age_rule(self):
        state = observed_state(build_lingo({"kind": "xor_nat"}), count=2,
                               advantage=AdvantageConfig(t_max=((50, 1.0),)))
        assert sweep(state, now=10, seed=5) == 0
        assert revealed(state) == []
        assert sweep(state, now=100, seed=5) == 2
        assert len(revealed(state)) == 2

    def test_monotone(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=6, reuse=6,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        sizes = []
        total = 0
        for now in (6, 7, 8):
            total += sweep(state, now=now, seed=6)
            sizes.append(len(revealed(state)))
            assert sizes[-1] == total   # the count is the records it revealed
        assert sizes == sorted(sizes)


# ---------------------------------------------------------------------------
# Oracle: a frozen copy of the sweep that evaluated all three step functions
# per record.  ``reveal_sweep`` must reveal the same records, leave the same
# indexes, return the same count and consume the same draws.
# ---------------------------------------------------------------------------

def _old_reveal_sweep(state, now, rng):
    adv = state.config.advantage
    revealed = 0
    for rec, key in state.unrevealed:
        p_age = eval_step(adv.t_max, now - rec.t)
        name = rec.hidden.lingo_name
        if name is None:
            p_weak = p_strong = 0.0
        else:
            p_weak = eval_step(adv.w_max, state.lingo_counts[name])
            p_strong = (0.0 if key is None
                        else eval_step(adv.s_max, state.pair_counts[key]))
        p_clear = 0.0 if name is not None else 1.0
        p = min(p_age + p_weak + p_strong + p_clear, 1.0)
        if p <= 0.0:
            continue
        if rng.next_float() <= p:
            rec.revealed = True
            revealed += 1
            if rec.hidden.param is not None:
                state.leaked[(rec.src, rec.dst)] = rec
    if revealed:
        state.unrevealed = [entry for entry in state.unrevealed
                            if not entry[0].revealed]
    return revealed


# Step functions with few thresholds, so records cross them, and
# probabilities at the edges and in between.
_adv_steps = st.dictionaries(
    st.integers(0, 12), st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0, 1),
    max_size=4).map(lambda d: tuple(sorted(d.items())))
# (src, lingo or None for a bare record, parameter): few of each, so
# lingos and (lingo, parameter) keys repeat.
_captures = st.tuples(st.sampled_from("abc"), st.sampled_from([None, "x", "y"]),
                      st.integers(0, 2))


def _sweep_view(state):
    at = {id(rec): i for i, rec in enumerate(state.records)}
    return ([rec.revealed for rec in state.records],
            {flow: at[id(rec)] for flow, rec in state.leaked.items()},
            [(at[id(rec)], key) for rec, key in state.unrevealed],
            state.rng.index)


@settings(deadline=None)
@given(t_max=_adv_steps, w_max=_adv_steps, s_max=_adv_steps,
       batches=st.lists(st.tuples(st.lists(_captures, max_size=12),
                                  st.integers(0, 8)),
                        min_size=1, max_size=4),
       seed=st.integers(0, 2**32))
def test_reveal_sweep_matches_the_old_sweep(t_max, w_max, s_max, batches, seed):
    config = AttackerConfig(advantage=AdvantageConfig(t_max=t_max, w_max=w_max,
                                                      s_max=s_max))
    new, old = (AttackerState(config, Rng(seed, ATTACKER_TAG)) for _ in "ab")
    t = 0
    for captures, gap in batches:
        for src, name, param in captures:
            hidden = HiddenCtx(lingo_name=name,
                               param=None if name is None else Nat(param),
                               plaintext=Nat(t), index=t)
            for state in (new, old):
                observe(state, Message(dst="d", src=src, payload=Nat(t),
                                       hidden=hidden), t)
            t += 1
        now = t + gap
        assert reveal_sweep(new, now) == _old_reveal_sweep(old, now, old.rng)
        assert _sweep_view(new) == _sweep_view(old)


class TestForgeryCrafting:
    def test_replay_resends_verbatim(self):
        lingo = build_lingo({"kind": "xor_nat"})
        state = observed_state(lingo, count=2)
        state.rng = Rng(7, ATTACKER_TAG)
        msg = attempt_forgery(state, "replay", ("a", "b"), lingo)
        assert isinstance(msg, Message) and msg.strategy == "replay"
        assert msg.payload == state.records[-1].wire

    def test_requirements_gate(self):
        state = fresh_state()
        assert not strategy_ready(state, "replay", "a", "b")
        out = craft(state, "replay", "a", "b", 8)
        assert isinstance(out, NoAttempt)
        assert strategy_ready(state, "random_wire", "a", "b")
        assert not strategy_ready(state, "passive", "a", "b")

    def test_dc_zero_remainder_wraps_tagged_wire(self):
        dc = {"kind": "divide_check"}
        zero = {"pair": [{"nat": "0"}, {"nat": "0"}]}
        lingo = build_lingo({"horizontal": {
            "branches": [dc, dc], "defaults": [zero, zero], "bias": [1, 1]}})
        state = fresh_state()
        payload, intent = craft(state, "dc_zero_remainder", "a", "b", 9, lingo)
        assert isinstance(payload, Tagged) and payload.branch == 1
        assert intent is None

    def test_oracle_uses_a_leak_only_under_the_lingo_it_leaked_from(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        state = observed_state(x8, count=2, reuse=2,
                               advantage=AdvantageConfig(s_max=((2, 1.0),)))
        assert sweep(state, now=2, seed=1) == 2
        payload, intent = craft(state, "param_reuse_oracle", "a", "b", 1, x8)
        assert payload == state.records[-1].wire
        # An aperiodic policy may have rotated the flow to another lingo.
        sharp = build_lingo({"sharp": {"kind": "xor_bitvec", "width": 8}})
        assert craft(state, "param_reuse_oracle", "a", "b", 1, sharp) == \
            NoAttempt("the revealed parameter is another lingo's")

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
        before = craft(state, strategy, "a", "b", 10, lingo)
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
        after = craft(state, strategy, "a", "b", 10, lingo)
        if strategy == "passive":
            assert after == before
        else:
            assert after[0] == before[0]


# A bare flow has no lingo: its wire is the protocol message.  Each strategy
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
    state = fresh_state()
    observe(state, Message(dst="b", src="c2", payload=wire,
                           hidden=HiddenCtx(lingo_name=None, param=None,
                                            plaintext=wire, index=0)), t=0)
    out = craft(state, strategy, "c2", "b", 5, lingo=None)
    rng = state.rng
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
        rep = run_spoof_experiment(x8, 1, "replay",
                                   trials=100, seed=5)
        assert rep.spoof_rate == 0.0
        assert rep.compliance_rate == 1.0   # xor takes any wire value

    def test_xor_recipe_needs_no_parameter_knowledge(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(x8, 2, "xor_recipe",
                                   trials=100, seed=5)
        assert rep.spoof_rate == 1.0

    def test_sharp_blocks_random_wires_at_two_to_minus_n(self):
        sx = build_lingo({"sharp": {"kind": "xor_bitvec", "width": 8}})
        rep = run_spoof_experiment(sx, 1, "random_wire",
                                   trials=20_000, seed=0)
        lo, hi = wilson_interval(rep.compliance_hits, rep.trials)
        assert lo <= 2**-8 <= hi

    def test_sharp_recipe_defeats_the_check_only_during_reuse(self):
        # the forgery check does not make the pair encoding non-malleable:
        # while a parameter is live the recipe passes it every time
        sx = build_lingo({"sharp": {"kind": "xor_bitvec", "width": 8}})
        reuse = run_spoof_experiment(sx, 2, "xor_sharp_recipe",
                                     trials=200, seed=6)
        assert reuse.compliance_rate == 1.0 and reuse.spoof_rate == 1.0
        fresh = run_spoof_experiment(sx, 1, "xor_sharp_recipe",
                                     trials=200, seed=6)
        assert fresh.spoof_rate == 0.0
        assert fresh.compliance_rate <= 0.05

    def test_param_reuse_oracle_after_strong_reuse_reveal(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(
            x8, 3, "param_reuse_oracle", trials=100, seed=5,
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

    @pytest.mark.parametrize("reuse", [0, -1])
    def test_reuse_below_1_refused(self, reuse):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        with pytest.raises(ValueError, match="reuse must be >= 1"):
            run_spoof_experiment(x8, reuse, "replay", trials=1, seed=5)

    def test_report_serialization(self):
        x8 = build_lingo({"kind": "xor_bitvec", "width": 8})
        rep = run_spoof_experiment(x8, 1, "random_wire",
                                   trials=50, seed=5)
        js = rep.to_json()
        assert js["trials"] == 50
        assert js["spoof"] is None
        assert 0.0 <= js["compliance"]["rate"] <= 1.0
