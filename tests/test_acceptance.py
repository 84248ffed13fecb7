"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible under ``pytest -s``).  Tolerances are fixed here
and nowhere else."""

from contextlib import contextmanager

from auth_oracle import OldAuthLingo
from conftest import ALL_SCENARIOS, delivered_messages, event_json, scenario_path
from dialectica.attacker import (
    AdvantageConfig,
    run_spoof_experiment,
    wilson_interval,
)
from dialectica.compositions import functional, horizontal, tupling
from dialectica.core import (
    Rng,
    apply_f,
    apply_g,
    check_lingo_laws,
    is_compliant,
)
from dialectica.library import (
    make_divide_check,
    make_identity,
    make_reverse_divide_check,
    make_split_bitvec,
    make_xor_bitvec,
    make_xor_nat,
    make_xor_set,
)
from dialectica.runtime import StaticPolicy, run
from dialectica.scenario import build_configuration, load_scenario
from dialectica.transforms import (
    NotApplicable,
    Recipe,
    adapt_post,
    adapt_pre,
    authenticating,
    bitvec_nat_adaptor,
    generic_recipe,
    nat_bitvec_adaptor,
    sharp,
    xor_recipe,
    xor_sharp_recipe,
)
from dialectica.values import (
    AtomSet,
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    Pair,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def run_scenario(name, seed_override=None):
    scenario = load_scenario(scenario_path(name))
    cfg = build_configuration(scenario, seed_override=seed_override)
    quiesced, steps = run(cfg, scenario.max_steps)
    return scenario, cfg, quiesced, steps


def test_criterion_01_paper_worked_values():
    with criterion("criterion 01: worked values reproduce exactly"):
        xor8 = make_xor_bitvec(8)
        assert apply_f(xor8, BitVec(8, 3), BitVec(8, 5)) == BitVec(8, 6)
        assert apply_g(xor8, BitVec(8, 3), BitVec(8, 5)) == BitVec(8, 6)

        xor_nat = make_xor_nat()
        assert apply_f(xor_nat, Nat(3), Nat(5)) == Nat(6)
        assert apply_g(xor_nat, Nat(6), Nat(5)) == Nat(3)

        xor_set = make_xor_set(("a", "b", "c", "d", "e", "f"))
        assert apply_f(xor_set, AtomSet(("a", "b", "c", "d")),
                       AtomSet(("c", "d", "e", "f"))) == \
            AtomSet(("a", "b", "e", "f"))

        dc = make_divide_check()
        assert apply_f(dc, Nat(13), Nat(3)) == Pair(Nat(3), Nat(3))
        assert apply_g(dc, Pair(Nat(3), Nat(3)), Nat(3)) == Nat(13)

        sx = sharp(xor8)
        a = Pair(BitVec(8, 5), BitVec(8, 7))
        wire = apply_f(sx, BitVec(8, 3), a)
        assert wire == Pair(BitVec(8, 6), BitVec(8, 4))
        assert apply_g(sx, wire, a) == BitVec(8, 3)


def _bundled_lingos():
    lingos = {}
    for name in ALL_SCENARIOS:
        scenario = load_scenario(scenario_path(name))
        if scenario.policy is None:
            continue
        policy_lingos = ([scenario.policy.lingo]
                         if isinstance(scenario.policy, StaticPolicy)
                         else list(scenario.policy.lingos))
        for lingo in policy_lingos:
            lingos[lingo.name] = lingo
    return lingos


def test_criterion_02_lingo_law_suite():
    with criterion("criterion 02: law suite green on shipped and composed "
                   "lingos (1000 samples)"):
        universe = ("a", "b", "c", "d", "e", "f")
        shipped = [
            make_xor_bitvec(4), make_xor_bitvec(8), make_xor_nat(),
            make_xor_set(universe), make_divide_check(),
            make_reverse_divide_check(), make_identity(BitVecSpace(8)),
            make_split_bitvec(4),
        ]
        transformed = [
            sharp(make_xor_bitvec(4)), sharp(make_xor_bitvec(8)),
            sharp(make_xor_nat()), sharp(make_divide_check()),
            functional(make_xor_nat(), make_divide_check()),
            tupling([make_xor_bitvec(8), make_xor_bitvec(8)]),
            adapt_pre(nat_bitvec_adaptor(64), make_xor_bitvec(64)),
            adapt_post(make_xor_bitvec(64), bitvec_nat_adaptor(64)),
            authenticating(make_xor_bitvec(16), ["alice", "bob"],
                           m=16, j=16, k=32, seed=2),
        ]
        every = shipped + transformed + list(_bundled_lingos().values())
        for lingo in every:
            report = check_lingo_laws(lingo, 1000, Rng(202, 1))
            assert report.all_passed, (lingo.name, report.to_json())


def test_criterion_03_f_checkability():
    with criterion("criterion 03: forgery-check rates (witnesses, "
                   "exhaustive 2^-n, Wilson at n=8)"):
        # divide-and-check witness, exact for every parameter up to 16
        dc = make_divide_check()
        for a in range(17):
            assert not is_compliant(dc, Pair(Nat(0), Nat(a + 2)), Nat(a))

        # plain xor is never f-checkable (exhaustive for n <= 6)
        for n in range(1, 7):
            xr = make_xor_bitvec(n)
            values = BitVecSpace(n).enumerate()
            for a in values:
                assert all(is_compliant(xr, d2, a) for d2 in values)

        # sharp(xor{n}): for every parameter pair the compliant pairs are
        # exactly the image of f, i.e. 2^n of 2^(2n) wire pairs
        for n in range(1, 7):
            base = make_xor_bitvec(n)
            sx = sharp(base)
            size = 1 << n
            exhaustive_compliance = n <= 4
            for a_bits in range(size):
                for ap_bits in range(size):
                    if a_bits == ap_bits:
                        continue
                    a = Pair(BitVec(n, a_bits), BitVec(n, ap_bits))
                    image = set()
                    for d_bits in range(size):
                        image.add(sx.f(BitVec(n, d_bits), a))
                    assert len(image) == size
                    assert len(image) < size * size   # witness exists
                    if exhaustive_compliance:
                        count = sum(
                            is_compliant(sx, Pair(BitVec(n, x), BitVec(n, y)), a)
                            for x in range(size) for y in range(size))
                        assert count * size == size * size  # rate 2^-n exactly
            if not exhaustive_compliance:
                # spot-check compliance/image agreement on sampled pairs
                rng = Rng(n, 33)
                for _ in range(40):
                    a = sx.param_space.sample(rng)
                    image = {sx.f(BitVec(n, d), a) for d in range(size)}
                    inside = next(iter(image))
                    assert is_compliant(sx, inside, a)
                    outside = Pair(BitVec(n, 0), BitVec(n, 0))
                    if outside in image:
                        outside = Pair(BitVec(n, 0), BitVec(n, 1))
                    assert (outside in image) == is_compliant(sx, outside, a)

        # n = 8: Monte Carlo, the Wilson interval must cover 2^-8
        sx = sharp(make_xor_bitvec(8))
        rng = Rng(1, 777)
        trials = 100_000
        hits = 0
        for _ in range(trials):
            a = sx.param_space.sample(rng)
            w = Pair(BitVecSpace(8).sample(rng),
                     BitVecSpace(8).sample(rng))
            if is_compliant(sx, w, a):
                hits += 1
        lo, hi = wilson_interval(hits, trials)
        assert lo <= 2**-8 <= hi, (hits, lo, hi)


def test_criterion_04_malleability():
    with criterion("criterion 04: recipes forge compliant distinct values "
                   "in 10^4 of 10^4 trials"):
        xor8 = make_xor_bitvec(8)
        rng = Rng(404, 1)
        for _ in range(10_000):
            d = xor8.input_space.sample(rng)
            a = xor8.param_space.sample(rng)
            observed = xor8.f(d, a)
            forged = xor_recipe(observed, xor8.param_space.sample(rng))
            assert forged != observed and is_compliant(xor8, forged, a)

        sx = sharp(xor8)
        for _ in range(10_000):
            d = sx.input_space.sample(rng)
            a = sx.param_space.sample(rng)
            observed = sx.f(d, a)
            forged = xor_sharp_recipe(observed, sx.param_space.sample(rng))
            assert forged != observed and is_compliant(sx, forged, a)

        masks = [BitVec(8, 1), BitVec(8, 0xF0)]
        recipe = generic_recipe(xor8, masks)
        assert isinstance(recipe, Recipe)
        for _ in range(1000):
            d = xor8.input_space.sample(rng)
            a = xor8.param_space.sample(rng)
            observed = xor8.f(d, a)
            forged = recipe.forge(observed, xor8.param_space.sample(rng))
            assert forged != observed and is_compliant(xor8, forged, a)

        assert isinstance(generic_recipe(make_divide_check(),
                                         [Nat(1), Nat(2)]), NotApplicable)
        assert isinstance(generic_recipe(make_identity(BitVecSpace(4)),
                                         [BitVec(1, 0), BitVec(1, 1)]),
                          NotApplicable)


def test_criterion_05_horizontal_strengthening():
    with criterion("criterion 05: zero-remainder forgery halved by the "
                   "two-branch composition"):
        dc_alone = run_spoof_experiment(
            make_divide_check(), 1, "dc_zero_remainder",
            trials=10_000, seed=50, observations=0)
        assert dc_alone.compliance_rate == 1.0

        both = horizontal(
            branches=(make_divide_check(), make_reverse_divide_check()),
            defaults=(Pair(Nat(0), Nat(0)), Pair(Nat(0), Nat(0))),
            bias=(1, 1))
        hedged = run_spoof_experiment(both, 1, "dc_zero_remainder",
                                      trials=10_000, seed=50, observations=0)
        assert 0.45 <= hedged.compliance_rate <= 0.55, hedged.compliance_rate


def test_criterion_06_functional_f_check_propagation():
    with criterion("criterion 06: pipeline inherits the second stage's "
                   "forgery check"):
        comp = functional(make_xor_nat(), make_divide_check())
        rng = Rng(606, 1)
        for ap in range(17):
            witness = Pair(Nat(0), Nat(ap + 2))
            for _ in range(10):
                a = Pair(NatSpace().sample(rng), Nat(ap))
                assert not is_compliant(comp, witness, a)


def test_criterion_07_adaptor_theorems():
    with criterion("criterion 07: section-retract law and attachment "
                   "equalities (1000 samples each)"):
        rng = Rng(707, 1)
        nb = nat_bitvec_adaptor(64)
        bn = bitvec_nat_adaptor(64)
        for _ in range(1000):
            n = Nat(rng.next_below(1 << 32))
            assert nb.r(nb.j(n)) == n
            b = BitVec(64, rng.next_u64())
            assert bn.r(bn.j(b)) == b

        base = make_xor_bitvec(64)
        assoc_left = adapt_post(adapt_pre(nb, base), bn)
        assoc_right = adapt_pre(nb, adapt_post(base, bn))
        for _ in range(1000):
            d = Nat(rng.next_below(1 << 32))
            a = BitVecSpace(64).sample(rng)
            assert assoc_left.f(d, a) == assoc_right.f(d, a)
            w = Nat(rng.next_u64())
            assert assoc_left.g(w, a) == assoc_right.g(w, a)

        slide_left = functional(adapt_post(base, bn), make_divide_check())
        slide_right = functional(base, adapt_pre(bn, make_divide_check()))
        for _ in range(1000):
            d = BitVecSpace(64).sample(rng)
            a = Pair(BitVecSpace(64).sample(rng),
                     Nat(rng.next_below(1 << 16)))
            wire = slide_left.f(d, a)
            assert wire == slide_right.f(d, a)
            assert slide_left.g(wire, a) == slide_right.g(wire, a) == d


def test_criterion_08_sub_lingo_containment():
    with criterion("criterion 08: pair transform agrees with two-branch "
                   "tupling on distinct parameters"):
        for base in (make_xor_bitvec(4), make_divide_check()):
            sh = sharp(base)
            tup = tupling([base, base])
            rng = Rng(808, 1)
            for _ in range(1000):
                d = base.input_space.sample(rng)
                a = sh.param_space.sample(rng)
                assert sh.f(d, a) == tup.f(d, a)


def test_criterion_09_authenticating_lingo():
    with criterion("criterion 09: code law (500 samples) and tamper "
                   "detection at j=16"):
        pairs = (("alice", "bob"), ("carol", "alice"))
        lingos = {pair: authenticating(make_xor_bitvec(16), list(pair),
                                       m=16, j=16, k=32, seed=99)
                  for pair in pairs}
        oracle = OldAuthLingo(inner=make_xor_bitvec(16), m=16, j=16, k=32,
                              seed=99)
        rng = Rng(909, 1)
        for i in range(500):
            n = rng.next_below(1 << 24)
            pair = pairs[0] if i % 2 else pairs[1]
            auth = lingos[pair]
            d1 = auth.input_space.sample(rng)
            a = auth.param(n, 0)
            wire = auth.f(d1, a)
            assert oracle.code(wire, a) == oracle.hash(n, pair)
            assert is_compliant(auth, wire, a)

        # a tampered copy is injected after the original, so it is verified
        # under the already-advanced nonce
        auth = lingos[pairs[0]]
        width = 16 + 16
        detected = 0
        trials = 10_000
        for _ in range(trials):
            n = rng.next_below(1 << 24)
            d1 = auth.input_space.sample(rng)
            wire = auth.f(d1, auth.param(n, 0))
            tampered = BitVec(width, wire.bits ^ (1 << rng.next_below(width)))
            if not is_compliant(auth, tampered, auth.param(n + 1, 0)):
                detected += 1
        assert detected / trials >= 1 - 2**-16 - 0.01, detected


def test_criterion_10_mqtt_end_to_end():
    with criterion("criterion 10: bare run publishes within 64 steps; "
                   "wrapped runs land in identical states"):
        scenario, cfg, quiesced, steps = run_scenario("mqtt_bare.json")
        assert quiesced and steps <= 64
        bare = {oid: w.actor.digest()
                for oid, w in sorted(cfg.wrappers.items())}
        assert bare["c1"]["last_recv"] == {"temp": "34"}
        bare_delivered = delivered_messages(cfg)

        for name in ("mqtt_xor.json", "mqtt_xor_bitvec.json",
                     "mqtt_horizontal.json", "mqtt_functional.json"):
            _, cfg, quiesced, _ = run_scenario(name)
            assert quiesced, name
            wrapped = {oid: w.actor.digest()
                       for oid, w in sorted(cfg.wrappers.items())}
            assert wrapped == bare, name
            assert delivered_messages(cfg) == bare_delivered, name


def test_criterion_11_attacker_outcomes():
    with criterion("criterion 11: replay blocked, recipes exploit reuse, "
                   "reveals enable oracle forgeries, clean dialect holds"):
        x8 = make_xor_bitvec(8)
        replay = run_spoof_experiment(x8, 1, "replay",
                                      trials=100, seed=11)
        assert replay.spoof_rate == 0.0

        reuse = run_spoof_experiment(x8, 2, "xor_recipe",
                                     trials=100, seed=11)
        assert reuse.spoof_rate == 1.0

        oracle = run_spoof_experiment(
            x8, 3, "param_reuse_oracle", trials=100, seed=11,
            observations=2, advantage=AdvantageConfig(s_max=((2, 1.0),)))
        assert oracle.spoof_rate == 1.0

        _, cfg, quiesced, _ = run_scenario("mqtt_adversarial.json")
        assert quiesced
        assert cfg.stats["injected"] >= 1000
        assert cfg.stats["forgeries_accepted"] == 0
        assert cfg.stats["forgeries_delivered"] == 0


def test_criterion_12_trace_determinism():
    with criterion("criterion 12: byte-identical traces for every bundled "
                   "scenario"):
        for name in ALL_SCENARIOS:
            blobs = []
            for _ in range(2):
                _, cfg, _, _ = run_scenario(name)
                blobs.append("\n".join(
                    event_json(e, sort_keys=True, separators=(",", ":"))
                    for e in cfg.event_log).encode())
            assert blobs[0] == blobs[1], name


def test_bundled_attack_scenarios_match_their_rates():
    # companion check: the two attack scenarios referenced by the criteria
    with criterion("companion: bundled attack scenarios hit their rates"):
        _, cfg, quiesced, _ = run_scenario("mqtt_sharp_attack.json")
        assert quiesced
        rate = cfg.stats["forgeries_accepted"] / cfg.stats["injected"]
        lo, hi = wilson_interval(cfg.stats["forgeries_accepted"],
                                 cfg.stats["injected"])
        assert lo <= 2**-8 <= hi, rate

        _, cfg, quiesced, _ = run_scenario("mqtt_horizontal_dc.json")
        assert quiesced
        rate = cfg.stats["forgeries_accepted"] / cfg.stats["injected"]
        assert 0.45 <= rate <= 0.55, rate
