import dataclasses
import os
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import ALL_SPECS
from dialectica.core import (
    DecodeFailure,
    DefaultFallback,
    LawReport,
    LawResult,
    Lingo,
    Rng,
    SpaceViolation,
    UnsampleableSpace,
    apply_f,
    apply_g,
    _ce,
    _check_c3,
    check_lingo_laws,
    find_noncompliant_witness,
    is_compliant,
    law_params,
    make_param,
    wire_fits,
)
from dialectica.library import make_divide_check, make_xor_bitvec, make_xor_nat
from dialectica.mqtt import ConnAck, ConnectMsg, DisconnectMsg, PubMsg, SubMsg
from dialectica.rng import SAMPLE_TAG, derive, fnv64
from dialectica.specs import build_adaptor, build_lingo
from dialectica.transforms import RetractFailure
from dialectica.values import (
    AtomSetSpace,
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    OpaqueSpace,
    Pair,
    PairSpace,
    ParamPairSpace,
    TaggedSpace,
    space_contains,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))
from run import LAW_SPECS  # noqa: E402


class TestApply:
    def test_checked_encode_decode(self):
        dc = make_divide_check()
        assert apply_f(dc, Nat(13), Nat(3)) == Pair(Nat(3), Nat(3))
        assert apply_g(dc, Pair(Nat(3), Nat(3)), Nat(3)) == Nat(13)

    def test_arity_violation(self):
        xr = make_xor_nat()
        with pytest.raises(SpaceViolation):
            apply_f(xr, [Nat(1), Nat(2)], Nat(3))
        with pytest.raises(SpaceViolation):
            apply_g(xr, [], Nat(3))

    def test_input_space_violation(self):
        xr = make_xor_bitvec(8)
        with pytest.raises(SpaceViolation):
            apply_f(xr, BitVec(8, 300), BitVec(8, 1))
        with pytest.raises(SpaceViolation):
            apply_f(xr, Nat(3), BitVec(8, 1))

    def test_param_space_violation(self):
        xr = make_xor_bitvec(8)
        with pytest.raises(SpaceViolation):
            apply_f(xr, BitVec(8, 3), Nat(5))

    def test_decode_failure_is_a_value(self):
        dc = make_divide_check()
        out = apply_g(dc, Pair(Nat(0), Nat(0)), Nat(3))
        assert isinstance(out, DecodeFailure)


class TestCompliance:
    def test_dc_image_value(self):
        dc = make_divide_check()
        assert is_compliant(dc, Pair(Nat(3), Nat(3)), Nat(3))

    def test_dc_remainder_too_big(self):
        # f(g((1,5),1),1): g gives 1*3+5-3 = 5, f(5,1) = (2,2) != (1,5)
        dc = make_divide_check()
        assert not is_compliant(dc, Pair(Nat(1), Nat(5)), Nat(1))

    def test_xor_everything_compliant(self):
        xr = make_xor_bitvec(4)
        for a in BitVecSpace(4).enumerate():
            for d2 in BitVecSpace(4).enumerate():
                assert is_compliant(xr, d2, a)


class TestSampling:
    @pytest.mark.parametrize("space", [
        NatSpace(), BitVecSpace(3), BitVecSpace(100),
        PairSpace(NatSpace(), BitVecSpace(5)), AtomSetSpace(("x", "y", "z")),
        TaggedSpace((NatSpace(), BitVecSpace(2))), ParamPairSpace(BitVecSpace(4)),
        BitVecSpace(64), BitVecSpace(65),
        PairSpace(TaggedSpace((AtomSetSpace(("a",)), NatSpace())),
                  ParamPairSpace(PairSpace(BitVecSpace(1), NatSpace()))),
    ])
    def test_samples_inhabit_space(self, space):
        rng = Rng(99, 1)
        for _ in range(200):
            assert space_contains(space, space.sample(rng))
            assert space_contains(space, space.sample(rng, 16))
            assert space_contains(space, space.project(rng.next_u64(), 1 << 32))

    def test_opaque_space_unsampleable(self):
        with pytest.raises(UnsampleableSpace):
            OpaqueSpace().sample(Rng(0, 0))

    def test_degenerate_parampair(self):
        with pytest.raises(UnsampleableSpace):
            ParamPairSpace(AtomSetSpace(())).sample(Rng(0, 0))


class TestParamStream:
    def test_param_lands_in_space(self):
        for lingo in (make_xor_bitvec(8), make_xor_nat(), make_divide_check()):
            for n in range(10_000):
                assert space_contains(lingo.param_space, lingo.param(n, 77))

    def test_param_is_seed_keyed(self):
        p = make_param(BitVecSpace(16), "probe")
        assert p(4, 1) == p(4, 1)
        assert any(p(n, 1) != p(n, 2) for n in range(8))

    def test_name_separates_streams(self):
        p1 = make_param(NatSpace(), "one")
        p2 = make_param(NatSpace(), "two")
        assert any(p1(n, 0) != p2(n, 0) for n in range(8))


class TestLawHarness:
    def test_shipped_lingos_pass(self):
        for lingo in (make_xor_bitvec(4), make_divide_check()):
            report = check_lingo_laws(lingo, 300, Rng(1, 2))
            assert report.all_passed, report.to_json()

    def test_broken_lingo_caught_with_counterexample(self):
        space = NatSpace()

        def bad_g(w, a):
            return Nat(w.n ^ a.n ^ 1)   # off by one bit

        broken = Lingo(name="broken", input_space=space, output_space=space,
                       param_space=space,
                       f=lambda d, a: Nat(d.n ^ a.n), g=bad_g,
                       param=make_param(space, "broken"))
        report = check_lingo_laws(broken, 100, Rng(1, 2))
        assert not report.all_passed
        l0 = next(r for r in report.results if r.law == "L0_left_inverse")
        assert not l0.passed and l0.counterexample is not None

    def test_report_serializes(self):
        report = check_lingo_laws(make_xor_bitvec(4), 50, Rng(3, 4))
        js = report.to_json()
        assert js["passed"] and all("law" in r for r in js["laws"])


class TestWitnessSearch:
    def test_dc_has_witness(self):
        dc = make_divide_check()
        witness = find_noncompliant_witness(dc, Nat(3), Rng(0, 1))
        assert witness is not None
        assert not is_compliant(dc, witness, Nat(3))

    def test_xor_has_none(self):
        xr = make_xor_bitvec(4)
        assert find_noncompliant_witness(xr, BitVec(4, 9), Rng(0, 1)) is None


# ---------------------------------------------------------------------------
# Oracle for the one-pass law harness
# ---------------------------------------------------------------------------

def _reference_sample_param(lingo, n, seed):
    if lingo.param_space.opaque:
        return lingo.param(n, seed)
    rng = Rng(derive(seed, fnv64(lingo.name + "/laws"), n), SAMPLE_TAG)
    return lingo.param_space.sample(rng)


def _reference_check_lingo_laws(lingo, sample_count, rng):
    """The law harness as four separate loops, one per law: the reference
    the one-pass ``check_lingo_laws`` must reproduce exactly."""
    report = LawReport(lingo=lingo.name)
    seed = rng.next_u64()

    def draw(n):
        r = Rng(derive(seed, SAMPLE_TAG, n), SAMPLE_TAG)
        return lingo.input_space.sample(r)

    failure = None
    for i in range(sample_count):
        d1, a = draw(2 * i), _reference_sample_param(lingo, i, seed)
        back = lingo.g(apply_f(lingo, d1, a), a)
        if isinstance(back, (DecodeFailure, DefaultFallback)) or back != d1:
            failure = LawResult("L0_left_inverse", False,
                                _ce({"d1": d1, "a": a}, d1, back))
            break
    report.results.append(failure or LawResult("L0_left_inverse", True))

    failure = None
    for i in range(min(sample_count, 200)):
        d1, a = draw(2 * i), _reference_sample_param(lingo, i, seed)
        w = apply_f(lingo, d1, a)
        if not space_contains(lingo.output_space, w):
            failure = LawResult("f_lands_in_output_space", False,
                                _ce({"d1": d1, "a": a}, "member", w))
            break
    report.results.append(failure or LawResult("f_lands_in_output_space", True))

    failure = None
    for i in range(sample_count):
        d1, d1p = draw(2 * i), draw(2 * i + 1)
        if d1 == d1p:
            continue
        a = _reference_sample_param(lingo, i, seed)
        if apply_f(lingo, d1, a) == apply_f(lingo, d1p, a):
            failure = LawResult("L1_injectivity", False,
                                _ce({"d1": d1, "d1'": d1p, "a": a},
                                    "distinct images", "equal images"))
            break
    report.results.append(failure or LawResult("L1_injectivity", True))

    failure = None
    for i in range(sample_count):
        d1, a = draw(2 * i), _reference_sample_param(lingo, i, seed)
        d2 = apply_f(lingo, d1, a)
        if not is_compliant(lingo, d2, a):
            failure = LawResult("C1_image_compliant", False,
                                _ce({"d1": d1, "a": a}, "compliant", d2))
            break
    report.results.append(failure or LawResult("C1_image_compliant", True))

    c3 = _check_c3(lingo, seed,
                   lambda n: _reference_sample_param(lingo, n, seed))
    if c3 is not None:
        report.results.append(c3)
    return report


def _outcome(check, lingo, samples):
    """The report's JSON, or the exception the harness raised."""
    try:
        return check(lingo, samples, Rng(11, 12)).to_json()
    except Exception as exc:  # both harnesses must fail the same way
        return (type(exc).__name__, str(exc))


def _broken(name, f, g, space=NatSpace(), out_space=None):
    return Lingo(name=name, input_space=space, output_space=out_space or space,
                 param_space=space, f=f, g=g, param=make_param(space, name))


def _stray_f(lo, hi, low_bit=0):
    # Leaves the 16-bit output space for payloads in [lo, hi); ``low_bit``
    # set makes even payloads encode like the odd payload above them.
    def f(d, a):
        width = 17 if lo <= d.bits < hi else 16
        return BitVec(width, (d.bits | low_bit) ^ a.bits)
    return f


def _xor16_g(w, a):
    return BitVec(16, (w.bits ^ a.bits) & 0xFFFF)


BROKEN_LINGOS = {
    # g is off by one on even payloads; f stays injective on samples and
    # every image decodes to a preimage, so only L0 fails
    "l0_only": _broken("l0_only", lambda d, a: Nat((d.n | 1) ^ a.n),
                       lambda w, a: Nat(w.n ^ a.n)),
    # the first stray image comes after index 0, but before 200
    "stray_early": _broken("stray_early", _stray_f(0, 2048), _xor16_g,
                           BitVecSpace(16)),
    # L0 fails at once; the first stray image comes after index 200, past
    # the membership bound, and only C1 reports it
    "stray_late": _broken("stray_late", _stray_f(4096, 4352, 1), _xor16_g,
                          BitVecSpace(16)),
    "constant_f": _broken("constant_f", lambda d, a: Nat(0),
                          lambda w, a: DecodeFailure("constant")),
    # all four laws fail, so the pass ends early
    "fails_all": _broken("fails_all", lambda d, a: BitVec(5, 0),
                         lambda w, a: DecodeFailure("never"),
                         BitVecSpace(4)),
    # L0 and C1 fail at once and membership holds, so past index 200 only
    # L1 is open, on a space small enough for equal payload pairs
    "l1_alone": _broken("l1_alone", lambda d, a: BitVec(2, d.bits ^ a.bits),
                        lambda w, a: DecodeFailure("never"), BitVecSpace(2)),
}
LAW_SAMPLE_COUNTS = (1, 7, 199, 200, 201, 1000)


class TestOnePassHarness:
    @pytest.mark.parametrize("samples", LAW_SAMPLE_COUNTS)
    @pytest.mark.parametrize("spec", ALL_SPECS,
                             ids=lambda s: build_lingo(s).name)
    def test_matches_reference_on_every_spec_kind(self, spec, samples):
        lingo = build_lingo(spec)
        assert (_outcome(check_lingo_laws, lingo, samples)
                == _outcome(_reference_check_lingo_laws, lingo, samples))

    @pytest.mark.parametrize("samples", LAW_SAMPLE_COUNTS)
    @pytest.mark.parametrize("name", BROKEN_LINGOS)
    def test_matches_reference_on_broken_lingos(self, name, samples):
        lingo = BROKEN_LINGOS[name]
        assert (_outcome(check_lingo_laws, lingo, samples)
                == _outcome(_reference_check_lingo_laws, lingo, samples))

    def test_broken_lingos_reach_the_paths_they_name(self):
        def failing(name, samples):
            report = check_lingo_laws(BROKEN_LINGOS[name], samples, Rng(11, 12))
            return {r.law for r in report.results if not r.passed}

        lands, c1 = "f_lands_in_output_space", "C1_image_compliant"
        # the first stray image is not at index 0 ...
        assert failing("stray_early", 1) == set()
        assert failing("stray_early", 200) == {lands, c1}
        # ... and the late one lies past the membership bound: C1 sees it
        assert failing("stray_late", 200) == {"L0_left_inverse"}
        assert failing("stray_late", 1000) == {"L0_left_inverse", c1}
        assert failing("l0_only", 1000) == {"L0_left_inverse"}
        assert failing("constant_f", 1000) == {
            "L0_left_inverse", "L1_injectivity", c1}
        assert failing("fails_all", 7) == {
            "L0_left_inverse", lands, "L1_injectivity", c1}
        assert failing("l1_alone", 1000) == {
            "L0_left_inverse", c1, "C3_compliance_equivalence"}


def _g_refusing_strays(w, a):
    if not space_contains(BitVecSpace(16), w):
        raise AssertionError(f"g decoded an image the gate refuses: {w!r}")
    return _xor16_g(w, a)


def _counting_g(lingo):
    calls = []

    def g(w, a):
        calls.append(a)
        return lingo.g(w, a)
    return dataclasses.replace(lingo, g=g), calls


class TestOneDecodePerIndex:
    def test_c1_never_decodes_an_image_the_gate_refuses(self):
        # Even payloads encode like odd ones, so L0 fails at index 0 and
        # closes before the first stray image; C1 stays open until that
        # image, which g must not see.
        lingo = _broken("stray_guarded", _stray_f(0, 2048, 1),
                        _g_refusing_strays, BitVecSpace(16))
        report = check_lingo_laws(lingo, 1000, Rng(11, 12))
        failed = {r.law: r.counterexample for r in report.results if not r.passed}
        assert set(failed) == {"L0_left_inverse", "f_lands_in_output_space",
                               "C1_image_compliant"}
        first = _reference_check_lingo_laws(lingo, 1, Rng(11, 12))
        assert failed["L0_left_inverse"] == first.results[0].counterexample
        stray = failed["C1_image_compliant"]["got"]
        assert stray["bv"]["w"] == 17
        assert (_outcome(check_lingo_laws, lingo, 1000)
                == _outcome(_reference_check_lingo_laws, lingo, 1000))

    def test_g_runs_once_per_index(self):
        lingo, calls = _counting_g(make_xor_bitvec(128))
        report = check_lingo_laws(lingo, 1000, Rng(11, 12))
        assert report.all_passed and len(report.results) == 4
        assert len(calls) == 1000

    def test_c1_decodes_itself_once_l0_has_closed(self):
        lingo, calls = _counting_g(BROKEN_LINGOS["l0_only"])
        report = check_lingo_laws(lingo, 1000, Rng(11, 12))
        assert {r.law for r in report.results if not r.passed} == {"L0_left_inverse"}
        assert len(calls) == 1000


# ---------------------------------------------------------------------------
# is_compliant on a wire value the caller already decoded
# ---------------------------------------------------------------------------

SPEC_LINGOS = [build_lingo(spec) for spec in ALL_SPECS]
WIRE_MODES = ("drawn", "image", "patched_image")


def _wire_value(lingo, a, rng, mode):
    """A wire value: drawn from the output space, the image f(d, a) of a
    drawn payload, or that image redrawn, in its second component where
    it is a pair.  Small naturals make drawn values compliant now and
    then."""
    def drawn():
        return lingo.output_space.sample(rng, 16)

    if mode == "drawn" or lingo.input_space.opaque:
        return drawn()
    image = lingo.f(lingo.input_space.sample(rng, 16), a)
    if mode == "patched_image":
        patch = drawn()
        if isinstance(image, Pair) and isinstance(patch, Pair):
            return Pair(image.first, patch.second)
        return patch
    return image


def _decode_kind(decoded):
    """The class name of a decode outcome, "value" for a decoded payload."""
    if isinstance(decoded, (DecodeFailure, DefaultFallback)):
        return type(decoded).__name__
    return "value"


def _case(lingo, seed, index, mode):
    a = law_params(lingo, seed)(index)
    return a, _wire_value(lingo, a, Rng(seed, SAMPLE_TAG ^ index), mode)


class TestCompliantOnDecoded:
    @settings(max_examples=400, deadline=None)
    @given(lingo=st.sampled_from(SPEC_LINGOS), seed=st.integers(0, 2**64 - 1),
           index=st.integers(0, 200), mode=st.sampled_from(WIRE_MODES))
    def test_decoded_result_gives_the_same_answer(self, lingo, seed, index,
                                                  mode):
        a, w = _case(lingo, seed, index, mode)
        assume(wire_fits(lingo, w))
        decoded = lingo.g(w, a)
        assert is_compliant(lingo, w, a, decoded) == is_compliant(lingo, w, a)

    def test_cases_reach_every_decode_outcome(self):
        # The property above sees compliant and non-compliant wire values,
        # and decodes that fail or fall back to a branch default.
        seen = set()
        for lingo in SPEC_LINGOS:
            for seed in range(40):
                for mode in WIRE_MODES:
                    a, w = _case(lingo, seed, seed, mode)
                    if not wire_fits(lingo, w):
                        continue
                    decoded = lingo.g(w, a)
                    seen.add(_decode_kind(decoded))
                    seen.add(is_compliant(lingo, w, a, decoded))
        assert seen == {"value", "DecodeFailure", "DefaultFallback", True, False}


# ---------------------------------------------------------------------------
# Staged decodes against the hand-written stages they replaced
# ---------------------------------------------------------------------------

def _frozen_functional_g(g1, g2):
    def g(w, a):
        mid = g2(w, a.second)
        fell_back = isinstance(mid, DefaultFallback)
        if isinstance(mid, DecodeFailure):
            return mid
        if fell_back:
            mid = mid.value
        out = g1(mid, a.first)
        if isinstance(out, DecodeFailure):
            return out
        inner_fallback = isinstance(out, DefaultFallback)
        if inner_fallback:
            out = out.value
        if fell_back or inner_fallback:
            return DefaultFallback(out)
        return out
    return g


def _frozen_product_g(g1, g2):
    def g(w, a):
        r1 = g1(w.first, a.first)
        r2 = g2(w.second, a.second)
        if isinstance(r1, DecodeFailure):
            return r1
        if isinstance(r2, DecodeFailure):
            return r2
        fallback = isinstance(r1, DefaultFallback) or isinstance(r2, DefaultFallback)
        v1 = r1.value if isinstance(r1, DefaultFallback) else r1
        v2 = r2.value if isinstance(r2, DefaultFallback) else r2
        if fallback:
            return DefaultFallback(Pair(v1, v2))
        return Pair(v1, v2)
    return g


def _frozen_adapt_pre_g(ad, inner_g):
    def g(w, a):
        out = inner_g(w, a)
        if isinstance(out, DecodeFailure):
            return out
        fell_back = isinstance(out, DefaultFallback)
        v = out.value if fell_back else out
        rv = ad.r(v)
        if isinstance(rv, RetractFailure):
            return DecodeFailure(f"retract failed: {rv.reason}")
        return DefaultFallback(rv) if fell_back else rv
    return g


def _frozen_adapt_post_g(inner_g, ad):
    def g(w, a):
        rw = ad.r(w)
        if isinstance(rw, RetractFailure):
            return DecodeFailure(f"retract failed: {rw.reason}")
        return inner_g(rw, a)
    return g


def _frozen_g(spec):
    """g of ``build_lingo(spec)`` with the frozen stages at every
    functional, product, adapt_pre and adapt_post node."""
    op, body = next(iter(spec.items()))
    if op == "functional":
        return _frozen_functional_g(*map(_frozen_g, body))
    if op == "product":
        *rest, last = body
        g = _frozen_g(last)
        for part in reversed(rest):
            g = _frozen_product_g(_frozen_g(part), g)
        return g
    if op == "adapt_pre":
        return _frozen_adapt_pre_g(build_adaptor(body["adaptor"]),
                                   _frozen_g(body["lingo"]))
    if op == "adapt_post":
        return _frozen_adapt_post_g(_frozen_g(body["lingo"]),
                                    build_adaptor(body["adaptor"]))
    return build_lingo(spec).g


_HOR = {"horizontal": {"branches": [{"kind": "xor_nat"}, {"kind": "divide_check"}],
                       "defaults": [{"nat": "0"},
                                    {"pair": [{"nat": "0"}, {"nat": "0"}]}],
                       "bias": [1, 2]}}
_TAGGED = {"tagged": ["nat", {"pair": ["nat", "nat"]}]}
# A branch default under each of the four stages, so decoys pass through.
STAGED_SPECS = ALL_SPECS + [
    {"functional": [{"kind": "xor_nat"}, _HOR]},
    {"functional": [_HOR, {"kind": "identity", "space": _TAGGED}]},
    {"product": [_HOR, {"kind": "divide_check"}, _HOR]},
    {"adapt_pre": {"adaptor": {"kind": "identity", "space": "nat"},
                   "lingo": _HOR}},
    {"adapt_post": {"lingo": _HOR,
                    "adaptor": {"kind": "identity", "space": _TAGGED}}},
]
STAGED = [(build_lingo(spec), _frozen_g(spec)) for spec in STAGED_SPECS]


class TestStagedDecodes:
    @settings(max_examples=400, deadline=None)
    @given(pair=st.sampled_from(STAGED), seed=st.integers(0, 2**64 - 1),
           index=st.integers(0, 200), mode=st.sampled_from(WIRE_MODES))
    def test_matches_the_frozen_stages(self, pair, seed, index, mode):
        lingo, frozen_g = pair
        a, w = _case(lingo, seed, index, mode)
        assume(wire_fits(lingo, w))
        assert lingo.g(w, a) == frozen_g(w, a)

    def test_cases_reach_every_decode_outcome(self):
        seen = set()
        for lingo, _ in STAGED[len(ALL_SPECS):]:
            for seed in range(40):
                for mode in WIRE_MODES:
                    a, w = _case(lingo, seed, seed, mode)
                    if wire_fits(lingo, w):
                        seen.add(_decode_kind(lingo.g(w, a)))
        assert seen == {"value", "DecodeFailure", "DefaultFallback"}


# ---------------------------------------------------------------------------
# The lingo interface: one payload in, one wire value out
# ---------------------------------------------------------------------------

# Every leaf kind, operator and adaptor kind the specs can build, and the
# lingos the benchmark law-checks.
CONTRACT_LINGOS = SPEC_LINGOS + [build_lingo(spec) for _, spec in LAW_SPECS]
# Payloads of the lingos whose input space is opaque, so cannot be drawn.
OPAQUE_PAYLOADS = {
    "pre(mqtt_codec;xor_nat)": [ConnectMsg("b"), ConnAck(), SubMsg("temp"),
                                PubMsg("temp", "34"), DisconnectMsg()],
    "pre(sparse8;xor_bitvec8)": [Nat(i) for i in range(8)],
}


def _payload_cases(lingo, count=20):
    """(payload, parameter) pairs: drawn payloads, or the listed ones."""
    payloads = OPAQUE_PAYLOADS.get(lingo.name)
    if payloads is None:
        rng = Rng(5, SAMPLE_TAG)
        payloads = [lingo.input_space.sample(rng, 16)
                    for _ in range(count)]
    param = law_params(lingo, 5)
    return [(d, param(i)) for i, d in enumerate(payloads)]


@pytest.mark.parametrize("lingo", CONTRACT_LINGOS, ids=lambda l: l.name)
class TestOnePayloadInterface:
    def test_f_returns_one_wire_value(self, lingo):
        for d, a in _payload_cases(lingo):
            w = lingo.f(d, a)
            assert not isinstance(w, list)
            assert space_contains(lingo.output_space, w)
            assert apply_f(lingo, d, a) == w

    def test_g_returns_the_payload_itself(self, lingo):
        for d, a in _payload_cases(lingo):
            w = lingo.f(d, a)
            back = lingo.g(w, a)
            assert not isinstance(back, list) and back == d
            assert apply_g(lingo, w, a) == d and is_compliant(lingo, w, a)

    def test_stale_wire_list_is_refused(self, lingo):
        for d, a in _payload_cases(lingo, count=5):
            w = lingo.f(d, a)
            with pytest.raises(SpaceViolation):
                apply_g(lingo, [w], a)
            assert is_compliant(lingo, [w], a) is False

    def test_stale_payload_list_fails_loudly(self, lingo):
        for d, a in _payload_cases(lingo, count=5):
            with pytest.raises(SpaceViolation):
                apply_f(lingo, [d], a)
