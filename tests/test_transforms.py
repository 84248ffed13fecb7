import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from auth_oracle import OldAuthLingo
from conftest import noncompliant_witness

from dialectica.core import (
    Lingo,
    Rng,
    SpaceViolation,
    apply_f,
    apply_g,
    check_lingo_laws,
    is_compliant,
)
from dialectica.library import (
    make_divide_check,
    make_identity,
    make_xor_bitvec,
    make_xor_nat,
)
from dialectica.mqtt import ConnAck, PubMsg, SubMsg, mqtt_codec_adaptor
from dialectica.rng import SAMPLE_TAG, derive, fnv64
from dialectica.specs import _ADAPTOR_KINDS, build_adaptor
from dialectica.transforms import (
    NotApplicable,
    Recipe,
    RetractFailure,
    adapt_post,
    adapt_pre,
    authenticating,
    bitvec_nat_adaptor,
    generic_recipe,
    identity_adaptor,
    nat_bitvec_adaptor,
    sharp,
    sparse_code_adaptor,
    xor_recipe,
    xor_sharp_recipe,
    _apply_involution,
    _involution,
)
from dialectica.values import (
    AtomSet,
    AtomSetSpace,
    BitVec,
    BitVecSpace,
    CannotDraw,
    MAX_BITVEC_WIDTH,
    Nat,
    NatSpace,
    Pair,
    PairSpace,
    space_contains,
)


class TestSharp:
    def test_worked_values(self):
        sx = sharp(make_xor_bitvec(8))
        a = Pair(BitVec(8, 5), BitVec(8, 7))
        assert apply_f(sx, BitVec(8, 3), a) == \
            Pair(BitVec(8, 6), BitVec(8, 4))
        assert apply_g(sx, Pair(BitVec(8, 6), BitVec(8, 4)), a) == BitVec(8, 3)

    def test_cross_payload_pairs_never_compliant(self):
        # the defining witness: components encoding different payloads
        base = make_xor_bitvec(4)
        sx = sharp(base)
        values = BitVecSpace(4).enumerate()
        for a_bits in range(16):
            for ap_bits in range(16):
                if a_bits == ap_bits:
                    continue
                a = Pair(BitVec(4, a_bits), BitVec(4, ap_bits))
                for d in values[:4]:
                    for dp in values[:4]:
                        if d == dp:
                            continue
                        wire = Pair(base.f(d, a.first),
                                    base.f(dp, a.second))
                        assert not is_compliant(sx, wire, a)

    def test_param_components_always_distinct(self):
        sx = sharp(make_xor_bitvec(4))
        for n in range(1000):
            p = sx.param(n, 31)
            assert p.first != p.second
            assert space_contains(sx.param_space, p)

    def test_degenerate_param_space_rejected(self):
        one_point = AtomSetSpace(())   # single inhabitant: the empty set
        flat = Lingo(name="flat", input_space=NatSpace(), output_space=NatSpace(),
                     param_space=one_point, f=lambda d, a: d, g=lambda w, a: w,
                     param=lambda n, s: AtomSet(()))
        with pytest.raises(SpaceViolation,
                           match="flat param space has fewer than 2 elements"):
            sharp(flat)

    def test_laws(self):
        for base in (make_xor_bitvec(4), make_xor_nat(), make_divide_check()):
            report = check_lingo_laws(sharp(base), 400, Rng(4, 4))
            assert report.all_passed, report.to_json()


class TestAuthenticating:
    M = J = 16

    def make(self, pair=("alice", "bob"), seed=909):
        return authenticating(make_xor_bitvec(16), list(pair),
                              m=self.M, j=self.J, k=32, seed=seed)

    def oracle(self, seed=909):
        return OldAuthLingo(inner=make_xor_bitvec(16), m=self.M, j=self.J,
                            k=32, seed=seed)

    def test_returns_a_lingo(self):
        assert isinstance(self.make(), Lingo)

    def test_unscrambled_wire_is_plain_concatenation(self):
        # Undoing the involution of the parameter's nonce leaves the base
        # wire value followed by the parameter's code word.
        auth = self.make()
        width = self.M + self.J
        for n in (0, 1, 77, 12345):
            perm = _involution(909, n, width)
            zero = Pair(BitVec(16, 0), Pair(BitVec(32, n), BitVec(self.J, 0)))
            wire = auth.f(BitVec(16, 0xBEEF), zero)
            assert _apply_involution(wire.bits, width, perm) == 0xBEEF << self.J
            a = auth.param(n, 0)
            wire = auth.f(BitVec(16, 0xBEEF), a)
            assert (_apply_involution(wire.bits, width, perm)
                    == (0xBEEF ^ a.first.bits) << self.J | a.second.second.bits)

    def test_param_is_a_value_of_its_space(self):
        auth = self.make()
        assert auth.param_space == PairSpace(
            BitVecSpace(16), PairSpace(BitVecSpace(32), BitVecSpace(self.J)))
        for n in (0, 1, (1 << 32) - 1):
            a = auth.param(n, 0)
            assert space_contains(auth.param_space, a)
            assert a.second.first == BitVec(32, n)

    def test_code_extracts_embedded_hash(self):
        lingos = {pair: self.make(pair)
                  for pair in (("alice", "bob"), ("bob", "carol"))}
        oracle = self.oracle()
        rng = Rng(1, 5)
        for i in range(500):
            n = rng.next_below(1 << 20)
            pair = ("alice", "bob") if i % 2 else ("bob", "carol")
            auth = lingos[pair]
            d1 = auth.input_space.sample(rng)
            a = auth.param(n, 0)
            wire = auth.f(d1, a)
            assert oracle.code(wire, a) == oracle.hash(n, pair)
            assert is_compliant(auth, wire, a)

    def test_round_trip(self):
        auth = self.make()
        rng = Rng(2, 6)
        for i in range(300):
            n = rng.next_below(1 << 20)
            d1 = auth.input_space.sample(rng)
            a = auth.param(n, 0)
            assert auth.g(auth.f(d1, a), a) == d1

    def test_swapped_pair_rejected(self):
        sender, receiver = self.make(("alice", "bob")), self.make(("bob", "alice"))
        rng = Rng(3, 7)
        rejected = 0
        trials = 2000
        for i in range(trials):
            n = rng.next_below(1 << 20)
            d1 = sender.input_space.sample(rng)
            wire = sender.f(d1, sender.param(n, 0))
            if not is_compliant(receiver, wire, receiver.param(n, 0)):
                rejected += 1
        assert rejected / trials >= 1 - 2**-16 - 0.01

    def test_tampered_then_reinjected_fails_fresh_nonce(self):
        # The parameter advances with every use, so an injected copy is
        # checked under the next nonce's involution and hash.
        auth = self.make()
        rng = Rng(4, 8)
        width = self.M + self.J
        detected = 0
        trials = 10_000
        for i in range(trials):
            n = rng.next_below(1 << 20)
            d1 = auth.input_space.sample(rng)
            wire = auth.f(d1, auth.param(n, 0))
            flip = rng.next_below(width)
            tampered = BitVec(width, wire.bits ^ (1 << flip))
            if not is_compliant(auth, tampered, auth.param(n + 1, 0)):
                detected += 1
        assert detected / trials >= 1 - 2**-16 - 0.01

    def test_involution_property(self):
        for n in (0, 1, 77, 12345):
            perm = _involution(909, n, self.M + self.J)
            assert sorted(perm) == list(range(self.M + self.J))
            assert all(perm[perm[i]] == i for i in range(len(perm)))

    def test_oid_pair_must_differ(self):
        with pytest.raises(ValueError):
            self.make(("alice", "alice"))

    @pytest.mark.parametrize("oids", [
        ["alice"], ["alice", "bob", "carol"], [], ["alice", 7], "ab"])
    def test_oids_are_exactly_one_pair(self, oids):
        with pytest.raises(ValueError, match="two distinct strings"):
            authenticating(make_xor_bitvec(16), oids, m=16, j=16, k=32, seed=1)

    def test_nonce_space_is_bounded_by_k(self):
        auth = authenticating(make_xor_bitvec(8), ["a", "b"], m=8, j=8, k=8,
                              seed=3)
        auth.param(255, 0)
        with pytest.raises(CannotDraw, match=r"below 2\*\*8, got 256; use fewer"):
            auth.param(256, 0)

    def test_nonce_check_never_builds_2_to_the_k(self):
        # At the widest nonce space 2**k is an 8 KB integer.
        auth = authenticating(make_xor_bitvec(8), ["a", "b"], m=8, j=8,
                              k=MAX_BITVEC_WIDTH, seed=3)
        tracemalloc.start()
        try:
            auth.param(0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048, peak
        with pytest.raises(CannotDraw, match="nonce must be below"):
            auth.param(-1, 0)

    @pytest.mark.parametrize("jk", [{"j": MAX_BITVEC_WIDTH + 1},
                                    {"k": MAX_BITVEC_WIDTH + 1}, {"k": 10**8}])
    def test_code_and_nonce_widths_are_bounded(self, jk):
        # The nonce and the code word are bit-vectors of the parameter space.
        with pytest.raises(ValueError, match=r"width must be in 1\.\.65536"):
            authenticating(make_xor_bitvec(8), ["a", "b"], m=8,
                           **{"j": 8, "k": 8, **jk}, seed=3)

    def test_laws_on_wrapped_lingo(self):
        report = check_lingo_laws(self.make(), 300, Rng(5, 9))
        assert report.all_passed, report.to_json()


_oids = st.text(alphabet="abc>", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(pair=st.tuples(_oids, _oids).filter(lambda p: p[0] != p[1]),
       seed=st.integers(0, 2**64 - 1), caller_seed=st.integers(0, 2**64 - 1),
       base_width=st.integers(1, 24), extra=st.integers(0, 8),
       j=st.integers(8, 24), k=st.integers(8, 24), data=st.data())
def test_auth_lingo_matches_the_pair_oracle(pair, seed, caller_seed, base_width,
                                            extra, j, k, data):
    base = make_xor_bitvec(base_width)
    m = base_width + extra
    auth = authenticating(base, list(pair), m=m, j=j, k=k, seed=seed)
    oracle = OldAuthLingo(inner=base, m=m, j=j, k=k, seed=seed)
    n = data.draw(st.integers(0, (1 << k) - 1), label="n")
    a = auth.param(n, caller_seed)
    assert a == oracle.param2(n, pair)
    d1 = BitVec(base_width, data.draw(st.integers(0, (1 << base_width) - 1)))
    wire = auth.f(d1, a)
    assert wire == oracle.encode(d1, n, pair)
    assert auth.g(wire, a) == oracle.decode(wire, n, pair) == d1
    other = BitVec(m + j, data.draw(st.integers(0, (1 << (m + j)) - 1)))
    assert auth.g(other, a) == oracle.decode(other, n, pair)
    with pytest.raises(CannotDraw) as got:
        auth.param(1 << k, caller_seed)
    with pytest.raises(CannotDraw) as want:
        oracle.param2(1 << k, pair)
    assert str(got.value) == str(want.value)


# Frozen copies of the authenticating lingo's bit scrambling before it ran
# in O(width): a free list rebuilt at every step, and a loop over bits.

def _old_involution(seed, n, width):
    perm = [-1] * width
    rng = Rng(derive(seed, fnv64("involution"), n), SAMPLE_TAG)
    for i in range(width):
        if perm[i] != -1:
            continue
        free = [p for p in range(i, width) if perm[p] == -1]
        partner = free[rng.next_below(len(free))]
        perm[i], perm[partner] = partner, i
    return tuple(perm)


def _old_apply_involution(bits, width, perm):
    out = 0
    for i in range(width):
        bit = (bits >> (width - 1 - perm[i])) & 1
        out |= bit << (width - 1 - i)
    return out


@settings(deadline=None)
@given(width=st.integers(1, 200), seed=st.integers(0, 2**64 - 1),
       n=st.integers(0, 2**32), data=st.data())
def test_involution_matches_the_old_loops(width, seed, n, data):
    perm = _involution(seed, n, width)
    assert perm == _old_involution(seed, n, width)
    bits = data.draw(st.integers(0, (1 << width) - 1)
                     | st.sampled_from([0, (1 << width) - 1]), label="bits")
    assert (_apply_involution(bits, width, perm)
            == _old_apply_involution(bits, width, perm))


# One spec per adaptor kind, at several sizes.
ADAPTOR_SPECS = [
    {"kind": "identity", "space": {"bitvec": 4}},
    {"kind": "identity", "space": "nat"},
    {"kind": "identity", "space": {"pair": ["nat", {"atoms": ["a", "b"]}]}},
    {"kind": "nat_bitvec", "width": 1},
    {"kind": "nat_bitvec", "width": 8},
    {"kind": "nat_bitvec", "width": 64},
    {"kind": "nat_bitvec", "width": 130},
    {"kind": "bitvec_nat", "width": 4},
    {"kind": "bitvec_nat", "width": 64},
    {"kind": "sparse", "width": 8, "count": 8},
    {"kind": "sparse", "width": 8, "count": 64, "seed": 2},
    {"kind": "sparse", "width": 32, "count": 1},
    {"kind": "mqtt_codec"},
    {"kind": "mqtt_codec", "width": 8},
    {"kind": "mqtt_codec", "width": 512},
]


class TestAdaptors:
    def test_section_retract_law(self):
        rng = Rng(6, 10)
        nb = nat_bitvec_adaptor(64)
        bn = bitvec_nat_adaptor(16)
        sparse = sparse_code_adaptor(32, 16)
        ident = identity_adaptor(NatSpace())
        for _ in range(1000):
            n = Nat(rng.next_below(1 << 32))
            assert nb.r(nb.j(n)) == n
            assert ident.r(ident.j(n)) == n
            b = BitVec(16, rng.next_below(1 << 16))
            assert bn.r(bn.j(b)) == b
            w = Nat(rng.next_below(32))
            assert sparse.r(sparse.j(w)) == w

    @pytest.mark.parametrize("spec", ADAPTOR_SPECS, ids=json.dumps)
    def test_section_retract_on_the_declared_domain(self, spec):
        # Every d the adaptor declares is one its j encodes into the
        # declared codomain and its r takes back.
        ad = build_adaptor(spec)
        domain = ad.from_space.enumerate(1 << 10)
        if domain is None:
            rng = Rng(5, SAMPLE_TAG)
            domain = [ad.from_space.sample(rng) for _ in range(500)]
        for d in domain:
            w = ad.j(d)
            assert space_contains(ad.to_space, w), (d, w)
            assert ad.r(w) == d

    def test_section_retract_cases_cover_every_kind(self):
        assert {s["kind"] for s in ADAPTOR_SPECS} == set(_ADAPTOR_KINDS)

    @pytest.mark.parametrize("width", [1, 4, 64, 65])
    def test_nat_bitvec_declares_the_naturals_below_its_width(self, width):
        ad = nat_bitvec_adaptor(width)
        assert ad.from_space == NatSpace(1 << width)
        top = Nat((1 << width) - 1)
        assert space_contains(ad.from_space, top)
        assert not space_contains(ad.from_space, Nat(1 << width))
        assert ad.r(ad.j(top)) == top

    def test_sparse_declares_its_codebook_indexes(self):
        ad = sparse_code_adaptor(8, 8)
        assert ad.from_space == NatSpace(8)
        assert ad.from_space.enumerate() == [Nat(i) for i in range(8)]

    def test_sparse_refuses_a_bad_width_before_building_1_shl_width(self):
        # The width comes from the spec unbounded; 1 << 10**8 takes 12.5 MB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"width must be in 1\.\.65536"):
                sparse_code_adaptor(64, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    @pytest.mark.parametrize("width", [0, -1])
    def test_sparse_refuses_a_width_below_1(self, width):
        with pytest.raises(ValueError, match=r"width must be in 1\.\.65536"):
            sparse_code_adaptor(64, width)

    def test_partial_retract(self):
        bn = bitvec_nat_adaptor(8)
        assert isinstance(bn.r(Nat(256)), RetractFailure)

    def test_widest_retract_builds_no_power_of_two(self):
        r = bitvec_nat_adaptor(65536).r
        inside = Nat((1 << 65536) - 1)
        tracemalloc.start()
        try:
            back = r(inside)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024, peak
        assert back == BitVec(65536, inside.n)

    def test_retract_failure_names_the_bit_length(self):
        # A decimal text of the natural would pass Python's int/str digit
        # limit, and raise instead of returning the failure.
        got = bitvec_nat_adaptor(65536).r(Nat(1 << 65536))
        assert got == RetractFailure("65537-bit natural exceeds 65536 bits")

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceViolation, match="adaptor nat_bitvec16 lands in"):
            adapt_pre(nat_bitvec_adaptor(16), make_xor_nat())
        with pytest.raises(SpaceViolation, match="adaptor nat_bitvec16 expects"):
            adapt_post(make_xor_bitvec(8), nat_bitvec_adaptor(16))

    def test_identity_adaptor_is_extensionally_inert(self):
        base = make_xor_nat()
        wrapped = adapt_pre(identity_adaptor(NatSpace()), base)
        rng = Rng(7, 11)
        for _ in range(200):
            d = NatSpace().sample(rng)
            a = NatSpace().sample(rng)
            assert wrapped.f(d, a) == base.f(d, a)
            assert wrapped.g(d, a) == base.g(d, a)

    def test_mqtt_codec_pre_composition(self):
        lingo = adapt_pre(mqtt_codec_adaptor(), make_xor_nat())
        rng = Rng(8, 12)
        msgs = [ConnAck(), SubMsg("temp"), PubMsg("temp", "34"),
                PubMsg("a" * 200, "b" * 200)]
        for i in range(100):
            msg = msgs[i % len(msgs)]
            a = NatSpace().sample(rng)
            assert lingo.g(lingo.f(msg, a), a) == msg

    def test_associativity_of_attachment(self):
        # ((j,r);L);(j',r') and (j,r);(L;(j',r')) agree pointwise
        j_r = nat_bitvec_adaptor(64)
        jp_rp = bitvec_nat_adaptor(64)
        base = make_xor_bitvec(64)
        left = adapt_post(adapt_pre(j_r, base), jp_rp)
        right = adapt_pre(j_r, adapt_post(base, jp_rp))
        rng = Rng(9, 13)
        for _ in range(1000):
            d = Nat(rng.next_below(1 << 32))
            a = BitVecSpace(64).sample(rng)
            assert left.f(d, a) == right.f(d, a)
            w = Nat(rng.next_below(1 << 64))
            assert left.g(w, a) == right.g(w, a)

    def test_attachment_slides_through_functional_composition(self):
        # (L;(j,r)) . L2 and L . ((j,r);L2) agree pointwise
        from dialectica.compositions import functional
        ad = bitvec_nat_adaptor(64)
        l1 = make_xor_bitvec(64)
        l2 = make_divide_check()
        left = functional(adapt_post(l1, ad), l2)
        right = functional(l1, adapt_pre(ad, l2))
        rng = Rng(10, 14)
        for _ in range(1000):
            d = BitVecSpace(64).sample(rng)
            a = Pair(BitVecSpace(64).sample(rng),
                     Nat(rng.next_below(1 << 16)))
            fl = left.f(d, a)
            assert fl == right.f(d, a)
            assert left.g(fl, a) == right.g(fl, a) == d


class TestXorRecipe:
    def test_worked_forgery(self):
        # observed 6 = 3 xor 5; mask 1 gives 7, which decodes to 2 under 5
        forged = xor_recipe(BitVec(8, 6), BitVec(8, 1))
        assert forged == BitVec(8, 7)
        xr = make_xor_bitvec(8)
        assert apply_g(xr, forged, BitVec(8, 5)) == BitVec(8, 2)
        assert is_compliant(xr, forged, BitVec(8, 5))

    def test_zero_mask_substituted(self):
        assert xor_recipe(BitVec(8, 6), BitVec(8, 0)) == BitVec(8, 6 ^ 0xFF)

    def test_always_changes_and_stays_compliant(self):
        xr = make_xor_bitvec(8)
        rng = Rng(11, 15)
        for _ in range(1000):
            d = xr.input_space.sample(rng)
            a = xr.param_space.sample(rng)
            observed = xr.f(d, a)
            forged = xor_recipe(observed, xr.param_space.sample(rng))
            assert forged != observed
            assert is_compliant(xr, forged, a)


class TestXorSharpRecipe:
    def test_worked_forgery(self):
        observed = Pair(BitVec(8, 6), BitVec(8, 4))
        forged = xor_sharp_recipe(observed, Pair(BitVec(8, 1), BitVec(8, 0)))
        assert forged == Pair(BitVec(8, 7), BitVec(8, 5))
        sx = sharp(make_xor_bitvec(8))
        a = Pair(BitVec(8, 5), BitVec(8, 7))
        assert apply_g(sx, forged, a) == BitVec(8, 2)
        assert is_compliant(sx, forged, a)

    def test_zero_first_component_repaired(self):
        ones = BitVec(8, 0xFF)
        forged = xor_sharp_recipe(Pair(BitVec(8, 6), BitVec(8, 4)),
                                  Pair(BitVec(8, 0), BitVec(8, 3)))
        assert forged == Pair(BitVec(8, 6 ^ 0xFF), BitVec(8, 4 ^ 0xFF))
        # and when the would-be substitute collides with all-ones
        forged = xor_sharp_recipe(Pair(BitVec(8, 6), BitVec(8, 4)),
                                  Pair(BitVec(8, 0), ones))
        mask = 0x7F   # 0 followed by seven ones
        assert forged == Pair(BitVec(8, 6 ^ mask), BitVec(8, 4 ^ mask))

    def test_always_changes_and_stays_compliant(self):
        sx = sharp(make_xor_bitvec(8))
        rng = Rng(12, 16)
        for _ in range(1000):
            d = sx.input_space.sample(rng)
            a = sx.param_space.sample(rng)
            observed = sx.f(d, a)
            forged = xor_sharp_recipe(observed, sx.param_space.sample(rng))
            assert forged != observed
            assert is_compliant(sx, forged, a)


class TestGenericRecipe:
    def test_xor_gets_a_recipe(self):
        xr = make_xor_bitvec(8)
        masks = [BitVec(8, 1), BitVec(8, 2), BitVec(8, 0x80)]
        recipe = generic_recipe(xr, masks)
        assert isinstance(recipe, Recipe)
        rng = Rng(13, 17)
        for _ in range(500):
            d = xr.input_space.sample(rng)
            a = xr.param_space.sample(rng)
            observed = xr.f(d, a)
            forged = recipe.forge(observed, xr.param_space.sample(rng))
            assert forged != observed
            assert is_compliant(xr, forged, a)

    def test_divide_check_fails_closure(self):
        dc = make_divide_check()
        out = generic_recipe(dc, [Nat(1), Nat(2)])
        assert isinstance(out, NotApplicable)
        assert out.failed_hypothesis == "closure"

    def test_identity_fails_movement(self):
        ident = make_identity(BitVecSpace(4))
        out = generic_recipe(ident, [BitVec(1, 0), BitVec(1, 1)])
        assert isinstance(out, NotApplicable)
        assert out.failed_hypothesis == "movement"

    def test_too_few_masks(self):
        out = generic_recipe(make_xor_bitvec(8), [BitVec(8, 1)])
        assert isinstance(out, NotApplicable)


class TestSparseImage:
    def test_recipe_rarely_survives_sparse_adaptor(self):
        # thin codebook inside 16 bits: forged masks land outside it almost
        # always, so the adapted compliance check catches the xor recipe
        adapted = adapt_pre(sparse_code_adaptor(32, 16), make_xor_bitvec(16))
        assert noncompliant_witness(adapted) is not None
        rng = Rng(14, 18)
        survived = 0
        trials = 2000
        for _ in range(trials):
            idx = Nat(rng.next_below(32))
            a = BitVecSpace(16).sample(rng)
            observed = adapted.f(idx, a)
            forged = xor_recipe(observed, BitVecSpace(16).sample(rng))
            if is_compliant(adapted, forged, a):
                survived += 1
        rate = survived / trials
        # measured, not proven: the image has 32 of 65536 points
        print(f"sparse-adaptor recipe survival rate: {rate:.4f}")
        assert 0.0 <= rate <= 0.05
