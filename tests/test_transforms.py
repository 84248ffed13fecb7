import pytest

from conftest import noncompliant_witness

from dialectica.core import (
    Lingo,
    Rng,
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
from dialectica.transforms import (
    AuthParam,
    DegenerateParamSpace,
    NonceExhausted,
    NotApplicable,
    Recipe,
    RetractFailure,
    SpaceMismatch,
    adapt_post,
    adapt_pre,
    authenticating,
    bitvec_nat_adaptor,
    generic_recipe,
    identity_adaptor,
    nat_bitvec_adaptor,
    sharp,
    sparse_code_adaptor,
    verify_auth,
    xor_recipe,
    xor_sharp_recipe,
)
from dialectica.values import (
    AtomSet,
    AtomSetSpace,
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    Pair,
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
        with pytest.raises(DegenerateParamSpace):
            sharp(flat)

    def test_laws(self):
        for base in (make_xor_bitvec(4), make_xor_nat(), make_divide_check()):
            report = check_lingo_laws(sharp(base), 400, Rng(4, 4))
            assert report.all_passed, report.to_json()


class TestAuthenticating:
    def make(self, j=16, seed=909):
        return authenticating(make_xor_bitvec(16), ["alice", "bob", "carol"],
                              m=16, j=j, k=32, seed=seed)

    def test_identity_involution_is_plain_concatenation(self):
        auth = self.make()
        width = auth.m + auth.j
        ident = AuthParam(a0=BitVec(16, 0), sigma=tuple(range(width)),
                          code_word=0)
        wire = auth.base.f(BitVec(16, 0xBEEF), ident)
        assert wire == BitVec(width, 0xBEEF << auth.j)

    def test_code_extracts_embedded_hash(self):
        auth = self.make()
        rng = Rng(1, 5)
        for i in range(500):
            n = rng.next_below(1 << 20)
            pair = ("alice", "bob") if i % 2 else ("bob", "carol")
            d1 = auth.inner.input_space.sample(rng)
            a = auth.param2(n, pair)
            wire = auth.base.f(d1, a)
            assert auth.code(wire, a) == auth.hash(n, pair)
            assert verify_auth(auth, wire, n, pair)

    def test_round_trip(self):
        auth = self.make()
        rng = Rng(2, 6)
        for i in range(300):
            n = rng.next_below(1 << 20)
            d1 = auth.inner.input_space.sample(rng)
            wire = auth.encode(d1, n, ("alice", "bob"))
            assert auth.decode(wire, n, ("alice", "bob")) == d1

    def test_swapped_pair_rejected(self):
        auth = self.make()
        rng = Rng(3, 7)
        rejected = 0
        trials = 2000
        for i in range(trials):
            n = rng.next_below(1 << 20)
            d1 = auth.inner.input_space.sample(rng)
            wire = auth.encode(d1, n, ("alice", "bob"))
            if not verify_auth(auth, wire, n, ("bob", "alice")):
                rejected += 1
        assert rejected / trials >= 1 - 2**-16 - 0.01

    def test_tampered_then_reinjected_fails_fresh_nonce(self):
        # The parameter advances with every use, so an injected copy is
        # checked under the next nonce's involution and hash.
        auth = self.make()
        rng = Rng(4, 8)
        width = auth.m + auth.j
        detected = 0
        trials = 10_000
        for i in range(trials):
            n = rng.next_below(1 << 20)
            d1 = auth.inner.input_space.sample(rng)
            wire = auth.encode(d1, n, ("alice", "bob"))
            flip = rng.next_below(width)
            tampered = BitVec(width, wire.bits ^ (1 << flip))
            if not verify_auth(auth, tampered, n + 1, ("alice", "bob")):
                detected += 1
        assert detected / trials >= 1 - 2**-16 - 0.01

    def test_involution_property(self):
        auth = self.make()
        for n in (0, 1, 77, 12345):
            perm = auth.involution(n)
            assert sorted(perm) == list(range(auth.m + auth.j))
            assert all(perm[perm[i]] == i for i in range(len(perm)))

    def test_oid_pair_must_differ(self):
        auth = self.make()
        with pytest.raises(ValueError):
            auth.hash(1, ("alice", "alice"))

    def test_nonce_space_is_bounded_by_k(self):
        auth = authenticating(make_xor_bitvec(8), ["a", "b"], m=8, j=8, k=8,
                              seed=3)
        auth.hash(255, ("a", "b"))
        with pytest.raises(NonceExhausted, match=r"2\*\*8") as info:
            auth.hash(256, ("a", "b"))
        assert isinstance(info.value, ValueError)

    def test_laws_on_wrapped_lingo(self):
        report = check_lingo_laws(self.make().base, 300, Rng(5, 9))
        assert report.all_passed, report.to_json()


class TestAdaptors:
    def test_section_retract_law(self):
        rng = Rng(6, 10)
        nb = nat_bitvec_adaptor(64)
        bn = bitvec_nat_adaptor(16)
        sparse = sparse_code_adaptor([f"w{i}" for i in range(32)], 16)
        ident = identity_adaptor(NatSpace())
        for _ in range(1000):
            n = Nat(rng.next_below(1 << 32))
            assert nb.r(nb.j(n)) == n
            assert ident.r(ident.j(n)) == n
            b = BitVec(16, rng.next_below(1 << 16))
            assert bn.r(bn.j(b)) == b
            w = Nat(rng.next_below(32))
            assert sparse.r(sparse.j(w)) == w

    def test_partial_retract(self):
        bn = bitvec_nat_adaptor(8)
        assert isinstance(bn.r(Nat(256)), RetractFailure)

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatch):
            adapt_pre(nat_bitvec_adaptor(16), make_xor_nat())
        with pytest.raises(SpaceMismatch):
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
        words = [f"w{i}" for i in range(32)]
        adapted = adapt_pre(sparse_code_adaptor(words, 16), make_xor_bitvec(16))
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
