import pytest

from conftest import noncompliant_witness

from dialectica.compositions import (
    HorizontalSpec,
    functional,
    horizontal,
    product,
    tupling,
)
from dialectica.core import (
    DefaultFallback,
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
    make_reverse_divide_check,
    make_xor_bitvec,
    make_xor_nat,
)
from dialectica.transforms import sharp
from dialectica.values import (
    BitVec,
    BitVecSpace,
    Nat,
    Pair,
    PairSpace,
    Tagged,
    TaggedSpace,
    space_contains,
)

PAIR_ZERO = Pair(Nat(0), Nat(0))


def xor_dc_horizontal(seed=0):
    return horizontal(HorizontalSpec(
        branches=(make_xor_nat(), make_divide_check()),
        defaults=(Nat(0), PAIR_ZERO),
        bias=(1, 1)), seed=seed)


class TestHorizontal:
    def test_spaces_are_tagged(self):
        h = xor_dc_horizontal()
        assert isinstance(h.output_space, TaggedSpace)
        assert isinstance(h.param_space, TaggedSpace)

    def test_branch_dispatch(self):
        h = xor_dc_horizontal()
        a1 = Tagged(1, Nat(5))
        assert apply_f(h, Nat(3), a1) == Tagged(1, Nat(6))
        a2 = Tagged(2, Nat(3))
        assert apply_f(h, Nat(13), a2) == Tagged(2, Pair(Nat(3), Nat(3)))

    def test_param_tag_drives_the_dice(self):
        h = xor_dc_horizontal()
        seen = {h.param(n, 123).branch for n in range(64)}
        assert seen == {1, 2}
        for n in range(200):
            p = h.param(n, 123)
            assert space_contains(h.param_space, p)
            d = Nat(n + 3)
            assert apply_g(h, apply_f(h, d, p), p) == d

    def test_mismatched_tag_falls_back_to_default(self):
        h = xor_dc_horizontal()
        a1 = Tagged(1, Nat(5))
        out = apply_g(h, Tagged(2, Pair(Nat(3), Nat(3))), a1)
        assert isinstance(out, DefaultFallback)
        # the decoy is the branch's decode of its default value
        assert out.value == Nat(5)   # g_xor(0, 5) = 5

    def test_mismatched_tag_is_noncompliant(self):
        h = xor_dc_horizontal()
        a1 = Tagged(1, Nat(5))
        assert not is_compliant(h, Tagged(2, Pair(Nat(3), Nat(3))), a1)

    def test_validation(self):
        with pytest.raises(SpaceViolation):
            HorizontalSpec(branches=(make_xor_nat(),), defaults=(Nat(0),),
                           bias=(1,)).validate()
        with pytest.raises(SpaceViolation):
            HorizontalSpec(branches=(make_xor_nat(), make_xor_bitvec(8)),
                           defaults=(Nat(0), BitVec(8, 0)),
                           bias=(1, 1)).validate()
        with pytest.raises(SpaceViolation):
            # default for the divide-check branch lives in the wrong space
            HorizontalSpec(branches=(make_xor_nat(), make_divide_check()),
                           defaults=(Nat(0), Nat(0)), bias=(1, 1)).validate()

    def test_bias_frequencies(self):
        h = horizontal(HorizontalSpec(
            branches=(make_xor_nat(), make_divide_check()),
            defaults=(Nat(0), PAIR_ZERO), bias=(3, 1)))
        draws = 100_000
        ones = sum(h.param(n, 2024).branch == 1 for n in range(draws))
        assert abs(ones / draws - 0.75) <= 0.01

    def test_f_checkable_by_witness(self):
        # a wire value tagged with the other branch has no preimage, so a
        # witness exists even when a branch is onto
        assert noncompliant_witness(xor_dc_horizontal()) is not None
        both = horizontal(HorizontalSpec(
            branches=(make_divide_check(), make_reverse_divide_check()),
            defaults=(PAIR_ZERO, PAIR_ZERO), bias=(1, 1)))
        assert noncompliant_witness(both) is not None


class TestFunctional:
    def test_worked_values(self):
        comp = functional(make_xor_nat(), make_divide_check())
        a = Pair(Nat(6), Nat(3))
        # 13 xor 6 = 11, then 11+5 = 16 = 3*5+1
        assert apply_f(comp, Nat(13), a) == Pair(Nat(3), Nat(1))
        assert apply_g(comp, Pair(Nat(3), Nat(1)), a) == Nat(13)

    def test_space_mismatch(self):
        with pytest.raises(SpaceViolation):
            functional(make_xor_bitvec(8), make_divide_check())

    def test_param_uses_one_index_for_both_stages(self):
        comp = functional(make_xor_nat(), make_divide_check())
        for n in range(50):
            p = comp.param(n, 55)
            assert p == Pair(make_xor_nat().param(n, 55),
                             make_divide_check().param(n, 55))

    def test_f_check_propagates_from_second_stage(self):
        comp = functional(make_xor_nat(), make_divide_check())
        assert noncompliant_witness(comp) is not None
        rng = Rng(20, 1)
        for ap in range(17):
            witness = Pair(Nat(0), Nat(ap + 2))
            for _ in range(5):
                a = Pair(make_xor_nat().param_space.sample(rng), Nat(ap))
                assert not is_compliant(comp, witness, a)


class TestProduct:
    def test_componentwise_assembly(self):
        prod = product([make_xor_bitvec(8), make_divide_check()])
        a = Pair(BitVec(8, 5), Nat(3))
        got = apply_f(prod, Pair(BitVec(8, 3), Nat(13)), a)
        assert got == Pair(BitVec(8, 6), Pair(Nat(3), Nat(3)))
        assert apply_g(prod, got, a) == Pair(BitVec(8, 3), Nat(13))

    def test_product_of_identities_is_identity(self):
        prod = product([make_identity(BitVecSpace(4)),
                        make_identity(BitVecSpace(4))])
        rng = Rng(21, 2)
        for _ in range(200):
            d = prod.input_space.sample(rng)
            a = prod.param_space.sample(rng)
            assert apply_f(prod, d, a) == d

    def test_k_ary_folds_into_nested_pairs(self):
        prod = product([make_xor_bitvec(4)] * 3)
        assert prod.input_space == PairSpace(
            BitVecSpace(4), PairSpace(BitVecSpace(4), BitVecSpace(4)))


class TestTupling:
    def test_matches_sharp_worked_example(self):
        tup = tupling([make_xor_bitvec(8), make_xor_bitvec(8)])
        a = Pair(BitVec(8, 5), BitVec(8, 7))
        assert apply_f(tup, BitVec(8, 3), a) == \
            Pair(BitVec(8, 6), BitVec(8, 4))
        assert apply_g(tup, Pair(BitVec(8, 6), BitVec(8, 4)), a) == BitVec(8, 3)

    def test_shared_input_required(self):
        with pytest.raises(SpaceViolation):
            tupling([make_xor_bitvec(8), make_xor_nat()])

    def test_f_checkable_by_witness(self):
        # the second component is pinned by the first
        assert noncompliant_witness(
            tupling([make_xor_bitvec(4), make_xor_bitvec(4)])) is not None

    @pytest.mark.parametrize("base_name", ["xor4", "dc"])
    def test_sharp_is_a_sub_lingo(self, base_name):
        base = make_xor_bitvec(4) if base_name == "xor4" else make_divide_check()
        sh = sharp(base)
        tup = tupling([base, base])
        rng = Rng(22, 3)
        for _ in range(1000):
            d = base.input_space.sample(rng)
            a = sh.param_space.sample(rng)   # distinct components
            assert sh.f(d, a) == tup.f(d, a)
            assert sh.g(sh.f(d, a), a) == tup.g(tup.f(d, a), a)


COMPOSED = [
    xor_dc_horizontal(),
    horizontal(HorizontalSpec(
        branches=(make_divide_check(), make_reverse_divide_check()),
        defaults=(PAIR_ZERO, PAIR_ZERO), bias=(1, 1))),
    functional(make_xor_nat(), make_divide_check()),
    product([make_xor_bitvec(8), make_divide_check()]),
    tupling([make_xor_bitvec(8), make_xor_bitvec(8)]),
]


@pytest.mark.parametrize("lingo", COMPOSED, ids=lambda l: l.name)
def test_composed_lingos_pass_laws(lingo):
    report = check_lingo_laws(lingo, 400, Rng(23, 4))
    assert report.all_passed, report.to_json()


def test_horizontal_f_check_closure_brute_force():
    # with every branch f-checkable a witness exists for every parameter
    both = horizontal(HorizontalSpec(
        branches=(make_divide_check(), make_reverse_divide_check()),
        defaults=(PAIR_ZERO, PAIR_ZERO), bias=(1, 1)))
    for a_val in range(9):
        for branch in (1, 2):
            a = Tagged(branch, Nat(a_val))
            witness = Pair(Nat(0), Nat(a_val + 2)) if branch == 1 \
                else Pair(Nat(a_val + 2), Nat(0))
            assert not is_compliant(both, Tagged(branch, witness), a)
