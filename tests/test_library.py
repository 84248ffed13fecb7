import pytest

from conftest import noncompliant_witness

from dialectica.core import (
    DecodeFailure,
    Rng,
    apply_f,
    apply_g,
    check_lingo_laws,
    is_compliant,
    sample_value,
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
from dialectica.values import AtomSet, BitVec, BitVecSpace, Nat, Pair

UNIVERSE = ("a", "b", "c", "d", "e", "f")


def shipped_lingos():
    return [
        make_xor_bitvec(4),
        make_xor_bitvec(8),
        make_xor_nat(),
        make_xor_set(UNIVERSE),
        make_divide_check(),
        make_reverse_divide_check(),
        make_identity(BitVecSpace(8)),
        make_split_bitvec(4),
    ]


class TestXorFamily:
    def test_bitvec_worked_values(self):
        l = make_xor_bitvec(8)
        assert apply_f(l, BitVec(8, 3), BitVec(8, 5)) == BitVec(8, 6)
        assert apply_g(l, BitVec(8, 6), BitVec(8, 5)) == BitVec(8, 3)
        assert apply_f(l, BitVec(8, 77), BitVec(8, 0)) == BitVec(8, 77)

    def test_nat_worked_values(self):
        l = make_xor_nat()
        assert apply_f(l, Nat(3), Nat(5)) == Nat(6)
        assert apply_g(l, Nat(6), Nat(5)) == Nat(3)
        assert apply_f(l, Nat(0), Nat(0)) == Nat(0)

    def test_set_worked_values(self):
        l = make_xor_set(UNIVERSE)
        abcd = AtomSet(("a", "b", "c", "d"))
        cdef = AtomSet(("c", "d", "e", "f"))
        abef = AtomSet(("a", "b", "e", "f"))
        assert apply_f(l, abcd, cdef) == abef
        assert apply_g(l, abef, cdef) == abcd
        assert apply_f(l, abcd, AtomSet(())) == abcd


class TestDivideCheck:
    def test_worked_values(self):
        dc = make_divide_check()
        assert apply_f(dc, Nat(13), Nat(3)) == Pair(Nat(3), Nat(3))
        assert apply_g(dc, Pair(Nat(3), Nat(3)), Nat(3)) == Nat(13)

    def test_zero_case(self):
        dc = make_divide_check()
        assert apply_f(dc, Nat(0), Nat(0)) == Pair(Nat(1), Nat(0))
        assert apply_g(dc, Pair(Nat(1), Nat(0)), Nat(0)) == Nat(0)

    def test_out_of_range_pair_rejected_not_saturated(self):
        dc = make_divide_check()
        assert isinstance(apply_g(dc, Pair(Nat(0), Nat(1)), Nat(3)),
                          DecodeFailure)

    def test_remainder_witness_noncompliant(self):
        dc = make_divide_check()
        for a in range(17):
            assert not is_compliant(dc, Pair(Nat(0), Nat(a + 2)), Nat(a))

    def test_zero_remainder_blind_forgery(self):
        # quotients start at 1, so (x, 0) has a preimage for every x >= 1
        dc = make_divide_check()
        for a in range(17):
            for x in (1, 2, 3, 50, 999):
                assert is_compliant(dc, Pair(Nat(x), Nat(0)), Nat(a))
            assert not is_compliant(dc, Pair(Nat(0), Nat(0)), Nat(a))


class TestReverseDivideCheck:
    def test_swapped_values(self):
        rdc = make_reverse_divide_check()
        assert apply_f(rdc, Nat(13), Nat(3)) == Pair(Nat(3), Nat(3))
        # 14+5 = 19 = 3*5+4, so plain divide-check gives (3, 4)
        assert apply_f(rdc, Nat(14), Nat(3)) == Pair(Nat(4), Nat(3))

    def test_round_trip(self):
        rdc = make_reverse_divide_check()
        rng = Rng(8, 1)
        for _ in range(1000):
            d = sample_value(rdc.input_space, rng)
            a = sample_value(rdc.param_space, rng)
            assert apply_g(rdc, apply_f(rdc, d, a), a) == d

    def test_zero_first_component_blind_forgery(self):
        rdc = make_reverse_divide_check()
        for a in range(17):
            for x in (1, 2, 77):
                assert is_compliant(rdc, Pair(Nat(0), Nat(x)), Nat(a))


class TestIdentity:
    def test_noop(self):
        ident = make_identity(BitVecSpace(8))
        d = BitVec(8, 99)
        for a_bits in (0, 1):
            a = BitVec(1, a_bits)
            assert apply_f(ident, d, a) == d
            assert apply_g(ident, d, a) == d
            assert is_compliant(ident, d, a)


class TestSplit:
    def test_pure_split_under_zero_mask(self):
        sp = make_split_bitvec(4)
        assert apply_f(sp, BitVec(8, 0xAB), BitVec(8, 0)) == \
            Pair(BitVec(4, 0xA), BitVec(4, 0xB))

    def test_masked_split(self):
        sp = make_split_bitvec(4)
        # 0xFF ^ 0x0F = 0xF0
        assert apply_f(sp, BitVec(8, 0xFF), BitVec(8, 0x0F)) == \
            Pair(BitVec(4, 0xF), BitVec(4, 0x0))

    def test_round_trip(self):
        sp = make_split_bitvec(4)
        rng = Rng(9, 2)
        for _ in range(1000):
            d = sample_value(sp.input_space, rng)
            a = sample_value(sp.param_space, rng)
            assert apply_g(sp, apply_f(sp, d, a), a) == d


@pytest.mark.parametrize("lingo", shipped_lingos(), ids=lambda l: l.name)
def test_laws_hold(lingo):
    report = check_lingo_laws(lingo, 500, Rng(17, 3))
    assert report.all_passed, report.to_json()


def test_f_checkable_by_witness():
    assert noncompliant_witness(make_divide_check()) is not None
    assert noncompliant_witness(make_reverse_divide_check()) is not None
    assert noncompliant_witness(make_xor_bitvec(8)) is None
    assert noncompliant_witness(make_identity(BitVecSpace(4))) is None
    assert noncompliant_witness(make_split_bitvec(4)) is None
