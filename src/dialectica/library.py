"""Concrete lingos: the xor family, divide-and-check, and helpers.

Constructors are pure and the resulting lingos immutable.  Every lingo's
``f`` maps one payload to one wire value and its ``g`` maps one back; the
split lingo's wire value is the pair of its two halves.
"""

from __future__ import annotations

from .core import DecodeFailure, Lingo, make_param
from .values import (
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    Pair,
    PairSpace,
    Space,
    AtomSetSpace,
    xor_value,
)

DC_PARAM_CEILING = 1 << 16


def _xor_lingo(space: Space, name: str) -> Lingo:
    """xor with the parameter over ``space``; f and g are the same mask
    operation."""
    return Lingo(name=name, input_space=space, output_space=space,
                 param_space=space, f=xor_value, g=xor_value,
                 param=make_param(space, name))


def make_xor_bitvec(width: int) -> Lingo:
    """xor over width-bit vectors."""
    return _xor_lingo(BitVecSpace(width), f"xor_bitvec{width}")


def make_xor_nat() -> Lingo:
    """xor over naturals viewed as bit sequences of arbitrary length."""
    return _xor_lingo(NatSpace(), "xor_nat")


def make_xor_set(universe: tuple[str, ...]) -> Lingo:
    """Symmetric difference over finite subsets of a fixed atom universe."""
    return _xor_lingo(AtomSetSpace(tuple(universe)), "xor_set")


def make_divide_check(param_ceiling: int = DC_PARAM_CEILING) -> Lingo:
    """Divide-and-check: n maps to the (quotient, remainder) of n+a+2 by a+2.

    The receiver's compliance check rejects any pair whose remainder
    reaches a+2: such a pair has no preimage.  g rejects pairs that would
    need a negative payload instead of saturating them to 0: saturation
    would deliver forged junk as payload 0.  Parameters are drawn from the
    naturals below ``param_ceiling``, which must be at least 1; the declared
    parameter space stays every natural, which the law harness samples.
    """
    name = "divide_check"

    def f(d, a):
        n, m = d.n, a.n + 2
        return Pair(Nat((n + m) // m), Nat((n + m) % m))

    def g(p, a):
        m = a.n + 2
        total = p.first.n * m + p.second.n
        if total < m:
            return DecodeFailure("pair has no preimage (payload would be negative)")
        return Nat(total - m)

    return Lingo(name=name, input_space=NatSpace(),
                 output_space=PairSpace(NatSpace(), NatSpace()),
                 param_space=NatSpace(), f=f, g=g,
                 param=make_param(NatSpace(param_ceiling), name))


def make_reverse_divide_check(param_ceiling: int = DC_PARAM_CEILING) -> Lingo:
    """Divide-and-check with the pair components swapped on the wire."""
    base = make_divide_check(param_ceiling)
    name = "reverse_divide_check"

    def f(d, a):
        p = base.f(d, a)
        return Pair(p.second, p.first)

    def g(p, a):
        return base.g(Pair(p.second, p.first), a)

    return Lingo(name=name, input_space=base.input_space,
                 output_space=base.output_space, param_space=base.param_space,
                 f=f, g=g, param=make_param(NatSpace(param_ceiling), name))


def make_identity(space: Space) -> Lingo:
    """No-op lingo over ``space``; the baseline every dialect degenerates to."""
    name = "identity"
    return Lingo(name=name, input_space=space, output_space=space,
                 param_space=BitVecSpace(1), f=lambda d, a: d,
                 g=lambda w, a: w, param=make_param(BitVecSpace(1), name))


def make_split_bitvec(half_width: int) -> Lingo:
    """Mask a 2h-bit payload with the parameter, then split it into the
    pair of its h-bit halves.  Masking before the split forces a forger to
    know the parameter to recombine the halves."""
    h = half_width
    full = BitVecSpace(2 * h)
    half = BitVecSpace(h)
    name = f"split_bitvec{h}"
    lo_mask = (1 << h) - 1

    def f(d, a):
        m = d.bits ^ a.bits
        return Pair(BitVec(h, m >> h), BitVec(h, m & lo_mask))

    def g(w, a):
        return BitVec(2 * h, ((w.first.bits << h) | w.second.bits) ^ a.bits)

    return Lingo(name=name, input_space=full, output_space=PairSpace(half, half),
                 param_space=full, f=f, g=g, param=make_param(full, name))
