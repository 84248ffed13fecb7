"""Composition operators over lingos.

Four ways of building a new lingo from existing ones:

* horizontal(branches, defaults, bias): behave as one of k branch lingos,
  the branch picked per message by a biased dice over the shared seed;
* functional: pipeline two lingos, encoding through both and decoding in
  reverse order;
* product: transform independent payload components side by side;
* tupling: fan one payload through every branch, decode via the first.
"""

from __future__ import annotations

from .core import DecodeFailure, DefaultFallback, Lingo, SpaceViolation, decode_then
from .rng import throw_biased
from .values import (
    Pair,
    PairSpace,
    Tagged,
    TaggedSpace,
    Value,
    space_contains,
)


def horizontal(branches: tuple[Lingo, ...], defaults: tuple[Value, ...],
               bias: tuple[int, ...], seed: int = 0) -> Lingo:
    """Disjoint union of the branches, selected per message by a biased dice.

    Wire and parameter values are tagged with the branch index; the
    parameter's tag is authoritative.  Decoding a wire value whose tag does
    not match the parameter's branch yields that branch's decode of its
    default wire value in ``defaults``, flagged as DefaultFallback so the
    dialect can reject it rather than deliver decoy plaintext.
    """
    k = len(branches)
    if k < 2:
        raise SpaceViolation("horizontal composition needs >= 2 branches")
    if len(defaults) != k or len(bias) != k:
        raise SpaceViolation("defaults and bias must match branch count")
    if any(b < 1 for b in bias):
        raise ValueError(f"all bias weights must be >= 1, got {bias}")
    if any(lingo.input_space != branches[0].input_space for lingo in branches):
        raise SpaceViolation("branches must share the input space")
    for lingo, d0 in zip(branches, defaults):
        if not space_contains(lingo.output_space, d0):
            raise SpaceViolation(f"default {d0!r} not in {lingo.name} output space")
    name = "hor(" + ",".join(l.name for l in branches) + ")"
    out_space = TaggedSpace(tuple(l.output_space for l in branches))
    par_space = TaggedSpace(tuple(l.param_space for l in branches))

    def f(d, a):
        i = a.branch
        return Tagged(i, branches[i - 1].f(d, a.inner))

    def g(wire, a):
        i = a.branch
        lingo = branches[i - 1]
        if isinstance(wire, Tagged) and wire.branch == i:
            return lingo.g(wire.inner, a.inner)
        decoy = lingo.g(defaults[i - 1], a.inner)
        if isinstance(decoy, (DecodeFailure, DefaultFallback)):
            return DecodeFailure("default decode failed on tag mismatch")
        return DefaultFallback(decoy)

    def param(n: int, run_seed: int) -> Value:
        i = throw_biased(run_seed ^ seed, n, bias)
        return Tagged(i, branches[i - 1].param(n, run_seed))

    return Lingo(name=name, input_space=branches[0].input_space,
                 output_space=out_space, param_space=par_space,
                 f=f, g=g, param=param)


def _paired(l1: Lingo, l2: Lingo, **parts) -> Lingo:
    """A lingo whose parameter pairs l1's and l2's, l1's drawn first."""
    def param(n: int, seed: int) -> Value:
        return Pair(l1.param(n, seed), l2.param(n, seed))

    return Lingo(param_space=PairSpace(l1.param_space, l2.param_space),
                 param=param, **parts)


def functional(l1: Lingo, l2: Lingo) -> Lingo:
    """Pipeline: encode through l1 then l2, decode through l2 then l1.

    Both stages draw their parameter from the same message index, matching
    how sender and receiver evolve a single shared counter.
    """
    if l1.output_space != l2.input_space:
        raise SpaceViolation(
            f"{l1.name} output space does not match {l2.name} input space")
    name = f"fun({l1.name},{l2.name})"

    def f(d, a):
        return l2.f(l1.f(d, a.first), a.second)

    def g(w, a):
        return decode_then(l2.g(w, a.second), lambda mid: l1.g(mid, a.first))

    return _paired(l1, l2, name=name, input_space=l1.input_space,
                   output_space=l2.output_space, f=f, g=g)


def _pairwise(ls: list[Lingo], combine) -> Lingo:
    if len(ls) < 2:
        raise SpaceViolation("composition needs >= 2 lingos")
    acc = ls[-1]
    for lingo in reversed(ls[:-1]):
        acc = combine(lingo, acc)
    return acc


def product(ls: list[Lingo]) -> Lingo:
    """Cartesian product: paired payloads transformed componentwise.
    k > 2 folds into nested pairs on the right."""
    return _pairwise(list(ls), _product2)


def _product2(l1: Lingo, l2: Lingo) -> Lingo:
    name = f"prod({l1.name},{l2.name})"

    def f(d, a):
        return Pair(l1.f(d.first, a.first), l2.f(d.second, a.second))

    def g(w, a):
        return decode_then(l1.g(w.first, a.first), lambda v1: decode_then(
            l2.g(w.second, a.second), lambda v2: Pair(v1, v2)))

    return _paired(l1, l2, name=name,
                   input_space=PairSpace(l1.input_space, l2.input_space),
                   output_space=PairSpace(l1.output_space, l2.output_space),
                   f=f, g=g)


def tupling(ls: list[Lingo]) -> Lingo:
    """Fan the same payload through every branch; decode via the first.
    k > 2 folds into nested pairs on the right."""
    return _pairwise(list(ls), _tupling2)


def _tupling2(l1: Lingo, l2: Lingo) -> Lingo:
    if l1.input_space != l2.input_space:
        raise SpaceViolation("tupling needs a shared input space")
    name = f"tup({l1.name},{l2.name})"

    def f(d, a):
        return Pair(l1.f(d, a.first), l2.f(d, a.second))

    def g(w, a):
        return l1.g(w.first, a.first)

    return _paired(l1, l2, name=name, input_space=l1.input_space,
                   output_space=PairSpace(l1.output_space, l2.output_space),
                   f=f, g=g)
