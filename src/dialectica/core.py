"""The lingo abstraction: parametric invertible payload transformations.

A lingo carries an encode function ``f``, its one-sided inverse ``g``
(``g(f(d, a), a) == d`` for every payload d and parameter a), and a
``param`` function deriving the parameter for message number n from a
shared seed.  ``f`` maps one payload to one wire value, and ``g`` maps a
wire value back to one payload or a rejection.

Besides the data type this module provides the checked entry points
(``apply_f``/``apply_g``), ``decode_wire`` that decodes untrusted wire
values behind the wire-shape gate ``wire_fits``, the compliance test used
by dialects to reject forgeries, and a law-testing harness that exercises
the defining equation and its consequences on seeded samples.

A value is checked where it enters the program, never again on the way
through.  Values enter as ``lingo eval`` arguments (``apply_f``,
``apply_g``, ``check_param``), as wire values (``decode_wire``), as the
parameter a leak reveals to the attacker (``apply_f``) and as builder
arguments.  What a lingo draws for itself (``input_space.sample``,
``law_params``, ``lingo.param``) lies in its spaces by construction, so
the harness, the experiments and the runtime call ``f`` on it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .rng import Rng, SAMPLE_TAG, derive, fnv64
from .values import (
    AtomSet,
    BitVec,
    Nat,
    Pair,
    Space,
    Tagged,
    Value,
    space_contains,
    value_to_json,
)


class SpaceViolation(ValueError):
    """A value fell outside the space a lingo operation requires."""


@dataclass(frozen=True)
class DecodeFailure:
    """First-class decode rejection; flows into dialect-level rejection
    instead of raising."""

    reason: str = ""


@dataclass(frozen=True)
class DefaultFallback:
    """Decode that fell back to a branch default value (horizontal
    composition with a mismatched tag).  Carries the decoy payload so the
    caller can still inspect it, but dialects treat it as a rejection."""

    value: Value


GResult = Union[Value, DecodeFailure, DefaultFallback]
WRONG_SHAPE = DecodeFailure("wire value has the wrong shape")


def decode_then(out: GResult, step: Callable[[Value], GResult]) -> GResult:
    """Carry a decode outcome through one more stage: a DecodeFailure stops
    here, a value goes through ``step``, and a DefaultFallback stays one."""
    if isinstance(out, DecodeFailure):
        return out
    if isinstance(out, DefaultFallback):
        after = step(out.value)
        rejected = isinstance(after, (DecodeFailure, DefaultFallback))
        return after if rejected else DefaultFallback(after)
    return step(out)


@dataclass(frozen=True)
class Lingo:
    """A closed transformation object (input, output, parameter spaces plus
    f, g and param).  ``f(d, a)`` returns the wire value of payload d;
    ``g(w, a)`` decodes it.

    ``param_space`` is an ``OpaqueSpace`` for constructions whose
    parameters are not plain values (the authenticating transform); the law
    harness draws such parameters, and those of any space with an opaque
    part, from the lingo's ``param`` function instead.
    """

    name: str
    input_space: Space
    output_space: Space
    param_space: Space
    f: Callable[[Value, Value], Value]
    g: Callable[[Value, Value], GResult]
    param: Callable[[int, int], Value]

    def __repr__(self) -> str:  # keep trace output short
        return f"Lingo({self.name})"


def check_param(lingo: Lingo, a: Value) -> None:
    """SpaceViolation unless ``a`` lies in the lingo's parameter space."""
    if not space_contains(lingo.param_space, a):
        raise SpaceViolation(f"{lingo.name}: parameter {a!r} not in param space")


def apply_f(lingo: Lingo, d: Value, a: Value) -> Value:
    """Checked encode: validates space membership, then runs f."""
    if not space_contains(lingo.input_space, d):
        raise SpaceViolation(f"{lingo.name}: {d!r} not in input space")
    check_param(lingo, a)
    return lingo.f(d, a)


def wire_fits(lingo: Lingo, w: Value) -> bool:
    """The wire-shape gate: the wire value lies in the output space.  Total;
    g only ever sees wire values that pass."""
    return space_contains(lingo.output_space, w)


def decode_wire(lingo: Lingo, w: Value, a: Value) -> GResult:
    """Total decode of an untrusted wire value: the shape gate, then g."""
    if not wire_fits(lingo, w):
        return WRONG_SHAPE
    return lingo.g(w, a)


def apply_g(lingo: Lingo, w: Value, a: Value) -> GResult:
    """Checked decode.  DecodeFailure/DefaultFallback are returned, not raised."""
    if not wire_fits(lingo, w):
        raise SpaceViolation(
            f"{lingo.name}: wire value {w!r} is not in the output space")
    check_param(lingo, a)
    return lingo.g(w, a)


def is_compliant(lingo: Lingo, w: Value, a: Value,
                 decoded: Optional[GResult] = None) -> bool:
    """True iff the wire value has a preimage under f(., a): the decode
    succeeds and re-encoding reproduces the wire value exactly.

    Total over arbitrary wire values: one the shape gate refuses is simply
    non-compliant.  ``a`` is taken as given: every caller draws it from the
    lingo's own stream, and ``lingo eval`` checks a typed one first.  A
    caller that already holds ``decode_wire(lingo, w, a)`` hands it in as
    ``decoded``; the decode is then skipped, every other check runs."""
    if decoded is None:
        decoded = decode_wire(lingo, w, a)
    if isinstance(decoded, DecodeFailure):
        return False
    if isinstance(decoded, DefaultFallback):
        decoded = decoded.value
    return space_contains(lingo.input_space, decoded) and lingo.f(decoded, a) == w


# ---------------------------------------------------------------------------
# Parameter streams
# ---------------------------------------------------------------------------

def make_param(space: Space, name: str) -> Callable[[int, int], Value]:
    """Standard param function: a per-lingo stream keyed by the lingo name.
    Parameter n is word n of that stream, projected into ``space``."""
    tag = fnv64(name)

    def param(n: int, seed: int) -> Value:
        return space.project(derive(seed, tag, n))

    return param


def law_params(lingo: Lingo, seed: int) -> Callable[[int], Value]:
    """The law-checking parameter stream: n -> sample n.  Prefers the space
    generator, keyed by the lingo name; falls back to the lingo's own param
    stream when the parameter space has an opaque part, which has no
    generator."""
    if lingo.param_space.opaque:
        return lambda n: lingo.param(n, seed)
    word = Rng(seed, fnv64(lingo.name + "/laws")).at
    sample = lingo.param_space.sample
    return lambda n: sample(Rng(word(n), SAMPLE_TAG))


# ---------------------------------------------------------------------------
# Law harness
# ---------------------------------------------------------------------------

@dataclass
class LawResult:
    law: str
    passed: bool
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"law": self.law, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class LawReport:
    lingo: str
    results: list[LawResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {"lingo": self.lingo, "passed": self.all_passed,
                "laws": [r.to_json() for r in self.results]}


def _ce(inputs: dict, expected, got) -> dict:
    def enc(x):
        if isinstance(x, (Nat, BitVec, Pair, AtomSet, Tagged)):
            return value_to_json(x)
        return repr(x)

    return {"inputs": {k: enc(v) for k, v in inputs.items()},
            "expected": enc(expected), "got": enc(got)}


def check_lingo_laws(lingo: Lingo, sample_count: int, rng: Rng) -> LawReport:
    """Exercise the defining laws on seeded samples.

    L0: g(f(d, a), a) == d.
    f_lands_in_output_space: every value of f(d, a) lies in the output
        space; checked on the first 200 samples only.
    L1: f(., a) is injective on sampled distinct payload pairs.
    C1: wire values of the form f(d, a) re-encode to themselves after decode.
    C3: on small finite spaces, compliance coincides exactly with membership
        in the image of f(., a), checked exhaustively.

    L0 to C1 share one pass over the sample indices i.  Each index draws
    payload d = sample 2i and parameter a = sample i once, encodes
    w = f(d, a) once, and runs one wire-shape gate and at most one decode
    on w, which L0 and C1 share; then the laws still open are checked on it
    in the order above, L1 drawing its second payload, sample 2i + 1, only
    while it is open.  A law closes at its first counterexample, and the
    pass ends early once all four have closed.  C3 runs after the pass.
    """
    seed = rng.next_u64()
    param = law_params(lingo, seed)
    sample, word = lingo.input_space.sample, Rng(seed, SAMPLE_TAG).at

    def draw(n: int) -> Value:
        return sample(Rng(word(n), SAMPLE_TAG))

    # First counterexample of each law; None while the law is open.
    l0 = lands = l1 = c1 = None
    for i in range(sample_count):
        lands_open = lands is None and i < 200
        if l0 and l1 and c1 and not lands_open:
            break
        d1 = draw(2 * i)
        if l1 is None:
            d1p = draw(2 * i + 1)
            if l0 and c1 and not lands_open and d1 == d1p:
                continue   # only L1 is open, and this pair cannot collide
        a = param(i)
        w = lingo.f(d1, a)
        fits = wire_fits(lingo, w)
        # One decode serves L0 and C1.  lingo.g, not decode_wire: while L0
        # is open g sees a stray image, which f_lands_in_output_space reports.
        back = lingo.g(w, a) if l0 is None or (c1 is None and fits) else None
        if l0 is None and (isinstance(back, (DecodeFailure, DefaultFallback))
                           or back != d1):
            l0 = LawResult("L0_left_inverse", False,
                           _ce({"d1": d1, "a": a}, d1, back))
        if lands_open and not fits:
            lands = LawResult("f_lands_in_output_space", False,
                              _ce({"d1": d1, "a": a}, "member", w))
        if l1 is None and d1 != d1p and w == lingo.f(d1p, a):
            l1 = LawResult("L1_injectivity", False,
                           _ce({"d1": d1, "d1'": d1p, "a": a},
                               "distinct images", "equal images"))
        if c1 is None and not is_compliant(lingo, w, a, back if fits else WRONG_SHAPE):
            c1 = LawResult("C1_image_compliant", False,
                           _ce({"d1": d1, "a": a}, "compliant", w))

    results = [l0 or LawResult("L0_left_inverse", True),
               lands or LawResult("f_lands_in_output_space", True),
               l1 or LawResult("L1_injectivity", True),
               c1 or LawResult("C1_image_compliant", True)]

    # C3: exhaustive compliance/preimage equivalence on small spaces
    c3 = _check_c3(lingo, seed, param)
    if c3 is not None:
        results.append(c3)
    return LawReport(lingo=lingo.name, results=results)


def _check_c3(lingo: Lingo, seed: int, param: Callable[[int], Value]
              ) -> Optional[LawResult]:
    d1s = lingo.input_space.enumerate(4096)
    if d1s is None or lingo.output_space.opaque:
        return None
    d2s = lingo.output_space.enumerate(256)
    for i in range(4):
        a = param(i)
        image = {lingo.f(d1, a) for d1 in d1s}
        if d2s is not None:
            candidates = d2s
        else:
            r = Rng(derive(seed, SAMPLE_TAG, 1000 + i), SAMPLE_TAG)
            candidates = list(image)
            for _ in range(64):
                candidates.append(lingo.output_space.sample(r))
        for w in candidates:
            has_preimage = w in image
            if is_compliant(lingo, w, a) != has_preimage:
                return LawResult("C3_compliance_equivalence", False,
                                 _ce({"d2": w, "a": a},
                                     has_preimage, not has_preimage))
    return LawResult("C3_compliance_equivalence", True)


def find_noncompliant_witness(lingo: Lingo, a: Value, rng: Rng) -> Optional[Value]:
    """Search for a wire value with no preimage under f(., a).

    Exhaustive when the output space has at most 4,096 values, 4,096
    seeded samples otherwise; None means no witness was found (the lingo looks
    symmetric for this parameter).  An output space that is neither small
    nor sampleable, such as one with an opaque part, raises CannotDraw.
    """
    enumerated = lingo.output_space.enumerate(4096)
    if enumerated is not None:
        return next((w for w in enumerated if not is_compliant(lingo, w, a)),
                    None)
    for _ in range(4096):
        w = lingo.output_space.sample(rng)
        if not is_compliant(lingo, w, a):
            return w
    return None
