"""Lingo transformations: forgery checks, authentication, adaptors, recipes.

* ``sharp`` sends the payload through f twice under two distinct parameters
  and ships the pair; a forger who cannot solve for both components at once
  passes the receiver's compliance check with probability 1/|D2|.
* ``authenticating`` appends a code keyed to one (sender, receiver) pair to
  a bit-vector base's wire value and scrambles the result with a secret
  involution; the result is again a lingo, whose compliance check rejects a
  wire value that does not carry the code.
* Data adaptors are section-retract pairs (j, r) with r(j(d)) = d used to
  connect lingos whose spaces do not line up.  An adaptor's ``from_space``
  is exactly the domain its j accepts (the naturals below 2**width, the
  codebook indexes below ``count``), so the adapted lingo's input gate
  refuses the rest.
* The recipes demonstrate malleability: they convert an observed wire value
  into a different compliant one without knowing the current parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .core import (
    DecodeFailure,
    Lingo,
    Rng,
    SpaceViolation,
    decode_then,
)
from .rng import SAMPLE_TAG, derive, fnv64
from .values import (
    BitVec,
    BitVecSpace,
    Nat,
    NatSpace,
    OpaqueSpace,
    Pair,
    PairSpace,
    ParamPairSpace,
    Space,
    Value,
    space_contains,
    xor_value,
)


class SpaceMismatch(Exception):
    """Adaptor and lingo spaces do not line up."""


class WidthOverflow(SpaceViolation):
    """A value does not fit the configured bit width."""


class DegenerateParamSpace(Exception):
    """The parameter space is too small to pick two distinct parameters."""


class NonceExhausted(ValueError):
    """An authenticating lingo was asked for a nonce at or past 2**k."""


# ---------------------------------------------------------------------------
# The sharp transform
# ---------------------------------------------------------------------------

def sharp(base: Lingo) -> Lingo:
    """Pair-encode under two distinct parameters; decode via the first.

    The second component pins the payload: a wire pair is compliant only if
    both components encode the same payload, so for each parameter pair some
    wire value has no preimage and the receiver gains a real forgery check.
    """
    d1_card = base.input_space.cardinality()
    if d1_card is not None and d1_card < 2:
        raise SpaceViolation("sharp needs an input space with >= 2 values")
    a_card = base.param_space.cardinality()
    if a_card is not None and a_card < 2:
        raise DegenerateParamSpace(
            f"{base.name} param space has fewer than 2 elements")
    name = f"sharp({base.name})"

    def f(d, a):
        return Pair(base.f(d, a.first), base.f(d, a.second))

    def g(w, a):
        return base.g(w.first, a.first)

    def param(n: int, seed: int) -> Value:
        first = base.param(2 * n, seed)
        for bump in range(64):
            second = base.param(2 * n + 1 + bump, seed)
            if second != first:
                return Pair(first, second)
        raise DegenerateParamSpace(
            f"{base.name} param stream kept colliding at index {n}")

    return Lingo(name=name, input_space=base.input_space,
                 output_space=PairSpace(base.output_space, base.output_space),
                 param_space=ParamPairSpace(base.param_space),
                 f=f, g=g, param=param)


# ---------------------------------------------------------------------------
# Authenticating transform
# ---------------------------------------------------------------------------

_INVO_TAG = fnv64("involution")
_HASH_TAG = fnv64("auth-hash")


@dataclass(frozen=True)
class AuthParam:
    """Parameter triple of an authenticating lingo: the base parameter, the
    bit-position involution, and the embedded code word."""

    a0: Value
    sigma: tuple[int, ...]
    code_word: int


def _involution(seed: int, n: int, width: int) -> tuple[int, ...]:
    """Secret bit-position involution on ``width`` positions for nonce n."""
    perm = [-1] * width
    rng = Rng(derive(seed, _INVO_TAG, n), SAMPLE_TAG)
    # Unpaired positions, ascending; each step pairs the lowest with a draw.
    free = list(range(width))
    while free:
        k = rng.next_below(len(free))
        i, partner = free[0], free[k]
        perm[i], perm[partner] = partner, i
        del free[k]
        if k:
            del free[0]
    return tuple(perm)


def _apply_involution(bits: int, width: int, perm: tuple[int, ...]) -> int:
    # Position 0 is the most significant bit; position i takes bit perm[i].
    text = format(bits, f"0{width}b")
    return int("".join([text[p] for p in perm]), 2)


def authenticating(base: Lingo, oids: list[str], m: int, j: int, k: int,
                   seed: int) -> Lingo:
    """Wrap ``base`` so each wire value carries a keyed j-bit code.

    ``base`` must put bit-vectors of at most ``m`` bits on the wire.
    ``oids`` is the ordered (sender, receiver) pair the code binds.
    Encoding concatenates the m-bit base output with the code for the
    current nonce and that pair, and scrambles the m+j bit positions with a
    nonce-derived involution.  The code construction is a model of a
    one-way hash, not a cryptographic primitive.
    """
    if (isinstance(oids, str) or len(oids) != 2 or oids[0] == oids[1]
            or not all(isinstance(o, str) for o in oids)):
        raise ValueError(f"oids must be two distinct strings, got {oids!r}")
    if m < 1:
        raise ValueError(f"payload length m must be >= 1 bit, got {m}")
    if j < 8 or k < 8:
        raise ValueError("code and nonce lengths must be >= 8 bits")
    out = base.output_space
    if not isinstance(out, BitVecSpace) or out.width > m:
        raise SpaceViolation(f"{base.name} wire values are not bit vectors of "
                             f"at most m={m} bits: {out!r}")
    width = m + j
    name = f"auth({base.name})"
    pair_tag = _HASH_TAG ^ fnv64(oids[0] + ">" + oids[1])

    def f(d, a: AuthParam):
        concat = (base.f(d, a.a0).bits << j) | a.code_word
        return BitVec(width, _apply_involution(concat, width, a.sigma))

    def g(w, a: AuthParam):
        mid = BitVec(out.width, _apply_involution(w.bits, width, a.sigma) >> j)
        if not mid.in_range:
            return DecodeFailure("payload bits outside base output space")
        return base.g(mid, a.a0)

    def param(n: int, _seed: int) -> AuthParam:
        # Keyed by the lingo's own seed, the enclave secret, not the
        # caller's: the pinned `lingo check` digest of an auth spec rests on
        # this stream.
        if not 0 <= n < 1 << k:
            raise NonceExhausted(f"nonce must be below 2**{k}, got {n}")
        return AuthParam(a0=base.param(n, seed), sigma=_involution(seed, n, width),
                         code_word=derive(seed, pair_tag, n) & ((1 << j) - 1))

    return Lingo(name=name, input_space=base.input_space,
                 output_space=BitVecSpace(width), param_space=OpaqueSpace(),
                 f=f, g=g, param=param)


# ---------------------------------------------------------------------------
# Data adaptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetractFailure:
    reason: str = ""


@dataclass(frozen=True)
class DataAdaptor:
    """Section-retract pair (j, r) with r(j(d)) = d.

    ``from_space`` is exactly the domain ``j`` accepts, or an
    ``OpaqueSpace`` for domains with no payload structure (protocol
    messages): every payload passes the adapted lingo's membership check on
    that side, so ``j`` refuses what it cannot encode.
    r may return RetractFailure off the image of j; adapted lingos decode
    that to a DecodeFailure, and the compliance check catches the rest.
    """

    name: str
    from_space: Space
    to_space: Space
    j: Callable[[object], object]
    r: Callable[[object], object]


def _retract(ad: DataAdaptor, v: object) -> object:
    """r(v), or a DecodeFailure where r returns a RetractFailure."""
    rv = ad.r(v)
    if isinstance(rv, RetractFailure):
        return DecodeFailure(f"retract failed: {rv.reason}")
    return rv


def adapt_pre(ad: DataAdaptor, lingo: Lingo) -> Lingo:
    """Feed adapted payloads in: encode f(j(d)), decode r(g(w))."""
    if ad.to_space != lingo.input_space:
        raise SpaceMismatch(
            f"adaptor {ad.name} lands in {ad.to_space!r}, "
            f"lingo {lingo.name} expects {lingo.input_space!r}")
    name = f"pre({ad.name};{lingo.name})"

    def f(d, a):
        return lingo.f(ad.j(d), a)

    def g(w, a):
        return decode_then(lingo.g(w, a), lambda v: _retract(ad, v))

    return Lingo(name=name, input_space=ad.from_space,
                 output_space=lingo.output_space, param_space=lingo.param_space,
                 f=f, g=g, param=lingo.param)


def adapt_post(lingo: Lingo, ad: DataAdaptor) -> Lingo:
    """Re-represent wire values: encode j(f(d)), decode g(r(w))."""
    if lingo.output_space != ad.from_space:
        raise SpaceMismatch(
            f"lingo {lingo.name} outputs {lingo.output_space!r}, "
            f"adaptor {ad.name} expects {ad.from_space!r}")
    name = f"post({lingo.name};{ad.name})"

    def f(d, a):
        return ad.j(lingo.f(d, a))

    def g(w, a):
        return decode_then(_retract(ad, w), lambda r: lingo.g(r, a))

    return Lingo(name=name, input_space=lingo.input_space,
                 output_space=ad.to_space, param_space=lingo.param_space,
                 f=f, g=g, param=lingo.param)


def identity_adaptor(space: Space) -> DataAdaptor:
    ident = lambda v: v
    return DataAdaptor(name="identity", from_space=space, to_space=space,
                       j=ident, r=ident)


def nat_bitvec_adaptor(width: int) -> DataAdaptor:
    """Naturals below 2**width re-represented as width-bit vectors."""
    to_space = BitVecSpace(width)  # refuses a bad width before 1 << width

    def j(v: Nat) -> BitVec:
        return BitVec(width, v.n)

    def r(v: BitVec) -> Nat:
        return Nat(v.bits)

    return DataAdaptor(name=f"nat_bitvec{width}", from_space=NatSpace(1 << width),
                       to_space=to_space, j=j, r=r)


def bitvec_nat_adaptor(width: int) -> DataAdaptor:
    """Width-bit vectors widened into naturals; the retract rejects
    naturals that fall outside the width."""

    def j(v: BitVec) -> Nat:
        return Nat(v.bits)

    def r(v: Nat):
        if v.n >= (1 << width):
            return RetractFailure(f"{v.n} exceeds {width} bits")
        return BitVec(width, v.n)

    return DataAdaptor(name=f"bitvec{width}_nat", from_space=BitVecSpace(width),
                       to_space=NatSpace(), j=j, r=r)


def sparse_code_adaptor(count: int, width: int, seed: int = 0) -> DataAdaptor:
    """Codebook adaptor: index below ``count`` (as a natural) to a width-bit
    code drawn from a thin, seeded subset of the code space.  The retract
    rejects anything outside the codebook, so most forged wire values fail
    the adapted compliance check."""
    if (1 << width) < 4 * count:
        raise WidthOverflow("code space too dense to be called sparse")
    tag = fnv64("sparse-codebook")
    codes: list[int] = []
    seen: dict[int, int] = {}
    idx = 0
    while len(codes) < count:
        c = derive(seed, tag, idx) & ((1 << width) - 1)
        idx += 1
        if c in seen:
            continue
        seen[c] = len(codes)
        codes.append(c)

    def j(v: Nat) -> BitVec:
        return BitVec(width, codes[v.n])

    def r(v: BitVec):
        if v.bits not in seen:
            return RetractFailure("not a codebook entry")
        return Nat(seen[v.bits])

    return DataAdaptor(name=f"sparse{width}", from_space=NatSpace(count),
                       to_space=BitVecSpace(width), j=j, r=r)


# ---------------------------------------------------------------------------
# Malleability recipes
# ---------------------------------------------------------------------------

def _xor_nonzero(y: Value) -> Value:
    """The mask repair map: substitute a fixed nonzero value for zero."""
    if isinstance(y, BitVec):
        return BitVec(y.width, (1 << y.width) - 1) if y.bits == 0 else y
    if isinstance(y, Nat):
        return Nat(1) if y.n == 0 else y
    raise SpaceViolation(f"xor recipe needs bitvec or nat masks, got {y!r}")


def xor_recipe(observed: Value, a_prime: Value) -> Value:
    """Malleate an xor-encoded wire value: xor in a guaranteed-nonzero mask.
    The result differs from the observed value and stays compliant with the
    victim's current parameter."""
    return xor_value(observed, _xor_nonzero(a_prime))


def xor_sharp_recipe(observed: Pair, a_prime_pair: Pair) -> Pair:
    """Malleate a sharp-xor wire pair: xor the same nonzero mask into both
    components, which preserves the pair's internal consistency."""
    first = a_prime_pair.first
    if not isinstance(first, BitVec) or first.width < 2:
        raise SpaceViolation("sharp xor recipe needs bitvec masks of width >= 2")
    n = first.width
    ones = BitVec(n, (1 << n) - 1)
    if first.bits != 0:
        mask = first
    elif a_prime_pair.second != ones:
        mask = ones
    else:
        mask = BitVec(n, (1 << (n - 1)) - 1)  # 0 followed by n-1 ones
    return Pair(xor_value(observed.first, mask), xor_value(observed.second, mask))


@dataclass(frozen=True)
class Recipe:
    """A checked malleation recipe t(x, y) = f(x, r(y)) for lingos whose f
    feeds back into the payload space and commutes with itself."""

    lingo: Lingo
    a0_set: tuple[Value, ...]

    def repair(self, a_prime: Value) -> Value:
        return a_prime if a_prime in self.a0_set else self.a0_set[0]

    def forge(self, observed: Value, a_prime: Value) -> Value:
        return self.lingo.f(observed, self.repair(a_prime))


@dataclass(frozen=True)
class NotApplicable:
    failed_hypothesis: str
    detail: str = ""


def generic_recipe(lingo: Lingo, a0_sample: list[Value], seed: int = 0,
                   samples: int = 500) -> Union[Recipe, NotApplicable]:
    """Probabilistically check the generic-malleability hypotheses and build
    the recipe when they hold.

    (i) f(d, a) lands back in the payload space, (ii) every sampled mask in
    a0_sample actually moves the payload, (iii) applying f twice commutes in
    the two parameters.  Checks run on seeded samples, so NotApplicable is
    conservative rather than a proof.
    """
    distinct = []
    for a in a0_sample:
        if a not in distinct:
            distinct.append(a)
    if len(distinct) < 2:
        return NotApplicable("a0_sample", "need at least 2 distinct elements")
    for a in distinct:
        if not space_contains(lingo.param_space, a):
            return NotApplicable("a0_sample", f"{a!r} outside param space")
    rng = Rng(derive(seed, fnv64("generic-recipe"), 0), SAMPLE_TAG)
    for i in range(samples):
        d = lingo.input_space.sample(rng)
        a = lingo.param_space.sample(rng)
        ap = lingo.param_space.sample(rng)
        fd = lingo.f(d, a)
        if not space_contains(lingo.input_space, fd):
            return NotApplicable(
                "closure", f"f({d!r}, {a!r}) left the payload space")
        a2 = distinct[i % len(distinct)]
        if lingo.f(d, a2) == d:
            return NotApplicable(
                "movement", f"f fixed {d!r} under mask {a2!r}")
        if lingo.f(fd, ap) != lingo.f(lingo.f(d, ap), a):
            return NotApplicable(
                "commutation", f"f does not commute at {d!r}")
    return Recipe(lingo=lingo, a0_set=tuple(distinct))
