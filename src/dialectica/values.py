"""Universal payload values and the spaces they inhabit.

Every transformation in this package moves values between *spaces*: plain
naturals, fixed-width bit-vectors, pairs, finite atom-sets, tagged unions
and distinct-component pairs used as parameter spaces (``mqtt`` declares
the protocol messages).  Values are slotted immutable classes that own their
equality, hash, ``repr``, xor and JSON text (compact, keys sorted; the dict
form is parsed from it); they can be shared freely and used as dict keys.
Equality, under every law check and compliance test, compares a class's
fields directly and holds only within one class; the hash is that of the
field tuple, as it was for the frozen dataclasses the classes replaced.
Each space kind is one class that owns its membership test, size,
enumeration, sampling and parameter projection; every kind can be drawn.

A bit-vector value is a ``(width, bits)`` pair rather than a bit array; the
constructor is deliberately permissive about over-width ``bits`` so that
over-width wire garbage is representable, while ``BitVecSpace.contains``
applies the strict ``bits < 2**width`` gate at every space boundary.

The package refuses in three ways.  A builder refuses a bad argument with a
``ValueError``, which ``specs`` reports as a spec error.  A value outside
the space an operation needs raises ``core.SpaceViolation``, or, for an xor
of values of different shapes, ``ShapeMismatch``.  A draw that a space or a
parameter stream cannot make raises ``CannotDraw``.  ``cli.main`` maps each
class to its exit code.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, dataclass
from json.encoder import encode_basestring_ascii as _str
from typing import Iterator, Optional, Union

from .rng import SAMPLE_TAG, Rng


class ShapeMismatch(Exception):
    """Raised when an operation is applied to values of incompatible shape."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class _Value:
    """What the value classes share.  ``__init__`` writes each field once,
    through its slot descriptor; a later write or delete raises
    FrozenInstanceError.  The hash goes over the field tuple ``_key()``, as
    a frozen dataclass has it.  Each class defines its own ``__eq__``, which
    compares the fields directly and is equal only to its own class; as
    defining ``__eq__`` sets a class's ``__hash__`` to None, each also
    names ``_Value.__hash__`` again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()


class Nat(_Value):
    """Arbitrary-precision non-negative integer."""

    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("Nat must be non-negative")
        _set_n(self, n)

    def _key(self) -> tuple:
        return (self.n,)

    def __eq__(self, other):
        if other.__class__ is Nat:
            return self.n == other.n
        return NotImplemented

    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"Nat(n={self.n!r})"

    def xor(self, other: Nat) -> Nat:
        return Nat(self.n ^ other.n)

    def json_text(self) -> str:
        return f'{{"nat":"{self.n}"}}'


class BitVec(_Value):
    """Fixed-width bit-vector stored as (width, bits).

    ``bits`` may exceed ``2**width - 1``; such values exist only as wire
    garbage and are rejected by ``BitVecSpace.contains``.
    """

    __slots__ = __match_args__ = ("width", "bits")

    def __init__(self, width: int, bits: int) -> None:
        if width < 1:
            raise ValueError("BitVec width must be >= 1")
        if bits < 0:
            raise ValueError("BitVec bits must be non-negative")
        _set_width(self, width)
        _set_bits(self, bits)

    def _key(self) -> tuple:
        return (self.width, self.bits)

    def __eq__(self, other):
        if other.__class__ is BitVec:
            return self.bits == other.bits and self.width == other.width
        return NotImplemented

    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"BitVec(width={self.width!r}, bits={self.bits!r})"

    @property
    def in_range(self) -> bool:
        # Equivalent to bits < 2**width, without building the power.
        return self.bits.bit_length() <= self.width

    def xor(self, other: BitVec) -> BitVec:
        if self.width != other.width:
            raise ShapeMismatch(f"bitvec widths differ: {self.width} vs {other.width}")
        return BitVec(self.width, self.bits ^ other.bits)

    def json_text(self) -> str:
        return f'{{"bv":{{"n":{self.bits},"w":{self.width}}}}}'


class Pair(_Value):
    __slots__ = __match_args__ = ("first", "second")

    def __init__(self, first: Value, second: Value) -> None:
        _set_first(self, first)
        _set_second(self, second)

    def _key(self) -> tuple:
        return (self.first, self.second)

    def __eq__(self, other):
        if other.__class__ is Pair:
            return self.first == other.first and self.second == other.second
        return NotImplemented

    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"Pair(first={self.first!r}, second={self.second!r})"

    def json_text(self) -> str:
        return (f'{{"pair":[{_value_text(self.first)},'
                f'{_value_text(self.second)}]}}')


class AtomSet(_Value):
    """Finite set of interned atom names, kept canonically sorted."""

    __slots__ = __match_args__ = ("members",)

    def __init__(self, members: tuple[str, ...]) -> None:
        _set_members(self, tuple(sorted(set(members))))

    def _key(self) -> tuple:
        return (self.members,)

    def __eq__(self, other):
        if other.__class__ is AtomSet:
            return self.members == other.members
        return NotImplemented

    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"AtomSet(members={self.members!r})"

    def xor(self, other: AtomSet) -> AtomSet:
        return AtomSet(tuple(set(self.members) ^ set(other.members)))

    def json_text(self) -> str:
        return f'{{"set":[{",".join(map(_str, self.members))}]}}'


class Tagged(_Value):
    """Value of one branch of a tagged union; ``branch`` is 1-based."""

    __slots__ = __match_args__ = ("branch", "inner")

    def __init__(self, branch: int, inner: Value) -> None:
        if branch < 1:
            raise ValueError("Tagged branch index is 1-based")
        _set_branch(self, branch)
        _set_inner(self, inner)

    def _key(self) -> tuple:
        return (self.branch, self.inner)

    def __eq__(self, other):
        if other.__class__ is Tagged:
            return self.branch == other.branch and self.inner == other.inner
        return NotImplemented

    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"Tagged(branch={self.branch!r}, inner={self.inner!r})"

    def json_text(self) -> str:
        return (f'{{"tag":{{"i":{self.branch},'
                f'"v":{_value_text(self.inner)}}}}}')


# The slot descriptors' setters, the one way a field gets written.
_set_n = Nat.n.__set__
_set_width, _set_bits = BitVec.width.__set__, BitVec.bits.__set__
_set_first, _set_second = Pair.first.__set__, Pair.second.__set__
_set_members = AtomSet.members.__set__
_set_branch, _set_inner = Tagged.branch.__set__, Tagged.inner.__set__

Value = Union[Nat, BitVec, Pair, AtomSet, Tagged]


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

class CannotDraw(ValueError):
    """A space or a parameter stream cannot produce what a run asks of it:
    a parameter-pair space has too few distinct values, a parameter stream
    keeps colliding, or a nonce space runs out."""


class Space:
    """A payload space.  Each kind answers for its own membership, size,
    enumeration, sampling and parameter projection; a composite asks its
    children directly."""

    def contains(self, v: Value) -> bool:
        """Structural membership; total, never raises."""
        raise NotImplementedError

    def cardinality(self) -> Optional[int]:
        """Number of inhabitants, or None when infinite/unknown."""
        return None

    def values(self) -> Iterator[Value]:
        """Every inhabitant, in a fixed order."""
        raise ValueError(f"cannot enumerate {self!r}")

    def enumerate(self, limit: int = 1 << 16) -> Optional[list[Value]]:
        """Every inhabitant of a finite space, or None when it has more than
        ``limit`` or cannot be counted."""
        card = self.cardinality()
        return None if card is None or card > limit else list(self.values())

    def sample(self, rng: Rng) -> Value:
        """Draw an inhabitant from a derive stream."""
        raise NotImplementedError

    def project(self, word: int) -> Value:
        """Reduce one 64-bit stream word into the space.  Composite spaces
        expand it into a nested stream so the projection stays bit-exact
        across platforms."""
        return self.sample(Rng(word, SAMPLE_TAG))


# Naturals sampled and projected from an unbounded NatSpace lie below
# NAT_CEILING, which bounds the generator, not the space.  Wider bit-vector
# spaces than MAX_BITVEC_WIDTH would make sampling, masks and cardinalities
# arbitrarily expensive.
NAT_CEILING = 1 << 32
MAX_BITVEC_WIDTH = 1 << 16


@dataclass(frozen=True)
class NatSpace(Space):
    """The naturals, or those below ``bound`` when it is given.  Bounded,
    the space is finite: it is counted, enumerated, and sampled and
    projected below its bound."""

    bound: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound < 1:
            raise ValueError(f"NatSpace bound must be >= 1, got {self.bound}")

    def contains(self, v: Value) -> bool:
        return v.__class__ is Nat and (self.bound is None or v.n < self.bound)

    def cardinality(self) -> Optional[int]:
        return self.bound

    def values(self) -> Iterator[Value]:
        return super().values() if self.bound is None else map(Nat, range(self.bound))

    def sample(self, rng: Rng) -> Value:
        return Nat(rng.next_below(self.bound or NAT_CEILING))

    def project(self, word: int) -> Value:
        return Nat(word % (self.bound or NAT_CEILING))


@dataclass(frozen=True)
class BitVecSpace(Space):
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_BITVEC_WIDTH:
            raise ValueError(f"BitVecSpace width must be in 1..{MAX_BITVEC_WIDTH}, "
                             f"got {self.width}")

    def contains(self, v: Value) -> bool:
        # BitVec.in_range, inlined: the property call would add half again
        # to the cost of the wire-shape gate.
        return (isinstance(v, BitVec) and v.width == self.width
                and v.bits.bit_length() <= self.width)

    def cardinality(self) -> Optional[int]:
        return 1 << self.width

    def values(self) -> Iterator[Value]:
        for b in range(1 << self.width):
            yield BitVec(self.width, b)

    def sample(self, rng: Rng) -> Value:
        bits = 0
        for _ in range((self.width + 63) // 64):
            bits = (bits << 64) | rng.next_u64()
        return BitVec(self.width, bits & ((1 << self.width) - 1))

    def project(self, word: int) -> Value:
        if self.width > 64:
            return super().project(word)
        return BitVec(self.width, word & ((1 << self.width) - 1))


@dataclass(frozen=True)
class PairSpace(Space):
    left: Space
    right: Space

    def contains(self, v: Value) -> bool:
        return (isinstance(v, Pair) and self.left.contains(v.first)
                and self.right.contains(v.second))

    def cardinality(self) -> Optional[int]:
        l, r = self.left.cardinality(), self.right.cardinality()
        return None if l is None or r is None else l * r

    def values(self) -> Iterator[Value]:
        rights = list(self.right.values())
        for lft in self.left.values():
            for rgt in rights:
                yield Pair(lft, rgt)

    def sample(self, rng: Rng) -> Value:
        left = self.left.sample(rng)
        return Pair(left, self.right.sample(rng))


@dataclass(frozen=True)
class AtomSetSpace(Space):
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(a, str) for a in self.universe):
            raise ValueError("AtomSetSpace atoms must be strings")
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("AtomSetSpace universe must be duplicate-free")

    def contains(self, v: Value) -> bool:
        return isinstance(v, AtomSet) and set(v.members) <= set(self.universe)

    def cardinality(self) -> Optional[int]:
        return 1 << len(self.universe)

    def values(self) -> Iterator[Value]:
        atoms = sorted(self.universe)
        for mask in range(1 << len(atoms)):
            yield AtomSet(tuple(a for i, a in enumerate(atoms) if mask >> i & 1))

    def sample(self, rng: Rng) -> Value:
        picked = []
        word, have = 0, 0
        for a in sorted(self.universe):
            if have == 0:
                word, have = rng.next_u64(), 64
            if word & 1:
                picked.append(a)
            word >>= 1
            have -= 1
        return AtomSet(tuple(picked))


@dataclass(frozen=True)
class TaggedSpace(Space):
    branches: tuple[Space, ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("TaggedSpace needs at least 2 branches")

    def contains(self, v: Value) -> bool:
        return (isinstance(v, Tagged)
                and 1 <= v.branch <= len(self.branches)
                and self.branches[v.branch - 1].contains(v.inner))

    def cardinality(self) -> Optional[int]:
        total = 0
        for b in self.branches:
            c = b.cardinality()
            if c is None:
                return None
            total += c
        return total

    def values(self) -> Iterator[Value]:
        for i, branch in enumerate(self.branches, start=1):
            for inner in branch.values():
                yield Tagged(i, inner)

    def sample(self, rng: Rng) -> Value:
        branch = rng.next_below(len(self.branches)) + 1
        return Tagged(branch, self.branches[branch - 1].sample(rng))


@dataclass(frozen=True)
class ParamPairSpace(Space):
    """Pairs over ``base`` whose two components differ (base x base minus
    the diagonal)."""

    base: Space

    def contains(self, v: Value) -> bool:
        return (isinstance(v, Pair) and self.base.contains(v.first)
                and self.base.contains(v.second) and v.first != v.second)

    def cardinality(self) -> Optional[int]:
        c = self.base.cardinality()
        return None if c is None else c * (c - 1)

    def values(self) -> Iterator[Value]:
        base = list(self.base.values())
        for x in base:
            for y in base:
                if x != y:
                    yield Pair(x, y)

    def sample(self, rng: Rng) -> Value:
        if self.base.cardinality() == 1:
            raise CannotDraw("base space has a single element")
        first = self.base.sample(rng)
        for _ in range(64):
            second = self.base.sample(rng)
            if second != first:
                return Pair(first, second)
        raise CannotDraw(f"could not draw distinct pair from {self.base!r}")


def space_contains(space: Space, v: Value) -> bool:
    # Kept, not inlined, because the benchmark counts membership checks by
    # patching this name in every module that imports it.
    return space.contains(v)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def xor_value(x: Value, y: Value) -> Value:
    """Bitwise xor for naturals and equal-width bit-vectors, symmetric
    difference for atom-sets.  Associative, commutative, self-inverse."""
    if x.__class__ is not y.__class__ or x.__class__ not in (Nat, BitVec, AtomSet):
        raise ShapeMismatch(f"cannot xor {type(x).__name__} with {type(y).__name__}")
    return x.xor(y)


# ---------------------------------------------------------------------------
# JSON encoding (trace/config interchange format)
# ---------------------------------------------------------------------------

def _value_text(v: Value) -> str:
    """The canonical JSON form as compact, sorted-key text; TypeError on
    anything that is not a value."""
    if not isinstance(v, _Value):
        raise TypeError(f"not a Value: {v!r}")
    return v.json_text()


def _is_value(v) -> bool:
    """Whether ``v`` is a value all the way down: a pair or a tagged value
    may hold a protocol message, which has no canonical form."""
    if v.__class__ is Pair:
        return _is_value(v.first) and _is_value(v.second)
    if v.__class__ is Tagged:
        return _is_value(v.inner)
    return isinstance(v, _Value)


def json_text(v) -> str:
    """What ``json.dumps(json_or_raw(v), sort_keys=True, separators=(",",
    ":"))`` writes, from the value itself: its canonical form, or
    ``{"raw":<repr>}`` for anything else, such as a protocol message or a
    pair that holds one."""
    if _is_value(v):
        return v.json_text()
    return f'{{"raw":{_str(repr(v))}}}'


def value_to_json(v: Value) -> dict:
    """The canonical JSON form; TypeError on anything that is not a value."""
    return json.loads(_value_text(v))


def json_or_raw(v) -> object:
    """The JSON form of a value; anything else, such as a protocol message,
    is shown as ``{"raw": repr}``."""
    return json.loads(json_text(v))


JsonPath = Union[str, tuple]


def path_text(at: JsonPath) -> str:
    """The text of a JSON path: a root name, or a tuple of a path and the
    keys and indexes below it, kept as a tuple until an error names it."""
    if isinstance(at, str):
        return at
    head, *keys = at
    return path_text(head) + "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def int_from_json(obj) -> int:
    """A JSON integer or ASCII digit string; anything else (a float, a
    boolean, null, a list, an object, or a string with a sign, a space, an
    underscore or a non-ASCII digit) raises ValueError instead of being
    truncated or coerced."""
    if type(obj) is int or type(obj) is str and obj.isascii() and obj.isdigit():
        return int(obj)
    raise ValueError(f"not an integer: {obj!r}")


def atoms_from_json(obj, at: JsonPath) -> tuple[str, ...]:
    """A JSON list of strings at path ``at`` as atom names; a bare string
    is refused instead of being split into characters."""
    if not isinstance(obj, list) or not all(isinstance(a, str) for a in obj):
        raise ValueError(f"not a list of atom names at {path_text(at)}: {obj!r}")
    return tuple(obj)


def prob_from_json(obj) -> float:
    """A JSON number in [0, 1]; a boolean or a string raises ValueError."""
    if type(obj) not in (int, float) or not 0 <= obj <= 1:
        raise ValueError(f"not a probability in [0, 1]: {obj!r}")
    return float(obj)


# Defaults that are no value: a REQUIRED key must be given; an ABSENT one, not given, stays out.
REQUIRED, ABSENT = object(), object()


def object_from_json(obj, fields: dict, at: JsonPath) -> dict:
    """A JSON object whose keys are all among ``fields``, with the keys it
    leaves out set to their defaults there; a stray key or a missing
    REQUIRED one raises ValueError naming the key and ``at``, the object's
    path in its document, so a misspelt key is refused rather than ignored."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path_text(at)} is not a JSON object: {obj!r}")
    for key in obj:
        if key not in fields:
            raise ValueError(f"unknown key {key!r} in {path_text(at)}")
    out = obj.copy()
    for key, default in fields.items():
        if key not in out and default is not ABSENT:
            if default is REQUIRED:
                raise ValueError(f"missing key {key!r} in {path_text(at)}")
            out[key] = default
    return out


def list_from_json(obj, at: JsonPath, length: Optional[int] = None) -> list:
    """A JSON list at path ``at``, of exactly ``length`` items if given; a
    string or an object is refused instead of being iterated."""
    if not isinstance(obj, list) or length is not None and len(obj) != length:
        items = "" if length is None else f" of {length} items"
        raise ValueError(f"not a JSON list{items} at {path_text(at)}: {obj!r}")
    return obj


def _pair_from_json(obj, at: JsonPath) -> Pair:
    return Pair(*(value_from_json(v, (at, i))
                  for i, v in enumerate(list_from_json(obj, at, 2))))


_BODY_FIELDS = {"bv": {"w": REQUIRED, "n": REQUIRED}, "tag": {"i": REQUIRED, "v": REQUIRED}}


def value_from_json(obj, at: JsonPath = "value") -> Value:
    """Parse the canonical JSON encoding; bare non-negative ints are accepted
    as shorthand for naturals.  Anything else raises ValueError.  ``at`` is
    the value's path in its document, named when a body is malformed."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Nat(obj)
    if isinstance(obj, str) and obj.isascii() and obj.isdigit():
        return Nat(int(obj))
    if isinstance(obj, list):
        return _pair_from_json(obj, at)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"not a value encoding at {path_text(at)}: {obj!r}")
    key, body = next(iter(obj.items()))
    if key == "nat":
        return Nat(int_from_json(body))
    if key == "bv":
        body = object_from_json(body, _BODY_FIELDS["bv"], (at, "bv"))
        return BitVec(int_from_json(body["w"]), int_from_json(body["n"]))
    if key == "pair":
        return _pair_from_json(body, (at, "pair"))
    if key == "set":
        return AtomSet(atoms_from_json(body, (at, "set")))
    if key == "tag":
        body = object_from_json(body, _BODY_FIELDS["tag"], (at, "tag"))
        return Tagged(int_from_json(body["i"]),
                      value_from_json(body["v"], (at, "tag", "v")))
    raise ValueError(f"unknown value kind {key!r} at {path_text(at)}")


def space_from_json(obj, at: JsonPath = "space") -> Space:
    """A space from its encoding; a ValueError names the bad part's path."""
    if obj == "nat":
        return NatSpace()
    if isinstance(obj, dict) and len(obj) == 1:
        key, body = next(iter(obj.items()))
        if key == "bitvec":
            return BitVecSpace(int_from_json(body))
        if key == "pair":
            return PairSpace(*(space_from_json(b, (at, key, i)) for i, b
                               in enumerate(list_from_json(body, (at, key), 2))))
        if key == "atoms":
            return AtomSetSpace(atoms_from_json(body, (at, key)))
        if key == "tagged":
            return TaggedSpace(tuple(space_from_json(b, (at, key, i)) for i, b
                                     in enumerate(list_from_json(body, (at, key)))))
        if key == "parampair":
            return ParamPairSpace(space_from_json(body, (at, key)))
    raise ValueError(f"not a space encoding at {path_text(at)}: {obj!r}")
