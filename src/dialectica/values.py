"""Universal payload values and the spaces they inhabit.

Every transformation in this package moves values between *spaces*: plain
naturals, fixed-width bit-vectors, pairs, finite atom-sets, tagged unions,
and distinct-component pairs used as parameter spaces.  Values are immutable
and hashable, so they can be shared freely and used as dict keys.

A bit-vector value is a ``(width, bits)`` pair rather than a bit array; the
constructor is deliberately permissive about over-width ``bits`` so that
over-width wire garbage is representable, while ``space_contains`` applies
the strict ``bits < 2**width`` gate at every space boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union


class ShapeMismatch(Exception):
    """Raised when an operation is applied to values of incompatible shape."""


class Overflow(Exception):
    """Raised when a natural does not fit the requested byte length."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nat:
    """Arbitrary-precision non-negative integer."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("Nat must be non-negative")


@dataclass(frozen=True)
class BitVec:
    """Fixed-width bit-vector stored as (width, bits).

    ``bits`` may exceed ``2**width - 1``; such values exist only as wire
    garbage and are rejected by ``space_contains``.
    """

    width: int
    bits: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("BitVec width must be >= 1")
        if self.bits < 0:
            raise ValueError("BitVec bits must be non-negative")

    @property
    def in_range(self) -> bool:
        return self.bits < (1 << self.width)


@dataclass(frozen=True)
class Pair:
    first: "Value"
    second: "Value"


@dataclass(frozen=True)
class AtomSet:
    """Finite set of interned atom names, kept canonically sorted."""

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        canonical = tuple(sorted(set(self.members)))
        if canonical != self.members:
            object.__setattr__(self, "members", canonical)


@dataclass(frozen=True)
class Tagged:
    """Value of one branch of a tagged union; ``branch`` is 1-based."""

    branch: int
    inner: "Value"

    def __post_init__(self) -> None:
        if self.branch < 1:
            raise ValueError("Tagged branch index is 1-based")


Value = Union[Nat, BitVec, Pair, AtomSet, Tagged]


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NatSpace:
    pass


# Widest bit-vector space: wider ones would make sampling, masks and
# cardinalities arbitrarily expensive.
MAX_BITVEC_WIDTH = 1 << 16


@dataclass(frozen=True)
class BitVecSpace:
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_BITVEC_WIDTH:
            raise ValueError(f"BitVecSpace width must be in 1..{MAX_BITVEC_WIDTH}, "
                             f"got {self.width}")


@dataclass(frozen=True)
class PairSpace:
    left: "Space"
    right: "Space"


@dataclass(frozen=True)
class AtomSetSpace:
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(a, str) for a in self.universe):
            raise ValueError("AtomSetSpace atoms must be strings")
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("AtomSetSpace universe must be duplicate-free")


@dataclass(frozen=True)
class TaggedSpace:
    branches: tuple["Space", ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("TaggedSpace needs at least 2 branches")


@dataclass(frozen=True)
class ParamPairSpace:
    """Pairs over ``base`` whose two components differ (base x base minus
    the diagonal)."""

    base: "Space"


Space = Union[NatSpace, BitVecSpace, PairSpace, AtomSetSpace, TaggedSpace,
              ParamPairSpace]


def space_contains(space: Optional[Space], v: Value) -> bool:
    """Structural membership test; total, never raises.

    ``space`` may be ``None`` for opaque domains (protocol messages carried
    through data adaptors); membership is then vacuously true.
    """
    if space is None:
        return True
    if isinstance(space, NatSpace):
        return isinstance(v, Nat)
    if isinstance(space, BitVecSpace):
        return isinstance(v, BitVec) and v.width == space.width and v.in_range
    if isinstance(space, PairSpace):
        return (isinstance(v, Pair)
                and space_contains(space.left, v.first)
                and space_contains(space.right, v.second))
    if isinstance(space, AtomSetSpace):
        return isinstance(v, AtomSet) and set(v.members) <= set(space.universe)
    if isinstance(space, TaggedSpace):
        return (isinstance(v, Tagged)
                and 1 <= v.branch <= len(space.branches)
                and space_contains(space.branches[v.branch - 1], v.inner))
    if isinstance(space, ParamPairSpace):
        return (isinstance(v, Pair)
                and space_contains(space.base, v.first)
                and space_contains(space.base, v.second)
                and v.first != v.second)
    return False


def space_cardinality(space: Optional[Space]) -> Optional[int]:
    """Number of inhabitants, or None when infinite/unknown."""
    if space is None or isinstance(space, NatSpace):
        return None
    if isinstance(space, BitVecSpace):
        return 1 << space.width
    if isinstance(space, PairSpace):
        l, r = space_cardinality(space.left), space_cardinality(space.right)
        return None if l is None or r is None else l * r
    if isinstance(space, AtomSetSpace):
        return 1 << len(space.universe)
    if isinstance(space, TaggedSpace):
        total = 0
        for b in space.branches:
            c = space_cardinality(b)
            if c is None:
                return None
            total += c
        return total
    if isinstance(space, ParamPairSpace):
        c = space_cardinality(space.base)
        return None if c is None else c * (c - 1)
    return None


def space_enumerate(space: Space, limit: int = 1 << 16) -> Optional[list[Value]]:
    """Enumerate all values of a finite space, or None when too large."""
    card = space_cardinality(space)
    if card is None or card > limit:
        return None
    return list(_enum(space))


def _enum(space: Space) -> Iterator[Value]:
    if isinstance(space, BitVecSpace):
        for b in range(1 << space.width):
            yield BitVec(space.width, b)
    elif isinstance(space, PairSpace):
        rights = list(_enum(space.right))
        for lft in _enum(space.left):
            for rgt in rights:
                yield Pair(lft, rgt)
    elif isinstance(space, AtomSetSpace):
        atoms = sorted(space.universe)
        for mask in range(1 << len(atoms)):
            yield AtomSet(tuple(a for i, a in enumerate(atoms) if mask >> i & 1))
    elif isinstance(space, TaggedSpace):
        for i, branch in enumerate(space.branches, start=1):
            for inner in _enum(branch):
                yield Tagged(i, inner)
    elif isinstance(space, ParamPairSpace):
        base = list(_enum(space.base))
        for x in base:
            for y in base:
                if x != y:
                    yield Pair(x, y)
    else:
        raise ValueError(f"cannot enumerate {space!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def xor_value(x: Value, y: Value) -> Value:
    """Bitwise xor for naturals and equal-width bit-vectors, symmetric
    difference for atom-sets.  Associative, commutative, self-inverse."""
    if isinstance(x, Nat) and isinstance(y, Nat):
        return Nat(x.n ^ y.n)
    if isinstance(x, BitVec) and isinstance(y, BitVec):
        if x.width != y.width:
            raise ShapeMismatch(f"bitvec widths differ: {x.width} vs {y.width}")
        return BitVec(x.width, x.bits ^ y.bits)
    if isinstance(x, AtomSet) and isinstance(y, AtomSet):
        return AtomSet(tuple(set(x.members) ^ set(y.members)))
    raise ShapeMismatch(f"cannot xor {type(x).__name__} with {type(y).__name__}")


def zero_like(v: Value) -> Value:
    """The xor identity of v's shape."""
    if isinstance(v, Nat):
        return Nat(0)
    if isinstance(v, BitVec):
        return BitVec(v.width, 0)
    if isinstance(v, AtomSet):
        return AtomSet(())
    raise ShapeMismatch(f"no xor zero for {type(v).__name__}")


def bytes_to_nat(data: bytes) -> Nat:
    """Big-endian byte sequence to natural."""
    return Nat(int.from_bytes(data, "big"))


def nat_to_bytes(v: Nat, length: int) -> bytes:
    """Natural to big-endian byte sequence of exactly ``length`` bytes."""
    if v.n >= 256 ** length:
        raise Overflow(f"{v.n} does not fit in {length} bytes")
    return v.n.to_bytes(length, "big")


# ---------------------------------------------------------------------------
# JSON encoding (trace/config interchange format)
# ---------------------------------------------------------------------------

def value_to_json(v: Value) -> dict:
    if isinstance(v, Nat):
        return {"nat": str(v.n)}
    if isinstance(v, BitVec):
        return {"bv": {"w": v.width, "n": v.bits}}
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.first), value_to_json(v.second)]}
    if isinstance(v, AtomSet):
        return {"set": list(v.members)}
    if isinstance(v, Tagged):
        return {"tag": {"i": v.branch, "v": value_to_json(v.inner)}}
    raise TypeError(f"not a Value: {v!r}")


def value_from_json(obj) -> Value:
    """Parse the canonical JSON encoding; bare non-negative ints are accepted
    as shorthand for naturals.  Anything else raises ValueError."""
    try:
        return _value_from_json(obj)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"not a value encoding: {obj!r}") from exc


def int_from_json(obj) -> int:
    """A JSON integer or digit string; a float or boolean raises ValueError
    instead of being truncated."""
    if isinstance(obj, (bool, float)):
        raise ValueError(f"not an integer: {obj!r}")
    return int(obj)


def _value_from_json(obj) -> Value:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Nat(obj)
    if isinstance(obj, str) and obj.isdigit():
        return Nat(int(obj))
    if isinstance(obj, list) and len(obj) == 2:
        return Pair(_value_from_json(obj[0]), _value_from_json(obj[1]))
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"not a value encoding: {obj!r}")
    key, body = next(iter(obj.items()))
    if key == "nat":
        return Nat(int_from_json(body))
    if key == "bv":
        return BitVec(int_from_json(body["w"]), int_from_json(body["n"]))
    if key == "pair":
        return Pair(_value_from_json(body[0]), _value_from_json(body[1]))
    if key == "set":
        return AtomSet(tuple(body))
    if key == "tag":
        return Tagged(int_from_json(body["i"]), _value_from_json(body["v"]))
    raise ValueError(f"unknown value kind: {key!r}")


def space_to_json(space: Space) -> object:
    if isinstance(space, NatSpace):
        return "nat"
    if isinstance(space, BitVecSpace):
        return {"bitvec": space.width}
    if isinstance(space, PairSpace):
        return {"pair": [space_to_json(space.left), space_to_json(space.right)]}
    if isinstance(space, AtomSetSpace):
        return {"atoms": list(space.universe)}
    if isinstance(space, TaggedSpace):
        return {"tagged": [space_to_json(b) for b in space.branches]}
    if isinstance(space, ParamPairSpace):
        return {"parampair": space_to_json(space.base)}
    raise TypeError(f"not a Space: {space!r}")


def space_from_json(obj) -> Space:
    if obj == "nat":
        return NatSpace()
    if isinstance(obj, dict) and len(obj) == 1:
        key, body = next(iter(obj.items()))
        if key == "bitvec":
            return BitVecSpace(int(body))
        if key == "pair":
            return PairSpace(space_from_json(body[0]), space_from_json(body[1]))
        if key == "atoms":
            return AtomSetSpace(tuple(body))
        if key == "tagged":
            return TaggedSpace(tuple(space_from_json(b) for b in body))
        if key == "parampair":
            return ParamPairSpace(space_from_json(body))
    raise ValueError(f"not a space encoding: {obj!r}")
