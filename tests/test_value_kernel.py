"""The slotted value classes against frozen copies of the dataclasses they
replaced.

The five classes below are the value classes as the frozen dataclasses
they were, with the same fields, validation and names, so that their
``repr`` is the one to match.  On drawn nested values, the slotted classes
in ``dialectica.values`` must give the same ``repr``, ``hash``, ``==`` and
``!=`` answers, constructor errors and FrozenInstanceError texts, and
survive ``copy`` and ``pickle`` as the dataclasses do.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from types import SimpleNamespace
from typing import Union

from hypothesis import given, settings, strategies as st

from dialectica import values as slotted


@dataclass(frozen=True)
class Nat:
    """Arbitrary-precision non-negative integer."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("Nat must be non-negative")


@dataclass(frozen=True)
class BitVec:
    width: int
    bits: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("BitVec width must be >= 1")
        if self.bits < 0:
            raise ValueError("BitVec bits must be non-negative")


@dataclass(frozen=True)
class Pair:
    first: "Value"
    second: "Value"


@dataclass(frozen=True)
class AtomSet:
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        canonical = tuple(sorted(set(self.members)))
        if canonical != self.members:
            object.__setattr__(self, "members", canonical)


@dataclass(frozen=True)
class Tagged:
    branch: int
    inner: "Value"

    def __post_init__(self) -> None:
        if self.branch < 1:
            raise ValueError("Tagged branch index is 1-based")


Value = Union[Nat, BitVec, Pair, AtomSet, Tagged]

DATACLASSES = SimpleNamespace(Nat=Nat, BitVec=BitVec, Pair=Pair,
                              AtomSet=AtomSet, Tagged=Tagged)
FIELDS = {"Nat": ("n",), "BitVec": ("width", "bits"),
          "Pair": ("first", "second"), "AtomSet": ("members",),
          "Tagged": ("branch", "inner")}


# A drawn value is a tree (kind, args), built once with each set of classes.
# "raw" leaves are plain Python objects, which a pair may hold.

def build(tree, classes):
    kind, args = tree
    if kind == "raw":
        return args
    if kind == "Pair":
        return classes.Pair(build(args[0], classes), build(args[1], classes))
    if kind == "Tagged":
        return classes.Tagged(args[0], build(args[1], classes))
    return getattr(classes, kind)(*args)


_atoms = st.lists(st.sampled_from("abcz"), max_size=4)
leaves = st.one_of(
    st.integers(0, 2**70).map(lambda n: ("Nat", (n,))),
    st.tuples(st.integers(1, 130), st.integers(0, 2**140))
    .map(lambda wb: ("BitVec", wb)),
    st.one_of(_atoms, _atoms.map(tuple)).map(lambda m: ("AtomSet", (m,))),
    st.sampled_from([None, 0, 3, (3,), "a"]).map(lambda x: ("raw", x)),
)
trees = st.recursive(leaves, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda p: ("Pair", p)),
    st.tuples(st.integers(1, 4), inner).map(lambda t: ("Tagged", t)),
), max_leaves=6)

# Other objects a value gets compared with: never equal to a value.
OUTSIDERS = [None, 0, 3, (3,), (8, 3), ("a",), "Nat(n=3)"]


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


class TestValueOracle:
    @settings(max_examples=400, deadline=None)
    @given(trees)
    def test_repr_and_hash(self, tree):
        old, new = build(tree, DATACLASSES), build(tree, slotted)
        assert repr(new) == repr(old)
        assert _outcome(hash, new) == _outcome(hash, old)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(trees, min_size=1, max_size=5))
    def test_equality_across_every_pair(self, drawn):
        # equal trees give equal values; a copy of each keeps that case in
        olds = [build(t, DATACLASSES) for t in drawn + drawn[:1]] + OUTSIDERS
        news = [build(t, slotted) for t in drawn + drawn[:1]] + OUTSIDERS
        for i, j in ((i, j) for i in range(len(olds)) for j in range(len(olds))):
            assert (news[i] == news[j]) == (olds[i] == olds[j]), (olds[i], olds[j])
            assert (news[i] != news[j]) == (olds[i] != olds[j]), (olds[i], olds[j])

    def test_classes_never_equal_each_other(self):
        one = [slotted.Nat(3), slotted.BitVec(8, 3), slotted.AtomSet(("a",)),
               slotted.Pair(3, 3), slotted.Tagged(3, 3)]
        for i, x in enumerate(one):
            for j, y in enumerate(one):
                assert (x == y) == (i == j)

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)),
           st.lists(st.one_of(st.integers(-3, 3), st.none(), st.text(max_size=2),
                              st.lists(st.sampled_from("ab"), max_size=3),
                              st.just(slotted.Nat(1))), max_size=3),
           st.dictionaries(st.sampled_from(["n", "width", "bits", "first",
                                            "members", "inner", "bogus"]),
                           st.integers(0, 3), max_size=2))
    def test_constructor_outcomes(self, kind, args, kwargs):
        old = _outcome(getattr(DATACLASSES, kind), *args, **kwargs)
        new = _outcome(getattr(slotted, kind), *args, **kwargs)
        assert new == old

    def test_constructor_boundaries(self):
        # every validation edge, on every small integer argument
        small = range(-2, 3)
        for kind in FIELDS:
            arity = len(FIELDS[kind])
            for args in ([(i,) for i in small] if arity == 1 else
                         [(i, j) for i in small for j in small]):
                assert (_outcome(getattr(slotted, kind), *args)
                        == _outcome(getattr(DATACLASSES, kind), *args)), (kind, args)

    @settings(max_examples=200, deadline=None)
    @given(trees.filter(lambda t: t[0] != "raw"))
    def test_fields_are_frozen(self, tree):
        old, new = build(tree, DATACLASSES), build(tree, slotted)
        for name in FIELDS[tree[0]] + ("bogus",):
            assigned = _outcome(setattr, new, name, 1)
            assert assigned[0] is FrozenInstanceError
            assert assigned == _outcome(setattr, old, name, 1)
            deleted = _outcome(delattr, new, name)
            assert deleted[0] is FrozenInstanceError
            assert deleted == _outcome(delattr, old, name)
        assert repr(new) == repr(old)

    @settings(max_examples=100, deadline=None)
    @given(trees.filter(lambda t: t[0] != "raw"))
    def test_copies_and_pickles_round_trip(self, tree):
        new = build(tree, slotted)
        for twin in (copy.copy(new), copy.deepcopy(new),
                     pickle.loads(pickle.dumps(new))):
            assert type(twin) is type(new) and twin == new
            assert repr(twin) == repr(new)

    def test_match_args_name_the_fields(self):
        for kind, fields in FIELDS.items():
            assert getattr(slotted, kind).__match_args__ == fields
            assert getattr(DATACLASSES, kind).__match_args__ == fields


class TestValueContract:
    """Each class's own ``__eq__`` against the hash the classes share."""

    values = trees.filter(lambda t: t[0] != "raw").map(
        lambda t: build(t, slotted))

    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_hash_is_the_field_tuples(self, v):
        assert hash(v) == hash(v._key())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(trees.filter(lambda t: t[0] != "raw"), min_size=1,
                    max_size=4))
    def test_equal_values_hash_equal(self, drawn):
        # each tree built twice, so every value has an equal, distinct twin
        built = [build(t, slotted) for t in drawn + drawn]
        for a in built:
            for b in built:
                if a == b:
                    assert hash(a) == hash(b), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**70), trees)
    def test_equal_fields_of_another_class_are_unequal(self, n, tree):
        v = build(tree, slotted)
        for a, b in [(slotted.Nat(n), slotted.BitVec(n, n)),
                     (slotted.Nat(1), slotted.BitVec(1, 1)),
                     (slotted.Pair(n, v), slotted.Tagged(n, v)),
                     (slotted.Pair(n, v), (n, v)),
                     (slotted.Tagged(n, v), (n, v)),
                     (slotted.Nat(n), (n,))]:
            assert not a == b and not b == a, (a, b)
            assert a != b and b != a, (a, b)
