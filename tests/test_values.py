import ast
import inspect
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dialectica
from dialectica.attacker import (
    AttackerState,
    attempt_forgery,
    craft_forgery,
    observe,
    reveal_sweep,
)
from dialectica.core import make_param
from dialectica.library import make_divide_check, make_reverse_divide_check
from dialectica.rng import SAMPLE_TAG, Rng, derive, fnv64
from dialectica.runtime import Configuration
from dialectica.values import (
    AtomSet,
    AtomSetSpace,
    BitVec,
    BitVecSpace,
    CannotDraw,
    Nat,
    NatSpace,
    Pair,
    PairSpace,
    ParamPairSpace,
    ShapeMismatch,
    Space,
    Tagged,
    TaggedSpace,
    space_contains,
    space_from_json,
    value_from_json,
    value_to_json,
    xor_value,
)


class TestSpaceContains:
    def test_bitvec_boundary(self):
        assert space_contains(BitVecSpace(8), BitVec(8, 255))

    def test_overwidth_bits_rejected(self):
        # the value is representable, the space gate is strict
        assert not space_contains(BitVecSpace(8), BitVec(8, 1000))

    def test_width_mismatch_rejected(self):
        assert not space_contains(BitVecSpace(8), BitVec(16, 3))

    def test_widest_range_test_builds_no_power_of_two(self):
        # 2**65536 alone takes 8.7 KB.
        space, v = BitVecSpace(65536), BitVec(65536, 1)
        over = BitVec(65536, 1 << 65536)
        tracemalloc.start()
        try:
            assert space.contains(v) and not space.contains(over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024, peak

    def test_parampair_diagonal_excluded(self):
        sp = ParamPairSpace(BitVecSpace(4))
        assert not space_contains(sp, Pair(BitVec(4, 5), BitVec(4, 5)))
        assert space_contains(sp, Pair(BitVec(4, 5), BitVec(4, 6)))

    def test_atomset_subset_of_universe(self):
        sp = AtomSetSpace(("a", "b", "c"))
        assert space_contains(sp, AtomSet(("a", "c")))
        assert not space_contains(sp, AtomSet(("a", "z")))

    def test_tagged(self):
        sp = TaggedSpace((NatSpace(), BitVecSpace(4)))
        assert space_contains(sp, Tagged(1, Nat(7)))
        assert space_contains(sp, Tagged(2, BitVec(4, 7)))
        assert not space_contains(sp, Tagged(2, Nat(7)))
        assert not space_contains(sp, Tagged(3, Nat(7)))

    def test_total_on_wrong_shapes(self):
        assert not space_contains(NatSpace(), BitVec(8, 1))
        assert not space_contains(PairSpace(NatSpace(), NatSpace()), Nat(1))


class TestXor:
    def test_byte_example(self):
        assert xor_value(BitVec(8, 3), BitVec(8, 5)) == BitVec(8, 6)

    def test_atomset_example(self):
        got = xor_value(AtomSet(("a", "b", "c", "d")), AtomSet(("c", "d", "e", "f")))
        assert got == AtomSet(("a", "b", "e", "f"))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            xor_value(Nat(1), BitVec(8, 1))
        with pytest.raises(ShapeMismatch):
            xor_value(BitVec(8, 1), BitVec(4, 1))

    @given(st.integers(0, 2**64), st.integers(0, 2**64))
    def test_nat_involution(self, a, b):
        x, y = Nat(a), Nat(b)
        assert xor_value(xor_value(x, y), y) == x

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_bitvec_involution_and_closure(self, a, b):
        x, y = BitVec(8, a), BitVec(8, b)
        out = xor_value(x, y)
        assert space_contains(BitVecSpace(8), out)
        assert xor_value(out, y) == x

    @given(st.lists(st.sampled_from("abcdef")), st.lists(st.sampled_from("abcdef")))
    def test_atomset_involution(self, a, b):
        x, y = AtomSet(tuple(a)), AtomSet(tuple(b))
        assert xor_value(xor_value(x, y), y) == x

    @given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=6))
    def test_self_inverse_is_zero(self, atoms):
        v = AtomSet(tuple(atoms))
        assert xor_value(v, v) == AtomSet(())
        n = Nat(sum(ord(c) for c in atoms))
        assert xor_value(n, n) == Nat(0)

    def test_atomset_canonical_form(self):
        # any permutation of the same members collapses to one representation
        assert AtomSet(("b", "a", "b")) == AtomSet(("a", "b"))


VALUES = [
    Nat(0),
    Nat(12345678901234567890),
    BitVec(8, 6),
    Pair(Nat(1), BitVec(4, 2)),
    AtomSet(("a", "b")),
    Tagged(1, Nat(3)),
    Tagged(2, Pair(AtomSet(()), Nat(9))),
]

SPACE_ENCODINGS = [
    ("nat", NatSpace()),
    ({"bitvec": 8}, BitVecSpace(8)),
    ({"pair": ["nat", {"bitvec": 4}]}, PairSpace(NatSpace(), BitVecSpace(4))),
    ({"atoms": ["a", "b"]}, AtomSetSpace(("a", "b"))),
    ({"tagged": ["nat", {"bitvec": 4}]}, TaggedSpace((NatSpace(), BitVecSpace(4)))),
    ({"parampair": {"bitvec": 4}}, ParamPairSpace(BitVecSpace(4))),
]


@pytest.mark.parametrize("v", VALUES)
def test_value_json_round_trip(v):
    assert value_from_json(value_to_json(v)) == v


def test_value_json_shorthand():
    assert value_from_json(13) == Nat(13)
    assert value_from_json({"nat": "256"}) == Nat(256)
    assert value_from_json({"bv": {"w": 8, "n": 6}}) == BitVec(8, 6)


@pytest.mark.parametrize("encoding, space", SPACE_ENCODINGS,
                         ids=["nat", "bitvec", "pair", "atoms", "tagged",
                              "parampair"])
def test_space_from_json(encoding, space):
    assert space_from_json(encoding) == space


@pytest.mark.parametrize("body", [["nat"], ["nat", "nat", "nat"]])
def test_pair_space_needs_two_items(body):
    with pytest.raises(ValueError):
        space_from_json({"pair": body})


@pytest.mark.parametrize("obj", [{"pair": "12"}, {"pair": [1]},
                                 {"pair": [1, 2, 3]}, [1, 2, 3]])
def test_pair_value_needs_two_items(obj):
    with pytest.raises(ValueError):
        value_from_json(obj)


def test_cardinality_and_enumeration():
    assert BitVecSpace(4).cardinality() == 16
    assert NatSpace().cardinality() is None
    assert ParamPairSpace(BitVecSpace(2)).cardinality() == 12
    vals = ParamPairSpace(BitVecSpace(2)).enumerate()
    assert len(vals) == 12
    assert all(space_contains(ParamPairSpace(BitVecSpace(2)), v) for v in vals)
    assert NatSpace().enumerate() is None
    tagged = TaggedSpace((BitVecSpace(1), BitVecSpace(2))).enumerate()
    assert len(tagged) == 6


# ---------------------------------------------------------------------------
# Oracle: frozen copies of the isinstance-ladder dispatch that the space
# classes replaced.  The classes must agree with them on every space, down
# to the number of stream words each sampler consumes.
# ---------------------------------------------------------------------------

def _old_space_contains(space, v):
    if isinstance(space, NatSpace):
        return isinstance(v, Nat)
    if isinstance(space, BitVecSpace):
        return isinstance(v, BitVec) and v.width == space.width and v.in_range
    if isinstance(space, PairSpace):
        return (isinstance(v, Pair)
                and _old_space_contains(space.left, v.first)
                and _old_space_contains(space.right, v.second))
    if isinstance(space, AtomSetSpace):
        return isinstance(v, AtomSet) and set(v.members) <= set(space.universe)
    if isinstance(space, TaggedSpace):
        return (isinstance(v, Tagged)
                and 1 <= v.branch <= len(space.branches)
                and _old_space_contains(space.branches[v.branch - 1], v.inner))
    if isinstance(space, ParamPairSpace):
        return (isinstance(v, Pair)
                and _old_space_contains(space.base, v.first)
                and _old_space_contains(space.base, v.second)
                and v.first != v.second)
    return False


def _old_space_cardinality(space):
    if isinstance(space, NatSpace):
        return None
    if isinstance(space, BitVecSpace):
        return 1 << space.width
    if isinstance(space, PairSpace):
        l, r = _old_space_cardinality(space.left), _old_space_cardinality(space.right)
        return None if l is None or r is None else l * r
    if isinstance(space, AtomSetSpace):
        return 1 << len(space.universe)
    if isinstance(space, TaggedSpace):
        total = 0
        for b in space.branches:
            c = _old_space_cardinality(b)
            if c is None:
                return None
            total += c
        return total
    if isinstance(space, ParamPairSpace):
        c = _old_space_cardinality(space.base)
        return None if c is None else c * (c - 1)
    return None


def _old_enum(space):
    if isinstance(space, BitVecSpace):
        for b in range(1 << space.width):
            yield BitVec(space.width, b)
    elif isinstance(space, PairSpace):
        rights = list(_old_enum(space.right))
        for lft in _old_enum(space.left):
            for rgt in rights:
                yield Pair(lft, rgt)
    elif isinstance(space, AtomSetSpace):
        atoms = sorted(space.universe)
        for mask in range(1 << len(atoms)):
            yield AtomSet(tuple(a for i, a in enumerate(atoms) if mask >> i & 1))
    elif isinstance(space, TaggedSpace):
        for i, branch in enumerate(space.branches, start=1):
            for inner in _old_enum(branch):
                yield Tagged(i, inner)
    elif isinstance(space, ParamPairSpace):
        base = list(_old_enum(space.base))
        for x in base:
            for y in base:
                if x != y:
                    yield Pair(x, y)
    else:
        raise ValueError(f"cannot enumerate {space!r}")


def _old_sample_value(space, rng, nat_ceiling=1 << 32):
    if isinstance(space, NatSpace):
        return Nat(rng.next_below(nat_ceiling))
    if isinstance(space, BitVecSpace):
        bits = 0
        for _ in range((space.width + 63) // 64):
            bits = (bits << 64) | rng.next_u64()
        return BitVec(space.width, bits & ((1 << space.width) - 1))
    if isinstance(space, PairSpace):
        left = _old_sample_value(space.left, rng, nat_ceiling)
        return Pair(left, _old_sample_value(space.right, rng, nat_ceiling))
    if isinstance(space, AtomSetSpace):
        atoms = sorted(space.universe)
        picked = []
        word, have = 0, 0
        for a in atoms:
            if have == 0:
                word, have = rng.next_u64(), 64
            if word & 1:
                picked.append(a)
            word >>= 1
            have -= 1
        return AtomSet(tuple(picked))
    if isinstance(space, TaggedSpace):
        branch = rng.next_below(len(space.branches)) + 1
        return Tagged(branch,
                      _old_sample_value(space.branches[branch - 1], rng, nat_ceiling))
    if isinstance(space, ParamPairSpace):
        if _old_space_cardinality(space.base) == 1:
            raise CannotDraw("base space has a single element")
        first = _old_sample_value(space.base, rng, nat_ceiling)
        for _ in range(64):
            second = _old_sample_value(space.base, rng, nat_ceiling)
            if second != first:
                return Pair(first, second)
        raise CannotDraw(f"could not draw distinct pair from {space.base!r}")
    raise CannotDraw(f"no generator for {space!r}")


def _old_project_param(space, seed, stream_tag, index, nat_ceiling=1 << 32):
    if isinstance(space, NatSpace):
        return Nat(derive(seed, stream_tag, index) % nat_ceiling)
    if isinstance(space, BitVecSpace) and space.width <= 64:
        return BitVec(space.width,
                      derive(seed, stream_tag, index) & ((1 << space.width) - 1))
    rng = Rng(derive(seed, stream_tag, index), SAMPLE_TAG)
    return _old_sample_value(space, rng, nat_ceiling)


def _outcome(fn, *args):
    """The result of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _enum_work(space) -> int:
    """An upper bound on the values an enumeration visits before it ends or
    raises (natural children count as one)."""
    if isinstance(space, BitVecSpace):
        return 1 << space.width
    if isinstance(space, AtomSetSpace):
        return 1 << len(space.universe)
    if isinstance(space, PairSpace):
        return _enum_work(space.left) * _enum_work(space.right)
    if isinstance(space, TaggedSpace):
        return sum(_enum_work(b) for b in space.branches)
    if isinstance(space, ParamPairSpace):
        return _enum_work(space.base) ** 2
    return 1


_leaf_spaces = st.one_of(
    st.just(NatSpace()),
    st.builds(BitVecSpace, st.sampled_from([1, 2, 3, 8, 64, 65, 130])),
    st.builds(AtomSetSpace,
              st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=5)
              .map(tuple)),
)


def _composite_spaces(children):
    return st.one_of(
        st.builds(PairSpace, children, children),
        st.builds(TaggedSpace,
                  st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(ParamPairSpace, children),
    )


spaces = st.recursive(_leaf_spaces, _composite_spaces, max_leaves=5)

values = st.recursive(
    st.one_of(
        st.builds(Nat, st.integers(0, 300)),
        st.builds(BitVec, st.sampled_from([1, 2, 3, 8, 64]), st.integers(0, 300)),
        st.builds(AtomSet, st.lists(st.sampled_from("abcdefghz"), max_size=4)
                  .map(tuple)),
    ),
    lambda inner: st.one_of(st.builds(Pair, inner, inner),
                            st.builds(Tagged, st.integers(1, 4), inner)),
    max_leaves=4)


class TestSpaceOracle:
    @settings(max_examples=300, deadline=None)
    @given(spaces, st.lists(values, max_size=4),
           st.integers(0, 2**64 - 1))
    def test_contains(self, space, others, seed):
        drawn = _outcome(_old_sample_value, space, Rng(seed, 1))
        if not isinstance(drawn, type):
            others.append(drawn)
        if isinstance(drawn, Pair):   # the diagonal a parameter pair excludes
            others.append(Pair(drawn.first, drawn.first))
        for v in others:
            assert space_contains(space, v) == _old_space_contains(space, v)

    @settings(max_examples=300, deadline=None)
    @given(spaces)
    def test_cardinality(self, space):
        assert space.cardinality() == _old_space_cardinality(space)

    @settings(max_examples=300, deadline=None)
    @given(spaces)
    def test_enumeration(self, space):
        if _enum_work(space) > 1 << 12:
            return
        assert (_outcome(lambda: list(space.values()))
                == _outcome(lambda: list(_old_enum(space))))
        limit = 1 << 10
        card = _old_space_cardinality(space)
        expected = (None if card is None or card > limit
                    else list(_old_enum(space)))
        assert space.enumerate(limit) == expected

    @settings(max_examples=300, deadline=None)
    @given(spaces, st.integers(0, 2**64 - 1))
    def test_sampling(self, space, seed):
        new, old = Rng(seed, SAMPLE_TAG), Rng(seed, SAMPLE_TAG)
        for _ in range(3):
            assert (_outcome(space.sample, new)
                    == _outcome(_old_sample_value, space, old))
            assert new.index == old.index

    @settings(max_examples=300, deadline=None)
    @given(spaces, st.text(max_size=8), st.integers(0, 2**64 - 1),
           st.integers(0, 1 << 20))
    @example(BitVecSpace(64), "p", 1, 2)
    @example(BitVecSpace(65), "p", 1, 2)
    @example(NatSpace(), "p", 1, 2)
    def test_projection(self, space, name, seed, n):
        tag = fnv64(name)
        assert (_outcome(make_param(space, name), n, seed)
                == _outcome(_old_project_param, space, seed, tag, n))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(make_divide_check, "divide_check"),
                            (make_reverse_divide_check, "reverse_divide_check")]),
           st.sampled_from([1, 16, 1 << 16]), st.integers(0, 2**64 - 1),
           st.integers(0, 1 << 20))
    def test_divide_check_params_lie_below_their_ceiling(self, kind, ceiling,
                                                          seed, n):
        # The one parameter stream drawn below a ceiling other than the
        # spaces' own: the divide-check family's ``param_ceiling``.
        make, name = kind
        assert make(ceiling).param(n, seed) == Nat(
            derive(seed, fnv64(name), n) % ceiling)


class TestBoundedNats:
    """``NatSpace(bound)`` is the naturals below ``bound``: counted,
    enumerated in order, and sampled and projected below the bound from one
    stream word, as the unbounded space is below ``NAT_CEILING``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20) | st.integers(1, 1 << 70),
           st.integers(0, 40) | st.integers(0, 1 << 72), st.integers(0, 2**64 - 1))
    def test_bounded(self, bound, n, seed):
        space = NatSpace(bound)
        assert space_contains(space, Nat(n)) == (n < bound)
        assert not space_contains(space, BitVec(8, 0))
        assert space.cardinality() == bound
        new, old = Rng(seed, SAMPLE_TAG), Rng(seed, SAMPLE_TAG)
        assert space.sample(new) == Nat(old.next_u64() % bound)
        assert new.index == old.index
        assert space.project(seed) == Nat(seed % bound)
        assert make_param(space, "p")(n, seed) == Nat(derive(seed, fnv64("p"), n) % bound)

    @given(st.integers(1, 64))
    def test_enumeration(self, bound):
        nats = [Nat(i) for i in range(bound)]
        assert list(NatSpace(bound).values()) == nats
        assert NatSpace(bound).enumerate() == nats
        assert NatSpace(bound).enumerate(bound - 1) is None
        assert PairSpace(NatSpace(bound), BitVecSpace(1)).cardinality() == 2 * bound

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_is_at_least_one(self, bound):
        with pytest.raises(ValueError, match="NatSpace bound must be >= 1"):
            NatSpace(bound)

    @pytest.mark.parametrize("obj", [{"nat": 16}, {"nat": "16"}, ["nat", 16]])
    def test_no_encoding_sets_a_bound(self, obj):
        assert space_from_json("nat") == NatSpace()
        with pytest.raises(ValueError, match="not a space encoding"):
            space_from_json(obj)


# ---------------------------------------------------------------------------
# Guard: every domain is a declared space, never None
# ---------------------------------------------------------------------------

_SPACE_NAMES = {"space", "from_space", "to_space", "base", "left", "right"}
_SOURCES = sorted(Path(dialectica.__file__).parent.glob("*.py"))


def _is_space_name(name: str) -> bool:
    return name in _SPACE_NAMES or name.endswith("_space")


def _holds_space(node) -> bool:
    """A name or attribute whose name says it holds a space."""
    return _is_space_name(getattr(node, "id", None) or getattr(node, "attr", ""))


def _none_space_uses(tree) -> list[str]:
    """Each ``Optional[Space]`` annotation, each ``is None``/``is not None``
    test of a name or attribute that holds a space, and each space keyword
    given ``None``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and ast.unparse(node.value) == "Optional"
                and ast.unparse(node.slice) == "Space"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Is, ast.IsNot))
                        and any(isinstance(x, ast.Constant) and x.value is None
                                for x in (lhs, rhs))
                        and (_holds_space(lhs) or _holds_space(rhs))):
                    found.append(ast.unparse(node))
        elif (isinstance(node, ast.keyword) and node.arg is not None
              and _is_space_name(node.arg)
              and isinstance(node.value, ast.Constant)
              and node.value.value is None):
            found.append(f"{node.arg}=None")
    return found


def test_guard_reads_every_module():
    assert {p.name for p in _SOURCES} >= {"values.py", "core.py", "cli.py",
                                          "attacker.py", "transforms.py"}


def test_guard_catches_each_none_space_form():
    source = ("def f(x: Optional[Space]):\n"
              "    if lingo.param_space is None or space is not None:\n"
              "        return DataAdaptor(from_space=None)\n"
              "    return base is None, n is None, lingo is None\n")
    assert _none_space_uses(ast.parse(source)) == [
        "Optional[Space]",
        "lingo.param_space is None",
        "space is not None",
        "base is None",
        "from_space=None",
    ]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_none_space_in_source(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _none_space_uses(tree) == []


# ---------------------------------------------------------------------------
# Guard: no parameter that every caller fills one way comes back
# ---------------------------------------------------------------------------

def _space_kinds(cls=Space):
    """``cls`` and every subclass of it, at any depth."""
    return [cls] + [k for sub in cls.__subclasses__() for k in _space_kinds(sub)]


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_space_sample_and_project_take_one_argument():
    kinds = _space_kinds()
    assert {k.__name__ for k in kinds} >= {
        "Space", "MqttMsgSpace", "NatSpace", "BitVecSpace", "PairSpace",
        "AtomSetSpace", "TaggedSpace", "ParamPairSpace"}
    for kind in kinds:
        assert _params(kind.sample) == ["self", "rng"], kind.__name__
        assert _params(kind.project) == ["self", "word"], kind.__name__


@pytest.mark.parametrize("fn", [observe, reveal_sweep, craft_forgery,
                                attempt_forgery], ids=lambda f: f.__name__)
def test_attacker_takes_its_stream_and_hidden_context_from_its_inputs(fn):
    # The stream is ``state.rng`` and the hidden context ``msg.hidden``.
    assert {"rng", "hidden"}.isdisjoint(_params(fn))


@pytest.mark.parametrize("cls,fields", [
    (Configuration, ["wrappers", "seed", "attacker"]),
    (AttackerState, ["config", "rng"]),
], ids=lambda x: getattr(x, "__name__", ""))
def test_run_state_is_not_a_constructor_argument(cls, fields):
    # Channels, logs, counters and the attacker's indexes start empty.
    assert _params(cls) == fields


# ---------------------------------------------------------------------------
# Guard: every parameter is a value, so no space says it is opaque
# ---------------------------------------------------------------------------

def test_no_space_kind_answers_opaque():
    # Every parameter space has a generator, so the law harness and
    # ``lingo eval`` need no second path for parameters that are not values.
    for kind in _space_kinds():
        assert not hasattr(kind, "opaque"), kind.__name__
    reads = [(path.name, node.lineno) for path in _SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "opaque"]
    assert reads == []
