import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_SPECS, noncompliant_witness

from dialectica.core import (
    Rng,
    apply_f,
    check_lingo_laws,
    is_compliant,
)
from dialectica.mqtt import mqtt_codec_adaptor
from dialectica.specs import (
    MAX_JSON_DEPTH,
    SpecError,
    build_adaptor,
    build_lingo,
    json_from_text,
)
from dialectica.transforms import adapt_pre
from dialectica.values import (
    AtomSet,
    BitVec,
    BitVecSpace,
    CannotDraw,
    Nat,
    NatSpace,
    Pair,
    PairSpace,
    Tagged,
    space_contains,
)


class TestLingoSpecs:
    def test_leaf_kinds(self):
        assert build_lingo({"kind": "xor_bitvec", "width": 8}).name == "xor_bitvec8"
        assert build_lingo({"kind": "xor_nat"}).input_space == NatSpace()
        assert build_lingo({"kind": "xor_set",
                            "universe": ["a", "b"]}).name == "xor_set"
        assert noncompliant_witness(
            build_lingo({"kind": "divide_check"})) is not None
        assert build_lingo({"kind": "identity",
                            "space": {"bitvec": 4}}).input_space == BitVecSpace(4)
        split = build_lingo({"kind": "split_bitvec", "half_width": 4})
        assert split.output_space == PairSpace(BitVecSpace(4), BitVecSpace(4))

    def test_operator_nodes(self):
        sx = build_lingo({"sharp": {"kind": "xor_bitvec", "width": 4}})
        assert noncompliant_witness(sx) is not None
        prod = build_lingo({"product": [{"kind": "xor_bitvec", "width": 4},
                                        {"kind": "divide_check"}]})
        assert prod.input_space == PairSpace(BitVecSpace(4), NatSpace())
        tup = build_lingo({"tupling": [{"kind": "xor_bitvec", "width": 4},
                                       {"kind": "xor_bitvec", "width": 4}]})
        assert tup.output_space == PairSpace(BitVecSpace(4), BitVecSpace(4))

    def test_adapt_nodes(self):
        pre = build_lingo({"adapt_pre": {
            "adaptor": {"kind": "nat_bitvec", "width": 16},
            "lingo": {"kind": "xor_bitvec", "width": 16}}})
        assert pre.input_space == NatSpace(1 << 16)
        assert apply_f(pre, Nat(3), BitVec(16, 5)) == BitVec(16, 6)
        post = build_lingo({"adapt_post": {
            "lingo": {"kind": "xor_bitvec", "width": 16},
            "adaptor": {"kind": "bitvec_nat", "width": 16}}})
        assert post.output_space == NatSpace()
        report = check_lingo_laws(post, 200, Rng(1, 1))
        assert report.all_passed

    def test_auth_node(self):
        auth = build_lingo({"auth": {"base": {"kind": "xor_bitvec", "width": 16},
                                     "oids": ["a", "b"], "m": 16, "j": 16,
                                     "k": 32, "seed": 4}})
        report = check_lingo_laws(auth, 150, Rng(2, 2))
        assert report.all_passed

    def test_auth_binds_the_oid_order(self):
        def code_words(oids):
            auth = build_lingo({"auth": {
                "base": {"kind": "xor_bitvec", "width": 16}, "oids": oids,
                "m": 16, "j": 16, "k": 32, "seed": 4}})
            return [auth.param(n, 0).code_word for n in range(8)]
        assert code_words(["a", "b"]) != code_words(["b", "a"])

    @pytest.mark.parametrize("bad", [
        {"kind": "warp_drive"},
        {"sharp": {"kind": "xor_bitvec"}},
        {"functional": [{"kind": "xor_nat"}]},
        {"horizontal": {"branches": [{"kind": "xor_nat"}]}},
        {"product": "nope"},
        {},
        [],
        # space incompatibilities must surface as spec errors, not crashes
        {"functional": [{"kind": "xor_bitvec", "width": 8},
                        {"kind": "divide_check"}]},
        {"tupling": [{"kind": "xor_bitvec", "width": 8}, {"kind": "xor_nat"}]},
        {"horizontal": {"branches": [{"kind": "xor_nat"},
                                     {"kind": "divide_check"}],
                        "defaults": [{"nat": "0"}, {"nat": "0"}],
                        "bias": [1, 1]}},
        {"horizontal": {"branches": [{"kind": "xor_nat"},
                                     {"kind": "divide_check"}],
                        "defaults": [{"nat": "0"},
                                     {"pair": [{"nat": "0"}, {"nat": "0"}]}],
                        "bias": [1, 0]}},
        # a bare string is not a list of oids, however many characters it has
        {"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": "ab",
                  "m": 8, "j": 8, "k": 8, "seed": 3}},
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(SpecError):
            build_lingo(bad)

    def test_bad_adaptor_rejected(self):
        with pytest.raises(SpecError):
            build_adaptor({"kind": "teleport"})

    @pytest.mark.parametrize("adaptor, error", [
        ({"kind": "foo", "width": 4}, "unknown adaptor kind {'kind': 'foo', 'width': 4}"),
        ({"kind": ["x"]}, "unknown adaptor kind {'kind': ['x']}"),
    ], ids=["with_a_field", "unhashable"])
    def test_unknown_adaptor_kind_is_refused_before_its_fields(self, adaptor,
                                                               error):
        with pytest.raises(SpecError) as info:
            build_lingo({"adapt_pre": {"adaptor": adaptor,
                                       "lingo": {"kind": "xor_nat"}}})
        assert str(info.value) == error

    @pytest.mark.parametrize("bad", [
        {"kind": "nat_bitvec", "width": 8.5},
        {"kind": "bitvec_nat", "width": True},
        {"kind": "sparse", "width": 8, "count": 8.5},
        {"kind": "sparse", "width": 8.5, "count": 8},
        {"kind": "sparse", "width": 8, "count": 8, "seed": 1.5},
        {"kind": "mqtt_codec", "width": 64.5},
        {"kind": "identity", "space": {"atoms": "ab"}},
        {"kind": "sparse", "width": 8, "words": "abcd"},
        {"kind": "sparse", "width": 8, "words": [1, 2]},
        {"kind": "sparse", "width": 8, "words": []},
        # only the count sets the codebook, so a words list is refused
        {"kind": "sparse", "width": 8, "words": ["a", "b"]},
    ])
    def test_adaptor_refuses_coercion(self, bad):
        with pytest.raises(SpecError):
            build_adaptor(bad)


def test_law_harness_needs_a_generator():
    lingo = adapt_pre(mqtt_codec_adaptor(), build_lingo({"kind": "xor_nat"}))
    with pytest.raises(CannotDraw, match="opaque space has no generator"):
        check_lingo_laws(lingo, 10, Rng(0, 0))


ANY_VALUE = st.recursive(
    st.one_of(st.builds(Nat, st.integers(0, 2**70)),
              st.builds(BitVec, st.sampled_from([1, 2, 4, 8, 16]),
                        st.integers(0, 2**20)),
              st.builds(AtomSet, st.lists(st.sampled_from("abcxy")).map(tuple))),
    lambda inner: st.one_of(st.builds(Pair, inner, inner),
                            st.builds(Tagged, st.integers(1, 3), inner)),
    max_leaves=5)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: build_lingo(s).name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compliance_gate_is_total(spec, data):
    """is_compliant never raises on arbitrary wire values, stale lists of
    them included, and refuses every one that does not fit the output
    space, whatever g would make of it."""
    lingo = build_lingo(spec)
    a = lingo.param(data.draw(st.integers(0, 200)), 7)
    in_space = st.integers(0, 2**64 - 1).map(
        lambda s: lingo.output_space.sample(Rng(s, 1)))
    w = data.draw(st.one_of(ANY_VALUE, in_space,
                            st.lists(st.one_of(ANY_VALUE, in_space), max_size=3)))
    ok = is_compliant(lingo, w, a)
    if not space_contains(lingo.output_space, w):
        assert ok is False


class TestJsonFromText:
    @pytest.mark.parametrize("open_, close", [("[", "]"), ('{"a":[', "]}")],
                             ids=["lists", "objects_and_lists"])
    def test_nesting_up_to_the_bound_is_read(self, open_, close):
        depth = MAX_JSON_DEPTH // len(close)
        text = open_ * depth + "0" + close * depth
        assert json_from_text(text, "doc") == json.loads(text)
        with pytest.raises(SpecError, match="doc nests deeper than 100 levels"):
            json_from_text(open_ + text + close, "doc")

    @pytest.mark.parametrize("text", ["[" * 2000, "[" * 101 + "]", '{"a":' * 1000])
    def test_unclosed_nesting_is_refused(self, text):
        with pytest.raises(SpecError, match="doc nests deeper than 100 levels"):
            json_from_text(text, "doc")

    def test_unterminated_strings_are_scanned_once(self):
        # A scan that went back over the rest of the text from each quote
        # would take about 40 s here; one scan takes milliseconds.
        with pytest.raises(SpecError, match="Unterminated string"):
            json_from_text('"' + '\\"' * 50_000, "doc")

    def test_brackets_in_strings_are_not_nesting(self):
        text = json.dumps({"a\\\"[{": ["[" * 500, "}" * 500]})
        assert json_from_text(text, "doc") == json.loads(text)

    @pytest.mark.parametrize("text, error", [
        (b'{"seed": 1, "x": "\xff"}', "doc is not JSON: 'utf-8' codec can't "
         "decode byte 0xff in position 18: invalid start byte"),
        ("{", "doc is not JSON: Expecting property name enclosed in double "
         "quotes: line 1 column 2 (char 1)"),
    ], ids=["not_utf8", "not_json"])
    def test_unreadable_text_names_the_input(self, text, error):
        with pytest.raises(SpecError) as info:
            json_from_text(text, "doc")
        assert str(info.value) == error
