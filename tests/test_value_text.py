"""Each value's own JSON text against the generic encoder.

``frozen_parent_to_json`` is a frozen copy of the dict form the value
classes built before they wrote their own text: the ``to_json`` method of
each class, ``value_to_json`` and ``json_or_raw``.  On drawn values of
every kind, nested ones and objects that are not values included,
``values.json_text`` must write what the generic encoder writes for that
dict form, and a value's text must parse back to the value.

One string parses back as another: two code points that form a
surrogate pair are written as ``\\ud800\\udc00``, as the encoder writes the
one astral character they stand for, so both read back as that character.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from dialectica.mqtt import (
    ConnAck,
    ConnectMsg,
    DisconnectMsg,
    Forward,
    PubMsg,
    SubAck,
    SubMsg,
    UnsubAck,
    UnsubMsg,
)
from dialectica.values import (
    AtomSet,
    BitVec,
    Nat,
    Pair,
    Tagged,
    json_or_raw,
    json_text,
    value_from_json,
    value_to_json,
)


def _frozen_value_to_json(v) -> dict:
    cls = v.__class__
    if cls is Nat:
        return {"nat": str(v.n)}
    if cls is BitVec:
        return {"bv": {"w": v.width, "n": v.bits}}
    if cls is Pair:
        return {"pair": [_frozen_value_to_json(v.first),
                         _frozen_value_to_json(v.second)]}
    if cls is AtomSet:
        return {"set": list(v.members)}
    if cls is Tagged:
        return {"tag": {"i": v.branch, "v": _frozen_value_to_json(v.inner)}}
    raise TypeError(f"not a Value: {v!r}")


def frozen_parent_to_json(v) -> object:
    try:
        return _frozen_value_to_json(v)
    except TypeError:
        return {"raw": repr(v)}


def generic_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Quotes, backslashes, control characters, DEL, non-ASCII, an astral
# character and a lone surrogate, which the encoder escapes.
HARD = ['"', "\\", "a\"b\\c", "\n", "\t\r", "\x00", "\x1f", "\x7f", "é",
        "☃", "\U0001d11e", "\ud800", ""]
plain_texts = st.one_of(st.sampled_from(HARD), st.text())
# Surrogate code points only, so adjacent ones may form pairs.
texts = st.one_of(plain_texts, st.text(st.characters(min_codepoint=0xd800,
                                                     max_codepoint=0xdfff)))

mqtt_messages = st.one_of(
    st.builds(ConnectMsg, texts), st.builds(ConnAck),
    st.builds(SubMsg, texts), st.builds(SubAck),
    st.builds(UnsubMsg, texts), st.builds(UnsubAck),
    st.builds(PubMsg, texts, texts), st.builds(Forward, texts, texts),
    st.builds(DisconnectMsg))


def value_leaves(atoms):
    return st.one_of(
        st.builds(Nat, st.integers(0, 2**200)),
        # Over-width bits are wire garbage, which the text must carry too.
        st.builds(BitVec, st.integers(1, 300), st.integers(0, 2**400)),
        st.builds(AtomSet, st.lists(atoms, max_size=5).map(tuple)),
    )


def nested(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(Pair, inner, inner),
        st.builds(Tagged, st.integers(1, 2**70), inner)), max_leaves=8)


# Anything the runtime may log as a wire: a value, a protocol message, or
# a pair that holds a message, which is shown raw as a whole.
wires = st.one_of(nested(value_leaves(texts)), mqtt_messages,
                  nested(st.one_of(value_leaves(texts), mqtt_messages)))


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(wire=wires)
    def test_text_is_the_generic_encoding(self, wire):
        parent = frozen_parent_to_json(wire)
        assert json_text(wire) == generic_text(parent)
        assert json_or_raw(wire) == json.loads(generic_text(parent))

    def test_a_surrogate_pair_reads_back_as_its_character(self):
        wire = AtomSet(("\ud800\udc00",))
        assert json_text(wire) == '{"set":["\\ud800\\udc00"]}'
        assert json_or_raw(wire) == {"set": ["\U00010000"]}

    @settings(max_examples=400, deadline=None)
    @given(v=nested(value_leaves(plain_texts)))
    def test_value_text_round_trips(self, v):
        text = json_text(v)
        assert value_from_json(json.loads(text)) == v
        assert value_to_json(v) == _frozen_value_to_json(v)

    @given(msg=mqtt_messages)
    def test_messages_are_raw(self, msg):
        assert json.loads(json_text(msg)) == {"raw": repr(msg)}
        with pytest.raises(TypeError, match="not a Value"):
            value_to_json(msg)

    def test_examples(self):
        assert json_text(Pair(BitVec(8, 3), BitVec(8, 300))) == \
            '{"pair":[{"bv":{"n":3,"w":8}},{"bv":{"n":300,"w":8}}]}'
        assert json_text(Tagged(2, AtomSet(("b", 'a"')))) == \
            '{"tag":{"i":2,"v":{"set":["a\\"","b"]}}}'
        assert json_text(Nat(7)) == '{"nat":"7"}'
        assert json_text(Pair(Nat(1), PubMsg("t", "é"))) == \
            '{"raw":"Pair(first=Nat(n=1), second=PubMsg(topic=\'t\', ' \
            'value=\'\\u00e9\'))"}'
