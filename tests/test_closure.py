"""Closure: transforms and compositions of lingos are again lingos.

Every tree of depth 2 over a fixed set of leaves, one of each kind of
declared domain (bounded and unbounded naturals, bit-vectors, atom-sets,
pairs, codebook indexes, an authenticated wire), and the MQTT codec's
protocol messages at three widths, either is refused when it is built or
passes every law of ``lingo check``.  A construction that declares a wider
space than it accepts shows up here as a tree that builds and then fails a
law or cannot be sampled.

The law harness, the experiments and the runtime hand a lingo's own draws
(``input_space.sample`` and ``lingo.param``) to ``f`` and ``is_compliant``
unchecked, so every lingo here and in ``ALL_SPECS`` must draw inside its
declared spaces.
"""

import json

import pytest

from conftest import ALL_SPECS
from dialectica.cli import EXIT_OK, main
from dialectica.rng import SAMPLE_TAG, Rng
from dialectica.specs import SpecError, build_lingo

_X4 = {"kind": "xor_bitvec", "width": 4}
LEAVES = [
    _X4,
    {"kind": "xor_nat"},
    {"kind": "xor_set", "universe": ["a", "b"]},
    {"kind": "divide_check"},
    {"kind": "reverse_divide_check"},
    {"kind": "identity", "space": {"bitvec": 4}},
    {"kind": "split_bitvec", "half_width": 2},
    {"adapt_pre": {"adaptor": {"kind": "nat_bitvec", "width": 4}, "lingo": _X4}},
    {"adapt_pre": {"adaptor": {"kind": "sparse", "width": 8, "count": 8},
                   "lingo": {"kind": "xor_bitvec", "width": 8}}},
    {"adapt_post": {"lingo": _X4, "adaptor": {"kind": "bitvec_nat", "width": 4}}},
    {"auth": {"base": _X4, "oids": ["a", "b"], "m": 4, "j": 8, "k": 16,
              "seed": 3}},
]


def _codec(lingo, **width):
    """``lingo`` behind the MQTT codec, at ``width`` bits if it is given."""
    return {"adapt_pre": {"adaptor": {"kind": "mqtt_codec", **width},
                          "lingo": lingo}}


_CODEC512 = _codec({"kind": "xor_bitvec", "width": 512}, width=512)
TREES = [{"sharp": leaf} for leaf in LEAVES] + [
    {op: [a, b]} for op in ("functional", "product", "tupling")
    for a in LEAVES for b in LEAVES] + [
    # The MQTT codec over the naturals and at two widths, one of which
    # admits only the messages without fields.
    _codec({"kind": "xor_nat"}),
    _codec({"kind": "xor_bitvec", "width": 8}, width=8),
    _CODEC512, {"sharp": _CODEC512}]


def test_every_tree_is_refused_or_passes_the_laws(capsys):
    assert len(TREES) == 378
    failed = []
    for tree in TREES:
        try:
            build_lingo(tree)
        except SpecError:
            continue
        code = main(["lingo", "check", json.dumps(tree), "--samples", "100",
                     "--seed", "1"])
        err = capsys.readouterr().err
        if code != EXIT_OK:
            failed.append((tree, code, err))
    assert failed == []


def _buildable(specs):
    out = []
    for spec in specs:
        try:
            out.append(build_lingo(spec))
        except SpecError:
            continue
    return out


DRAWN_LINGOS = _buildable(ALL_SPECS + TREES)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_lingo_draws_inside_its_spaces(seed):
    # Every space is drawable: auth's parameters and those over them, and
    # the codec's protocol messages.
    assert len(DRAWN_LINGOS) == 213
    assert sum("auth(" in lg.name for lg in DRAWN_LINGOS) == 35
    outside = []
    for lingo in DRAWN_LINGOS:
        for n in range(64):
            a = lingo.param(n, seed)
            if not lingo.param_space.contains(a):
                outside.append((lingo.name, "param", n, a))
    for lingo in DRAWN_LINGOS:
        rng = Rng(seed, SAMPLE_TAG)
        for i in range(64):
            d = lingo.input_space.sample(rng)
            if not lingo.input_space.contains(d):
                outside.append((lingo.name, "sample", i, d))
    assert outside == []


def test_every_output_space_is_small_or_drawable():
    """``lingo check`` searches the output space for a witness once the law
    suite has run; a CannotDraw there would exit 2, as one from the law
    suite does.  No lingo here has an output space it cannot search."""
    rng = Rng(0, SAMPLE_TAG)
    for lingo in DRAWN_LINGOS:
        if lingo.output_space.enumerate(4096) is None:
            lingo.output_space.sample(rng)
