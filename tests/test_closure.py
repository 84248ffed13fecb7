"""Closure: transforms and compositions of lingos are again lingos.

Every tree of depth 2 over a fixed set of leaves, one of each kind of
declared domain (bounded and unbounded naturals, bit-vectors, atom-sets,
pairs, codebook indexes, an authenticated wire), either is refused when it
is built or passes every law of ``lingo check``.  A construction that
declares a wider space than it accepts shows up here as a tree that builds
and then fails a law or cannot be sampled.

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
TREES = [{"sharp": leaf} for leaf in LEAVES] + [
    {op: [a, b]} for op in ("functional", "product", "tupling")
    for a in LEAVES for b in LEAVES]


def test_every_tree_is_refused_or_passes_the_laws(capsys):
    assert len(TREES) == 374
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
    params = [lg for lg in DRAWN_LINGOS if not lg.param_space.opaque]
    payloads = [lg for lg in DRAWN_LINGOS if not lg.input_space.opaque]
    assert (len(DRAWN_LINGOS), len(params), len(payloads)) == (209, 174, 208)
    outside = []
    for lingo in params:
        for n in range(64):
            a = lingo.param(n, seed)
            if not lingo.param_space.contains(a):
                outside.append((lingo.name, "param", n, a))
    for lingo in payloads:
        rng = Rng(seed, SAMPLE_TAG)
        for i in range(64):
            d = lingo.input_space.sample(rng)
            if not lingo.input_space.contains(d):
                outside.append((lingo.name, "sample", i, d))
    assert outside == []
