"""Closure: transforms and compositions of lingos are again lingos.

Every tree of depth 2 over a fixed set of leaves, one of each kind of
declared domain (bounded and unbounded naturals, bit-vectors, atom-sets,
pairs, codebook indexes, an authenticated wire), either is refused when it
is built or passes every law of ``lingo check``.  A construction that
declares a wider space than it accepts shows up here as a tree that builds
and then fails a law or cannot be sampled.
"""

import json

from dialectica.cli import EXIT_OK, main
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
