"""Fuzz the command line: every scenario document and argument ends with a
documented exit code (0-4), never an exception.

Each case starts from a well-formed input (a bundled scenario, a spec from
``ALL_SPECS``) and replaces one value at a random path with arbitrary JSON,
so the mutation lands at every depth of the document.  Every JSON object is
closed: a key its reader does not name, added at any depth, exits 2.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import ALL_SCENARIOS, ALL_SPECS, load_scenario_doc
from dialectica import cli, specs

# Keys the documents use, so generated objects sometimes look like the
# real thing one level down.
KEYS = ("kind", "width", "bitvec", "nat", "bv", "w", "n", "pair", "set", "tag",
        "i", "v", "aperiodic", "msg_bound", "lingos", "client", "broker", "oid",
        "cmds", "connect", "publish", "subscribe", "strategies", "targets",
        "advantage", "t_max", "s_max", "trace_path", "half_width", "universe")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(KEYS),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5) | st.sampled_from(KEYS),
                                     inner, max_size=3)),
    max_leaves=8)

# Well-formed value encodings with arbitrary JSON mixed in at any depth.
value_encodings = st.recursive(
    json_values
    | st.builds(lambda n: {"nat": str(n)}, st.integers())
    | st.builds(lambda w, n: {"bv": {"w": w, "n": n}}, st.integers(), st.integers()),
    lambda inner: (st.builds(lambda a, b: {"pair": [a, b]}, inner, inner)
                   | st.builds(lambda i, v: {"tag": {"i": i, "v": v}},
                               st.integers(), inner)
                   | st.builds(lambda m: {"set": m}, st.lists(inner, max_size=3))),
    max_leaves=6)

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


def paths(doc, prefix=()):
    """Every path into ``doc``, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from paths(v, prefix + (i,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutants(draw, docs):
    doc = draw(st.sampled_from(docs))
    path = draw(st.sampled_from(list(paths(doc))))
    return replaced(doc, path, draw(json_values))


def exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse usage errors, e.g. "-1e+16"
        return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


def _edited(name, path, value):
    return replaced(load_scenario_doc(name), path, value)


# Inputs the parsers once coerced instead of refusing (a string unpacked as
# [topic, value] or as a strategy list, floats and booleans truncated to
# integers, booleans and strings read as probabilities).
STRICT_SEEDS = [
    _edited("mqtt_xor.json", ("actors", 1, "client", "cmds", 1), {"publish": "ab"}),
    _edited("mqtt_xor.json", ("seed",), 1.9),
    _edited("mqtt_xor.json", ("seed",), True),
    _edited("mqtt_xor.json", ("max_steps",), 1.9),
    _edited("mqtt_xor.json", ("max_steps",), True),
    _edited("mqtt_aperiodic.json", ("policy", "aperiodic", "msg_bound"), 1.9),
    _edited("mqtt_aperiodic.json", ("policy", "aperiodic", "msg_bound"), True),
    *[_edited("mqtt_adversarial.json", ("attacker", "injection_rate"), rate)
      for rate in (True, "0.5", -3, 7)],
    *[_edited("mqtt_adversarial.json", ("attacker", "advantage"),
              {"t_max": [[1, p]]}) for p in (True, "0.5")],
    _edited("mqtt_adversarial.json", ("attacker", "strategies"), "random_wire"),
]


def _strict_seeded(test):
    for doc in STRICT_SEEDS:
        test = example(doc=doc)(test)
    return test


@FUZZ
@given(doc=mutants([load_scenario_doc(n) for n in ALL_SCENARIOS]))
@_strict_seeded
def test_simulate_on_mutated_scenarios(workdir, doc):
    path = os.path.join(workdir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code = exit_code(["simulate", path, "--max-steps", "50",
                     "--trace", os.path.join(workdir, "trace.jsonl"),
                     "--out", os.path.join(workdir, "report.json")])
    assert code in range(5)


@FUZZ
@given(spec=st.sampled_from(ALL_SPECS), op=st.sampled_from(["f", "g", "compliant"]),
       args=st.lists(value_encodings, min_size=1, max_size=3))
@example(spec=ALL_SPECS[0], op="f", args=[{"nat": 1.5}, {"nat": "5"}])
@example(spec=ALL_SPECS[0], op="f", args=[{"nat": True}, {"nat": "5"}])
@example(spec=ALL_SPECS[0], op="f", args=[{"bv": {"w": 8.0, "n": 3}},
                                          {"bv": {"w": 4, "n": 1}}])
@example(spec={"kind": "divide_check"}, op="g", args=[{"pair": "12"}, 3])
@example(spec={"kind": "divide_check"}, op="g", args=[{"pair": [1, 2, 3]}, 3])
@example(spec={"adapt_pre": {"adaptor": {"kind": "mqtt_codec"},
                             "lingo": {"kind": "xor_nat"}}},
         op="f", args=[{"nat": "0"}, {"nat": "0"}])
def test_lingo_eval_on_arbitrary_values(capsys, spec, op, args):
    code = exit_code(["lingo", "eval", json.dumps(spec), op,
                     *(json.dumps(a) for a in args)])
    assert code in range(5)


@FUZZ
@given(spec=mutants(ALL_SPECS))
@example(spec={"sharp": {"kind": "xor_bitvec", "width": 14285}})
def test_lingo_check_on_mutated_specs(capsys, spec):
    code = exit_code(["lingo", "check", json.dumps(spec), "--samples", "20"])
    assert code in range(5)


@FUZZ
@given(spec=mutants(ALL_SPECS), kind=st.sampled_from(["spoof", "match"]))
def test_experiment_on_mutated_specs(capsys, spec, kind):
    code = exit_code(["experiment", kind, "--lingo", json.dumps(spec),
                     "--strategy", "random_wire", "--trials", "5"])
    assert code in range(5)


# Every integer field the spec language has, a ``{"bitvec": w}`` space
# width included; each is set to each bad value in turn, one at a time.
INT_FIELDS = ("width", "half_width", "param_ceiling", "count", "seed", "bias",
              "m", "j", "k", "bitvec")
BAD_INTS = (0, -1, -3)
# ALL_SPECS with the optional integer fields spelled out.
SWEEP_SPECS = ALL_SPECS + [
    {"kind": "divide_check", "param_ceiling": 16},
    {"kind": "reverse_divide_check", "param_ceiling": 16},
    {"horizontal": {"branches": [{"kind": "xor_nat"}, {"kind": "xor_nat"}],
                    "defaults": [{"nat": "0"}, {"nat": "0"}], "bias": [1, 1],
                    "seed": 5}},
    {"adapt_pre": {"adaptor": {"kind": "sparse", "width": 8, "count": 8,
                               "seed": 2},
                   "lingo": {"kind": "xor_bitvec", "width": 8}}},
    {"adapt_pre": {"adaptor": {"kind": "mqtt_codec", "width": 64},
                   "lingo": {"kind": "xor_bitvec", "width": 64}}},
    # a base narrower than ``m``, so ``m`` is swept apart from its width
    {"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": ["a", "b"],
              "m": 16, "j": 16, "k": 16, "seed": 1}},
]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _int_paths(spec):
    """(path, field name) of every integer in ``spec``; each item of a list
    field (``bias``) is one."""
    for path in paths(spec):
        names = [key for key in path if isinstance(key, str)]
        if names and type(_at(spec, path)) is int:
            yield path, names[-1]


INT_FIELD_CASES = [
    pytest.param(replaced(spec, path, bad),
                 id=f"spec{i}.{'.'.join(map(str, path))}={bad}")
    for i, spec in enumerate(SWEEP_SPECS) for path, _ in _int_paths(spec)
    for bad in BAD_INTS]


def test_int_field_sweep_covers_every_field():
    assert {name for spec in SWEEP_SPECS
            for _, name in _int_paths(spec)} == set(INT_FIELDS)


@pytest.mark.parametrize("spec", INT_FIELD_CASES)
def test_bad_integer_fields_end_with_an_exit_code(capsys, spec):
    text = json.dumps(spec)
    assert cli.main(["lingo", "check", text, "--samples", "20"]) in range(5)
    assert cli.main(["experiment", "spoof", "--lingo", text, "--strategy",
                     "random_wire", "--trials", "5"]) in range(5)


# ---------------------------------------------------------------------------
# Closed objects: one key no reader names, added to one object, exits 2.
# ---------------------------------------------------------------------------

_X4 = {"kind": "xor_bitvec", "width": 4}
_BV0 = {"bv": {"w": 4, "n": 0}}
_H4 = {"horizontal": {"branches": [_X4, _X4], "defaults": [_BV0, _BV0],
                      "bias": [1, 1]}}
# The bundled scenarios, and one that spells out every optional object and
# field they leave out.
CLOSED_SCENARIOS = [load_scenario_doc(n) for n in ALL_SCENARIOS] + [{
    **load_scenario_doc("mqtt_adversarial.json"),
    "attacker": {"strategies": ["replay", "random_wire"],
                 "max_injections": 20, "injection_rate": 0.5,
                 "advantage": {"t_max": [[50, 0.01]], "w_max": [[4, 0.1]],
                               "s_max": [[2, 0.2]]},
                 "targets": [["c1", "b"], ["b", "c2"]]},
    "outputs": {"trace_path": None, "report_path": None}}]
# Every spec of the integer sweep, and one whose horizontal defaults are
# bit-vector and tagged value encodings.
CLOSED_SPECS = SWEEP_SPECS + [
    {"horizontal": {"branches": [_H4, _H4],
                    "defaults": [{"tag": {"i": 1, "v": _BV0}}] * 2,
                    "bias": [1, 1]}},
]

# The objects with named fields, each by the reader that takes it: a
# ``kind`` node by its kind, any other by the key it hangs from.
OPERATORS = ("horizontal", "adapt_pre", "adapt_post", "auth")
BODY_KINDS = ("payload", "policy", "aperiodic", "client", "broker",
              "attacker", "advantage", "outputs", *OPERATORS, "bv", "tag")
ADAPTOR_KINDS = ("identity", "nat_bitvec", "bitvec_nat", "sparse",
                 "mqtt_codec")
OBJECT_KINDS = {"scenario", *BODY_KINDS,
                *(f"lingo:{k}" for k in specs._LEAF_BUILDERS),
                *(f"adaptor:{k}" for k in ADAPTOR_KINDS)}
UNKNOWN = "zz_unknown"


def object_kind(path, obj):
    """The reader of the object ``obj`` at ``path``, or None for a one-key
    node (an actor, command, operator, value or space encoding), which
    refuses a second key as such."""
    if "kind" in obj:
        return f"{'adaptor' if path[-1:] == ('adaptor',) else 'lingo'}:" \
            f"{obj['kind']}"
    if not path:
        return "scenario" if "actors" in obj else None
    return path[-1] if path[-1] in BODY_KINDS else None


def json_path(root, path):
    return root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                          for k in path)


def object_paths(doc):
    return [path for path in paths(doc) if isinstance(_at(doc, path), dict)]


def with_key(doc, path, key):
    doc = json.loads(json.dumps(doc))
    _at(doc, path)[key] = 1
    return doc


def closed_exit(doc, workdir, scenario: bool) -> int:
    if not scenario:
        return exit_code(["lingo", "check", json.dumps(doc), "--samples", "5"])
    path = os.path.join(workdir, "closed.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return exit_code(["simulate", path, "--max-steps", "1",
                      "--out", os.devnull])


CLOSED_CASES = [
    pytest.param(doc, path, scenario,
                 id=f"{'scenario' if scenario else 'spec'}{i}:"
                    f"{json_path('', path) or '/'}")
    for scenario, docs in ((True, CLOSED_SCENARIOS), (False, CLOSED_SPECS))
    for i, doc in enumerate(docs) for path in object_paths(doc)]


def test_closed_object_sweep_covers_every_kind():
    assert set(specs._KIND_FIELDS) == {*specs._LEAF_BUILDERS, *ADAPTOR_KINDS}
    assert set(specs._OPERATOR_FIELDS) == set(OPERATORS)
    assert {object_kind(path, _at(doc, path))
            for doc, path, _ in (case.values for case in CLOSED_CASES)
            } - {None} == OBJECT_KINDS


@pytest.mark.parametrize("doc, scenario", [
    pytest.param(doc, scenario, id=f"{'scenario' if scenario else 'spec'}{i}")
    for scenario, docs in ((True, CLOSED_SCENARIOS), (False, CLOSED_SPECS))
    for i, doc in enumerate(docs)])
def test_closed_sweep_documents_are_accepted(capsys, workdir, doc, scenario):
    # Not every lingo can be law-checked, so a spec is only built.
    if scenario:
        assert closed_exit(doc, workdir, scenario) in (0, 4)
    else:
        specs.build_lingo(doc)


@pytest.mark.parametrize("doc, path, scenario", CLOSED_CASES)
def test_unknown_key_exits_2(capsys, workdir, doc, path, scenario):
    assert closed_exit(with_key(doc, path, UNKNOWN), workdir, scenario) == 2
    err = capsys.readouterr().err
    if object_kind(path, _at(doc, path)) is None:
        assert repr(UNKNOWN) in err
    else:
        root = "scenario" if scenario else "lingo"
        assert f"unknown key {UNKNOWN!r} in {json_path(root, path)}" in err


# Every field name an object may have, so a drawn key is one none takes.
ACCEPTED = {key for docs in (CLOSED_SCENARIOS, CLOSED_SPECS) for doc in docs
            for path in object_paths(doc) for key in _at(doc, path)}


@st.composite
def unknown_key_mutants(draw, docs):
    doc = draw(st.sampled_from(docs))
    path = draw(st.sampled_from(object_paths(doc)))
    near = st.sampled_from(sorted(ACCEPTED)).flatmap(
        lambda k: st.integers(0, len(k)).map(lambda i: k[:i] + k[i + 1:]))
    key = draw((st.text(max_size=6) | near).filter(
        lambda k: k not in ACCEPTED))
    return with_key(doc, path, key), key


@FUZZ
@given(case=unknown_key_mutants([load_scenario_doc(n) for n in ALL_SCENARIOS]))
def test_simulate_refuses_an_unknown_key(capsys, workdir, case):
    doc, key = case
    assert closed_exit(doc, workdir, scenario=True) == 2
    assert repr(key) in capsys.readouterr().err


@FUZZ
@given(case=unknown_key_mutants(ALL_SPECS))
def test_lingo_check_refuses_an_unknown_key(capsys, workdir, case):
    spec, key = case
    assert closed_exit(spec, workdir, scenario=False) == 2
    assert repr(key) in capsys.readouterr().err
