"""Fuzz the command line: every scenario document and argument ends with a
documented exit code (0-4), never an exception.

Each case starts from a well-formed input (a bundled scenario, a spec from
``ALL_SPECS``) and replaces one value at a random path with arbitrary JSON,
so the mutation lands at every depth of the document.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ALL_SCENARIOS, ALL_SPECS, load_scenario_doc
from dialectica import cli

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


@FUZZ
@given(doc=mutants([load_scenario_doc(n) for n in ALL_SCENARIOS]))
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
def test_lingo_eval_on_arbitrary_values(capsys, spec, op, args):
    code = exit_code(["lingo", "eval", json.dumps(spec), op,
                     *(json.dumps(a) for a in args)])
    assert code in range(5)


@FUZZ
@given(spec=mutants(ALL_SPECS))
def test_lingo_check_on_mutated_specs(capsys, spec):
    code = exit_code(["lingo", "check", json.dumps(spec), "--samples", "20"])
    assert code in range(5)


@FUZZ
@given(spec=mutants(ALL_SPECS), kind=st.sampled_from(["spoof", "match"]))
def test_experiment_on_mutated_specs(capsys, spec, kind):
    code = exit_code(["experiment", kind, "--lingo", json.dumps(spec),
                     "--strategy", "random_wire", "--trials", "5"])
    assert code in range(5)
