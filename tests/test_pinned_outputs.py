"""Pinned output digests, checked inside the test suite.

The benchmark in ``perfbench/`` pins SHA-256 digests of the trace and the
report of every op it runs.  These tests run both scale simulations, every
bundled scenario and every law-check and experiment op of one variant
through the CLI and check them against the pins, so a change to the simulator, the law harness or the
experiment loops that alters any output byte fails here, not only in a
benchmark run.  A few simulations also run in fresh interpreters under
other string-hash seeds: outputs must not depend on set or dict iteration
order of hashed keys.  The benchmark's own helpers are reused read-only.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import run as bench  # noqa: E402
from dialectica.cli import main  # noqa: E402

CASES = [
    ("honest_scale", "simulate"),
    ("attacker_scale", "simulate"),
    *[("bundled_scenarios", f"simulate:{name}") for name in bench.BUNDLED],
    *[("lingo_lab", f"check:{name}") for name, _ in bench.LAW_SPECS],
    *[("lingo_lab", f"{kind}:{strategy}")
      for kind, strategy, _, _ in bench.EXPERIMENTS],
]


@pytest.fixture(scope="module")
def pins():
    return bench.load_pins()


@pytest.mark.parametrize("workload, op_name", CASES)
def test_output_matches_pinned_digests(pins, tmp_path, workload, op_name):
    [op] = [op for op in bench.build_ops(workload, 0, str(tmp_path))
            if op.name == op_name]
    rc, _, _ = bench.invoke(main, op)
    assert bench.check_op(op, rc, pins.get(bench.pin_key(workload, 0, op))) == []


HASH_SEED_CASES = [
    ("honest_scale", "simulate"),
    ("attacker_scale", "simulate"),
    ("bundled_scenarios", "simulate:mqtt_aperiodic"),
    # Raw wires (protocol messages) and tagged wires, each written as text.
    ("bundled_scenarios", "simulate:mqtt_bare"),
    ("bundled_scenarios", "simulate:mqtt_horizontal"),
    ("bundled_scenarios", "simulate:mqtt_sharp_attack"),
    ("lingo_lab", "check:xor_set"),
    ("lingo_lab", "check:sharp"),
    ("lingo_lab", "spoof:xor_sharp_recipe"),
    ("lingo_lab", "match:dc_zero_remainder"),
]

# Runs the cases in a fresh interpreter; prints {case: mismatches}.
_HASH_SEED_SCRIPT = """
import json, os, sys
import run as bench
from dialectica.cli import main
pins = bench.load_pins()
problems = {}
for i, (workload, op_name) in enumerate(json.loads(sys.argv[2])):
    workdir = os.path.join(sys.argv[1], str(i))
    os.mkdir(workdir)
    [op] = [op for op in bench.build_ops(workload, 0, workdir)
            if op.name == op_name]
    rc, _, _ = bench.invoke(main, op)
    problems[workload + "/" + op_name] = bench.check_op(
        op, rc, pins.get(bench.pin_key(workload, 0, op)))
print(json.dumps(problems))
"""


@pytest.mark.parametrize("hash_seed", ["0", "424242"])
def test_outputs_hold_under_other_hash_seeds(tmp_path, hash_seed):
    src = os.path.join(PERFBENCH, "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([PERFBENCH, src])
    done = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT, str(tmp_path),
         json.dumps(HASH_SEED_CASES)],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    problems = json.loads(done.stdout.splitlines()[-1])
    assert sorted(problems) == sorted(f"{w}/{o}" for w, o in HASH_SEED_CASES)
    assert all(v == [] for v in problems.values()), problems
