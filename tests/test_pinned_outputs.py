"""Pinned output digests, checked inside the test suite.

The benchmark in ``perfbench/`` pins SHA-256 digests of the trace and the
report of every op it runs.  These tests run a few simulations and every
law-check and experiment op of one variant through the CLI and check them
against the pins, so a change to the simulator, the law harness or the
experiment loops that alters any output byte fails here, not only in a
benchmark run.  The
benchmark's own helpers are reused read-only.
"""

import os
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
    ("bundled_scenarios", "simulate:mqtt_adversarial"),
    ("bundled_scenarios", "simulate:mqtt_aperiodic"),
    ("bundled_scenarios", "simulate:mqtt_sharp_attack"),
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
