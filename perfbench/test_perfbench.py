"""Self-checks of the benchmark itself: ``python3 -m pytest -q perfbench``.

They check the benchmark's own machinery (generator, digest gate, probes),
not the program; the program's tests live in ``tests/``.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from probes import SpanRecorder  # noqa: E402
from scale import scale_scenario, scenario_bytes  # noqa: E402

SMALL = ("mqtt_adversarial", "mqtt_xor", "mqtt_aperiodic")


@pytest.fixture(scope="module")
def program():
    return bench.load_program()


@pytest.fixture(scope="module")
def pins():
    return bench.load_pins()


@pytest.fixture
def small_ops(tmp_path):
    """Three bundled scenarios of one variant, one of them with an attacker."""
    ops = bench.build_ops("bundled_scenarios", 5, str(tmp_path))
    return [op for op in ops if op.name.split(":")[1] in SMALL]


def test_generator_is_byte_deterministic():
    args = (20, 10, 5, 128, True, 7)
    first = scenario_bytes(scale_scenario(*args))
    assert scenario_bytes(scale_scenario(*args)) == first
    # Another interpreter with another hash seed writes the same bytes.
    code = ("import sys; sys.path.insert(0, %r); from scale import *; "
            "sys.stdout.buffer.write(scenario_bytes(scale_scenario%r))"
            % (HERE, args))
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60).stdout
    assert other == first
    other_seed = scale_scenario(20, 10, 5, 128, True, 8)
    assert other_seed["seed"] == scale_scenario(*args)["seed"]
    assert other_seed["actors"] != scale_scenario(*args)["actors"]


def test_every_variant_has_pins(pins, tmp_path):
    for workload in bench.WORKLOADS:
        for variant in range(bench.VARIANTS):
            for op in bench.build_ops(workload, variant, str(tmp_path)):
                pin = pins[bench.pin_key(workload, variant, op)]
                assert pin["exit"] == 0


def test_corrupted_digest_counts_as_failed_op(program, pins, small_ops, capsys):
    clean = bench.run_pass(program, "bundled_scenarios", 5, small_ops, pins,
                           traced=False)
    assert (clean.attempted, clean.failed) == (len(small_ops), 0)

    bad = copy.deepcopy(pins)
    key = bench.pin_key("bundled_scenarios", 5, small_ops[0])
    bad[key]["trace"] = "0" * 64
    bad[key]["blocks"][0] = "0" * 12
    bad[bench.pin_key("bundled_scenarios", 5, small_ops[1])]["out"] = "0" * 64
    res = bench.run_pass(program, "bundled_scenarios", 5, small_ops, bad,
                         traced=False)
    assert (res.attempted, res.failed) == (len(small_ops), 2)
    err = capsys.readouterr().err
    assert "first divergent trace line is in lines 1..512" in err
    assert "output digest" in err


def test_counts_repeat_between_traced_and_untraced(program, pins, small_ops):
    plain = bench.run_pass(program, "bundled_scenarios", 5, small_ops, pins,
                           traced=False)
    traced = bench.run_pass(program, "bundled_scenarios", 5, small_ops, pins,
                            traced=True)
    assert plain.failed == traced.failed == 0
    assert plain.counts == traced.counts
    assert bench.counts_repeat([plain, traced])
    layers = traced.layers
    assert layers["runtime.step.count"] > 0
    assert layers["runtime.rule_attacker.count"] > 0
    assert layers["runtime.injected"] == sum(
        c["injected"] for c in plain.counts.values())


def test_wrapper_cost_is_kept_out_of_the_parent():
    def noop(x):
        return x

    r = SpanRecorder()
    child = r.span("child", noop)
    counted = r.counter("counted", noop)

    def loop():
        for i in range(20000):
            child(i)
            counted(i)
    r.span("parent", loop)()
    # Raw self time: the parent's duration minus its children's durations,
    # so every wrapper's cost stays in it.
    raw_self = (r.end[0] - r.start[0]) - sum(
        r.end[i] - r.start[i] for i in range(1, len(r.start)))
    _, parent_net, parent_self = r.stat("parent")
    _, child_net, _ = r.stat("child")
    assert parent_self < 0.5 * raw_self
    assert parent_net == pytest.approx(parent_self + child_net, abs=1000)


def test_host_samples_are_left_out_of_the_run_phase(program, pins, small_ops,
                                                    monkeypatch):
    import probes
    import time

    # A 2 ms kernel sampled before every step: were the samples timed as
    # part of the run, the run would take at least steps x 2 ms.
    monkeypatch.setattr(probes.HostSpeed, "KERNELS",
                        {"compute": lambda data: time.sleep(0.002)})
    monkeypatch.setattr(probes.HostSpeed, "INTERVAL_NS", 0)
    res = bench.run_pass(program, "bundled_scenarios", 5, small_ops, pins,
                         traced=False, kernels={})
    assert res.failed == 0
    assert res.run < 0.25 * res.steps * 0.002
    assert len(res.step_ns) == res.steps
    assert 0 < res.speed < 1


def test_probes_restore_the_program(program, pins, small_ops):
    cli, runtime = program.cli, program.runtime
    before = (cli.run, cli.build_lingo, runtime.step, runtime.rule_in,
              program.rng.derive, program.core.space_contains)
    bench.run_pass(program, "bundled_scenarios", 5, small_ops, pins, traced=True)
    after = (cli.run, cli.build_lingo, runtime.step, runtime.rule_in,
             program.rng.derive, program.core.space_contains)
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lingo_lab",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
