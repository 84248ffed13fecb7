"""dialectica benchmark: four workloads driven through ``dialectica.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload honest_scale --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --pin        # re-pin output digests (parent commit only)

One process, no threads.  A run makes its inputs from ``--seed``: the seed
selects one of ``VARIANTS`` input variants, each with pinned SHA-256 digests
of every op's outputs.  An op is one CLI invocation; it fails on an
exception, an unexpected exit code or a digest mismatch.  After one
warm-up pass the run repeats the workload's ops for ``--seconds`` and
reports medians over passes, scaled to nominal host speed pass by pass
(``HostSpeed`` in ``probes.py``).  With ``--trace 1`` every other pass is
traced (see ``probes.py``) and the run reports the per-layer metrics
instead.

The last line of standard output is one JSON object; the lines before it
print every metric with its unit and sample count.  Why each workload
exists, and which layers it should and should not move, is in NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
PINS_PATH = os.path.join(HERE, "pins.json")

sys.path.insert(0, HERE)
from probes import (HostSpeed, Patches, PhaseClock, SpanRecorder,  # noqa: E402
                    kernel_data)
from scale import scale_scenario, scenario_bytes  # noqa: E402

VARIANTS = 16
BLOCK_LINES = 512
MIN_PASSES = 3

WORKLOADS = ("honest_scale", "attacker_scale", "bundled_scenarios", "lingo_lab")
SIMULATED = ("honest_scale", "attacker_scale", "bundled_scenarios")
# The end-to-end metrics BENCHMARK.json bounds; every workload has them.
GATED = ("wall_s", "setup_s", "run_s", "output_s", "peak_rss_mb")

BUNDLED = ("mqtt_adversarial", "mqtt_aperiodic", "mqtt_bare",
           "mqtt_functional", "mqtt_horizontal", "mqtt_horizontal_dc",
           "mqtt_sharp_attack", "mqtt_xor", "mqtt_xor_bitvec")

_X8 = {"kind": "xor_bitvec", "width": 8}
_SHARP8 = {"sharp": _X8}
_DC = {"kind": "divide_check"}
_ZERO_PAIR = {"pair": [{"nat": "0"}, {"nat": "0"}]}
LAW_SPECS = (
    ("xor_nat", {"kind": "xor_nat"}),
    ("xor_bitvec128", {"kind": "xor_bitvec", "width": 128}),
    ("xor_set", {"kind": "xor_set", "universe": [f"a{i}" for i in range(8)]}),
    ("divide_check", _DC),
    ("split_bitvec", {"kind": "split_bitvec", "half_width": 64}),
    ("sharp", _SHARP8),
    ("auth", {"auth": {"base": {"kind": "xor_bitvec", "width": 16},
                       "oids": ["a", "b"], "m": 16, "j": 16, "k": 16,
                       "seed": 4}}),
    ("horizontal", {"horizontal": {
        "branches": [_DC, {"kind": "reverse_divide_check"}],
        "defaults": [_ZERO_PAIR, _ZERO_PAIR], "bias": [1, 1]}}),
    ("functional", {"functional": [{"kind": "xor_nat"}, _DC]}),
    ("product", {"product": [_X8, {"kind": "xor_nat"}]}),
    ("tupling", {"tupling": [_X8, _X8]}),
)
LAW_SAMPLES = 1000
EXPERIMENTS = (
    ("spoof", "xor_recipe", _X8, "reuse:2"),
    ("spoof", "xor_sharp_recipe", _SHARP8, None),
    ("spoof", "random_wire", _SHARP8, None),
    ("spoof", "dc_zero_remainder", _DC, None),
    ("match", "dc_zero_remainder", _DC, None),
)
TRIALS = 5000


class BenchError(Exception):
    """The benchmark cannot run here (no program, no pins)."""


@dataclass
class Op:
    name: str
    argv: list
    out: str
    trace: Optional[str] = None
    kind: str = "simulate"        # simulate | laws | trials
    trials: int = 0
    stdout: bool = False          # output goes to standard output, not --out


@dataclass
class PassResult:
    traced: bool
    attempted: int = 0
    failed: int = 0
    setup: float = 0.0
    run: float = 0.0
    output: float = 0.0
    law_s: float = 0.0
    trial_s: float = 0.0
    trials: int = 0
    steps: int = 0
    main_s: float = 0.0         # time in cli.main; net of the tracer if traced
    speed: float = 1.0          # host speed factor; untraced passes only
    kernel_ns: dict = field(default_factory=dict)  # HostSpeed kernel medians
    step_ns: array = field(default_factory=lambda: array("q"))
    counts: dict = field(default_factory=dict)    # op name -> report counters
    recorder: Optional[SpanRecorder] = None
    layers: dict = field(default_factory=dict)   # per-layer values, traced

    @property
    def wall(self) -> float:
        return self.setup + self.run + self.output

    def scaled(self, seconds: float) -> float:
        """A time of this pass at nominal host speed (see HostSpeed)."""
        return seconds * self.speed


# ---------------------------------------------------------------------------
# Program and inputs
# ---------------------------------------------------------------------------

def load_program():
    """Import the package from this checkout's ``src/``, never from an
    installed copy."""
    init = os.path.join(SRC, "dialectica", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no program source at {init}")
    sys.path.insert(0, SRC)
    d = importlib.import_module("dialectica")
    if os.path.realpath(d.__file__) != os.path.realpath(init):
        raise BenchError(f"imported dialectica from {d.__file__}, not {init}")
    for name in ("attacker", "cli", "core", "mqtt", "rng", "runtime",
                 "scenario", "specs", "values"):
        importlib.import_module(f"dialectica.{name}")
    return d


def variant_seed(workload: str, variant: int) -> int:
    """Program seed (``--seed`` of every op) for one input variant."""
    return random.Random(f"{workload}:{variant}").getrandbits(32)


def build_ops(workload: str, variant: int, workdir: str) -> list[Op]:
    """The CLI invocations of one pass; scale scenarios are written here."""
    def out(name, ext="json"):
        return os.path.join(workdir, f"{name.replace(':', '_')}.{ext}")

    def simulate(name, scenario_path, seed):
        trace = out(name, "jsonl")
        return Op(name, ["simulate", scenario_path, "--seed", str(seed),
                         "--trace", trace, "--out", out(name)], out(name), trace)

    if workload in ("honest_scale", "attacker_scale"):
        attacker = workload == "attacker_scale"
        doc = scale_scenario(20 if attacker else 40, 10, 5, 128, attacker,
                             variant)
        path = out("scenario")
        with open(path, "wb") as fh:
            fh.write(scenario_bytes(doc))
        return [simulate("simulate", path, doc["seed"])]

    seed = variant_seed(workload, variant)
    if workload == "bundled_scenarios":
        scen_dir = os.path.join(SRC, "dialectica", "scenarios")
        return [simulate(f"simulate:{name}",
                         os.path.join(scen_dir, name + ".json"), seed)
                for name in BUNDLED]

    if workload == "lingo_lab":
        ops = []
        for name, spec in LAW_SPECS:
            op_name = f"check:{name}"
            ops.append(Op(op_name, ["lingo", "check", json.dumps(spec),
                                    "--samples", str(LAW_SAMPLES),
                                    "--seed", str(seed)],
                          out(op_name), kind="laws", stdout=True))
        for kind, strategy, spec, policy in EXPERIMENTS:
            op_name = f"{kind}:{strategy}"
            argv = ["experiment", kind, "--lingo", json.dumps(spec),
                    "--strategy", strategy, "--trials", str(TRIALS),
                    "--seed", str(seed)]
            if policy:
                argv += ["--policy", policy]
            ops.append(Op(op_name, argv, out(op_name), kind="trials",
                          trials=TRIALS, stdout=True))
        return ops
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _blocks(lines: list[bytes]) -> list[str]:
    return [_sha(b"".join(lines[i:i + BLOCK_LINES]))[:12]
            for i in range(0, len(lines), BLOCK_LINES)]


def digest_op(op: Op, rc) -> dict:
    """What gets pinned for one op: exit code, output digest and, for
    simulate, the trace digest with per-block digests that locate the
    first divergent line."""
    with open(op.out, "rb") as fh:
        got = {"exit": rc, "out": _sha(fh.read())}
    if op.trace:
        with open(op.trace, "rb") as fh:
            data = fh.read()
        lines = data.splitlines(keepends=True)
        got.update(trace=_sha(data), trace_lines=len(lines),
                   blocks=_blocks(lines))
    return got


def check_op(op: Op, rc, pin: Optional[dict]) -> list[str]:
    """Mismatches against the pinned digests, as printable lines."""
    if pin is None:
        return [f"{op.name}: no pinned digests"]
    errors = []
    if rc != pin["exit"]:
        errors.append(f"{op.name}: exit code {rc}, pinned {pin['exit']}")
    if not all(os.path.exists(p) for p in (op.out, op.trace) if p):
        return errors + [f"{op.name}: wrote no output"]
    got = digest_op(op, rc)
    if got["out"] != pin["out"]:
        with open(op.out, "r", encoding="utf-8", errors="replace") as fh:
            head = fh.read(400)
        errors.append(f"{op.name}: output digest {got['out'][:16]} != pinned "
                      f"{pin['out'][:16]}; output starts {head!r}")
    if op.trace and got["trace"] != pin["trace"]:
        errors.append(f"{op.name}: trace digest {got['trace'][:16]} != pinned "
                      f"{pin['trace'][:16]} ({got['trace_lines']} lines, "
                      f"pinned {pin['trace_lines']})")
        errors.append(_first_divergence(op.trace, got["blocks"], pin["blocks"]))
    return errors


def _first_divergence(trace_path: str, got: list[str], pinned: list[str]) -> str:
    for b, digest in enumerate(got):
        if b >= len(pinned) or digest != pinned[b]:
            break
    else:
        b = len(got)
    first = b * BLOCK_LINES + 1
    with open(trace_path, "r", encoding="utf-8", errors="replace") as fh:
        for n, line in enumerate(fh, start=1):
            if n == first:
                return (f"  first divergent trace line is in lines {first}.."
                        f"{first + BLOCK_LINES - 1}; line {first} reads "
                        f"{line.rstrip()[:300]}")
    return f"  trace ends before line {first}, where the pinned trace goes on"


def load_pins() -> dict:
    if not os.path.isfile(PINS_PATH):
        raise BenchError(f"no pinned digests at {PINS_PATH}")
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    if pins.get("variants") != VARIANTS or pins.get("block_lines") != BLOCK_LINES:
        raise BenchError("pins.json was written for another variant count "
                         "or block size")
    return pins["ops"]


def pin_key(workload: str, variant: int, op: Op) -> str:
    return f"{workload}/{variant}/{op.name}"


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def invoke(main, op: Op) -> tuple:
    """Call the CLI for one op: (exit code, start, end).  The standard
    output of an op marked ``stdout`` is kept in memory while it runs and
    written to ``op.out`` after ``end``."""
    sink = io.StringIO() if op.stdout else None
    with (contextlib.redirect_stdout(sink) if sink is not None
          else contextlib.nullcontext()):
        t_start = perf_counter()
        try:
            rc = main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        t_end = perf_counter()
    if sink is not None:
        with open(op.out, "w", encoding="utf-8") as fh:
            fh.write(sink.getvalue())
    return rc, t_start, t_end


def run_pass(d, workload: str, variant: int, ops: list[Op], pins: dict,
             traced: bool, kernels: Optional[dict] = None) -> PassResult:
    """One pass over ``ops``.  An untraced pass given ``kernels`` (from
    ``probes.kernel_data``) samples the host's speed and sets ``speed``;
    any other pass leaves it at 1."""
    res = PassResult(traced=traced)
    host = HostSpeed(kernels) if kernels is not None and not traced else None
    clock = PhaseClock(d, host)
    recorder = SpanRecorder() if traced else None
    res.recorder = recorder
    main = d.cli.main if recorder is None else recorder.span("cli.main",
                                                             d.cli.main)
    gc.collect()    # so the previous pass's garbage is not collected in this one
    for i, op in enumerate(ops):
        res.attempted += 1
        patches = Patches()
        clock.install(patches)
        if recorder is not None:
            recorder.op_id = i
            recorder.install(d, patches)
        if host is not None:
            host.sample()
        clock.begin_op()
        try:
            rc, t_start, t_end = invoke(main, op)
            setup, run, output = clock.end_op(t_end)
        except Exception:
            patches.restore()
            res.failed += 1
            print(f"{op.name}: raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        patches.restore()
        errors = check_op(op, rc, pins.get(pin_key(workload, variant, op)))
        if errors:
            res.failed += 1
            print("\n".join(errors), file=sys.stderr)
            continue
        res.setup += setup
        res.run += run
        res.output += output
        res.main_s += t_end - t_start - clock.paused
        if op.kind == "simulate":
            with open(op.out, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            res.steps += report["steps"]
            res.counts[op.name] = {k: report[k] for k in (
                "steps", "delivered", "rejected", "injected",
                "forgeries_accepted")}
        elif op.kind == "laws":
            res.law_s += run
        else:
            res.trial_s += run
            res.trials += op.trials
    res.step_ns = clock.step_ns
    if host is not None:
        res.speed = host.factor()
        res.kernel_ns = host.medians()
    if traced:
        res.main_s = recorder.stat("cli.main")[1] / 1e9
        res.layers = _layer_values(res)
    return res


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(sorted_values: list, q: float) -> float:
    # Nearest-rank percentile.
    idx = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return float(sorted_values[idx])


def end_to_end(workload: str, passes: list[PassResult],
               peak_rss_mb: float) -> dict:
    """name -> (value, unit, samples): the GATED metrics, then the ones
    that are printed only, some of them on some workloads only.
    Times are scaled to nominal host speed, pass by pass (see HostSpeed),
    except the ``_raw_s`` figures and the per-step percentiles."""
    n = len(passes)
    m = {
        "wall_s": (_median([p.scaled(p.wall) for p in passes]), "s", n),
        "setup_s": (_median([p.scaled(p.setup) for p in passes]), "s", n),
        "run_s": (_median([p.scaled(p.run) for p in passes]), "s", n),
        "output_s": (_median([p.scaled(p.output) for p in passes]), "s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "wall_raw_s": (_median([p.wall for p in passes]), "s", n),
        "run_raw_s": (_median([p.run for p in passes]), "s", n),
        "host_speed": (_median([p.speed for p in passes]), "ratio", n),
    }
    for kernel in passes[0].kernel_ns:
        m[f"host.{kernel}_ms"] = (
            _median([p.kernel_ns[kernel] for p in passes]) / 1e6, "ms", n)
    if workload in SIMULATED:
        samples = sorted(ns for p in passes for ns in p.step_ns)
        m["steps_per_s"] = (_median([p.steps / p.scaled(p.run)
                                     for p in passes]), "1/s", n)
        m["step_p50_us"] = (_percentile(samples, 0.5) / 1e3, "us", len(samples))
        m["step_p99_us"] = (_percentile(samples, 0.99) / 1e3, "us", len(samples))
    else:
        m["trials_per_s"] = (_median([p.trials / p.scaled(p.trial_s)
                                      for p in passes]), "1/s", n)
        m["law_suite_s"] = (_median([p.scaled(p.law_s) for p in passes]),
                            "s", n)
    return m


def _layer_values(p: PassResult) -> dict:
    r = p.recorder
    out = {}

    def span(name, metric=None, count=True):
        calls, _, self_ns = r.stat(name)
        metric = metric or name
        if count:
            out[f"{metric}.count"] = calls
        out[f"{metric}.self_s"] = self_ns / 1e9

    step_calls, step_ns, _ = r.stat("runtime.step")
    rules = ("rule_out", "rule_deliver", "rule_in", "rule_attacker")
    out["runtime.step.count"] = step_calls
    out["runtime.sched.self_s"] = (step_ns - sum(
        r.stat(f"runtime.{rule}")[1] for rule in rules)) / 1e9
    for rule in rules:
        span(f"runtime.{rule}")
    span("mqtt.actor_step")
    calls = r.stat("mqtt.actor_step")[0]
    out["mqtt.actor_step.useful_ratio"] = (
        r.counters.get("mqtt.actor_step.useful", 0) / calls if calls else 0.0)
    span("mqtt.codec")
    for name in ("core.lingo_f", "core.lingo_g", "core.lingo_param",
                 "core.is_compliant"):
        span(name)
    span("core.check_lingo_laws", count=False)
    out["values.space_contains.count"] = r.counters.get("values.space_contains", 0)
    out["rng.derive.count"] = r.counters.get("rng.derive", 0)
    out["attacker.observe.count"] = r.counters.get("attacker.observe", 0)
    span("attacker.reveal_sweep")
    out["attacker.reveal_sweep.records_scanned"] = r.counters.get(
        "attacker.reveal_sweep.records_scanned", 0)
    span("attacker.strategy_ready")
    calls = r.stat("attacker.strategy_ready")[0]
    out["attacker.strategy_ready.hit_ratio"] = (
        r.counters.get("attacker.strategy_ready.hits", 0) / calls
        if calls else 0.0)
    span("attacker.attempt_forgery", count=False)
    span("attacker.craft_forgery")
    span("specs.build_lingo", count=False)
    span("scenario.load_scenario", count=False)
    span("scenario.parse_scenario", count=False)
    span("scenario.build_configuration", count=False)
    span("runtime.build_report", count=False)
    span("cli.simulate", metric="cli.output", count=False)
    totals = {"delivered": 0, "rejected": 0, "injected": 0,
              "forgeries_accepted": 0}
    for counts in p.counts.values():
        for k in totals:
            totals[k] += counts[k]
    for k, v in totals.items():
        out[f"runtime.{k}"] = v
    return out


def per_layer(traced: list[PassResult], untraced: list[PassResult]) -> dict:
    """name -> (value, unit, samples): medians over traced passes."""
    rows = [p.layers for p in traced]
    m = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name.endswith("_s"):
            m[name] = (_median(values), "s", len(values))
        else:
            # Counts and ratios repeat exactly; layer_counts_repeat checks it.
            unit = "ratio" if name.endswith("_ratio") else "count"
            m[name] = (values[0], unit, len(values))
    m["trace.overhead_s"] = (_median([p.wall for p in traced])
                             - _median([p.wall for p in untraced]), "s",
                             len(traced))
    # Tracer cost that the span corrections miss: the error of the self times.
    m["trace.unaccounted_s"] = (_median([p.main_s for p in traced])
                                - _median([p.main_s for p in untraced]), "s",
                                len(traced))
    return m


def counts_repeat(passes: list[PassResult]) -> bool:
    """Simulated counts of every op repeat exactly across passes, traced
    or not."""
    return all(p.counts == passes[0].counts for p in passes)


def layer_counts_repeat(traced: list[PassResult]) -> bool:
    """Every per-layer count and ratio repeats exactly across traced passes."""
    rows = [{k: v for k, v in p.layers.items() if not k.endswith("_s")}
            for p in traced]
    return all(row == rows[0] for row in rows)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    d = load_program()
    pins = load_pins()
    variant = seed % VARIANTS
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)

    def one_pass(traced: bool, kernels: Optional[dict] = None) -> PassResult:
        # Fresh output files each pass: overwriting files whose pages are
        # still being written back doubles the time of small writes.
        passdir = tempfile.mkdtemp(dir=workdir)
        try:
            return run_pass(d, workload, variant,
                            build_ops(workload, variant, passdir), pins,
                            traced, kernels)
        finally:
            shutil.rmtree(passdir, ignore_errors=True)

    try:
        warm = one_pass(False)
        # Read before the timed passes: the harness keeps their step times,
        # and their number grows with the program's speed.  Read before the
        # host-speed kernels' data is built, too.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernels = kernel_data()
        passes: list[PassResult] = []
        deadline = perf_counter() + seconds
        while True:
            traced_pass = trace and len(passes) % 2 == 1
            if traced_pass and len(passes) > 2:
                passes[-2].recorder = None      # keep only the last spans
            passes.append(one_pass(traced_pass, kernels))
            if perf_counter() >= deadline and len(passes) >= (
                    2 * MIN_PASSES if trace else MIN_PASSES):
                break
        if trace:
            last = [p for p in passes if p.traced][-1]
            last.recorder.write(os.path.join(WORK_ROOT, f"spans_{workload}.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    clean = [p for p in passes if p.failed == 0]
    untraced = [p for p in clean if not p.traced]
    traced = [p for p in clean if p.traced]
    correct = (failed == 0 and counts_repeat([warm] + passes)
               and layer_counts_repeat(traced))
    header = (f"{workload} seed={seed} variant={variant} trace={int(trace)}: "
              f"{len(passes)} passes after 1 warm-up, {attempted} ops, "
              f"{failed} failed, ops_failed_frac={failed / attempted:.6g}")
    print(header)
    metrics = {}
    if untraced:
        e2e = end_to_end(workload, untraced, peak_rss_mb)
        _print_rows("end to end, tracing off", e2e)
        if not trace:
            metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]}
                       for k in GATED}
    if trace and traced and untraced:
        layers = per_layer(traced, untraced)
        _print_rows("per layer, traced passes", layers)
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layers.items()}
    if not metrics:
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_rows(title: str, rows: dict) -> None:
    print(f"  {title}:")
    for name, (value, unit, samples) in rows.items():
        print(f"    {name:42s} {value:>16.6g} {unit:6s} n={samples}")


def pin_all() -> None:
    """Run every workload's ops once per variant and write pins.json.  Run
    this only on a commit whose outputs are the reference."""
    d = load_program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    pinned = {}
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            workdir = tempfile.mkdtemp(prefix="pin-", dir=WORK_ROOT)
            try:
                for op in build_ops(workload, variant, workdir):
                    rc = invoke(d.cli.main, op)[0]
                    pinned[pin_key(workload, variant, op)] = digest_op(op, rc)
                    print(f"pinned {pin_key(workload, variant, op)} exit={rc}",
                          file=sys.stderr)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    lines = ",\n".join(f"{json.dumps(k)}:{json.dumps(v, sort_keys=True)}"
                       for k, v in sorted(pinned.items()))
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"variants":{VARIANTS},"block_lines":{BLOCK_LINES},'
                 f'"ops":{{\n{lines}\n}}}}\n')


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="write pins.json from the current program")
    args = ap.parse_args(argv)
    os.environ.pop("DIALECTICA_SEED", None)
    try:
        if args.pin:
            pin_all()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
