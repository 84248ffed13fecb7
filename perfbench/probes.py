"""Timers the benchmark installs around the program, from outside.

Every probe replaces a module attribute at the name its caller looks up
(``dialectica.runtime.rule_out`` for ``step``, ``dialectica.cli.run`` for
``cmd_simulate``) and puts the original back on ``restore``.  Nothing under
``src/`` is edited.

* ``PhaseClock`` is installed on every pass.  It marks the set-up, run and
  output phases of one CLI invocation at five ``dialectica.cli`` names and
  times each ``runtime.step`` call.  The step timer costs two
  ``perf_counter_ns`` calls, a comparison and an array append, about
  0.5 us, against 25 us or more per step.
* ``HostSpeed`` times three fixed kernels before every op and, in pauses
  left out of the timings, every 60 ms inside ``runtime.run``.  The
  benchmark scales each untraced pass's times by the host speed it
  measured in that pass.
* ``SpanRecorder`` is installed on traced passes only.  It records one span
  per call at each layer boundary (name, start, end, parent, op id) and
  counts calls at the boundaries too cheap to time.  Its own cost is kept
  out of the spans' net and self times: measured where it can be, with a
  calibrated per-call figure where it cannot.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import sys
from array import array
from statistics import median
from time import perf_counter, perf_counter_ns

_RAISED = object()      # a span's result while its call has not returned


class Patches:
    """Module attributes replaced for one pass, restored in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def set_everywhere(self, func, make_wrapper) -> None:
        """Replace ``func`` in every program module that imported it."""
        wrapper = make_wrapper(func)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name.startswith("dialectica.") and module is not None
                    and getattr(module, func.__name__, None) is func):
                self.set(module, func.__name__, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self) -> tuple:
        return (self.a & 15, self.b)


def compute_kernel(data=None) -> int:
    """Interpreter-bound work of the program's kinds, in three parts of
    about equal time: integer arithmetic with small-int dict updates, tuple
    keys with hashing, and small objects with method calls and a sort."""
    table: dict = {}
    acc = 0
    for i in range(1000):
        k = i & 63
        table[k] = table.get(k, 0) + i
        acc = (acc * 1103515245 + table[k] + len(str(i))) & 0xFFFFFFFF
    counts: dict = {}
    for i in range(500):
        t = (i, "k%d" % (i & 127))
        counts[t] = counts.get(t, 0) + 1
        acc ^= hash(t) & 0xFFFF
    keyed: dict = {}
    for item in [_Item(i, "x%d" % (i % 37)) for i in range(300)]:
        k = item.key()
        keyed[k] = keyed.get(k, 0) + item.a
    return acc + len(counts) + len(sorted(keyed.items()))


def lookup_kernel(data) -> int:
    """Random reads of small dicts spread over several MB, as the program
    reads its configuration and capture records."""
    records, order = data
    acc = 0
    for j in order:
        r = records[j]
        acc = (acc + r["a"] * 31 + len(r["b"]) + hash(r["c"])) & 0xFFFFFFFF
    return acc


def chase_kernel(data) -> int:
    """A walk along a ring of objects laid out in random order: one cache
    miss per step, as in the program's pointer-heavy state."""
    node, acc = data, 0
    for _ in range(10000):
        acc += node.b
        node = node.a
    return acc


def kernel_data() -> dict:
    """The memory-bound kernels' inputs for ``HostSpeed``, about 15 MB, the
    same in every process.  Build them after reading the process's peak
    memory, which should not include them."""
    rng = random.Random(1729)
    records = [{"a": i, "b": str(i), "c": (i, -i)} for i in range(16384)]
    order = [rng.randrange(len(records)) for _ in range(2000)]
    ring = [_Item(None, i) for i in range(65536)]
    perm = list(range(len(ring)))
    rng.shuffle(perm)
    for a, b in zip(perm, perm[1:] + perm[:1]):
        ring[a].a = ring[b]
    return {"lookup": (records, order), "chase": ring[perm[0]]}


class HostSpeed:
    """How fast the shared host runs the program's kind of work right now.

    The host's speed drifts by up to a factor of 1.7 within seconds (other
    tenants), and the program's times drift with it.  Each ``sample``
    times three fixed kernels with the garbage collector off: one bound by
    the interpreter, two by memory.  The interpreter-bound kernel speeds up
    and slows down more than the program does, the memory-bound ones less;
    the geometric mean of the three tracked the program on every workload
    (NOTES.md).  ``factor`` is that mean of ``NOMINAL_NS[k]`` over kernel
    ``k``'s median sample: a time measured over the same stretch,
    multiplied by it, is the time at nominal host speed.  ``NOMINAL_NS``
    holds fixed constants, the kernels' medians during the workloads on
    the machine in NOTES.md, so scaled times stay in seconds of that
    machine.  The kernels are benchmark code, so no change to the program
    moves them.
    """

    KERNELS = {"compute": compute_kernel, "lookup": lookup_kernel,
               "chase": chase_kernel}
    NOMINAL_NS = {"compute": 1_600_000, "lookup": 2_500_000,
                  "chase": 2_600_000}
    INTERVAL_NS = 60_000_000    # between samples inside ``runtime.run``

    def __init__(self, data: dict):
        self.data = data            # from ``kernel_data``
        self.samples = {name: array("q") for name in self.KERNELS}

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        for name, kernel in self.KERNELS.items():
            data = self.data.get(name)
            t0 = perf_counter_ns()
            kernel(data)
            self.samples[name].append(perf_counter_ns() - t0)
        if enabled:
            gc.enable()

    def medians(self) -> dict:
        return {name: median(samples) for name, samples in self.samples.items()}

    def factor(self) -> float:
        logs = [math.log(self.NOMINAL_NS[name] / ns)
                for name, ns in self.medians().items()]
        return math.exp(sum(logs) / len(logs))


class PhaseClock:
    """Set-up, run and output time of each CLI invocation, and the time of
    every ``runtime.step`` call.

    Set-up is the time inside ``load_scenario``/``build_configuration``
    (simulate) or ``build_lingo`` (lingo check, experiment).  Run lasts
    from the end of set-up to the first call of ``build_report`` or
    ``_emit``; output lasts from there to the return of ``cli.main``.
    Given a ``HostSpeed``, the step timer samples it every
    ``INTERVAL_NS``, before a step starts; the sample's time is ``paused``
    and left out of the run phase and of the step times.
    """

    def __init__(self, dialectica, host: HostSpeed | None = None):
        self.d = dialectica
        self.host = host
        self.step_ns = array("q")
        self.begin_op()

    def begin_op(self) -> None:
        self.setup = 0.0
        self.setup_end = None
        self.output_start = None
        self.paused = 0.0
        self.sample_due = (perf_counter_ns() + HostSpeed.INTERVAL_NS
                           if self.host is not None else float("inf"))

    def end_op(self, t_end: float) -> tuple[float, float, float]:
        if self.setup_end is None or self.output_start is None:
            raise RuntimeError("op did not pass through set-up and output")
        return (self.setup, self.output_start - self.setup_end - self.paused,
                t_end - self.output_start)

    def _setup(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            self.setup += t1 - t0
            self.setup_end = t1
            return out
        return wrapper

    def _output(self, fn):
        def wrapper(*args, **kwargs):
            if self.output_start is None:
                self.output_start = perf_counter()
            return fn(*args, **kwargs)
        return wrapper

    def _step(self, fn):
        samples = self.step_ns

        def wrapper(cfg):
            t0 = perf_counter_ns()
            if t0 >= self.sample_due:
                self.host.sample()
                t1 = perf_counter_ns()
                self.paused += (t1 - t0) / 1e9
                self.sample_due = t1 + HostSpeed.INTERVAL_NS
                t0 = t1
            kind = fn(cfg)
            samples.append(perf_counter_ns() - t0)
            return kind
        return wrapper

    def install(self, patches: Patches) -> None:
        cli, runtime = self.d.cli, self.d.runtime
        for name in ("load_scenario", "build_configuration", "build_lingo"):
            patches.set(cli, name, self._setup(getattr(cli, name)))
        for name in ("build_report", "_emit"):
            patches.set(cli, name, self._output(getattr(cli, name)))
        patches.set(runtime, "step", self._step(runtime.step))


class SpanRecorder:
    """In-memory spans plus per-name aggregates.

    A wrapper costs time of its own, and all of it is kept out of every
    span's figures.  A span's duration is ``t1 - t0`` around the wrapped
    call, less the calibrated floor of that timing (one timer read and the
    extra call).  Its net time is that duration less the cost of every
    wrapper below it; its self time is the duration less what its direct
    children cost, wrappers included.  A wrapper charges its parent from
    its first timestamp to its last, plus the calibrated leak it cannot
    time from inside (the Python call into it and its return).  A counter
    wrapper charges its calibrated cost.  Spans are kept in flat arrays so
    a pass of half a million calls stays small, and are written out by
    ``write``.
    """

    def __init__(self, overheads: tuple[int, int, int] | None = None):
        if overheads is None:
            overheads = wrapper_overheads()
        self.span_leak_ns, self.span_floor_ns, self.counter_ns = overheads
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name_id = array("i")
        self.op = array("i")
        self.op_id = 0
        # [span index, direct children's cost, cost of all wrappers below]
        self._stack: list[list[int]] = []
        self.calls: dict[str, int] = {}
        self.net_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = self.net_ns[name] = self.self_ns[name] = 0
        return self._ids[name]

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call records a span; ``on_call(args,
        result)`` may add counters for calls that return."""
        nid = self._id(name)
        stack = self._stack
        calls, net, self_ns = self.calls, self.net_ns, self.self_ns
        start, end = self.start, self.end
        parent, name_id, op = self.parent, self.name_id, self.op
        leak, floor = self.span_leak_ns, self.span_floor_ns

        def wrapper(*args, **kwargs):
            t_in = perf_counter_ns()
            idx = len(start)
            parent.append(stack[-1][0] if stack else -1)
            name_id.append(nid)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            frame = [idx, 0, 0]
            stack.append(frame)
            result = _RAISED
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                dur = t1 - t0 - floor
                calls[name] += 1
                net[name] += dur - frame[2]
                self_ns[name] += dur - frame[1]
                if on_call is not None and result is not _RAISED:
                    on_call(args, result)
                if stack:
                    cost = perf_counter_ns() - t_in + leak
                    up = stack[-1]
                    up[1] += cost
                    up[2] += cost - dur + frame[2]
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count calls only: timing these from outside would
        cost more than the calls themselves."""
        counters = self.counters
        counters.setdefault(name, 0)
        stack = self._stack
        cost = self.counter_ns

        def wrapper(*args, **kwargs):
            counters[name] += 1
            if stack:
                up = stack[-1]
                up[1] += cost
                up[2] += cost
            return fn(*args, **kwargs)
        return wrapper

    def stat(self, name: str) -> tuple[int, int, int]:
        """(calls, net ns, self ns) for a span name; zeros if never hit."""
        return (self.calls.get(name, 0), self.net_ns.get(name, 0),
                self.self_ns.get(name, 0))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]}"
                         f"\t{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")

    def install(self, dialectica, patches: Patches) -> None:
        d = dialectica
        cli, runtime, scenario, attacker = d.cli, d.runtime, d.scenario, d.attacker
        span = self.span

        patches.set(cli, "cmd_simulate", span("cli.simulate", cli.cmd_simulate))
        patches.set(cli, "load_scenario",
                    span("scenario.load_scenario", cli.load_scenario))
        patches.set(scenario, "parse_scenario",
                    span("scenario.parse_scenario", scenario.parse_scenario))
        build_lingo = span("specs.build_lingo", d.specs.build_lingo)
        patches.set(d.specs, "build_lingo", build_lingo)
        patches.set(scenario, "build_lingo", build_lingo)
        # cli.build_lingo already carries the phase clock's set-up mark.
        patches.set(cli, "build_lingo", span("specs.build_lingo", cli.build_lingo))

        def instrument_lingos(args, cfg):
            # Spans on f, g and param of the lingo the runtime receives;
            # the report's law checks keep the scenario's own lingo.
            policies = {}
            for w in cfg.wrappers.values():
                if w.policy is not None:
                    key = id(w.policy)
                    if key not in policies:
                        policies[key] = self._instrumented_policy(d, w.policy)
                    w.policy = policies[key]
        patches.set(cli, "build_configuration",
                    span("scenario.build_configuration", cli.build_configuration,
                         instrument_lingos))
        patches.set(cli, "run", span("runtime.run", cli.run))
        patches.set(cli, "build_report",
                    span("runtime.build_report", cli.build_report))

        patches.set(runtime, "step", span("runtime.step", runtime.step))
        for rule in ("rule_out", "rule_deliver", "rule_in", "rule_attacker"):
            patches.set(runtime, rule,
                        span(f"runtime.{rule}", getattr(runtime, rule)))

        def actor_useful(args, result):
            # A probe is useful when it changed the actor or produced output.
            if not isinstance(result, d.mqtt.Reject) and (
                    result[0] is not args[0] or result[1]):
                self.bump("mqtt.actor_step.useful")
        patches.set(runtime, "actor_step",
                    span("mqtt.actor_step", runtime.actor_step, actor_useful))
        # The payload codec closes over these names when the configuration
        # is built, so they are patched before any op runs.
        for name in ("encode_mqtt", "decode_mqtt"):
            patches.set(scenario, name, span("mqtt.codec", getattr(scenario, name)))
        patches.set(runtime, "is_compliant",
                    span("core.is_compliant", runtime.is_compliant))
        laws = span("core.check_lingo_laws", cli.check_lingo_laws)
        patches.set(cli, "check_lingo_laws", laws)
        patches.set(runtime, "check_lingo_laws", laws)

        observe = self.counter("attacker.observe", attacker.observe)
        patches.set(runtime, "observe", observe)
        patches.set(attacker, "observe", observe)

        def records_scanned(args, result):
            self.bump("attacker.reveal_sweep.records_scanned",
                      len(args[0].records))
        sweep = span("attacker.reveal_sweep", attacker.reveal_sweep,
                     records_scanned)
        patches.set(runtime, "reveal_sweep", sweep)
        patches.set(attacker, "reveal_sweep", sweep)

        def ready_hit(args, result):
            if result:
                self.bump("attacker.strategy_ready.hits")
        patches.set(runtime, "strategy_ready",
                    span("attacker.strategy_ready", runtime.strategy_ready,
                         ready_hit))
        patches.set(runtime, "attempt_forgery",
                    span("attacker.attempt_forgery", runtime.attempt_forgery))
        patches.set(attacker, "craft_forgery",
                    span("attacker.craft_forgery", attacker.craft_forgery))

        patches.set_everywhere(d.values.space_contains,
                               lambda fn: self.counter("values.space_contains", fn))
        patches.set_everywhere(d.rng.derive,
                               lambda fn: self.counter("rng.derive", fn))

    def _instrumented_policy(self, d, policy):
        def wrap(lingo):
            return dataclasses.replace(
                lingo,
                f=self.span("core.lingo_f", lingo.f),
                g=self.span("core.lingo_g", lingo.g),
                param=self.span("core.lingo_param", lingo.param))
        if isinstance(policy, d.runtime.StaticPolicy):
            return dataclasses.replace(policy, lingo=wrap(policy.lingo))
        return dataclasses.replace(policy,
                                   lingos=tuple(wrap(l) for l in policy.lingos))


_OVERHEADS: tuple[int, int, int] | None = None


def wrapper_overheads(rounds: int = 9, calls: int = 10000) -> tuple[int, int, int]:
    """(span leak, span floor, counter cost) in ns, as ``SpanRecorder``
    uses them, from ``calls`` wrapped calls of a no-op inside a parent
    span against plain loops over the same calls.  Every loop's figure is
    its median over ``rounds``: the minimum is about half the typical cost
    and leaves twice as much tracer time in the workloads' figures.
    Measured once per process; ``trace.unaccounted_s`` reports what the
    figures still hold."""
    global _OVERHEADS
    if _OVERHEADS is None:
        def noop(x):
            return x

        def empty():
            for i in range(calls):
                pass

        def plain():
            for i in range(calls):
                noop(i)

        times: dict[str, list[int]] = {}
        for _ in range(rounds):
            r = SpanRecorder(overheads=(0, 0, 0))
            child, counted = r.span("child", noop), r.counter("counted", noop)

            def spans():
                for i in range(calls):
                    child(i)

            def counts():
                for i in range(calls):
                    counted(i)
            for name, loop in (("empty", empty), ("plain", plain)):
                t0 = perf_counter_ns()
                loop()
                times.setdefault(name, []).append(perf_counter_ns() - t0)
            r.span("spans", spans)()
            r.span("counts", counts)()
            for name in ("spans", "counts", "child"):
                times.setdefault(name, []).append(r.stat(name)[2])
        t = {name: median(v) / calls for name, v in times.items()}
        noop_call = t["plain"] - t["empty"]
        _OVERHEADS = tuple(max(0, round(v)) for v in (
            t["spans"] - t["plain"], t["child"] - noop_call,
            t["counts"] - t["plain"]))
    return _OVERHEADS
