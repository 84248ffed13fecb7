"""Command-line surface.

Subcommands:
  lingo eval   <spec> f|g|compliant <x> <a>     evaluate one application
  lingo check  <spec>                           law suite + forgery-check probe
  simulate     <scenario.json>                  run a scenario, write trace/report
  experiment   spoof|match                      attacker experiment harness

Exit codes: 0 ok, 1 law failure, 2 spec/config error, 3 space violation,
4 step-budget exhaustion.  DIALECTICA_SEED overrides scenario seeds; an
explicit --seed flag beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Callable, Optional

from .attacker import (
    STRATEGIES,
    run_match_experiment,
    run_spoof_experiment,
)
from .core import (
    DecodeFailure,
    DefaultFallback,
    Rng,
    SpaceViolation,
    UnsampleableSpace,
    apply_f,
    apply_g,
    check_lingo_laws,
    find_noncompliant_witness,
    is_compliant,
    law_params,
)
from .rng import SAMPLE_TAG, fnv64
from .runtime import TRACE_LINES, build_report, run
from .scenario import build_configuration, load_scenario
from .specs import SpecError, build_lingo, json_from_text
from .transforms import NonceExhausted
from .values import ShapeMismatch, json_or_raw, value_from_json, value_to_json

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_SPEC_ERROR = 2
EXIT_SPACE_VIOLATION = 3
EXIT_BUDGET = 4


def _env_seed() -> Optional[int]:
    raw = os.environ.get("DIALECTICA_SEED")
    return int(raw) if raw else None


def _effective_seed(flag: Optional[int], fallback: int) -> int:
    if flag is not None:
        return flag
    env = _env_seed()
    return env if env is not None else fallback


def _emit(obj, out_path: Optional[str]) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _trace_sink(fh) -> Callable[[dict], object]:
    """Where ``simulate`` sends trace events: each event's line from
    ``runtime.TRACE_LINES``, written to ``fh`` as the run logs it, or
    nowhere without a file.  An event kind the table lacks raises."""
    if fh is None:
        return lambda event: None
    write, lines = fh.write, TRACE_LINES
    return lambda event: write(lines[event["ev"]](event))


def _cannot_run(exc: Exception) -> int:
    """NonceExhausted or UnsampleableSpace: the lingo cannot be exercised."""
    hint = ("; use fewer samples, observations or messages per flow, or a "
            "larger k" if isinstance(exc, NonceExhausted) else "")
    print(f"config error: cannot exercise the lingo ({exc}){hint}", file=sys.stderr)
    return EXIT_SPEC_ERROR


def _load_lingo(spec_text: str):
    """The lingo a spec argument names; a bad spec raises SpecError, which
    ``main`` reports as a spec error."""
    return build_lingo(json_from_text(spec_text, "spec"))


def cmd_lingo_eval(args) -> int:
    lingo = _load_lingo(args.spec)
    if lingo.param_space.opaque:
        # An authenticating lingo's parameters carry its involution and code
        # word; a parameter typed here is always a plain value.
        raise SpaceViolation(f"{lingo.name}: its parameters are not values, so "
                             f"none can be given on the command line")
    try:
        values = [value_from_json(json_from_text(a, f"args[{i}]"), ("args", i))
                  for i, a in enumerate(args.args)]
    except (SpecError, ValueError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    if len(values) != 2:
        raise SpaceViolation(f"{lingo.name}: expected 1 inputs, got {len(values) - 1}")
    x, a = values
    if args.op == "f":
        result = value_to_json(apply_f(lingo, x, a))
    elif args.op == "g":
        # A codec pre-composition decodes to a protocol message, which is
        # not a value.
        out = apply_g(lingo, x, a)
        if isinstance(out, DecodeFailure):
            result = {"decode_failure": out.reason}
        elif isinstance(out, DefaultFallback):
            result = {"default_fallback": json_or_raw(out.value)}
        else:
            result = json_or_raw(out)
    else:
        result = is_compliant(lingo, x, a)
    _emit(result, args.out)
    return EXIT_OK


def cmd_lingo_check(args) -> int:
    lingo = _load_lingo(args.spec)
    if args.samples < 1:
        print(f"--samples must be >= 1, got {args.samples}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    seed = _effective_seed(args.seed, 0)
    try:
        report = check_lingo_laws(lingo, args.samples,
                                  Rng(seed, fnv64("cli-check")))
    except (NonceExhausted, UnsampleableSpace) as exc:
        return _cannot_run(exc)

    try:
        witness = find_noncompliant_witness(lingo, law_params(lingo, seed)(0),
                                            Rng(seed, SAMPLE_TAG))
    except UnsampleableSpace:
        witness = None   # no generator for the output space, e.g. an opaque part
    out = report.to_json()
    # ``witness`` stays a one-element list: the report schema is pinned.
    out["f_checkable_probe"] = {
        "witness_found": witness is not None,
        "witness": None if witness is None else [value_to_json(witness)],
    }
    _emit(out, args.out)
    return EXIT_OK if report.all_passed else EXIT_LAW_FAILURE


def cmd_simulate(args) -> int:
    if args.max_steps is not None and args.max_steps < 1:
        print(f"config error: --max-steps must be >= 1, got {args.max_steps}",
              file=sys.stderr)
        return EXIT_SPEC_ERROR
    try:
        scenario = load_scenario(args.scenario)
    except (SpecError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    seed = _effective_seed(args.seed, scenario.seed)
    cfg = build_configuration(scenario, seed_override=seed)
    max_steps = scenario.max_steps if args.max_steps is None else args.max_steps
    trace_path = args.trace or scenario.trace_path
    # A trace path that cannot be opened fails here, before the run, and
    # whatever is there is left alone.
    trace = open(trace_path, "w", encoding="utf-8") if trace_path else None
    try:
        with trace or nullcontext():
            cfg.sink = _trace_sink(trace)
            quiesced, steps = run(cfg, max_steps)
            report = build_report(cfg, quiesced, steps, scenario.policy)
        _emit(report, args.out or scenario.report_path)
    except (NonceExhausted, OSError) as exc:
        # A run that exits 2 leaves no trace; /dev/null and other paths that
        # are not regular files are left alone.
        if trace is not None and os.path.isfile(trace_path):
            os.remove(trace_path)
        if isinstance(exc, OSError):
            raise
        return _cannot_run(exc)
    return EXIT_OK if quiesced else EXIT_BUDGET


def cmd_experiment(args) -> int:
    lingo = _load_lingo(args.lingo)
    k = args.policy[len("reuse:"):] if args.policy.startswith("reuse:") else ""
    if args.policy == "per_message":
        reuse = 1
    elif k.isascii() and k.isdigit() and int(k) >= 1:
        reuse = int(k)
    else:
        print(f"policy must be per_message or reuse:K with K >= 1, got "
              f"{args.policy!r}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return EXIT_SPEC_ERROR
    if args.observations < 0:
        print(f"--observations must be >= 0, got {args.observations}",
              file=sys.stderr)
        return EXIT_SPEC_ERROR
    seed = _effective_seed(args.seed, 0)
    try:
        if args.kind == "spoof":
            report = run_spoof_experiment(lingo, reuse, args.strategy,
                                          trials=args.trials, seed=seed,
                                          observations=args.observations)
        else:
            report = run_match_experiment(lingo, args.strategy,
                                          trials=args.trials, seed=seed)
    except (NonceExhausted, UnsampleableSpace) as exc:
        return _cannot_run(exc)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialectica",
        description="Protocol-dialect engineering kit")
    sub = parser.add_subparsers(dest="command", required=True)

    lingo = sub.add_parser("lingo", help="evaluate or law-check a lingo")
    lingo_sub = lingo.add_subparsers(dest="lingo_command", required=True)

    ev = lingo_sub.add_parser("eval", help="apply f, g, or the compliance check")
    ev.add_argument("spec", help="lingo spec JSON")
    ev.add_argument("op", choices=["f", "g", "compliant"])
    ev.add_argument("args", nargs="+",
                    help="one value as JSON, then the parameter: the "
                         "payload for f, the wire value for g and compliant")
    ev.add_argument("--out")
    ev.set_defaults(fn=cmd_lingo_eval)

    ck = lingo_sub.add_parser("check", help="run the law suite")
    ck.add_argument("spec", help="lingo spec JSON")
    ck.add_argument("--samples", type=int, default=1000)
    ck.add_argument("--seed", type=int)
    ck.add_argument("--out")
    ck.set_defaults(fn=cmd_lingo_check)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--max-steps", type=int)
    sim.add_argument("--trace", help="override the scenario trace path")
    sim.add_argument("--out", help="override the scenario report path")
    sim.set_defaults(fn=cmd_simulate)

    exp = sub.add_parser("experiment", help="spoof/unmatchability experiments")
    exp.add_argument("kind", choices=["spoof", "match"])
    exp.add_argument("--lingo", required=True, help="lingo spec JSON")
    exp.add_argument("--strategy", required=True, choices=list(STRATEGIES))
    exp.add_argument("--policy", default="per_message",
                     help="per_message or reuse:K")
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--observations", type=int, default=1)
    exp.add_argument("--seed", type=int)
    exp.add_argument("--out")
    exp.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _env_seed()
    except ValueError:
        print("config error: DIALECTICA_SEED must be an integer", file=sys.stderr)
        return EXIT_SPEC_ERROR
    # A value of the widest bit-vector space, or a product of two large
    # naturals, has more decimal digits than Python's default int/str
    # conversion limit allows; lift it while the command runs so such a
    # value is printed instead of crashing the JSON writer.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except (SpaceViolation, ShapeMismatch) as exc:
        print(f"space violation: {exc}", file=sys.stderr)
        return EXIT_SPACE_VIOLATION
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
