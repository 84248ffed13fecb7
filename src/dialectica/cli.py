"""Command-line surface.

Subcommands:
  lingo eval   <spec> f|g|compliant <x> <a>     evaluate one application
  lingo check  <spec>                           law suite + forgery-check probe
  simulate     <scenario.json>                  run a scenario, write trace/report
  experiment   spoof|match                      attacker experiment harness

Exit codes: 0 ok, 1 law failure, 2 spec/config error, 3 space violation,
4 step-budget exhaustion.  --seed overrides a scenario's seed.

A subcommand returns 0, 1 or 4 itself, and 2 for a flag or an input it
refuses by name.  Every other refusal is raised, and ``main`` maps its
class to the exit code, in one place: ``SpecError`` (a malformed spec) and
``CannotDraw`` (a lingo that cannot be exercised) exit 2,
``SpaceViolation`` and ``ShapeMismatch`` exit 3, and an ``OSError`` while
writing an output exits 2.
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
    apply_f,
    apply_g,
    check_lingo_laws,
    check_param,
    find_noncompliant_witness,
    is_compliant,
    law_params,
)
from .rng import SAMPLE_TAG, fnv64
from .runtime import TRACE_LINES, build_report, run
from .scenario import build_configuration, load_scenario
from .specs import SpecError, build_lingo, json_from_text
from .values import (
    CannotDraw,
    ShapeMismatch,
    json_or_raw,
    value_from_json,
    value_to_json,
)

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_SPEC_ERROR = 2
EXIT_SPACE_VIOLATION = 3
EXIT_BUDGET = 4


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


def _load_lingo(spec_text: str):
    """The lingo a spec argument names; a bad spec raises SpecError, which
    ``main`` reports as a spec error."""
    return build_lingo(json_from_text(spec_text, "spec"))


def cmd_lingo_eval(args) -> int:
    lingo = _load_lingo(args.spec)
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
        check_param(lingo, a)
        result = is_compliant(lingo, x, a)
    _emit(result, args.out)
    return EXIT_OK


def cmd_lingo_check(args) -> int:
    lingo = _load_lingo(args.spec)
    if args.samples < 1:
        print(f"--samples must be >= 1, got {args.samples}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    report = check_lingo_laws(lingo, args.samples,
                              Rng(args.seed, fnv64("cli-check")))
    a = law_params(lingo, args.seed)(0)
    witness = find_noncompliant_witness(lingo, a, Rng(args.seed, SAMPLE_TAG))
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
    cfg = build_configuration(scenario, seed_override=args.seed)
    max_steps = scenario.max_steps if args.max_steps is None else args.max_steps
    # A trace path that cannot be opened fails here, before the run, and
    # whatever is there is left alone.
    trace = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        with trace or nullcontext():
            cfg.sink = _trace_sink(trace)
            quiesced, steps = run(cfg, max_steps)
            report = build_report(cfg, quiesced, steps, scenario.policy)
        _emit(report, args.out)
    except (CannotDraw, OSError):
        # A run that exits 2 leaves no trace; /dev/null and other paths that
        # are not regular files are left alone.
        if trace is not None and os.path.isfile(args.trace):
            os.remove(args.trace)
        raise
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
    if args.kind == "spoof":
        report = run_spoof_experiment(lingo, reuse, args.strategy,
                                      trials=args.trials, seed=args.seed,
                                      observations=args.observations)
    else:
        report = run_match_experiment(lingo, args.strategy,
                                      trials=args.trials, seed=args.seed)
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
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--out")
    ck.set_defaults(fn=cmd_lingo_check)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--max-steps", type=int)
    sim.add_argument("--trace", help="write the trace here")
    sim.add_argument("--out", help="write the report here")
    sim.set_defaults(fn=cmd_simulate)

    exp = sub.add_parser("experiment", help="spoof/unmatchability experiments")
    exp.add_argument("kind", choices=["spoof", "match"])
    exp.add_argument("--lingo", required=True, help="lingo spec JSON")
    exp.add_argument("--strategy", required=True, choices=list(STRATEGIES))
    exp.add_argument("--policy", default="per_message",
                     help="per_message or reuse:K")
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--observations", type=int, default=1)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out")
    exp.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
    except CannotDraw as exc:
        print(f"config error: cannot exercise the lingo ({exc})", file=sys.stderr)
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
