"""Command-line surface.

Subcommands:
  lingo eval   <spec> f|g|compliant <args...>   evaluate one application
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
from typing import Optional

from .attacker import (
    STRATEGIES,
    PerMessage,
    ReuseK,
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
from .runtime import build_report, run
from .scenario import build_configuration, load_scenario
from .specs import SpecError, build_lingo
from .transforms import NonceExhausted
from .values import ShapeMismatch, value_from_json, value_to_json

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


def _cannot_run(exc: Exception) -> int:
    """NonceExhausted or UnsampleableSpace: the lingo cannot be exercised."""
    hint = ("; use fewer samples or observations, or a larger k"
            if isinstance(exc, NonceExhausted) else "")
    print(f"config error: cannot exercise the lingo ({exc}){hint}", file=sys.stderr)
    return EXIT_SPEC_ERROR


def cmd_lingo_eval(args) -> int:
    try:
        lingo = build_lingo(json.loads(args.spec))
    except (SpecError, json.JSONDecodeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    try:
        values = [value_from_json(json.loads(a)) for a in args.args]
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    if len(values) < 2:
        print("need at least one payload value and one parameter", file=sys.stderr)
        return EXIT_SPEC_ERROR
    *batch, a = values
    try:
        if args.op == "f":
            out = apply_f(lingo, batch, a)
            result = value_to_json(out[0]) if len(out) == 1 else [
                value_to_json(v) for v in out]
        elif args.op == "g":
            out = apply_g(lingo, batch, a)
            if isinstance(out, DecodeFailure):
                result = {"decode_failure": out.reason}
            elif isinstance(out, DefaultFallback):
                result = {"default_fallback": [value_to_json(v)
                                               for v in out.values]}
            else:
                result = value_to_json(out[0]) if len(out) == 1 else [
                    value_to_json(v) for v in out]
        else:
            result = is_compliant(lingo, batch, a)
    except (SpaceViolation, ShapeMismatch) as exc:
        print(f"space violation: {exc}", file=sys.stderr)
        return EXIT_SPACE_VIOLATION
    _emit(result, args.out)
    return EXIT_OK


def cmd_lingo_check(args) -> int:
    try:
        lingo = build_lingo(json.loads(args.spec))
    except (SpecError, json.JSONDecodeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    if args.samples < 1:
        print(f"--samples must be >= 1, got {args.samples}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    seed = _effective_seed(args.seed, 0)
    try:
        report = check_lingo_laws(lingo, args.samples,
                                  Rng(seed, fnv64("cli-check")))
    except (NonceExhausted, UnsampleableSpace) as exc:
        return _cannot_run(exc)

    probe_rng = Rng(seed, SAMPLE_TAG)
    witness = None
    try:
        a = law_params(lingo, seed)(0)
        witness = find_noncompliant_witness(lingo, a, probe_rng)
    except UnsampleableSpace:
        witness = None   # opaque spaces cannot be probed
    out = report.to_json()
    out["f_checkable_probe"] = {
        "witness_found": witness is not None,
        "witness": [value_to_json(v) for v in witness] if witness else None,
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
        seed = _effective_seed(args.seed, scenario.seed)
        cfg = build_configuration(scenario, seed_override=seed)
    except (SpecError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    max_steps = scenario.max_steps if args.max_steps is None else args.max_steps
    quiesced, steps = run(cfg, max_steps)
    report = build_report(cfg, quiesced, steps, scenario.policy)

    trace_path = args.trace or scenario.trace_path
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for ev in cfg.event_log:
                fh.write(json.dumps(ev, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    report_path = args.out or scenario.report_path
    _emit(report, report_path)
    return EXIT_OK if quiesced else EXIT_BUDGET


def cmd_experiment(args) -> int:
    try:
        lingo = build_lingo(json.loads(args.lingo))
    except (SpecError, json.JSONDecodeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    k = args.policy[len("reuse:"):] if args.policy.startswith("reuse:") else ""
    if args.policy == "per_message":
        policy = PerMessage()
    elif k.isdigit() and int(k) >= 1:
        policy = ReuseK(int(k))
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
            report = run_spoof_experiment(lingo, policy, args.strategy,
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
                    help="payload value(s) then the parameter, as JSON")
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
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
