"""On-path attacker: observation, knowledge reveals, forgery strategies.

The attacker reads every wire message (appending to a captured-message
registry) and may append its own messages to channels, but never removes,
reorders, or modifies honest traffic.  Knowledge grows through probability
rules over message age, lingo reuse, and parameter reuse; revealed messages
move into a cleartext registry that strategies may consult.

Strategies read captured wire values and revealed cleartext only; a
record's ground-truth ``hidden`` context is for the reveal engine, and
``_Intent`` carries it to the experiments' scoring.

``observe`` and ``reveal_sweep`` keep indexes over the registries up to
date, so no query rescans them: the latest record per (src, dst) flow, the
running lingo and (lingo, parameter) use counts the reveal rules read (the
second only when the strong-reveal rule ``s_max`` has steps), the
unrevealed records in record order, and the latest revealed record with
parameters per flow.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from math import sqrt
from typing import Optional, Union

from .core import (
    DecodeFailure,
    DefaultFallback,
    Lingo,
    Rng,
    apply_f,
    decode_wire,
    is_compliant,
)
from .net import HiddenCtx, Message
from .rng import ATTACKER_TAG, derive, fnv64
from .transforms import xor_recipe, xor_sharp_recipe
from .values import (
    BitVec,
    Nat,
    NatSpace,
    OpaqueSpace,
    Pair,
    ShapeMismatch,
    Tagged,
    TaggedSpace,
    Value,
    int_from_json,
    prob_from_json,
    xor_value,
)

STRATEGIES = ("passive", "replay", "xor_recipe", "xor_sharp_recipe",
              "dc_zero_remainder", "random_wire", "param_reuse_oracle")


@dataclass
class CapturedRecord:
    src: str
    dst: str
    wire: object
    t: int
    hidden: HiddenCtx
    revealed: bool = False


@dataclass(frozen=True)
class ClearRecord:
    src: str
    dst: str
    wire: object
    t: int
    clear: object
    lingo_info: Optional[str]   # None, like params, for a bare message
    params: Optional[object]


@dataclass(frozen=True)
class AdvantageConfig:
    """Step functions over thresholds: evaluation at x returns the
    probability of the greatest threshold <= x, default 0."""

    t_max: tuple[tuple[int, float], ...] = ()
    w_max: tuple[tuple[int, float], ...] = ()
    s_max: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("t_max", "w_max", "s_max"):
            steps = getattr(self, name)
            thresholds = [t for t, _ in steps]
            if thresholds != sorted(set(thresholds)):
                raise ValueError(f"{name} thresholds must be strictly increasing")
            if any(not 0.0 <= p <= 1.0 for _, p in steps):
                raise ValueError(f"{name} probabilities must lie in [0, 1]")

    @staticmethod
    def from_json(obj: dict) -> "AdvantageConfig":
        def steps(key):
            return tuple((int_from_json(t), prob_from_json(p))
                         for t, p in obj.get(key, []))

        return AdvantageConfig(t_max=steps("t_max"), w_max=steps("w_max"),
                               s_max=steps("s_max"))


def eval_step(steps: tuple[tuple[int, float], ...], x: int) -> float:
    prob = 0.0
    for threshold, p in steps:
        if x >= threshold:
            prob = p
    return prob


@dataclass
class AttackerState:
    records: list[CapturedRecord] = field(default_factory=list)
    clear: list[ClearRecord] = field(default_factory=list)
    advantage: AdvantageConfig = field(default_factory=AdvantageConfig)
    strategies: tuple[str, ...] = ()
    max_injections: int = 0
    injection_rate: float = 1.0
    injected: int = 0
    rng: Optional[Rng] = None
    # Indexes over ``records`` and ``clear``, kept by observe/reveal_sweep.
    latest: dict[tuple[str, str], CapturedRecord] = field(
        default_factory=dict, repr=False)
    lingo_counts: dict[str, int] = field(default_factory=dict, repr=False)
    pair_counts: dict[tuple[str, str], int] = field(default_factory=dict,
                                                    repr=False)
    # (record, its (lingo, repr(param)) key), in record order; the key is
    # None for a bare record, and for every record when ``s_max`` is empty.
    unrevealed: list[tuple[CapturedRecord, Optional[tuple[str, str]]]] = field(
        default_factory=list, repr=False)
    leaked: dict[tuple[str, str], ClearRecord] = field(default_factory=dict,
                                                       repr=False)

    @property
    def budget_left(self) -> int:
        return self.max_injections - self.injected


def observe(state: AttackerState, msg: Message, t: int,
            hidden: HiddenCtx) -> AttackerState:
    """Record a cloned wire message; channels are never touched."""
    rec = CapturedRecord(src=msg.src, dst=msg.dst, wire=msg.payload, t=t,
                         hidden=hidden)
    state.records.append(rec)
    state.latest[(rec.src, rec.dst)] = rec
    key = None
    name = hidden.lingo_name
    if name is not None:
        state.lingo_counts[name] = state.lingo_counts.get(name, 0) + 1
        # Only the strong-reveal step reads the (lingo, parameter) count.
        if state.advantage.s_max:
            key = (name, repr(hidden.param))
            state.pair_counts[key] = state.pair_counts.get(key, 0) + 1
    state.unrevealed.append((rec, key))
    return state


def reveal_sweep(state: AttackerState, now: int, rng: Rng) -> AttackerState:
    """Try to reveal every captured message with the additive probability
    min(p_age + p_weak + p_strong + p_cleartext, 1).

    Draws happen in record order, one per unrevealed record whose
    probability is positive."""
    adv = state.advantage
    revealed_any = False
    for rec, key in state.unrevealed:
        p_age = eval_step(adv.t_max, now - rec.t)
        name = rec.hidden.lingo_name
        if name is None:
            p_weak = p_strong = 0.0
        else:
            p_weak = eval_step(adv.w_max, state.lingo_counts[name])
            p_strong = (0.0 if key is None
                        else eval_step(adv.s_max, state.pair_counts[key]))
        p_clear = 0.0 if name is not None else 1.0
        p = min(p_age + p_weak + p_strong + p_clear, 1.0)
        if p <= 0.0:
            continue
        if rng.next_float() <= p:
            rec.revealed = revealed_any = True
            clear = ClearRecord(
                src=rec.src, dst=rec.dst, wire=rec.wire, t=rec.t,
                clear=rec.hidden.plaintext, lingo_info=rec.hidden.lingo_name,
                params=rec.hidden.param)
            state.clear.append(clear)
            if clear.params is not None:
                state.leaked[(rec.src, rec.dst)] = clear
    if revealed_any:
        state.unrevealed = [entry for entry in state.unrevealed
                            if not entry[0].revealed]
    return state


@dataclass(frozen=True)
class NoAttempt:
    reason: str = ""


def _mask_for(wire_space, rng: Rng) -> Value:
    return (NatSpace() if wire_space.opaque else wire_space).sample(rng)


def ready_flows(state: AttackerState, strategy: str
                ) -> Optional[Container[tuple[str, str]]]:
    """The (src, dst) flows on which ``strategy`` can act now; None means
    every flow."""
    if strategy in ("replay", "xor_recipe", "xor_sharp_recipe"):
        return state.latest
    if strategy == "param_reuse_oracle":
        return state.leaked
    if strategy in ("dc_zero_remainder", "random_wire"):
        return None
    return ()


def strategy_ready(state: AttackerState, strategy: str, src: str, dst: str
                   ) -> bool:
    flows = ready_flows(state, strategy)
    return flows is None or (src, dst) in flows


def craft_forgery(state: AttackerState, strategy: str, src: str, dst: str,
                  rng: Rng, lingo: Optional[Lingo] = None
                  ) -> Union[tuple[object, Optional[object]], NoAttempt]:
    """Produce (payload, intended_plaintext) for a strategy, or NoAttempt.

    ``lingo`` is the receiver's active lingo (None on a bare flow, whose
    wire space is opaque); its output space is the wire space strategies
    sample from.
    ``intended_plaintext`` is what the attacker means the receiver to
    decode; None when the strategy only aims to pass the forgery check.
    Strategies read captured wire values and revealed cleartext, never a
    record's ``hidden`` ground truth.
    """
    wire_space = lingo.output_space if lingo is not None else OpaqueSpace()
    rec = state.latest.get((src, dst))
    if strategy == "passive":
        return NoAttempt("passive strategy never injects")

    if strategy == "replay":
        if rec is None:
            return NoAttempt("nothing to replay")
        # Replay means to have the old plaintext accepted again.
        return rec.wire, _Intent(rec)

    if strategy == "xor_recipe":
        if rec is None:
            return NoAttempt("no observation")
        if not isinstance(rec.wire, (Nat, BitVec)):
            return NoAttempt("wire is not xor-shaped")
        mask = _mask_for(wire_space, rng)
        if type(mask) is not type(rec.wire):
            return NoAttempt("mask space does not match the wire")
        forged = xor_recipe(rec.wire, mask)
        applied = xor_value(forged, rec.wire)
        # The mask that hit the wire also hits the (unknown) plaintext.
        return forged, _Intent(rec, lambda plain: xor_value(plain, applied))

    if strategy == "xor_sharp_recipe":
        if rec is None or not isinstance(rec.wire, Pair) \
                or not isinstance(rec.wire.first, BitVec) \
                or not isinstance(rec.wire.second, BitVec):
            return NoAttempt("no bitvec-pair observation")
        mask = _mask_for(wire_space, rng)
        if not isinstance(mask, Pair) or not isinstance(mask.first, BitVec):
            return NoAttempt("wire space is not a bitvec-pair space")
        forged = xor_sharp_recipe(rec.wire, mask)
        applied = xor_value(forged.first, rec.wire.first)
        return forged, _Intent(rec, lambda plain: xor_value(plain, applied))

    if strategy == "dc_zero_remainder":
        x = Nat(1 + rng.next_below((1 << 16) - 1))
        payload: object = Pair(x, Nat(0))
        if isinstance(wire_space, TaggedSpace):
            payload = Tagged(1, payload)
        return payload, None

    if strategy == "random_wire":
        if wire_space.opaque:
            return NoAttempt("no wire space to sample")
        return wire_space.sample(rng), None

    if strategy == "param_reuse_oracle":
        leak = state.leaked.get((src, dst))
        if leak is None or lingo is None:
            return NoAttempt("no revealed parameters")
        chosen = leak.clear
        return apply_f(lingo, chosen, leak.params), chosen

    return NoAttempt(f"unknown strategy {strategy!r}")


@dataclass
class _Intent:
    """Intended plaintext, resolvable only by the scoring harness (it holds
    the ground truth the strategy itself never sees)."""

    record: CapturedRecord
    transform: Optional[object] = None

    def resolve(self):
        plain = self.record.hidden.plaintext
        return self.transform(plain) if self.transform else plain


def attempt_forgery(state: AttackerState, strategy: str, target: tuple[str, str],
                    rng: Rng, lingo: Optional[Lingo] = None
                    ) -> Union[Message, NoAttempt]:
    """Craft and address a forged message for the (src, dst) channel."""
    src, dst = target
    crafted = craft_forgery(state, strategy, src, dst, rng, lingo)
    if isinstance(crafted, NoAttempt):
        return crafted
    payload, _ = crafted
    state.injected += 1
    return Message(dst=dst, src=src, payload=payload, strategy=strategy)


# ---------------------------------------------------------------------------
# Spoofing experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerMessage:
    def index(self, n: int) -> int:
        return n


@dataclass(frozen=True)
class ReuseK:
    k: int

    def index(self, n: int) -> int:
        return n // self.k


ParamPolicy = Union[PerMessage, ReuseK]


def wilson_interval(successes: int, trials: int, z: float = 1.96
                    ) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class ExperimentReport:
    lingo: str
    strategy: str
    policy: str
    trials: int
    compliance_hits: int
    spoof_hits: Optional[int]
    distinguish_hits: Optional[int] = None

    @property
    def compliance_rate(self) -> float:
        return self.compliance_hits / self.trials

    @property
    def spoof_rate(self) -> Optional[float]:
        return None if self.spoof_hits is None else self.spoof_hits / self.trials

    def to_json(self) -> dict:
        out = {
            "schema_version": 1,
            "lingo": self.lingo,
            "strategy": self.strategy,
            "policy": self.policy,
            "trials": self.trials,
            "compliance": {
                "rate": self.compliance_rate,
                "wilson95": list(wilson_interval(self.compliance_hits, self.trials)),
            },
        }
        out["spoof"] = None if self.spoof_hits is None else {
            "rate": self.spoof_rate,
            "wilson95": list(wilson_interval(self.spoof_hits, self.trials)),
        }
        if self.distinguish_hits is not None:
            rate = self.distinguish_hits / self.trials
            out["distinguish"] = {"guess_rate": rate, "advantage": rate - 0.5}
        return out


_SPOOF_TAG = fnv64("spoof-trial")
_MATCH_TAG = fnv64("match-trial")
_PLAINTEXT_TAG = fnv64("honest-plaintext")


def _policy_name(policy: ParamPolicy) -> str:
    return "per_message" if isinstance(policy, PerMessage) else f"reuse_{policy.k}"


def run_spoof_experiment(lingo: Lingo, param_policy: ParamPolicy, strategy: str,
                         trials: int, seed: int, observations: int = 1,
                         advantage: Optional[AdvantageConfig] = None
                         ) -> ExperimentReport:
    """Per trial: emit a short honest exchange under the parameter policy,
    let the strategy observe and forge once, then score the forgery against
    the receiver's next parameter.

    Scores both compliance (the forgery check) and, when the strategy
    declares an intent, actual spoofing (the receiver decodes exactly the
    plaintext the attacker meant).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    compliance_hits = 0
    spoof_hits = 0
    any_intent = False
    trial_advantage = advantage or AdvantageConfig()

    for t in range(trials):
        trial_seed = derive(seed, _SPOOF_TAG, t)
        state = AttackerState(advantage=trial_advantage)
        rng = Rng(trial_seed, ATTACKER_TAG)
        in_rng = Rng(trial_seed, _PLAINTEXT_TAG)
        for i in range(observations):
            a_i = lingo.param(param_policy.index(i), trial_seed)
            d_i = lingo.input_space.sample(in_rng)
            msg = Message(dst="dst", src="src", payload=apply_f(lingo, d_i, a_i),
                          seq=i)
            observe(state, msg, t=i,
                    hidden=HiddenCtx(lingo_name=lingo.name, param=a_i,
                                     plaintext=d_i, index=i))
        if advantage is not None:
            reveal_sweep(state, now=observations, rng=rng)

        crafted = craft_forgery(state, strategy, "src", "dst", rng, lingo)
        if isinstance(crafted, NoAttempt):
            continue
        forged, intent = crafted
        a_cur = lingo.param(param_policy.index(observations), trial_seed)

        decoded = decode_wire(lingo, forged, a_cur)
        if is_compliant(lingo, forged, a_cur, decoded):
            compliance_hits += 1
        if intent is not None:
            any_intent = True
            if not isinstance(decoded, (DecodeFailure, DefaultFallback)):
                try:
                    want = intent.resolve() if isinstance(intent, _Intent) else intent
                except ShapeMismatch:
                    continue   # the wire's mask does not fit the payload: a miss
                if decoded == want:
                    spoof_hits += 1

    return ExperimentReport(lingo=lingo.name, strategy=strategy,
                            policy=_policy_name(param_policy), trials=trials,
                            compliance_hits=compliance_hits,
                            spoof_hits=spoof_hits if any_intent else None)


def run_match_experiment(lingo: Lingo, strategy: str, trials: int, seed: int
                         ) -> ExperimentReport:
    """Distinguishing game: the strategy guesses whether two four-message
    transcripts share the same fixed parameter.  Only strategies with a
    guess function participate; others report no distinguishing data."""
    guesser = _GUESSERS.get(strategy)
    hits: Optional[int] = 0 if guesser else None
    for t in range(trials):
        trial_seed = derive(seed, _MATCH_TAG, t)
        rng = Rng(trial_seed, ATTACKER_TAG)
        in_rng = Rng(trial_seed, _PLAINTEXT_TAG)
        p = lingo.param(0, trial_seed)
        p_other = lingo.param(1, trial_seed)
        same = rng.next_u64() & 1 == 1
        q = p if same else p_other
        t1 = [apply_f(lingo, lingo.input_space.sample(in_rng), p)
              for _ in range(4)]
        t2 = [apply_f(lingo, lingo.input_space.sample(in_rng), q)
              for _ in range(4)]
        if guesser is not None and guesser(t1, t2) == same:
            hits += 1
    return ExperimentReport(lingo=lingo.name, strategy=strategy,
                            policy="match", trials=trials,
                            compliance_hits=0, spoof_hits=None,
                            distinguish_hits=hits)


def _guess_dc_remainders(t1: list[Value], t2: list[Value]) -> bool:
    # Remainders stay below a+2; transcripts with compatible remainder
    # ceilings look like the same parameter.  Only a pair ending in a
    # natural carries a remainder.
    def ceiling(ts):
        return max((w.second.n for w in ts
                    if isinstance(w, Pair) and isinstance(w.second, Nat)),
                   default=0)

    return ceiling(t2) <= ceiling(t1) + 1


_GUESSERS = {"dc_zero_remainder": _guess_dc_remainders}
