"""On-path attacker: observation, knowledge reveals, forgery strategies.

The attacker reads every wire message (appending one record to a
captured-message registry) and may append its own messages to channels, but
never removes, reorders, or modifies honest traffic.  Knowledge grows
through probability rules over message age, lingo reuse, and parameter
reuse; a reveal marks the record ``revealed``.

A record's ``hidden`` context (plaintext, lingo, parameter) is what the
lingo hides.  A strategy reads it only once the record is revealed
(``param_reuse_oracle``), never before; the others read captured wire
values only, and ``_Intent`` carries a record to the experiments' scoring.

``observe`` and ``reveal_sweep`` keep indexes over the registry up to
date, so no query rescans it: the latest record per (src, dst) flow, the
running lingo and (lingo, parameter) use counts the reveal rules read (the
second only when the strong-reveal rule ``s_max`` has steps), the
unrevealed records in record order, and the latest revealed record with a
parameter per flow.
"""

from __future__ import annotations

from bisect import bisect_right
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
from .rng import ATTACKER_TAG, fnv64
from .transforms import xor_recipe, xor_sharp_recipe
from .values import (
    BitVec,
    Nat,
    NatSpace,
    Pair,
    ShapeMismatch,
    Tagged,
    TaggedSpace,
    Value,
    int_from_json,
    list_from_json,
    object_from_json,
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
    def from_json(obj: dict, at: str = "advantage") -> "AdvantageConfig":
        obj = object_from_json(obj, {"t_max": [], "w_max": [], "s_max": []}, at)

        def steps(key):
            return tuple((int_from_json(t), prob_from_json(p)) for t, p in (
                list_from_json(step, (at, key, i), 2) for i, step
                in enumerate(list_from_json(obj[key], (at, key)))))

        return AdvantageConfig(t_max=steps("t_max"), w_max=steps("w_max"),
                               s_max=steps("s_max"))


def eval_step(steps: tuple[tuple[int, float], ...], x: int) -> float:
    prob = 0.0
    for threshold, p in steps:
        if x >= threshold:
            prob = p
    return prob


@dataclass(frozen=True)
class AttackerConfig:
    """What a scenario fixes about its attacker before a run: the
    strategies it draws from, its injection budget and rate, its reveal
    advantage, and the (src, dst) flows it may target (None: every flow).
    Immutable, so every run built from one scenario shares it."""

    strategies: tuple[str, ...] = ()
    max_injections: int = 0
    injection_rate: float = 1.0
    advantage: AdvantageConfig = AdvantageConfig()
    targets: Optional[tuple[tuple[str, str], ...]] = None


@dataclass
class AttackerState:
    """One run's attacker: its fixed config and random stream, and what it
    has captured, revealed and injected so far."""

    config: AttackerConfig
    rng: Rng
    # Run state, never given to the constructor.
    records: list[CapturedRecord] = field(init=False, default_factory=list)
    injected: int = field(init=False, default=0)
    # Indexes over ``records``, kept by observe/reveal_sweep.
    latest: dict[tuple[str, str], CapturedRecord] = field(
        init=False, default_factory=dict, repr=False)
    lingo_counts: dict[str, int] = field(init=False, default_factory=dict,
                                         repr=False)
    pair_counts: dict[tuple[str, str], int] = field(
        init=False, default_factory=dict, repr=False)
    # (record, its (lingo, repr(param)) key), in record order; the key is
    # None for a bare record, and for every record when ``s_max`` is empty.
    unrevealed: list[tuple[CapturedRecord, Optional[tuple[str, str]]]] = field(
        init=False, default_factory=list, repr=False)
    leaked: dict[tuple[str, str], CapturedRecord] = field(
        init=False, default_factory=dict, repr=False)

    @property
    def budget_left(self) -> int:
        return self.config.max_injections - self.injected


def observe(state: AttackerState, msg: Message, t: int) -> None:
    """Record a cloned wire message and its hidden context; channels are untouched."""
    rec = CapturedRecord(src=msg.src, dst=msg.dst, wire=msg.payload, t=t,
                         hidden=msg.hidden)
    state.records.append(rec)
    state.latest[(rec.src, rec.dst)] = rec
    key = None
    name = rec.hidden.lingo_name
    if name is not None:
        state.lingo_counts[name] = state.lingo_counts.get(name, 0) + 1
        # Only the strong-reveal step reads the (lingo, parameter) count.
        if state.config.advantage.s_max:
            key = (name, repr(rec.hidden.param))
            state.pair_counts[key] = state.pair_counts.get(key, 0) + 1
    state.unrevealed.append((rec, key))


def reveal_sweep(state: AttackerState, now: int) -> int:
    """Try to reveal every captured message with the additive probability
    min(p_age + p_weak + p_strong + p_cleartext, 1), and return how many
    records it revealed.

    Draws come from ``state.rng`` in record order, one per unrevealed
    record with a positive probability.  No count changes in a sweep, so it
    reads each lingo's and each key's step once, the age step by bisection."""
    if not state.unrevealed:
        return 0
    rng = state.rng
    adv = state.config.advantage
    ages = [t for t, _ in adv.t_max]
    weak = {n: eval_step(adv.w_max, c) for n, c in state.lingo_counts.items()}
    strong: dict[tuple[str, str], float] = {}
    revealed = 0
    for rec, key in state.unrevealed:
        name = rec.hidden.lingo_name
        p = 1.0   # a bare record is cleartext: p_clear is 1
        if name is not None:
            i = bisect_right(ages, now - rec.t)
            p = (adv.t_max[i - 1][1] if i else 0.0) + weak[name]
            if key is not None:
                if key not in strong:
                    strong[key] = eval_step(adv.s_max, state.pair_counts[key])
                p += strong[key]
            p = min(p, 1.0)
        if p <= 0.0:
            continue
        if rng.next_float() <= p:
            rec.revealed = True
            revealed += 1
            if rec.hidden.param is not None:
                state.leaked[(rec.src, rec.dst)] = rec
    if revealed:
        state.unrevealed = [entry for entry in state.unrevealed
                            if not entry[0].revealed]
    return revealed


@dataclass(frozen=True)
class NoAttempt:
    reason: str = ""


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
                  lingo: Optional[Lingo] = None
                  ) -> Union[tuple[object, Optional[object]], NoAttempt]:
    """Produce (payload, intended_plaintext) for a strategy, or NoAttempt.

    ``lingo`` is the receiver's active lingo, None on a bare flow, whose
    wire is the protocol message itself; its output space is the wire
    space strategies sample from, with ``state.rng``.  A bare flow's xor
    masks are naturals.
    ``intended_plaintext`` is an ``_Intent`` naming what the attacker means
    the receiver to decode; None when the strategy only aims to pass the
    forgery check.  A strategy reads a record's ``hidden`` context only once
    the record is revealed (``param_reuse_oracle``), never before.
    """
    mask_space = NatSpace() if lingo is None else lingo.output_space
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
        mask = mask_space.sample(state.rng)
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
        mask = mask_space.sample(state.rng)
        if not isinstance(mask, Pair) or not isinstance(mask.first, BitVec):
            return NoAttempt("wire space is not a bitvec-pair space")
        forged = xor_sharp_recipe(rec.wire, mask)
        applied = xor_value(forged.first, rec.wire.first)
        return forged, _Intent(rec, lambda plain: xor_value(plain, applied))

    if strategy == "dc_zero_remainder":
        x = Nat(1 + state.rng.next_below((1 << 16) - 1))
        payload: object = Pair(x, Nat(0))
        if lingo is not None and isinstance(lingo.output_space, TaggedSpace):
            payload = Tagged(1, payload)
        return payload, None

    if strategy == "random_wire":
        if lingo is None:
            return NoAttempt("no wire space to sample")
        return lingo.output_space.sample(state.rng), None

    if strategy == "param_reuse_oracle":
        leak = state.leaked.get((src, dst))
        if leak is None or lingo is None:
            return NoAttempt("no revealed parameters")
        hidden = leak.hidden
        if hidden.lingo_name != lingo.name:   # the flow rotated since the leak
            return NoAttempt("the revealed parameter is another lingo's")
        return apply_f(lingo, hidden.plaintext, hidden.param), _Intent(leak)

    return NoAttempt(f"unknown strategy {strategy!r}")


@dataclass
class _Intent:
    """The plaintext a forgery means the receiver to decode: the record's,
    through ``transform`` if given.  Only the scoring harness resolves it,
    since a strategy never reads an unrevealed record's ``hidden`` context
    (``param_reuse_oracle`` names a record already revealed)."""

    record: CapturedRecord
    transform: Optional[object] = None

    def resolve(self):
        plain = self.record.hidden.plaintext
        return self.transform(plain) if self.transform else plain


def attempt_forgery(state: AttackerState, strategy: str, target: tuple[str, str],
                    lingo: Optional[Lingo] = None) -> Union[Message, NoAttempt]:
    """Craft and address a forged message for the (src, dst) channel."""
    src, dst = target
    crafted = craft_forgery(state, strategy, src, dst, lingo)
    if isinstance(crafted, NoAttempt):
        return crafted
    payload, _ = crafted
    state.injected += 1
    return Message(dst=dst, src=src, payload=payload, strategy=strategy)


# ---------------------------------------------------------------------------
# Spoofing experiments
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.96   # the 95 % interval
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


def run_spoof_experiment(lingo: Lingo, reuse: int, strategy: str,
                         trials: int, seed: int, observations: int = 1,
                         advantage: Optional[AdvantageConfig] = None
                         ) -> ExperimentReport:
    """Per trial: emit a short honest exchange in which each parameter
    serves ``reuse`` consecutive messages (message i uses parameter
    i // reuse), let the strategy observe and forge once, then score the
    forgery against the receiver's next parameter.

    Scores both compliance (the forgery check) and, when the strategy
    declares an intent, actual spoofing (the receiver decodes exactly the
    plaintext the attacker meant).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if reuse < 1:
        raise ValueError(f"reuse must be >= 1, got {reuse}")
    compliance_hits = 0
    spoof_hits = 0
    any_intent = False
    config = AttackerConfig(advantage=advantage or AdvantageConfig())

    trial_seeds = Rng(seed, _SPOOF_TAG).at
    for t in range(trials):
        trial_seed = trial_seeds(t)
        state = AttackerState(config, Rng(trial_seed, ATTACKER_TAG))
        in_rng = Rng(trial_seed, _PLAINTEXT_TAG)
        for i in range(observations):
            a_i = lingo.param(i // reuse, trial_seed)
            d_i = lingo.input_space.sample(in_rng)
            hidden = HiddenCtx(lingo_name=lingo.name, param=a_i, plaintext=d_i,
                               index=i)
            observe(state, Message(dst="dst", src="src", seq=i, hidden=hidden,
                                   payload=lingo.f(d_i, a_i)), t=i)
        if advantage is not None:
            reveal_sweep(state, now=observations)

        crafted = craft_forgery(state, strategy, "src", "dst", lingo)
        if isinstance(crafted, NoAttempt):
            continue
        forged, intent = crafted
        a_cur = lingo.param(observations // reuse, trial_seed)

        decoded = decode_wire(lingo, forged, a_cur)
        if is_compliant(lingo, forged, a_cur, decoded):
            compliance_hits += 1
        if intent is not None:
            any_intent = True
            if not isinstance(decoded, (DecodeFailure, DefaultFallback)):
                try:
                    want = intent.resolve()
                except ShapeMismatch:
                    continue   # the wire's mask does not fit the payload: a miss
                if decoded == want:
                    spoof_hits += 1

    policy = "per_message" if reuse == 1 else f"reuse_{reuse}"
    return ExperimentReport(lingo=lingo.name, strategy=strategy,
                            policy=policy, trials=trials,
                            compliance_hits=compliance_hits,
                            spoof_hits=spoof_hits if any_intent else None)


def run_match_experiment(lingo: Lingo, strategy: str, trials: int, seed: int
                         ) -> ExperimentReport:
    """Distinguishing game: the strategy guesses whether two four-message
    transcripts share the same fixed parameter.  Only strategies with a
    guess function participate; others report no distinguishing data."""
    guesser = _GUESSERS.get(strategy)
    hits: Optional[int] = 0 if guesser else None
    trial_seeds = Rng(seed, _MATCH_TAG).at
    for t in range(trials):
        trial_seed = trial_seeds(t)
        rng = Rng(trial_seed, ATTACKER_TAG)
        in_rng = Rng(trial_seed, _PLAINTEXT_TAG)
        p = lingo.param(0, trial_seed)
        p_other = lingo.param(1, trial_seed)
        same = rng.next_u64() & 1 == 1
        q = p if same else p_other
        t1 = [lingo.f(lingo.input_space.sample(in_rng), p) for _ in range(4)]
        t2 = [lingo.f(lingo.input_space.sample(in_rng), q) for _ in range(4)]
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
