"""Deterministic simulator for dialect-wrapped protocol actors.

Each protocol actor is wrapped in a meta-object that encodes outgoing
messages with the codec adaptor ``mqtt_codec_adaptor`` and the active lingo
(rule ``out``), buffers arriving wire messages (rule ``deliver``), and
decodes buffered wire messages back into protocol messages (rule ``in``).
A rejected wire message is logged with the first failing check's reason, in
check order: ``decode:`` (shape gate or g), ``default_fallback``,
``noncompliant`` (forgery check), ``malformed:`` (codec retract), ``actor:``
(protocol).  The forgery check runs on every lingo-coded wire message; it
never rejects under a lingo whose ``f(., a)`` is onto (xor, identity,
split).
Per-peer send/receive counters are the only per-flow state: message ``n``
of a flow takes its parameter from the lingo's stream at index ``n``, and
its lingo from the policy as a pure function of (seed, flow, n).  An
aperiodic policy rotates the lingo every ``msg_bound`` messages of a flow.
Sender and receiver agree while both count the same messages, and an
injection breaks that: the receiver counts every wire message it reads, a
rejected injected one included, so every later honest message on the
flow is decoded under the wrong parameter.

Each message's work is done once.  The parameter of message ``n`` under a
lingo is ``lingo.param(n, seed)`` on every flow, so a run derives it once:
``rule_out`` leaves it in the run's memo (``Configuration.params``, keyed by
lingo identity and ``n``) and ``rule_in`` reads it from there.  A receive
that misses (injected or desynchronised traffic) derives it afresh and does
not insert it, so forgery floods do not grow the memo.  ``rule_in`` decodes
a wire message once and hands the result to the forgery check.

Every trace event goes to ``Configuration.sink`` as it happens.  By default
the sink appends to ``Configuration.event_log``; ``simulate`` writes each
event to the trace file instead, so a run holds no events in memory.  An
``out`` or ``inject`` event carries its wire value itself.  An event's line
is its kind's entry in ``TRACE_LINES``: the kind's fixed keys in sorted
order, with the wire value's own JSON text (``values.json_text``).

Channels are FIFO and loss-free per (src, dst): counter-keyed parameters
need ordered delivery.  The enabled rule instances have a canonical order
(out, deliver, in, then the attacker), and step ``clock`` applies instance
``derive(seed, SCHED_TAG, clock) % total`` of it, so a run is a pure
function of (configuration, seed).  The attacker is enabled when it has
budget, a seeded draw passes its injection rate (not drawn at rate 1, where
it cannot fail) and a candidate is ready.

The enabled set is maintained, not rebuilt: each rule marks the instances
it touches as dirty (``Configuration.channel()`` marks its channel's
``deliver``), and the scheduler re-checks only those.  It keeps one sorted
list per kind, and ``step`` indexes across them without joining them.  A
wrapper's probe keeps its actor's spontaneous transition until the actor
object changes, and ``rule_out`` applies it.  Attack candidates are found
through the attacker's per-flow capture and leak indexes, and rebuilt only
when one of those indexes grew.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Union

from .attacker import (
    AttackerConfig,
    AttackerState,
    NoAttempt,
    attempt_forgery,
    observe,
    ready_flows,
    reveal_sweep,
    strategy_ready,
)
from .core import (
    DecodeFailure,
    DefaultFallback,
    Lingo,
    Rng,
    check_lingo_laws,
    decode_wire,
    is_compliant,
)
from .mqtt import Reject, actor_step
from .net import HiddenCtx, Message
from .rng import ATTACKER_TAG, MASK64, RATE_TAG, SCHED_TAG, derive, fnv64, throw_biased, uniform01
from .transforms import DataAdaptor, RetractFailure
from .values import json_text


class Quiescent(Exception):
    """No rule instance is enabled."""


@dataclass(frozen=True)
class StaticPolicy:
    lingo: Lingo

    @property
    def lingos(self) -> tuple[Lingo, ...]:
        return (self.lingo,)

    def epoch(self, n: int) -> int:
        return 0

    def lingo_at(self, seed: int, src: str, dst: str, n: int) -> Lingo:
        return self.lingo


@dataclass(frozen=True)
class AperiodicPolicy:
    """Rotate the active lingo every ``msg_bound`` messages of a flow:
    message ``n`` of the flow src -> dst uses a uniform seeded draw keyed by
    its epoch ``n // msg_bound`` and the (src, dst) pair."""

    msg_bound: int
    lingos: tuple[Lingo, ...]

    def __post_init__(self) -> None:
        if self.msg_bound < 1:
            raise ValueError("msg_bound must be >= 1")
        if len(self.lingos) < 1:
            raise ValueError("aperiodic policy needs at least one lingo")
        # Trace events and the attacker's counts tell lingos apart by name.
        names = [lingo.name for lingo in self.lingos]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise ValueError(f"aperiodic lingos share the names {shared}")

    def epoch(self, n: int) -> int:
        return n // self.msg_bound

    def lingo_at(self, seed: int, src: str, dst: str, n: int) -> Lingo:
        k = len(self.lingos)
        if k == 1:
            return self.lingos[0]
        tag = (self.epoch(n) ^ fnv64(src + "|" + dst)) & MASK64
        return self.lingos[throw_biased(seed, tag, (1,) * k) - 1]


LingoPolicy = Union[StaticPolicy, AperiodicPolicy, None]


class DialectWrapper:
    """Meta-object around one protocol actor.

    Send and receive counters are split per direction: a single per-peer
    counter read by both rules would desynchronize a wrapper that both
    sends to and receives from the same peer.  They are the only per-flow
    state: the active lingo is a function of the flow and its counter.
    """

    def __init__(self, oid: str, actor, policy: LingoPolicy, seed: int,
                 codec: Optional[DataAdaptor] = None):
        if policy is not None and codec is None:
            raise ValueError("wrappers under a lingo policy need a payload codec")
        self.oid = oid
        self.actor = actor
        self.policy = policy
        self.seed = seed
        self.codec = codec
        self.outbox: deque = deque()
        self.in_buffers: dict[str, deque[Message]] = {}
        self.send_counters: dict[str, int] = {}
        self.recv_counters: dict[str, int] = {}
        # (actor, its spontaneous transition, None if it sends nothing): an
        # actor is immutable and its spontaneous step pure, so this holds.
        self.probe: Optional[tuple[object, Optional[tuple]]] = None

    def lingo_for(self, peer: str, sending: bool) -> Optional[Lingo]:
        """Active lingo for the next message sent to or received from
        ``peer``."""
        if self.policy is None:
            return None
        if sending:
            return self.policy.lingo_at(self.seed, self.oid, peer,
                                        self.send_counters.get(peer, 0))
        return self.policy.lingo_at(self.seed, peer, self.oid,
                                    self.recv_counters.get(peer, 0))


@dataclass
class Configuration:
    wrappers: dict[str, DialectWrapper]
    seed: int
    attacker: Optional[AttackerState] = None
    channels: dict[tuple[str, str], deque] = field(default_factory=dict)
    event_log: list[dict] = field(default_factory=list)
    clock: int = 0
    seq: int = 0
    stats: dict = field(default_factory=lambda: {
        "honest_sends": 0, "delivered": 0, "rejected": 0, "injected": 0,
        "forgeries_accepted": 0, "forgeries_delivered": 0})
    per_strategy: dict = field(default_factory=dict)
    # Enabled rule instances per kind, each list sorted, and the instances
    # whose enabledness may have changed since the scheduler last looked.
    enabled: dict[str, list[tuple]] = field(
        init=False, repr=False,
        default_factory=lambda: {"out": [], "deliver": [], "in": []})
    dirty: set[tuple] = field(init=False, repr=False, default_factory=set)
    # Where each trace event goes when it is logged; appends to
    # ``event_log`` unless the caller sets another writer.
    sink: Callable[[dict], object] = field(init=False, repr=False)
    # The parameter of message n under each lingo honest senders used, by
    # (id(lingo), n).  The policy holds its lingos for the whole run, so an
    # id names one lingo, and a lookup hashes no lingo fields.  A run has one
    # seed; a flow-bound ``param`` would add the flow to the key.
    params: dict[tuple[int, int], object] = field(
        init=False, repr=False, default_factory=dict)
    # ((len(latest), len(leaked)), candidates) from the last candidate
    # search; the attacker's indexes never lose a key, so equal sizes mean
    # equal key sets.
    candidates: Optional[tuple[tuple[int, int], list]] = field(
        init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.dirty.update(("out", oid) for oid in self.wrappers)
        self.sink = self.event_log.append

    def channel(self, src: str, dst: str) -> deque:
        """The (src, dst) channel; callers may change it, so its deliver
        instance is marked dirty."""
        self.dirty.add(("deliver", src, dst))
        return self.channels.setdefault((src, dst), deque())

    @cached_property
    def attack_pairs(self) -> list[tuple[str, str]]:
        """Flows the attacker may target, in candidate order."""
        targets = self.attacker.config.targets
        if targets is not None:
            return list(targets)
        oids = sorted(self.wrappers)
        return [(s, d) for s in oids for d in oids if s != d]

    def log(self, ev: str, **fields) -> None:
        fields["t"] = self.clock
        fields["ev"] = ev
        self.sink(fields)


_str = encode_basestring_ascii

# Each event kind's trace line, keys in sorted order: byte for byte what
# ``json.dumps(event, sort_keys=True, separators=(",", ":"))`` writes for
# the event with its ``wire`` value in ``json_or_raw`` form, which an
# ``out`` line holds in a one-element list.
TRACE_LINES: dict[str, Callable[[dict], str]] = {
    "out": lambda e: f'{{"dst":{_str(e["dst"])},"ev":"out","lingo":'
        f'{"null" if e["lingo"] is None else _str(e["lingo"])},"n":{e["n"]},'
        f'"src":{_str(e["src"])},"t":{e["t"]},'
        f'"wire":[{json_text(e["wire"])}]}}\n',
    "deliver": lambda e: f'{{"dst":{_str(e["dst"])},"ev":"deliver",'
        f'"seq":{e["seq"]},"src":{_str(e["src"])},"t":{e["t"]}}}\n',
    "in": lambda e: f'{{"dst":{_str(e["dst"])},"ev":"in","msg":'
        f'{_str(e["msg"])},"n":{e["n"]},"outcome":{_str(e["outcome"])},'
        f'"src":{_str(e["src"])},"t":{e["t"]}}}\n',
    "reject": lambda e: f'{{"dst":{_str(e["dst"])},"ev":"reject","injected":'
        f'{"true" if e["injected"] else "false"},"n":{e["n"]},"reason":'
        f'{_str(e["reason"])},"src":{_str(e["src"])},"t":{e["t"]}}}\n',
    "switch": lambda e: f'{{"direction":{_str(e["direction"])},"epoch":'
        f'{e["epoch"]},"ev":"switch","lingo":{_str(e["lingo"])},"oid":'
        f'{_str(e["oid"])},"peer":{_str(e["peer"])},"t":{e["t"]}}}\n',
    "desync": lambda e: f'{{"dst":{_str(e["dst"])},"encoded":'
        f'{e["encoded"]},"ev":"desync","src":{_str(e["src"])},"t":{e["t"]},'
        f'"used":{e["used"]}}}\n',
    "reveal": lambda e:
        f'{{"ev":"reveal","revealed":{e["revealed"]},"t":{e["t"]}}}\n',
    "inject": lambda e: f'{{"dst":{_str(e["dst"])},"ev":"inject","seq":'
        f'{e["seq"]},"src":{_str(e["src"])},"strategy":{_str(e["strategy"])},'
        f'"t":{e["t"]},"wire":{json_text(e["wire"])}}}\n',
}


def make_configuration(actors, policy: LingoPolicy, seed: int,
                       codec: Optional[DataAdaptor] = None,
                       attacker: Optional[AttackerConfig] = None
                       ) -> Configuration:
    """A fresh run: a wrapper per actor and, given an attacker config, a
    fresh attacker state with its own random stream.  The arguments are
    only read, so runs may share them."""
    wrappers = {a.oid: DialectWrapper(a.oid, a, policy, seed, codec)
                for a in actors}
    state = (None if attacker is None
             else AttackerState(attacker, Rng(seed, ATTACKER_TAG)))
    return Configuration(wrappers=wrappers, seed=seed, attacker=state)


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

def _spontaneous(w: DialectWrapper) -> Optional[tuple]:
    """The actor's sending transition, or None; stepped once per actor object."""
    if w.probe is None or w.probe[0] is not w.actor:
        stepped = actor_step(w.actor, None)
        w.probe = (w.actor, None if isinstance(stepped, Reject)
                   or not stepped[1] else stepped)
    return w.probe[1]


def rule_out(cfg: Configuration, oid: str) -> Configuration:
    """Transform one pending outbound protocol message and put its wire
    message on the channel; the attacker sees a copy."""
    w = cfg.wrappers[oid]
    if not w.outbox:
        w.actor, outs = _spontaneous(w)
        w.outbox.extend(outs)
    dst, msg = w.outbox.popleft()
    cfg.dirty.add(("out", oid))
    n = w.send_counters.get(dst, 0)
    lingo = w.lingo_for(dst, sending=True)
    w.send_counters[dst] = n + 1
    _log_switch(cfg, w, dst, "send", n)
    if lingo is None:
        wire: object = msg
        a = None
        plaintext: object = msg
    else:
        plaintext = w.codec.j(msg)
        key = (id(lingo), n)
        a = cfg.params.get(key)
        if a is None:
            a = cfg.params[key] = lingo.param(n, w.seed)
        wire = lingo.f(plaintext, a)
    m = Message(dst=dst, src=oid, payload=wire, seq=cfg.seq,
                hidden=HiddenCtx(lingo_name=lingo.name if lingo else None,
                                 param=a, plaintext=plaintext, index=n))
    cfg.seq += 1
    cfg.channel(oid, dst).append(m)
    if cfg.attacker is not None:
        observe(cfg.attacker, m, cfg.clock)
    cfg.stats["honest_sends"] += 1
    cfg.log("out", src=oid, dst=dst, n=n,
            lingo=lingo.name if lingo else None, wire=wire)
    return cfg


def rule_deliver(cfg: Configuration, src: str, dst: str) -> Configuration:
    """Move the channel head into the receiver's in-buffer."""
    m = cfg.channel(src, dst).popleft()
    cfg.wrappers[dst].in_buffers.setdefault(src, deque()).append(m)
    cfg.dirty.add(("in", dst, src))
    cfg.log("deliver", src=src, dst=dst, seq=m.seq)
    return cfg


def rule_in(cfg: Configuration, oid: str, src: str) -> Configuration:
    """Decode one buffered wire message and hand the plaintext to the inner
    actor.

    Bare and lingo-coded wire messages go through one sequence of checks
    (shape gate, decode, default fallback, forgery check, codec retract,
    protocol); a bare one skips the lingo and codec stages.  The first
    failing check drops the message with a logged rejection.  The receive
    counter advances either way, so honest peers stay in step only while no
    injected message is read on the flow."""
    w = cfg.wrappers[oid]
    buf = w.in_buffers[src]
    # The buffer changes here, and the actor may.
    cfg.dirty.update((("in", oid, src), ("out", oid)))
    n = w.recv_counters.get(src, 0)
    lingo = w.lingo_for(src, sending=False)
    w.recv_counters[src] = n + 1
    _log_switch(cfg, w, src, "recv", n)
    m = buf.popleft()
    injector = m.strategy
    injected = injector is not None

    reason = None
    msg = m.payload
    if lingo is not None:
        a = cfg.params.get((id(lingo), n))
        if a is None:
            # No honest sender coded message n under this lingo: injected
            # or desynchronised traffic, which stays out of the memo.
            a = lingo.param(n, w.seed)
        decoded = decode_wire(lingo, m.payload, a)
        if isinstance(decoded, DecodeFailure):
            reason = "decode:" + decoded.reason
        elif isinstance(decoded, DefaultFallback):
            reason = "default_fallback"
        elif not is_compliant(lingo, m.payload, a, decoded):
            reason = "noncompliant"
        else:
            if injected:
                cfg.stats["forgeries_accepted"] += 1
                _strategy_stat(cfg, injector, "dialect_accepted")
            msg = w.codec.r(decoded)
            if isinstance(msg, RetractFailure):
                reason = "malformed:" + msg.reason
    if reason is None:
        stepped = actor_step(w.actor, (src, msg))
        if isinstance(stepped, Reject):
            reason = "actor:" + stepped.reason
    if reason is not None:
        cfg.stats["rejected"] += 1
        cfg.log("reject", dst=oid, src=src, n=n, reason=reason,
                injected=injected)
        return cfg

    w.actor, outs = stepped
    w.outbox.extend(outs)
    cfg.stats["delivered"] += 1
    if injected:
        cfg.stats["forgeries_delivered"] += 1
        _strategy_stat(cfg, injector, "delivered")
    else:
        _check_desync(cfg, w, src, n, m)
    cfg.log("in", dst=oid, src=src, n=n, outcome="delivered", msg=repr(msg))
    return cfg


def _log_switch(cfg, w, peer, direction, n) -> None:
    """Log the rotation when message ``n + 1`` of a flow opens a new epoch,
    naming its lingo; call it after the counter moved."""
    policy = w.policy
    if policy is not None and policy.epoch(n + 1) != policy.epoch(n):
        cfg.log("switch", oid=w.oid, peer=peer, direction=direction,
                epoch=policy.epoch(n + 1),
                lingo=w.lingo_for(peer, direction == "send").name)


def _check_desync(cfg, w, src, n, m) -> None:
    # Honest traffic accepted under a counter other than its encode index
    # means the FIFO/counter model was violated; with an attacker in play
    # injections can shift counters, so log instead of failing the run.
    hidden = m.hidden
    if hidden is None or hidden.lingo_name is None:
        return
    if hidden.index != n:
        if cfg.attacker is None:
            raise AssertionError(
                f"honest message encoded at {hidden.index} accepted at {n}")
        cfg.log("desync", dst=w.oid, src=src, encoded=hidden.index, used=n)


def _strategy_stat(cfg, strategy, key) -> None:
    entry = cfg.per_strategy.setdefault(
        strategy, {"attempts": 0, "dialect_accepted": 0, "delivered": 0})
    entry[key] += 1


def rule_attacker(cfg: Configuration) -> Configuration:
    """One attacker action: a reveal sweep followed by one injection."""
    atk = cfg.attacker
    revealed = reveal_sweep(atk, now=cfg.clock)
    if revealed:
        cfg.log("reveal", revealed=revealed)
    candidates = _attack_candidates(cfg)
    if not candidates:
        return cfg
    strategy, (src, dst) = candidates[atk.rng.next_below(len(candidates))]
    w = cfg.wrappers.get(dst)
    lingo = w.lingo_for(src, sending=False) if w is not None else None
    forged = attempt_forgery(atk, strategy, (src, dst), lingo)
    if isinstance(forged, NoAttempt):
        return cfg
    forged.seq = cfg.seq
    cfg.seq += 1
    cfg.channel(src, dst).append(forged)
    cfg.stats["injected"] += 1
    _strategy_stat(cfg, strategy, "attempts")
    cfg.log("inject", src=src, dst=dst, strategy=strategy, seq=forged.seq,
            wire=forged.payload)
    return cfg


def _attack_candidates(cfg) -> list[tuple[str, tuple[str, str]]]:
    """(strategy, pair) for every ready strategy, strategies in the
    attacker's order and pairs in ``cfg.attack_pairs`` order.

    Readiness depends only on the key sets of the attacker's ``latest`` and
    ``leaked`` indexes, and neither ever loses a key, so the list is rebuilt
    only when one of them grew."""
    atk = cfg.attacker
    key = (len(atk.latest), len(atk.leaked))
    if cfg.candidates is not None and cfg.candidates[0] == key:
        return cfg.candidates[1]
    out = []
    for strategy in atk.config.strategies:
        flows = ready_flows(atk, strategy)
        for pair in [p for p in cfg.attack_pairs if flows is None or p in flows]:
            if strategy_ready(atk, strategy, pair[0], pair[1]):
                out.append((strategy, pair))
    cfg.candidates = (key, out)
    return out


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def _instance_enabled(cfg: Configuration, inst: tuple) -> bool:
    kind = inst[0]
    if kind == "out":
        w = cfg.wrappers[inst[1]]
        return True if w.outbox else _spontaneous(w) is not None
    if kind == "deliver":
        return bool(cfg.channels[inst[1:]])
    _, oid, src = inst
    return bool(cfg.wrappers[oid].in_buffers.get(src))


def _refresh_enabled(cfg: Configuration) -> None:
    """Bring the sorted per-kind lists ``cfg.enabled`` up to date by
    re-checking the dirty instances."""
    for inst in cfg.dirty:
        ready = cfg.enabled[inst[0]]
        i = bisect_left(ready, inst)
        present = i < len(ready) and ready[i] == inst
        if _instance_enabled(cfg, inst) != present:
            if present:
                del ready[i]
            else:
                ready.insert(i, inst)
    cfg.dirty.clear()


def _attacker_enabled(cfg: Configuration) -> bool:
    """The attacker may act at this clock: it has budget, the seeded rate
    gate passes, and some candidate is ready.  At a rate of 1 the gate
    cannot fail (``uniform01`` stays below 1), so it is not drawn."""
    atk = cfg.attacker
    if atk is None or atk.budget_left <= 0:
        return False
    rate = atk.config.injection_rate
    if rate >= 1 or uniform01(derive(cfg.seed, RATE_TAG, cfg.clock)) < rate:
        return bool(_attack_candidates(cfg))
    return False


def _enabled_instances(cfg: Configuration) -> list[tuple]:
    """Enabled instances in canonical order: out by oid, deliver by
    (src, dst), in by (oid, src), then the attacker."""
    _refresh_enabled(cfg)
    instances = cfg.enabled["out"] + cfg.enabled["deliver"] + cfg.enabled["in"]
    if _attacker_enabled(cfg):
        instances.append(("attacker",))
    return instances


def step(cfg: Configuration) -> str:
    """Apply one enabled rule instance, chosen by the seeded scheduler:
    instance ``derive(seed, SCHED_TAG, clock) % total`` of the canonical
    order, indexed across the per-kind lists without joining them.
    Raises Quiescent when nothing is enabled."""
    _refresh_enabled(cfg)
    outs, delivers, ins = (cfg.enabled["out"], cfg.enabled["deliver"],
                           cfg.enabled["in"])
    total = len(outs) + len(delivers) + len(ins) + _attacker_enabled(cfg)
    if not total:
        raise Quiescent()
    i = derive(cfg.seed, SCHED_TAG, cfg.clock) % total
    if i < len(outs):
        kind = "out"
        rule_out(cfg, outs[i][1])
    elif (i := i - len(outs)) < len(delivers):
        kind, src, dst = delivers[i]
        rule_deliver(cfg, src, dst)
    elif (i := i - len(delivers)) < len(ins):
        kind, oid, src = ins[i]
        rule_in(cfg, oid, src)
    else:
        kind = "attacker"
        rule_attacker(cfg)
    cfg.clock += 1
    return kind


def run(cfg: Configuration, max_steps: int) -> tuple[bool, int]:
    """Step until quiescence or the budget runs out.  Returns (quiesced,
    steps taken); each trace event goes to cfg.sink as it is logged."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    for i in range(max_steps):
        try:
            step(cfg)
        except Quiescent:
            return True, i
    return not _enabled_instances(cfg), max_steps


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def scenario_lingos(policy: LingoPolicy) -> list[Lingo]:
    return [] if policy is None else list(policy.lingos)


def build_report(cfg: Configuration, quiesced: bool, steps: int,
                 policy: LingoPolicy, law_samples: int = 100) -> dict:
    laws = []
    for lingo in scenario_lingos(policy):
        rng = Rng(cfg.seed, fnv64("report-laws"))
        laws.append(check_lingo_laws(lingo, law_samples, rng).to_json())
    return {
        "schema_version": 1,
        "quiesced": quiesced,
        "steps": steps,
        **cfg.stats,
        "per_strategy": {k: dict(v) for k, v in sorted(cfg.per_strategy.items())},
        "final_actors": {oid: w.actor.digest()
                         for oid, w in sorted(cfg.wrappers.items())},
        "law_checks": laws,
    }
