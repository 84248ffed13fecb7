"""Deterministic simulator for dialect-wrapped protocol actors.

Each protocol actor is wrapped in a meta-object that encodes outgoing
messages with the codec adaptor ``mqtt_codec_adaptor`` and the active lingo
(rule ``out``), buffers arriving wire messages (rule ``deliver``), and
decodes buffered batches back into protocol messages (rule ``in``).  A
rejected batch is logged with the first failing check's reason, in check
order: ``decode:`` (shape gate or g), ``default_fallback``, ``noncompliant``
(forgery check), ``malformed:`` (codec retract), ``actor:`` (protocol).
Per-peer send/receive counters are the only per-flow state: message ``n``
of a flow takes its parameter from the lingo's stream at index ``n``, and
its lingo from the policy as a pure function of (seed, flow, n).  An
aperiodic policy rotates the lingo every ``msg_bound`` messages of a flow;
sender and receiver agree because both count the same messages.

Channels are FIFO and loss-free per (src, dst): counter-keyed parameters
need ordered delivery.  The scheduler enumerates enabled rule instances in
a canonical order and picks one with the shared seed, so a run is a pure
function of (configuration, seed).

The enabled set is maintained, not rebuilt: each rule marks the instances
it touches as dirty (``Configuration.channel()`` marks its channel's
``deliver``), and the scheduler re-checks only those.  A wrapper's pending
output is probed again only when its actor object changed.  Attack
candidates are found through the attacker's per-flow capture and leak
indexes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .attacker import (
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
    is_compliant,
    wire_fits,
)
from .mqtt import Reject, actor_step
from .net import HiddenCtx, Message
from .rng import ATTACKER_TAG, MASK64, RATE_TAG, SCHED_TAG, derive, fnv64, throw_biased, uniform01
from .transforms import DataAdaptor, RetractFailure
from .values import value_to_json


class Quiescent(Exception):
    """No rule instance is enabled."""


@dataclass(frozen=True)
class StaticPolicy:
    lingo: Lingo

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

    def lingo_at(self, seed: int, src: str, dst: str, n: int) -> Lingo:
        k = len(self.lingos)
        if k == 1:
            return self.lingos[0]
        tag = ((n // self.msg_bound) ^ fnv64(src + "|" + dst)) & MASK64
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
            raise ValueError("dialected wrappers need a payload codec")
        self.oid = oid
        self.actor = actor
        self.policy = policy
        self.seed = seed
        self.codec = codec
        self.outbox: deque = deque()
        self.in_buffers: dict[str, deque[Message]] = {}
        self.send_counters: dict[str, int] = {}
        self.recv_counters: dict[str, int] = {}
        # (actor, has pending output) from the last spontaneous-step probe;
        # actors are immutable, so the answer holds while the object does.
        self.probe: Optional[tuple[object, bool]] = None

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
    attacker_targets: Optional[list[tuple[str, str]]] = None
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

    def __post_init__(self) -> None:
        self.dirty.update(("out", oid) for oid in self.wrappers)

    def channel(self, src: str, dst: str) -> deque:
        """The (src, dst) channel; callers may change it, so its deliver
        instance is marked dirty."""
        self.dirty.add(("deliver", src, dst))
        return self.channels.setdefault((src, dst), deque())

    @cached_property
    def attack_pairs(self) -> list[tuple[str, str]]:
        """Flows the attacker may target, in candidate order."""
        if self.attacker_targets is not None:
            return list(self.attacker_targets)
        oids = sorted(self.wrappers)
        return [(s, d) for s in oids for d in oids if s != d]

    def log(self, ev: str, **fields) -> None:
        self.event_log.append({"t": self.clock, "ev": ev, **fields})


def make_configuration(actors, policy: LingoPolicy, seed: int,
                       codec: Optional[DataAdaptor] = None,
                       attacker: Optional[AttackerState] = None,
                       attacker_targets=None) -> Configuration:
    wrappers = {a.oid: DialectWrapper(a.oid, a, policy, seed, codec)
                for a in actors}
    if attacker is not None and attacker.rng is None:
        attacker.rng = Rng(seed, ATTACKER_TAG)
    return Configuration(wrappers=wrappers, seed=seed, attacker=attacker,
                         attacker_targets=attacker_targets)


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

def _out_pending(w: DialectWrapper) -> bool:
    if w.outbox:
        return True
    if w.probe is None or w.probe[0] is not w.actor:
        stepped = actor_step(w.actor, None)
        w.probe = (w.actor,
                   not isinstance(stepped, Reject) and bool(stepped[1]))
    return w.probe[1]


def rule_out(cfg: Configuration, oid: str) -> Configuration:
    """Transform one pending outbound protocol message and put the wire
    values on the channel; the attacker sees copies."""
    w = cfg.wrappers[oid]
    if not w.outbox:
        actor2, outs = actor_step(w.actor, None)
        w.actor = actor2
        w.outbox.extend(outs)
    dst, msg = w.outbox.popleft()
    cfg.dirty.add(("out", oid))
    n = w.send_counters.get(dst, 0)
    lingo = w.lingo_for(dst, sending=True)
    w.send_counters[dst] = n + 1
    _log_switch(cfg, w, dst, "send", n)
    if lingo is None:
        wire_batch: list = [msg]
        a = None
        plaintext: object = msg
    else:
        plaintext = w.codec.j(msg)
        a = lingo.param(n, w.seed)
        wire_batch = lingo.f([plaintext], a)
    hidden = HiddenCtx(lingo_name=lingo.name if lingo else None, param=a,
                       plaintext=plaintext, index=n, dialected=lingo is not None)
    ch = cfg.channel(oid, dst)
    for wv in wire_batch:
        m = Message(dst=dst, src=oid, payload=wv, seq=cfg.seq, hidden=hidden)
        cfg.seq += 1
        ch.append(m)
        if cfg.attacker is not None:
            observe(cfg.attacker, m, cfg.clock, hidden)
    cfg.stats["honest_sends"] += 1
    cfg.log("out", src=oid, dst=dst, n=n,
            lingo=lingo.name if lingo else None,
            wire=[_wire_json(v) for v in wire_batch])
    return cfg


def rule_deliver(cfg: Configuration, src: str, dst: str) -> Configuration:
    """Move the channel head into the receiver's in-buffer."""
    m = cfg.channel(src, dst).popleft()
    cfg.wrappers[dst].in_buffers.setdefault(src, deque()).append(m)
    cfg.dirty.add(("in", dst, src))
    cfg.log("deliver", src=src, dst=dst, seq=m.seq)
    return cfg


def rule_in(cfg: Configuration, oid: str, src: str) -> Configuration:
    """Decode one buffered batch and hand the plaintext to the inner actor.

    Bare and dialected batches go through one sequence of checks (shape
    gate, decode, default fallback, forgery check, codec retract, protocol);
    a bare batch skips the lingo and codec stages.  The first failing check
    drops the batch with a logged rejection.  The receive counter advances
    either way so honest peers stay in step."""
    w = cfg.wrappers[oid]
    buf = w.in_buffers[src]
    # The buffer and receive lingo change here, and the actor may.
    cfg.dirty.update((("in", oid, src), ("out", oid)))
    n = w.recv_counters.get(src, 0)
    lingo = w.lingo_for(src, sending=False)
    w.recv_counters[src] = n + 1
    _log_switch(cfg, w, src, "recv", n)
    batch = [buf.popleft() for _ in range(lingo.egress_arity if lingo else 1)]
    # The strategy of the batch's first injected message, if any.
    injector = next((m.strategy or "?" for m in batch if m.injected), None)
    injected = injector is not None

    reason = None
    msg = batch[0].payload
    if lingo is not None:
        wire_batch = [m.payload for m in batch]
        a = lingo.param(n, w.seed)
        decoded = (lingo.g(list(wire_batch), a) if wire_fits(lingo, wire_batch)
                   else DecodeFailure("wire value has the wrong shape"))
        if isinstance(decoded, DecodeFailure):
            reason = "decode:" + decoded.reason
        elif isinstance(decoded, DefaultFallback):
            reason = "default_fallback"
        elif lingo.f_checkable and not is_compliant(lingo, list(wire_batch), a):
            reason = "noncompliant"
        else:
            if injected:
                cfg.stats["forgeries_accepted"] += 1
                _strategy_stat(cfg, injector, "dialect_accepted")
            msg = w.codec.r(decoded[0])
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
        _check_desync(cfg, w, src, n, batch)
    cfg.log("in", dst=oid, src=src, n=n, outcome="delivered", msg=repr(msg))
    return cfg


def _log_switch(cfg, w, peer, direction, n) -> None:
    """Log the rotation that takes effect after message ``n`` of a flow,
    naming the lingo of message ``n + 1``; call it after the counter moved."""
    policy = w.policy
    if isinstance(policy, AperiodicPolicy) and (n + 1) % policy.msg_bound == 0:
        cfg.log("switch", oid=w.oid, peer=peer, direction=direction,
                epoch=(n + 1) // policy.msg_bound,
                lingo=w.lingo_for(peer, direction == "send").name)


def _check_desync(cfg, w, src, n, batch) -> None:
    # Honest traffic accepted under a counter other than its encode index
    # means the FIFO/counter model was violated; with an attacker in play
    # injections can shift counters, so log instead of failing the run.
    hidden = batch[0].hidden
    if hidden is None or not hidden.dialected:
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
    before = len(atk.clear)
    reveal_sweep(atk, now=cfg.clock, rng=atk.rng)
    if len(atk.clear) != before:
        cfg.log("reveal", revealed=len(atk.clear) - before)
    candidates = _attack_candidates(cfg)
    if not candidates:
        return cfg
    strategy, (src, dst) = candidates[atk.rng.next_below(len(candidates))]
    w = cfg.wrappers.get(dst)
    lingo = w.lingo_for(src, sending=False) if w is not None else None
    forged = attempt_forgery(atk, strategy, (src, dst), atk.rng,
                             wire_space=lingo.output_space if lingo else None,
                             lingo=lingo)
    if isinstance(forged, NoAttempt):
        return cfg
    forged.seq = cfg.seq
    cfg.seq += 1
    cfg.channel(src, dst).append(forged)
    cfg.stats["injected"] += 1
    _strategy_stat(cfg, strategy, "attempts")
    cfg.log("inject", src=src, dst=dst, strategy=strategy, seq=forged.seq,
            wire=_wire_json(forged.payload))
    return cfg


def _attack_candidates(cfg) -> list[tuple[str, tuple[str, str]]]:
    """(strategy, pair) for every ready strategy, strategies in the
    attacker's order and pairs in ``cfg.attack_pairs`` order."""
    atk = cfg.attacker
    out = []
    for strategy in atk.strategies:
        for pair in _pairs_within(cfg, ready_flows(atk, strategy)):
            if strategy_ready(atk, strategy, pair[0], pair[1], None):
                out.append((strategy, pair))
    return out


def _pairs_within(cfg, flows) -> list[tuple[str, str]]:
    """The attack pairs among ``flows`` (None: all of them), in order."""
    if flows is None:
        return cfg.attack_pairs
    if cfg.attacker_targets is not None:
        return [p for p in cfg.attacker_targets if p in flows]
    # The all-pairs order is sorted order; a flow to or from a non-actor, or
    # to its own sender, is not an attack pair.
    return sorted(p for p in flows if p[0] != p[1]
                  and p[0] in cfg.wrappers and p[1] in cfg.wrappers)


def _wire_json(v) -> object:
    try:
        return value_to_json(v)
    except TypeError:
        return {"raw": repr(v)}


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def _instance_enabled(cfg: Configuration, inst: tuple) -> bool:
    kind = inst[0]
    if kind == "out":
        return _out_pending(cfg.wrappers[inst[1]])
    if kind == "deliver":
        return bool(cfg.channels[inst[1:]])
    _, oid, src = inst
    w = cfg.wrappers[oid]
    buf = w.in_buffers.get(src)
    if not buf:
        return False
    lingo = w.lingo_for(src, sending=False)
    return len(buf) >= (lingo.egress_arity if lingo else 1)


def _enabled_instances(cfg: Configuration) -> list[tuple]:
    """Enabled instances in canonical order: out by oid, deliver by
    (src, dst), in by (oid, src), then the attacker."""
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
    instances = cfg.enabled["out"] + cfg.enabled["deliver"] + cfg.enabled["in"]
    atk = cfg.attacker
    if atk is not None and atk.budget_left > 0:
        gate = uniform01(derive(cfg.seed, RATE_TAG, cfg.clock))
        if gate < atk.injection_rate and _attack_candidates(cfg):
            instances.append(("attacker",))
    return instances


def step(cfg: Configuration) -> str:
    """Apply one enabled rule instance, chosen by the seeded scheduler.
    Raises Quiescent when nothing is enabled."""
    instances = _enabled_instances(cfg)
    if not instances:
        raise Quiescent()
    pick = instances[derive(cfg.seed, SCHED_TAG, cfg.clock) % len(instances)]
    kind = pick[0]
    if kind == "out":
        rule_out(cfg, pick[1])
    elif kind == "deliver":
        rule_deliver(cfg, pick[1], pick[2])
    elif kind == "in":
        rule_in(cfg, pick[1], pick[2])
    else:
        rule_attacker(cfg)
    cfg.clock += 1
    return kind


def run(cfg: Configuration, max_steps: int) -> tuple[bool, int]:
    """Step until quiescence or the budget runs out.  Returns (quiesced,
    steps taken); the trace accumulates in cfg.event_log."""
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

def actor_digest(actor) -> dict:
    from .mqtt import MqttBroker, MqttClient
    if isinstance(actor, MqttClient):
        return {"type": "client", "peer": actor.peer,
                "last_recv": dict(actor.last_recv),
                "pending_cmds": len(actor.cmd_list),
                "awaiting": actor.awaiting}
    if isinstance(actor, MqttBroker):
        return {"type": "broker", "peers": sorted(actor.peers),
                "subscribers": {t: sorted(s) for t, s in actor.subscribers}}
    return {"type": type(actor).__name__}


def scenario_lingos(policy: LingoPolicy) -> list[Lingo]:
    if policy is None:
        return []
    if isinstance(policy, StaticPolicy):
        return [policy.lingo]
    return list(policy.lingos)


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
        "final_actors": {oid: actor_digest(w.actor)
                         for oid, w in sorted(cfg.wrappers.items())},
        "law_checks": laws,
    }
