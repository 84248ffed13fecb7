"""Declarative run descriptions and their translation into configurations.

A scenario JSON file names the actors, the lingo stack, the parameter
policy, an optional attacker, the seed, and the step budget::

    {
      "seed": 11,
      "payload": "nat",
      "actors": [
        {"client": {"oid": "c1", "cmds": [{"connect": "b"},
                                          {"subscribe": "temp"}]}},
        {"broker": {"oid": "b"}}
      ],
      "lingo_stack": {"kind": "xor_nat"},
      "policy": "static",
      "max_steps": 400,
      "outputs": {"trace_path": "trace.jsonl", "report_path": "report.json"}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .attacker import STRATEGIES, AdvantageConfig, AttackerState
from .mqtt import (
    DEFAULT_BITVEC_WIDTH,
    Connect,
    Disconnect,
    MqttBroker,
    MqttClient,
    Publish,
    Subscribe,
    Unsubscribe,
    decode_mqtt,  # noqa: F401  (perfbench/probes.py patches these two names)
    encode_mqtt,  # noqa: F401
    mqtt_codec_adaptor,
)
from .runtime import (
    AperiodicPolicy,
    Configuration,
    LingoPolicy,
    StaticPolicy,
    make_configuration,
    scenario_lingos,
)
from .specs import SpecError, build_lingo


@dataclass
class Scenario:
    seed: int
    actors: list
    policy: LingoPolicy
    max_steps: int = 1000
    payload_width: Optional[int] = None   # None encodes payloads as naturals
    attacker: Optional[AttackerState] = None
    attacker_targets: Optional[list[tuple[str, str]]] = None
    trace_path: Optional[str] = None
    report_path: Optional[str] = None


def _parse_cmd(obj) -> object:
    if obj == "disconnect":
        return Disconnect()
    if isinstance(obj, dict) and len(obj) == 1:
        key, body = next(iter(obj.items()))
        if key == "connect":
            return Connect(str(body))
        if key == "subscribe":
            return Subscribe(str(body))
        if key == "unsubscribe":
            return Unsubscribe(str(body))
        if key == "publish":
            topic, value = body
            return Publish(str(topic), str(value))
    raise SpecError(f"unknown command {obj!r}")


def _parse_actor(obj) -> object:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SpecError(f"actor spec must be a single-key object: {obj!r}")
    key, body = next(iter(obj.items()))
    if key == "client":
        return MqttClient(oid=str(body["oid"]),
                          cmd_list=tuple(_parse_cmd(c)
                                         for c in body.get("cmds", [])))
    if key == "broker":
        return MqttBroker(oid=str(body["oid"]))
    raise SpecError(f"unknown actor kind {key!r}")


def parse_scenario(doc: dict) -> Scenario:
    """Validate and translate one scenario document."""
    try:
        seed = int(doc["seed"])
        payload = doc.get("payload", "nat")
        if payload == "nat":
            width = None
        elif payload == "bitvec":
            width = DEFAULT_BITVEC_WIDTH
        elif isinstance(payload, dict) and "bitvec" in payload:
            width = int(payload["bitvec"])
        else:
            raise SpecError(f"unknown payload encoding {payload!r}")
        if width is not None and width < 1:
            raise SpecError(f"payload bit-vector width must be >= 1, got {width}")

        actors = [_parse_actor(a) for a in doc["actors"]]
        oids = [a.oid for a in actors]
        if len(set(oids)) != len(oids):
            raise SpecError(f"duplicate actor oids: {oids}")
        for actor in actors:
            for cmd in getattr(actor, "cmd_list", ()):
                if isinstance(cmd, Connect) and cmd.broker not in oids:
                    raise SpecError(f"{actor.oid} connects to unknown actor "
                                    f"{cmd.broker!r}")

        policy_doc = doc.get("policy", "static")
        if policy_doc == "bare":
            policy: LingoPolicy = None
        elif policy_doc == "static":
            policy = StaticPolicy(build_lingo(doc["lingo_stack"]))
        elif isinstance(policy_doc, dict) and "aperiodic" in policy_doc:
            body = policy_doc["aperiodic"]
            lingos = tuple(build_lingo(s) for s in body["lingos"])
            first = lingos[0]
            for lingo in lingos:
                if lingo.input_space != first.input_space:
                    raise SpecError("aperiodic lingos must share their input space")
            policy = AperiodicPolicy(msg_bound=int(body["msg_bound"]),
                                     lingos=lingos)
        else:
            raise SpecError(f"unknown policy {policy_doc!r}")

        attacker = None
        targets = None
        if "attacker" in doc and doc["attacker"] is not None:
            atk = doc["attacker"]
            strategies = tuple(atk.get("strategies", []))
            for s in strategies:
                if s not in STRATEGIES:
                    raise SpecError(f"unknown strategy {s!r}")
            attacker = AttackerState(
                advantage=AdvantageConfig.from_json(atk.get("advantage", {})),
                strategies=strategies,
                max_injections=int(atk.get("max_injections", 100)),
                injection_rate=float(atk.get("injection_rate", 1.0)))
            if "targets" in atk:
                targets = [(str(s), str(d)) for s, d in atk["targets"]]
                unknown = sorted({o for pair in targets for o in pair} - set(oids))
                if unknown:
                    raise SpecError(f"attacker targets name unknown actors: "
                                    f"{unknown}")

        max_steps = int(doc.get("max_steps", 1000))
        if max_steps < 1:
            raise SpecError(f"max_steps must be >= 1, got {max_steps}")

        outputs = doc.get("outputs", {})
        return Scenario(seed=seed, actors=actors, policy=policy,
                        max_steps=max_steps,
                        payload_width=width, attacker=attacker,
                        attacker_targets=targets,
                        trace_path=outputs.get("trace_path"),
                        report_path=outputs.get("report_path"))
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad scenario: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


def build_configuration(scenario: Scenario, seed_override: Optional[int] = None
                        ) -> Configuration:
    seed = scenario.seed if seed_override is None else seed_override
    width = scenario.payload_width
    codec = None if scenario.policy is None else mqtt_codec_adaptor(width)
    for lingo in scenario_lingos(scenario.policy):
        if lingo.input_space != codec.to_space:
            raise SpecError(
                f"lingo {lingo.name} input space does not match the "
                f"{'nat' if width is None else width}-payload codec")
    attacker = scenario.attacker
    if attacker is not None:
        # Fresh mutable state per build so a scenario can be run repeatedly.
        attacker = AttackerState(advantage=attacker.advantage,
                                 strategies=attacker.strategies,
                                 max_injections=attacker.max_injections,
                                 injection_rate=attacker.injection_rate)
    return make_configuration(scenario.actors, scenario.policy, seed,
                              codec=codec, attacker=attacker,
                              attacker_targets=scenario.attacker_targets)
