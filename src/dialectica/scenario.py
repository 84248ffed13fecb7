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

import copy
import json
from dataclasses import dataclass
from typing import Optional

from .attacker import STRATEGIES, AdvantageConfig, AttackerState
from .mqtt import (
    DEFAULT_BITVEC_WIDTH,
    ConnectMsg,
    DisconnectMsg,
    MqttBroker,
    MqttClient,
    PubMsg,
    SubMsg,
    UnsubMsg,
    decode_mqtt,  # noqa: F401  (perfbench/probes.py patches these two names)
    encode_mqtt,  # noqa: F401
    encoded_size,
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
from .values import atoms_from_json, int_from_json, list_from_json, prob_from_json

_COMMANDS = {"connect": ConnectMsg, "subscribe": SubMsg,
             "unsubscribe": UnsubMsg, "publish": PubMsg}


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


def _text(obj, what: str) -> str:
    """A JSON string field; any other JSON value is refused, not coerced."""
    if not isinstance(obj, str):
        raise SpecError(f"{what} must be a string, got {obj!r}")
    return obj


def _parse_cmd(obj, room: Optional[int]) -> object:
    """One client command, as the message it sends.  ``encoded_size``
    refuses fields the codec cannot frame, and with a bit-vector payload the
    message must fit ``room`` bytes.  No broker reply is longer than the
    message it answers."""
    if isinstance(obj, dict) and len(obj) == 1:
        [(key, body)] = obj.items()
        command = _COMMANDS.get(key)
        if command is not None:
            if command is PubMsg:
                if not isinstance(body, list) or len(body) != 2:
                    raise SpecError(f"publish takes [topic, value], got {body!r}")
                fields = (_text(body[0], "publish topic"),
                          _text(body[1], "publish value"))
            else:
                fields = (_text(body, key),)
            size = encoded_size(fields)
            if room is not None and size > room:
                raise SpecError(f"{key} message needs {8 * size} bits, the "
                                f"payload has {8 * room}")
            return command(*fields)
    if obj == "disconnect":
        return DisconnectMsg()
    raise SpecError(f"unknown command {obj!r}")


def _check_session(oid: str, cmds: tuple) -> None:
    """Refuse a command list the client can only stall on: a connect while
    connected, or any other command while not connected."""
    connected = False
    for i, msg in enumerate(cmds):
        if (type(msg) is ConnectMsg) == connected:
            state = "connected" if connected else "not connected"
            raise SpecError(f"client {oid}: cmds[{i}] {msg!r} would stall, "
                            f"the client is {state}")
        connected = type(msg) is not DisconnectMsg


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecError(f"{what} must be an object, got {obj!r}")
    return obj


def _parse_actor(obj, room: Optional[int]) -> object:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SpecError(f"actor spec must be a single-key object: {obj!r}")
    key, body = next(iter(obj.items()))
    if key == "client":
        oid = _text(body["oid"], "client oid")
        cmds = tuple(_parse_cmd(c, room) for c in body.get("cmds", []))
        _check_session(oid, cmds)
        return MqttClient(oid=oid, cmd_list=cmds)
    if key == "broker":
        return MqttBroker(oid=_text(body["oid"], "broker oid"))
    raise SpecError(f"unknown actor kind {key!r}")


def parse_scenario(doc: dict) -> Scenario:
    """Validate and translate one scenario document."""
    try:
        seed = int_from_json(doc["seed"])
        payload = doc.get("payload", "nat")
        if payload == "nat":
            width = None
        elif payload == "bitvec":
            width = DEFAULT_BITVEC_WIDTH
        elif isinstance(payload, dict) and "bitvec" in payload:
            width = int_from_json(payload["bitvec"])
        else:
            raise SpecError(f"unknown payload encoding {payload!r}")
        mqtt_codec_adaptor(width)   # checks the width

        policy_doc = doc.get("policy", "static")
        if policy_doc == "bare":
            policy: LingoPolicy = None
        elif policy_doc == "static":
            policy = StaticPolicy(build_lingo(doc["lingo_stack"]))
        elif isinstance(policy_doc, dict) and "aperiodic" in policy_doc:
            body = policy_doc["aperiodic"]
            policy = AperiodicPolicy(
                msg_bound=int_from_json(body["msg_bound"]),
                lingos=tuple(build_lingo(s) for s in body["lingos"]))
            if len({lingo.input_space for lingo in policy.lingos}) != 1:
                raise SpecError("aperiodic lingos must share their input space")
        else:
            raise SpecError(f"unknown policy {policy_doc!r}")

        room = None if policy is None or width is None else width // 8
        actors = [_parse_actor(a, room) for a in doc["actors"]]
        oids = [a.oid for a in actors]
        if len(set(oids)) != len(oids):
            raise SpecError(f"duplicate actor oids: {oids}")
        brokers = {a.oid for a in actors if type(a) is MqttBroker}
        stray = {c.broker for a in actors for c in getattr(a, "cmd_list", ())
                 if type(c) is ConnectMsg} - brokers
        if stray:
            raise SpecError(f"clients connect to actors that are not brokers: "
                            f"{sorted(stray)}")

        attacker = None
        targets = None
        if "attacker" in doc and doc["attacker"] is not None:
            atk = _object(doc["attacker"], "attacker")
            strategies = atoms_from_json(atk.get("strategies", []))
            for s in strategies:
                if s not in STRATEGIES:
                    raise SpecError(f"unknown strategy {s!r}")
            max_injections = int_from_json(atk.get("max_injections", 100))
            if max_injections < 0:
                raise SpecError(f"attacker max_injections must be >= 0, got "
                                f"{max_injections}")
            attacker = AttackerState(
                advantage=AdvantageConfig.from_json(
                    _object(atk.get("advantage", {}), "advantage")),
                strategies=strategies,
                max_injections=max_injections,
                injection_rate=prob_from_json(atk.get("injection_rate", 1.0)))
            if "targets" in atk:
                targets = [tuple(_text(o, "attacker target")
                                 for o in list_from_json(pair, 2))
                           for pair in list_from_json(atk["targets"])]
                unknown = sorted({o for pair in targets for o in pair} - set(oids))
                if unknown:
                    raise SpecError(f"attacker targets name unknown actors: "
                                    f"{unknown}")
                # No actor sends to itself, so such a flow carries nothing.
                looped = sorted({s for s, d in targets if s == d})
                if looped:
                    raise SpecError(f"attacker targets address their own "
                                    f"sender: {looped}")

        max_steps = int_from_json(doc.get("max_steps", 1000))
        if max_steps < 1:
            raise SpecError(f"max_steps must be >= 1, got {max_steps}")

        outputs = _object(doc.get("outputs", {}), "outputs")
        for path in outputs.values():
            if not isinstance(path, (str, type(None))):
                raise SpecError(f"output paths must be strings, got {path!r}")
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
    # Fresh mutable state per build so a scenario can be run repeatedly.
    attacker = copy.deepcopy(scenario.attacker)
    return make_configuration(scenario.actors, scenario.policy, seed,
                              codec=codec, attacker=attacker,
                              attacker_targets=scenario.attacker_targets)
