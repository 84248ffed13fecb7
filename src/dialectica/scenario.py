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

Every object in the document is closed: a key its reader does not name is
refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .attacker import STRATEGIES, AdvantageConfig, AttackerConfig
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
from .specs import SpecError, build_lingo, build_lingos
from .transforms import DataAdaptor
from .values import (
    JsonPath,
    atoms_from_json,
    int_from_json,
    list_from_json,
    object_from_json,
    path_text,
    prob_from_json,
)

_COMMANDS = {"connect": ConnectMsg, "subscribe": SubMsg,
             "unsubscribe": UnsubMsg, "publish": PubMsg}

# The keys a scenario and its attacker may have; any other key is refused.
SCENARIO_KEYS = ("seed", "payload", "actors", "lingo_stack", "policy",
                 "max_steps", "attacker", "outputs")
ATTACKER_KEYS = ("strategies", "max_injections", "injection_rate",
                 "advantage", "targets")


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario.  Nothing in it changes during a run, so every
    configuration built from it shares it."""

    seed: int
    actors: tuple
    policy: LingoPolicy
    codec: DataAdaptor    # the payload codec; bare runs never use it
    max_steps: int = 1000
    attacker: Optional[AttackerConfig] = None
    trace_path: Optional[str] = None
    report_path: Optional[str] = None


def _text(obj, what: str) -> str:
    """A JSON string field; any other JSON value is refused, not coerced."""
    if not isinstance(obj, str):
        raise SpecError(f"{what} must be a string, got {obj!r}")
    return obj


def _parse_cmd(obj, room: Optional[int], at: JsonPath) -> object:
    """One client command, as the message it sends; ``at`` is its path.
    ``encoded_size`` refuses fields the codec cannot frame, and with a
    bit-vector payload the message must fit ``room`` bytes.  No broker reply
    is longer than the message it answers."""
    if isinstance(obj, dict) and len(obj) == 1:
        [(key, body)] = obj.items()
        command = _COMMANDS.get(key)
        if command is not None:
            if command is PubMsg:
                topic, value = list_from_json(body, (at, key), 2)
                fields = (_text(topic, "publish topic"), _text(value, "publish value"))
            else:
                fields = (_text(body, key),)
            size = encoded_size(fields)
            if room is not None and size > room:
                raise SpecError(f"{key} message needs {8 * size} bits, the "
                                f"payload has {8 * room}")
            return command(*fields)
    if obj == "disconnect":
        return DisconnectMsg()
    raise SpecError(f"unknown command at {path_text(at)}: {obj!r}")


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


def _parse_actor(obj, room: Optional[int], i: int) -> object:
    at = ("scenario", "actors", i)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SpecError(f"actor spec at {path_text(at)} must be a single-key "
                        f"object: {obj!r}")
    key, body = next(iter(obj.items()))
    if key == "client":
        body = object_from_json(body, ("oid", "cmds"), (at, "client"))
        oid = _text(body["oid"], "client oid")
        cmds_at = (at, "client", "cmds")
        cmds = tuple(_parse_cmd(c, room, (cmds_at, k)) for k, c
                     in enumerate(list_from_json(body.get("cmds", []), cmds_at)))
        _check_session(oid, cmds)
        return MqttClient(oid=oid, cmd_list=cmds)
    if key == "broker":
        body = object_from_json(body, ("oid",), (at, "broker"))
        return MqttBroker(oid=_text(body["oid"], "broker oid"))
    raise SpecError(f"unknown actor kind {key!r} at {path_text(at)}")


def _refuse_repeats(items, what: str) -> None:
    if len(set(items)) != len(items):
        repeated = sorted({x for x in items if items.count(x) > 1})
        raise SpecError(f"duplicate {what}: {repeated}")


def _parse_attacker(obj, oids: list[str]) -> AttackerConfig:
    atk = object_from_json(obj, ATTACKER_KEYS, "scenario.attacker")
    strategies = atoms_from_json(atk.get("strategies", []),
                                 ("scenario.attacker", "strategies"))
    for s in strategies:
        if s not in STRATEGIES:
            raise SpecError(f"unknown strategy {s!r}")
    # A repeated entry would weigh twice in the attacker's candidate draw.
    _refuse_repeats(strategies, "attacker strategies")
    max_injections = int_from_json(atk.get("max_injections", 100))
    if max_injections < 0:
        raise SpecError(f"attacker max_injections must be >= 0, got "
                        f"{max_injections}")
    advantage = AdvantageConfig.from_json(atk.get("advantage", {}),
                                          "scenario.attacker.advantage")
    targets = None
    if "targets" in atk:
        at = ("scenario.attacker", "targets")
        targets = tuple(tuple(_text(o, "attacker target")
                              for o in list_from_json(pair, (at, i), 2))
                        for i, pair in enumerate(list_from_json(atk["targets"], at)))
        unknown = sorted({o for pair in targets for o in pair} - set(oids))
        if unknown:
            raise SpecError(f"attacker targets name unknown actors: {unknown}")
        # No actor sends to itself, so such a flow carries nothing.
        looped = sorted({s for s, d in targets if s == d})
        if looped:
            raise SpecError(f"attacker targets address their own sender: "
                            f"{looped}")
        _refuse_repeats(targets, "attacker targets")
    return AttackerConfig(
        strategies=strategies, max_injections=max_injections,
        injection_rate=prob_from_json(atk.get("injection_rate", 1.0)),
        advantage=advantage, targets=targets)


def parse_scenario(doc: dict) -> Scenario:
    """Validate and translate one scenario document."""
    try:
        doc = object_from_json(doc, SCENARIO_KEYS, "scenario")
        seed = int_from_json(doc["seed"])
        payload = doc.get("payload", "nat")
        if payload == "nat":
            width = None
        elif payload == "bitvec":
            width = DEFAULT_BITVEC_WIDTH
        elif isinstance(payload, dict):
            width = int_from_json(object_from_json(
                payload, ("bitvec",), "scenario.payload")["bitvec"])
        else:
            raise SpecError(f"unknown payload encoding {payload!r}")
        codec = mqtt_codec_adaptor(width)   # checks the width

        policy_doc = doc.get("policy", "static")
        if policy_doc != "static" and "lingo_stack" in doc:
            raise SpecError("lingo_stack is read only under the static "
                            "policy: a bare scenario has no lingo, and an "
                            "aperiodic one lists its own")
        if policy_doc == "bare":
            policy: LingoPolicy = None
        elif policy_doc == "static":
            policy = StaticPolicy(build_lingo(doc["lingo_stack"],
                                              "scenario.lingo_stack"))
        elif isinstance(policy_doc, dict):
            at = "scenario.policy.aperiodic"
            body = object_from_json(policy_doc, ("aperiodic",),
                                    "scenario.policy")["aperiodic"]
            body = object_from_json(body, ("msg_bound", "lingos"), at)
            policy = AperiodicPolicy(
                msg_bound=int_from_json(body["msg_bound"]),
                lingos=tuple(build_lingos(body["lingos"], (at, "lingos"))))
            if len({lingo.input_space for lingo in policy.lingos}) != 1:
                raise SpecError("aperiodic lingos must share their input space")
        else:
            raise SpecError(f"unknown policy {policy_doc!r}")
        for lingo in scenario_lingos(policy):
            if lingo.input_space != codec.to_space:
                raise SpecError(
                    f"lingo {lingo.name} input space does not match the "
                    f"{'nat' if width is None else width}-payload codec")

        room = None if policy is None or width is None else width // 8
        actors = tuple(_parse_actor(a, room, i) for i, a in enumerate(
            list_from_json(doc["actors"], ("scenario", "actors"))))
        oids = [a.oid for a in actors]
        _refuse_repeats(oids, "actor oids")
        brokers = {a.oid for a in actors if type(a) is MqttBroker}
        stray = {c.broker for a in actors for c in getattr(a, "cmd_list", ())
                 if type(c) is ConnectMsg} - brokers
        if stray:
            raise SpecError(f"clients connect to actors that are not brokers: "
                            f"{sorted(stray)}")

        attacker = None
        if doc.get("attacker") is not None:
            attacker = _parse_attacker(doc["attacker"], oids)

        max_steps = int_from_json(doc.get("max_steps", 1000))
        if max_steps < 1:
            raise SpecError(f"max_steps must be >= 1, got {max_steps}")

        outputs = object_from_json(doc.get("outputs", {}),
                                   ("trace_path", "report_path"),
                                   "scenario.outputs")
        for path in outputs.values():
            if not isinstance(path, (str, type(None))):
                raise SpecError(f"output paths must be strings, got {path!r}")
        return Scenario(seed=seed, actors=actors, policy=policy, codec=codec,
                        max_steps=max_steps, attacker=attacker,
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
    """A fresh run of ``scenario``.  The scenario is only read, so
    configurations built from it share it and run independently."""
    seed = scenario.seed if seed_override is None else seed_override
    return make_configuration(scenario.actors, scenario.policy, seed,
                              codec=scenario.codec, attacker=scenario.attacker)
