import json
from importlib import resources

import pytest


def scenario_path(name: str) -> str:
    return str(resources.files("dialectica") / "scenarios" / name)


@pytest.fixture
def scenarios():
    return scenario_path


def load_scenario_doc(name: str) -> dict:
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def delivered_messages(cfg) -> tuple:
    """(src, dst, repr(msg)) of every delivered message, sorted."""
    return tuple(sorted((e["src"], e["dst"], e["msg"])
                        for e in cfg.event_log if e["ev"] == "in"))


ALL_SCENARIOS = [
    "mqtt_bare.json",
    "mqtt_xor.json",
    "mqtt_xor_bitvec.json",
    "mqtt_horizontal.json",
    "mqtt_functional.json",
    "mqtt_aperiodic.json",
    "mqtt_sharp_attack.json",
    "mqtt_horizontal_dc.json",
    "mqtt_adversarial.json",
]

_XOR4 = {"kind": "xor_bitvec", "width": 4}
_DC = {"kind": "divide_check"}
# Every leaf kind, lingo operator and adaptor kind the spec language has.
ALL_SPECS = [
    _XOR4,
    {"kind": "xor_nat"},
    {"kind": "xor_set", "universe": ["a", "b", "c"]},
    _DC,
    {"kind": "reverse_divide_check"},
    {"kind": "identity", "space": {"bitvec": 4}},
    {"kind": "split_bitvec", "half_width": 2},
    {"sharp": _XOR4},
    {"horizontal": {"branches": [{"kind": "xor_nat"}, _DC],
                    "defaults": [{"nat": "0"},
                                 {"pair": [{"nat": "0"}, {"nat": "0"}]}],
                    "bias": [1, 2]}},
    {"functional": [{"kind": "xor_nat"}, _DC]},
    {"product": [_XOR4, _DC]},
    {"tupling": [_XOR4, _XOR4]},
    {"adapt_pre": {"adaptor": {"kind": "identity", "space": {"bitvec": 4}},
                   "lingo": _XOR4}},
    {"adapt_pre": {"adaptor": {"kind": "nat_bitvec", "width": 4},
                   "lingo": _XOR4}},
    {"adapt_pre": {"adaptor": {"kind": "sparse", "width": 8, "count": 8},
                   "lingo": {"kind": "xor_bitvec", "width": 8}}},
    {"adapt_pre": {"adaptor": {"kind": "mqtt_codec"},
                   "lingo": {"kind": "xor_nat"}}},
    {"adapt_post": {"lingo": _XOR4,
                    "adaptor": {"kind": "bitvec_nat", "width": 4}}},
    {"auth": {"base": {"kind": "xor_bitvec", "width": 8}, "oids": ["a", "b"],
              "m": 8, "j": 8, "k": 8, "seed": 3}},
]
