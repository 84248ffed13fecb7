"""Scale-family scenario generator for the benchmark.

One broker ``b`` and N clients.  Client i connects, subscribes to topic
``t(i mod T)`` and publishes M values to ``t((i+1) mod T)``.  Payloads are
``width``-bit vectors under the static lingo ``sharp(xor_bitvec width)``.
The attacker variant adds an on-path attacker with the replay and
xor_sharp_recipe strategies.

The scenario is a pure function of its arguments.  This module imports
nothing from the program under test, so a change to the program cannot
change the benchmark's inputs.
"""

from __future__ import annotations

import json
import random

# Every generated run must quiesce well inside this budget; a run that hits
# it measures the budget, not the workload, and fails its pinned exit code.
MAX_STEPS = 100_000

# The simulator seed is fixed and the workload seed draws only the
# published values.  Between simulator seeds the attacker run swings by
# about +-10% in steps and up to 2x in time, because each injected message
# desynchronises one flow at a seed-dependent moment; the honest run's step
# cost moves with the schedule too.  With the seed fixed every workload seed
# gives the same simulated work.
SCHEDULE_SEED = 1729


def scale_scenario(n_clients: int, publishes: int, topics: int, width: int,
                   attacker: bool, seed: int) -> dict:
    """Scenario document for one member of the family; ``seed`` draws the
    published values."""
    rnd = random.Random(f"scale:{n_clients}:{publishes}:{topics}:{width}:"
                        f"{int(attacker)}:{seed}")
    actors = []
    for i in range(n_clients):
        cmds: list = [{"connect": "b"}, {"subscribe": f"t{i % topics}"}]
        # Fixed-length values keep the codec work the same for every seed.
        cmds += [{"publish": [f"t{(i + 1) % topics}",
                              f"{rnd.randrange(10 ** 8):08d}"]}
                 for _ in range(publishes)]
        actors.append({"client": {"oid": f"c{i:03d}", "cmds": cmds}})
    actors.append({"broker": {"oid": "b"}})
    doc = {
        "seed": SCHEDULE_SEED,
        "payload": {"bitvec": width},
        "actors": actors,
        "lingo_stack": {"sharp": {"kind": "xor_bitvec", "width": width}},
        "policy": "static",
        "max_steps": MAX_STEPS,
    }
    if attacker:
        doc["attacker"] = {
            "strategies": ["replay", "xor_sharp_recipe"],
            "injection_rate": 0.05,
            "advantage": {"t_max": [[50, 0.01]]},
            "max_injections": 1_000_000,
        }
    return doc


def scenario_bytes(doc: dict) -> bytes:
    """Canonical file contents for a scenario document."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            ).encode("utf-8")
