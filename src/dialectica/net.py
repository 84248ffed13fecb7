"""Wire messages shared by the simulator and the attacker model.

Each fact is read off one field: a message is injected exactly when it
names the ``strategy`` that crafted it, and bare exactly when its hidden
context names no lingo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class HiddenCtx:
    """Ground truth attached to a wire message for the reveal engine and
    runtime invariant checks.  Never readable by receiver logic or attacker
    strategies."""

    lingo_name: Optional[str]
    param: object
    plaintext: object
    index: int


@dataclass
class Message:
    """One wire message in flight.

    ``strategy`` and ``hidden`` are bookkeeping invisible to receivers: a
    wrapper processes attacker messages exactly like honest ones.
    """

    dst: str
    src: str
    payload: object          # Value, or a raw protocol message in bare runs
    seq: int = 0
    strategy: Optional[str] = None
    hidden: Optional[HiddenCtx] = None
