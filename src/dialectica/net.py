"""Wire messages shared by the simulator and the attacker model."""

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
    dialected: bool


@dataclass
class Message:
    """One wire message in flight.

    ``injected`` and ``hidden`` are bookkeeping invisible to receivers: a
    wrapper processes attacker messages exactly like honest ones.
    """

    dst: str
    src: str
    payload: object          # Value, or a raw protocol message in bare runs
    seq: int = 0
    injected: bool = False
    strategy: Optional[str] = None
    hidden: Optional[HiddenCtx] = None
