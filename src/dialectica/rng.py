"""Deterministic keyed 64-bit streams.

All randomness in the package is defined by ``derive``, a SplitMix64
finalizer over a mixed (seed, stream_tag, index) key.  The same triple gives
the same output on every platform, which is what makes traces reproducible
and lets sender and receiver agree on per-message parameters from a shared
seed alone.

``derive`` is the definition and the one-shot form, for a word whose seed
or tag changes from call to call.  An ``Rng`` is the stream of words under
one (seed, stream_tag): it mixes the pair into its key once, when it is
built, and word i finalizes that key with i mixed in, equal to
``derive(seed, stream_tag, i)``.  ``next_u64`` reads the word at ``index``
and advances; ``at`` reads any word without advancing.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Stream tags reserved by the package; user code may use any other values.
DICE_TAG = 0x00D1CE00D1CE00D1
SCHED_TAG = 0x5C4ED0005C4ED000
ATTACKER_TAG = 0xA77AC4E2A77AC4E2
SAMPLE_TAG = 0x5A3B7E005A3B7E00
RATE_TAG = 0x2A7E2A7E2A7E2A7E


def derive(seed: int, stream_tag: int, index: int) -> int:
    """SplitMix64 finalization of seed XOR rotl(stream_tag,17) XOR index*GOLDEN."""
    # rotl(tag, 17) inlined: the two shifted halves share no bit, so XOR
    # joins them, and the final mask drops what rotates past bit 63.
    tag = stream_tag & MASK64
    z = (seed ^ (tag << 17) ^ (tag >> 47) ^ (index * GOLDEN)) & MASK64
    z = (z + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform01(word: int) -> float:
    """Map a 64-bit word to [0, 1); the top 53 bits keep the result below 1."""
    return (word >> 11) / (1 << 53)


def fnv64(text: str) -> int:
    """FNV-1a over the UTF-8 bytes; used to key per-lingo parameter streams."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


class Rng:
    """Stateful view on one derive stream: each ``next_*`` call consumes
    the word at ``index``.  ``seed`` and ``stream_tag`` are read-only, as
    the key mixed from them is fixed when the stream is built."""

    __slots__ = ("_seed", "_stream_tag", "_key", "index")

    def __init__(self, seed: int, stream_tag: int, index: int = 0) -> None:
        self._seed = seed
        self._stream_tag = stream_tag
        self.index = index
        # derive's key without the index; masked now, since derive masks
        # after mixing the index in and the low 64 bits are all it keeps.
        tag = stream_tag & MASK64
        self._key = (seed ^ (tag << 17) ^ (tag >> 47)) & MASK64

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def stream_tag(self) -> int:
        return self._stream_tag

    def __eq__(self, other):
        if other.__class__ is Rng:
            return (self._seed, self._stream_tag, self.index) == (
                other._seed, other._stream_tag, other.index)
        return NotImplemented

    def __repr__(self):
        return (f"Rng(seed={self._seed!r}, stream_tag={self._stream_tag!r}, "
                f"index={self.index!r})")

    def at(self, i: int) -> int:
        """Word i of the stream, ``derive(seed, stream_tag, i)``; ``index``
        does not move."""
        z = ((self._key ^ i * GOLDEN) + GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_u64(self) -> int:
        # at(index), inlined: every draw of a stream comes through here
        i = self.index
        self.index = i + 1
        z = ((self._key ^ i * GOLDEN) + GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return uniform01(self.next_u64())

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def throw_biased(seed: int, n: int, bias: tuple[int, ...]) -> int:
    """Face (1-based) of the n-th throw of a k-face dice with weights ``bias``.

    Face j comes up with long-run frequency bias[j-1] / sum(bias).
    """
    if len(bias) < 2:
        raise ValueError("dice needs at least 2 faces")
    if any(b <= 0 for b in bias):
        raise ValueError(f"all bias weights must be >= 1, got {bias}")
    total = sum(bias)
    r = derive(seed, DICE_TAG, n) % total
    acc = 0
    for j, b in enumerate(bias, start=1):
        acc += b
        if acc > r:
            return j
    raise AssertionError("unreachable")
