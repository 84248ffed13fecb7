"""Oracle: a frozen copy of the pair-aware wrapper that ``authenticating``
returned before it returned a plain lingo.  Its ``param2(n, pair)`` is what
``authenticating(inner, list(pair), m, j, k, seed).param(n, s)`` must
compute for every caller seed ``s``; ``encode``/``decode`` are that lingo's
``f``/``g`` at ``param2``, and ``code``/``hash`` read and make the
embedded code word."""

from dataclasses import dataclass

from dialectica.core import DecodeFailure, Lingo, Rng, SpaceViolation
from dialectica.rng import SAMPLE_TAG, derive, fnv64
from dialectica.transforms import AuthParam, _apply_involution
from dialectica.values import BitVec, BitVecSpace, CannotDraw, Nat, Value

_INVO_TAG = fnv64("involution")
_HASH_TAG = fnv64("auth-hash")


def _wire_bits(wire: Value, width: int) -> int:
    """A frozen copy of the bit reader the transform used while it also
    took natural-number bases."""
    if isinstance(wire, BitVec):
        bits = wire.bits
    elif isinstance(wire, Nat):
        bits = wire.n
    else:
        raise SpaceViolation(f"wire value {wire!r} is not a bit vector")
    if bits >= (1 << width):
        raise SpaceViolation(f"wire value exceeds {width} bits")
    return bits


@dataclass(frozen=True)
class OldAuthLingo:
    inner: Lingo                     # the original lingo the code protects
    m: int                           # payload bit-length
    j: int                           # code bit-length
    k: int                           # nonce bit-length
    seed: int                        # enclave secret keying hash and involution

    def hash(self, n: int, pair: tuple[str, str]) -> BitVec:
        """Keyed j-bit code for (nonce, ordered oid pair)."""
        a, b = pair
        if a == b:
            raise ValueError("oid pair must be ordered and distinct")
        if not (0 <= n < (1 << self.k)):
            raise CannotDraw(f"nonce must be below 2**{self.k}, got {n}; use "
                             f"fewer samples, observations or messages per "
                             f"flow, or a larger k")
        word = derive(self.seed, _HASH_TAG ^ fnv64(a + ">" + b), n)
        return BitVec(self.j, word & ((1 << self.j) - 1))

    def involution(self, n: int) -> tuple[int, ...]:
        """Secret bit-position involution for nonce n."""
        width = self.m + self.j
        perm = [-1] * width
        rng = Rng(derive(self.seed, _INVO_TAG, n), SAMPLE_TAG)
        for i in range(width):
            if perm[i] != -1:
                continue
            free = [p for p in range(i, width) if perm[p] == -1]
            partner = free[rng.next_below(len(free))]
            perm[i], perm[partner] = partner, i
        return tuple(perm)

    def param2(self, n: int, pair: tuple[str, str]) -> AuthParam:
        return AuthParam(a0=self.inner.param(n, self.seed),
                         sigma=self.involution(n),
                         code_word=self.hash(n, pair).bits)

    def code(self, wire: Value, a: AuthParam) -> BitVec:
        """The last j bits of the un-scrambled wire vector."""
        bits = _apply_involution(_wire_bits(wire, self.m + self.j),
                                 self.m + self.j, a.sigma)
        return BitVec(self.j, bits & ((1 << self.j) - 1))

    def encode(self, d1: Value, n: int, pair: tuple[str, str]) -> BitVec:
        a = self.param2(n, pair)
        width = self.m + self.j
        payload = _wire_bits(self.inner.f(d1, a.a0), self.m)
        concat = (payload << self.j) | a.code_word
        return BitVec(width, _apply_involution(concat, width, a.sigma))

    def decode(self, wire: Value, n: int, pair: tuple[str, str]):
        a = self.param2(n, pair)
        width = self.m + self.j
        bits = _apply_involution(_wire_bits(wire, width), width, a.sigma)
        payload = bits >> self.j
        if isinstance(self.inner.output_space, BitVecSpace):
            mid: Value = BitVec(self.inner.output_space.width, payload)
            if not mid.in_range:
                return DecodeFailure("payload bits outside base output space")
        else:
            mid = Nat(payload)
        return self.inner.g(mid, a.a0)
