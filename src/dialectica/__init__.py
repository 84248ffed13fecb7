"""dialectica: protocol dialects from composable payload transformations.

The package builds invertible, parameter-driven payload transformations
(lingos), strengthens them through transforms and composition operators,
and exercises them in a deterministic simulator where dialect wrappers
protect a toy MQTT protocol against an on-path attacker.
"""

from .core import (
    DecodeFailure,
    DefaultFallback,
    Lingo,
    Rng,
    SpaceViolation,
    apply_f,
    apply_g,
    check_lingo_laws,
    is_compliant,
)
from .library import (
    make_divide_check,
    make_identity,
    make_reverse_divide_check,
    make_split_bitvec,
    make_xor_bitvec,
    make_xor_nat,
    make_xor_set,
)
from .compositions import functional, horizontal, product, tupling
from .rng import derive, throw_biased
from .transforms import (
    DataAdaptor,
    adapt_post,
    adapt_pre,
    authenticating,
    generic_recipe,
    sharp,
    xor_recipe,
    xor_sharp_recipe,
)
from .values import (
    AtomSet,
    AtomSetSpace,
    BitVec,
    BitVecSpace,
    CannotDraw,
    Nat,
    NatSpace,
    Pair,
    PairSpace,
    ParamPairSpace,
    Tagged,
    TaggedSpace,
    space_contains,
    xor_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
