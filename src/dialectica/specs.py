"""Build lingos and data adaptors from their JSON spec trees.

Leaf lingos are ``{"kind": ..., ...}`` records; compositions and transforms
are single-key nodes wrapping child specs, e.g.::

    {"functional": [{"kind": "xor_nat"}, {"kind": "divide_check"}]}
    {"horizontal": {"branches": [...], "defaults": [...], "bias": [1, 1]}}
    {"sharp": {"kind": "xor_bitvec", "width": 8}}
"""

from __future__ import annotations

from .compositions import HorizontalSpec, functional, horizontal, product, tupling
from .core import Lingo, SpaceViolation
from .library import (
    make_divide_check,
    make_identity,
    make_reverse_divide_check,
    make_split_bitvec,
    make_xor_bitvec,
    make_xor_nat,
    make_xor_set,
)
from .mqtt import mqtt_codec_adaptor
from .rng import BadBias
from .transforms import (
    DataAdaptor,
    DegenerateParamSpace,
    SpaceMismatch,
    WidthOverflow,
    adapt_post,
    adapt_pre,
    authenticating,
    bitvec_nat_adaptor,
    identity_adaptor,
    nat_bitvec_adaptor,
    sharp,
    sparse_code_adaptor,
)
from .values import atoms_from_json, int_from_json, space_from_json, value_from_json


class SpecError(Exception):
    """Malformed lingo/adaptor/scenario spec."""


_BUILD_ERRORS = (KeyError, IndexError, TypeError, ValueError, SpaceViolation,
                 SpaceMismatch, WidthOverflow, DegenerateParamSpace, BadBias)


_LEAF_BUILDERS = {
    "xor_bitvec": lambda s: make_xor_bitvec(int_from_json(s["width"])),
    "xor_nat": lambda s: make_xor_nat(),
    "xor_set": lambda s: make_xor_set(atoms_from_json(s["universe"])),
    "divide_check": lambda s: make_divide_check(
        int_from_json(s.get("param_ceiling", 1 << 16))),
    "reverse_divide_check": lambda s: make_reverse_divide_check(
        int_from_json(s.get("param_ceiling", 1 << 16))),
    "identity": lambda s: make_identity(space_from_json(s["space"])),
    "split_bitvec": lambda s: make_split_bitvec(int_from_json(s["half_width"])),
}


def build_adaptor(spec: dict) -> DataAdaptor:
    try:
        kind = spec["kind"]
        if kind == "identity":
            return identity_adaptor(space_from_json(spec["space"]))
        if kind == "nat_bitvec":
            return nat_bitvec_adaptor(int_from_json(spec["width"]))
        if kind == "bitvec_nat":
            return bitvec_nat_adaptor(int_from_json(spec["width"]))
        if kind == "sparse":
            count = int_from_json(spec.get("count", 64))
            words = atoms_from_json(spec["words"]) if "words" in spec else None
            size = count if words is None else len(words)
            if not 1 <= size <= 1 << 16:
                raise ValueError(f"codebook size must be in 1..65536, got {size}")
            return sparse_code_adaptor(list(words or (f"w{i}" for i in range(count))),
                                       int_from_json(spec["width"]),
                                       int_from_json(spec.get("seed", 0)))
        if kind == "mqtt_codec":
            width = spec.get("width")
            return mqtt_codec_adaptor(None if width is None else int_from_json(width))
    except _BUILD_ERRORS as exc:
        raise SpecError(f"bad adaptor spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown adaptor kind {spec!r}")


def build_lingo(spec: dict) -> Lingo:
    """Recursively build a lingo from its spec tree."""
    if not isinstance(spec, dict):
        raise SpecError(f"lingo spec must be an object, got {spec!r}")
    if "kind" in spec:
        kind = spec["kind"]
        builder = _LEAF_BUILDERS.get(kind) if isinstance(kind, str) else None
        if builder is None:
            raise SpecError(f"unknown lingo kind {spec['kind']!r}")
        try:
            return builder(spec)
        except _BUILD_ERRORS as exc:
            raise SpecError(f"bad lingo spec {spec!r}: {exc}") from exc
    if len(spec) != 1:
        raise SpecError(f"composite spec must have a single operator key: {spec!r}")
    op, body = next(iter(spec.items()))
    try:
        if op == "sharp":
            return sharp(build_lingo(body))
        if op == "horizontal":
            branches = tuple(build_lingo(b) for b in body["branches"])
            defaults = tuple(value_from_json(d) for d in body["defaults"])
            bias = tuple(int_from_json(b) for b in body["bias"])
            return horizontal(HorizontalSpec(branches, defaults, bias),
                              seed=int_from_json(body.get("seed", 0)))
        if op == "functional":
            l1, l2 = (build_lingo(b) for b in body)
            return functional(l1, l2)
        if op == "product":
            return product([build_lingo(b) for b in body])
        if op == "tupling":
            return tupling([build_lingo(b) for b in body])
        if op == "adapt_pre":
            return adapt_pre(build_adaptor(body["adaptor"]),
                             build_lingo(body["lingo"]))
        if op == "adapt_post":
            return adapt_post(build_lingo(body["lingo"]),
                              build_adaptor(body["adaptor"]))
        if op == "auth":
            auth = authenticating(build_lingo(body["base"]),
                                  atoms_from_json(body["oids"]), m=int_from_json(body["m"]),
                                  j=int_from_json(body["j"]), k=int_from_json(body["k"]),
                                  seed=int_from_json(body["seed"]))
            return auth.base
    except SpecError:
        raise
    except _BUILD_ERRORS as exc:
        raise SpecError(f"bad {op!r} spec: {exc}") from exc
    raise SpecError(f"unknown lingo operator {op!r}")
