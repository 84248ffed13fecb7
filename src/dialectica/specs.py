"""Build lingos and data adaptors from their JSON spec trees.

Leaf lingos are ``{"kind": ..., ...}`` records; compositions and transforms
are single-key nodes wrapping child specs, e.g.::

    {"functional": [{"kind": "xor_nat"}, {"kind": "divide_check"}]}
    {"horizontal": {"branches": [...], "defaults": [...], "bias": [1, 1]}}
    {"sharp": {"kind": "xor_bitvec", "width": 8}}
"""

from __future__ import annotations

from .compositions import functional, horizontal, product, tupling
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
    adapt_post,
    adapt_pre,
    authenticating,
    bitvec_nat_adaptor,
    identity_adaptor,
    nat_bitvec_adaptor,
    sharp,
    sparse_code_adaptor,
)
from .values import (
    atoms_from_json,
    int_from_json,
    list_from_json,
    JsonPath,
    object_from_json,
    path_text,
    space_from_json,
    value_from_json,
)


class SpecError(Exception):
    """Malformed lingo/adaptor/scenario spec."""


_BUILD_ERRORS = (KeyError, IndexError, TypeError, ValueError, SpaceViolation,
                 SpaceMismatch, DegenerateParamSpace, BadBias)


# The keys each spec object may have: a leaf lingo or an adaptor by its
# kind, an operator's object body by its operator.
_KIND_FIELDS = {
    "xor_bitvec": ("kind", "width"), "xor_nat": ("kind",),
    "xor_set": ("kind", "universe"), "divide_check": ("kind", "param_ceiling"),
    "reverse_divide_check": ("kind", "param_ceiling"),
    "identity": ("kind", "space"), "split_bitvec": ("kind", "half_width"),
    "nat_bitvec": ("kind", "width"), "bitvec_nat": ("kind", "width"),
    "sparse": ("kind", "count", "width", "seed"),
    "mqtt_codec": ("kind", "width"),
}
_OPERATOR_FIELDS = {
    "horizontal": ("branches", "defaults", "bias", "seed"),
    "adapt_pre": ("adaptor", "lingo"), "adapt_post": ("lingo", "adaptor"),
    "auth": ("base", "oids", "m", "j", "k", "seed"),
}

_LEAF_BUILDERS = {
    "xor_bitvec": lambda s, at: make_xor_bitvec(int_from_json(s["width"])),
    "xor_nat": lambda s, at: make_xor_nat(),
    "xor_set": lambda s, at: make_xor_set(atoms_from_json(s["universe"], (at, "universe"))),
    "divide_check": lambda s, at: make_divide_check(
        int_from_json(s.get("param_ceiling", 1 << 16))),
    "reverse_divide_check": lambda s, at: make_reverse_divide_check(
        int_from_json(s.get("param_ceiling", 1 << 16))),
    "identity": lambda s, at: make_identity(space_from_json(s["space"], (at, "space"))),
    "split_bitvec": lambda s, at: make_split_bitvec(int_from_json(s["half_width"])),
}


def build_adaptor(spec: dict, at: JsonPath = "adaptor") -> DataAdaptor:
    """Build a data adaptor from its spec; ``at``, the spec's path in its
    document, is named when the spec has a stray key."""
    try:
        kind = spec["kind"]
        spec = object_from_json(spec, _KIND_FIELDS.get(kind, ("kind",)), at)
        if kind == "identity":
            return identity_adaptor(space_from_json(spec["space"], (at, "space")))
        if kind == "nat_bitvec":
            return nat_bitvec_adaptor(int_from_json(spec["width"]))
        if kind == "bitvec_nat":
            return bitvec_nat_adaptor(int_from_json(spec["width"]))
        if kind == "sparse":
            count = int_from_json(spec.get("count", 64))
            if not 1 <= count <= 1 << 16:
                raise ValueError(f"codebook size must be in 1..65536, got {count}")
            return sparse_code_adaptor(count, int_from_json(spec["width"]),
                                       int_from_json(spec.get("seed", 0)))
        if kind == "mqtt_codec":
            width = spec.get("width")
            return mqtt_codec_adaptor(None if width is None else int_from_json(width))
    except _BUILD_ERRORS as exc:
        raise SpecError(f"bad adaptor spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown adaptor kind {spec!r}")


def build_lingo(spec: dict, at: JsonPath = "lingo") -> Lingo:
    """Recursively build a lingo from its spec tree; ``at``, the spec's path
    in its document, is named when an object in it has a stray key."""
    if not isinstance(spec, dict):
        raise SpecError(f"lingo spec must be an object, got {spec!r}")
    if "kind" in spec:
        kind = spec["kind"]
        builder = _LEAF_BUILDERS.get(kind) if isinstance(kind, str) else None
        if builder is None:
            raise SpecError(f"unknown lingo kind {spec['kind']!r}")
        try:
            return builder(object_from_json(spec, _KIND_FIELDS[kind], at), at)
        except _BUILD_ERRORS as exc:
            raise SpecError(f"bad lingo spec {spec!r}: {exc}") from exc
    if len(spec) != 1:
        raise SpecError(f"composite spec at {path_text(at)} must have a single "
                        f"operator key: {spec!r}")
    op, body = next(iter(spec.items()))
    at = (at, op)
    try:
        if op in _OPERATOR_FIELDS:
            body = object_from_json(body, _OPERATOR_FIELDS[op], at)
        if op == "sharp":
            return sharp(build_lingo(body, at))
        if op == "horizontal":
            branches = tuple(build_lingos(body["branches"], (at, "branches")))
            defaults = tuple(value_from_json(d, (at, "defaults", i)) for i, d
                             in enumerate(list_from_json(body["defaults"],
                                                         (at, "defaults"))))
            bias = tuple(map(int_from_json, list_from_json(body["bias"], (at, "bias"))))
            return horizontal(branches, defaults, bias,
                              seed=int_from_json(body.get("seed", 0)))
        if op == "functional":
            return functional(*build_lingos(list_from_json(body, at, 2), at))
        if op == "product":
            return product(build_lingos(body, at))
        if op == "tupling":
            return tupling(build_lingos(body, at))
        if op == "adapt_pre":
            return adapt_pre(build_adaptor(body["adaptor"], (at, "adaptor")),
                             build_lingo(body["lingo"], (at, "lingo")))
        if op == "adapt_post":
            return adapt_post(build_lingo(body["lingo"], (at, "lingo")),
                              build_adaptor(body["adaptor"], (at, "adaptor")))
        if op == "auth":
            return authenticating(build_lingo(body["base"], (at, "base")),
                                  atoms_from_json(body["oids"], (at, "oids")),
                                  m=int_from_json(body["m"]),
                                  j=int_from_json(body["j"]), k=int_from_json(body["k"]),
                                  seed=int_from_json(body["seed"]))
    except SpecError:
        raise
    except _BUILD_ERRORS as exc:
        raise SpecError(f"bad {op!r} spec: {exc}") from exc
    raise SpecError(f"unknown lingo operator {op!r}")


def build_lingos(specs, at: JsonPath) -> list[Lingo]:
    """The lingos of a JSON list of specs at path ``at``."""
    return [build_lingo(s, (at, i)) for i, s in enumerate(list_from_json(specs, at))]
