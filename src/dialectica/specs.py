"""Build lingos and data adaptors from their JSON spec trees.

Leaf lingos are ``{"kind": ..., ...}`` records; compositions and transforms
are single-key nodes wrapping child specs, e.g.::

    {"functional": [{"kind": "xor_nat"}, {"kind": "divide_check"}]}
    {"horizontal": {"branches": [...], "defaults": [...], "bias": [1, 1]}}
    {"sharp": {"kind": "xor_bitvec", "width": 8}}
"""

from __future__ import annotations

import json

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
    REQUIRED,
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


_BUILD_ERRORS = (ValueError, SpaceViolation, SpaceMismatch, DegenerateParamSpace,
                 BadBias)

# JSON nested deeper than this is refused before it is parsed: the readers
# recurse at every level, and so do the lingos and values they build.
MAX_JSON_DEPTH = 100
# A translation to brackets of one kind and quotes, all other bytes dropped.
_ONE_BRACKET = bytes.maketrans(b"{}", b"[]")
_NOT_BRACKETS = bytes(c for c in range(256) if c not in b'[]{}"')


def _too_deep(data: bytes) -> bool:
    """Whether the JSON text ``data`` nests deeper than MAX_JSON_DEPTH,
    brackets inside its strings aside, or, where its brackets do not
    balance, whether a parser of it could."""
    if data.count(b"[") + data.count(b"{") <= MAX_JSON_DEPTH:
        return False
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    # Dropping two adjacent quotes drops an empty string or joins two strings.
    brackets = data.translate(_ONE_BRACKET, _NOT_BRACKETS).replace(b'""', b"")
    brackets = b"".join(brackets.split(b'"')[::2])
    levels = 0
    while levels <= MAX_JSON_DEPTH and b"[]" in brackets:
        brackets = brackets.replace(b"[]", b"")    # the innermost level
        levels += 1
    return levels + brackets.count(b"[") > MAX_JSON_DEPTH


def json_from_text(text, what: str) -> object:
    """The JSON document ``text`` (a str, or bytes in UTF-8) holds; text
    that cannot be decoded or parsed, or that nests deeper than
    MAX_JSON_DEPTH levels, raises SpecError naming ``what``."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        if _too_deep(text.encode("utf-8", "surrogatepass")):
            raise SpecError(f"{what} nests deeper than {MAX_JSON_DEPTH} levels")
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"{what} is not JSON: {exc}") from exc


# One table per node kind: a leaf lingo or an adaptor by its kind, an operator
# by its key, each to its fields and their defaults (none: the body is one or
# more specs) and to its builder, which takes the node read and its path.
_LINGO_KINDS = {
    "xor_bitvec": ({"width": REQUIRED}, lambda s, at: make_xor_bitvec(int_from_json(s["width"]))),
    "xor_nat": ({}, lambda s, at: make_xor_nat()),
    "xor_set": ({"universe": REQUIRED}, lambda s, at: make_xor_set(
        atoms_from_json(s["universe"], (at, "universe")))),
    "divide_check": ({"param_ceiling": 1 << 16}, lambda s, at: make_divide_check(
        int_from_json(s["param_ceiling"]))),
    "reverse_divide_check": ({"param_ceiling": 1 << 16}, lambda s, at:
                             make_reverse_divide_check(int_from_json(s["param_ceiling"]))),
    "identity": ({"space": REQUIRED}, lambda s, at: make_identity(
        space_from_json(s["space"], (at, "space")))),
    "split_bitvec": ({"half_width": REQUIRED},
                     lambda s, at: make_split_bitvec(int_from_json(s["half_width"]))),
}


def _sparse(s: dict, at: JsonPath) -> DataAdaptor:
    count = int_from_json(s["count"])
    if not 1 <= count <= 1 << 16:
        raise ValueError(f"codebook size must be in 1..65536, got {count}")
    return sparse_code_adaptor(count, int_from_json(s["width"]), int_from_json(s["seed"]))


_ADAPTOR_KINDS = {
    "identity": ({"space": REQUIRED}, lambda s, at: identity_adaptor(
        space_from_json(s["space"], (at, "space")))),
    "nat_bitvec": ({"width": REQUIRED},
                   lambda s, at: nat_bitvec_adaptor(int_from_json(s["width"]))),
    "bitvec_nat": ({"width": REQUIRED},
                   lambda s, at: bitvec_nat_adaptor(int_from_json(s["width"]))),
    "sparse": ({"count": 64, "width": REQUIRED, "seed": 0}, _sparse),
    # Without a width, the codec carries naturals.
    "mqtt_codec": ({"width": None}, lambda s, at: mqtt_codec_adaptor(
        None if s["width"] is None else int_from_json(s["width"]))),
}


def _horizontal(body: dict, at: JsonPath) -> Lingo:
    return horizontal(tuple(build_lingos(body["branches"], (at, "branches"))),
                      tuple(value_from_json(d, (at, "defaults", i)) for i, d in
                            enumerate(list_from_json(body["defaults"], (at, "defaults")))),
                      tuple(map(int_from_json, list_from_json(body["bias"], (at, "bias")))),
                      seed=int_from_json(body["seed"]))


def _auth(body: dict, at: JsonPath) -> Lingo:
    return authenticating(build_lingo(body["base"], (at, "base")),
                          atoms_from_json(body["oids"], (at, "oids")),
                          m=int_from_json(body["m"]), j=int_from_json(body["j"]),
                          k=int_from_json(body["k"]), seed=int_from_json(body["seed"]))


_OPERATORS = {
    "sharp": (None, lambda body, at: sharp(build_lingo(body, at))),
    "horizontal": ({"branches": REQUIRED, "defaults": REQUIRED, "bias": REQUIRED,
                    "seed": 0}, _horizontal),
    "functional": (None, lambda body, at: functional(
        *build_lingos(list_from_json(body, at, 2), at))),
    "product": (None, lambda body, at: product(build_lingos(body, at))),
    "tupling": (None, lambda body, at: tupling(build_lingos(body, at))),
    "adapt_pre": ({"adaptor": REQUIRED, "lingo": REQUIRED}, lambda b, at: adapt_pre(
        build_adaptor(b["adaptor"], (at, "adaptor")), build_lingo(b["lingo"], (at, "lingo")))),
    "adapt_post": ({"lingo": REQUIRED, "adaptor": REQUIRED}, lambda b, at: adapt_post(
        build_lingo(b["lingo"], (at, "lingo")), build_adaptor(b["adaptor"], (at, "adaptor")))),
    "auth": ({"base": REQUIRED, "oids": REQUIRED, "m": REQUIRED, "j": REQUIRED,
              "k": REQUIRED, "seed": REQUIRED}, _auth),
}


def _build_kind(kinds: dict, spec: dict, what: str, at: JsonPath):
    """Build the ``{"kind": ...}`` node ``spec`` at ``at`` by its entry in ``kinds``."""
    fields, build = kinds[spec["kind"]]
    try:
        return build(object_from_json(spec, {"kind": REQUIRED, **fields}, at), at)
    except _BUILD_ERRORS as exc:
        raise SpecError(f"bad {what} spec {spec!r}: {exc}") from exc


def build_adaptor(spec: dict, at: JsonPath = "adaptor") -> DataAdaptor:
    """Build a data adaptor from its spec; ``at``, the spec's path in its
    document, is named when the spec is malformed."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError(f"adaptor spec at {path_text(at)} must be an object "
                        f"with a kind, got {spec!r}")
    if not isinstance(spec["kind"], str) or spec["kind"] not in _ADAPTOR_KINDS:
        raise SpecError(f"unknown adaptor kind {spec!r}")
    return _build_kind(_ADAPTOR_KINDS, spec, "adaptor", at)


def build_lingo(spec: dict, at: JsonPath = "lingo") -> Lingo:
    """Recursively build a lingo from its spec tree; ``at``, the spec's path
    in its document, is named when an object in it is malformed."""
    if not isinstance(spec, dict):
        raise SpecError(f"lingo spec must be an object, got {spec!r}")
    if "kind" in spec:
        if not isinstance(spec["kind"], str) or spec["kind"] not in _LINGO_KINDS:
            raise SpecError(f"unknown lingo kind {spec['kind']!r}")
        return _build_kind(_LINGO_KINDS, spec, "lingo", at)
    if len(spec) != 1:
        raise SpecError(f"composite spec at {path_text(at)} must have a single "
                        f"operator key: {spec!r}")
    op, body = next(iter(spec.items()))
    if op not in _OPERATORS:
        raise SpecError(f"unknown lingo operator {op!r}")
    fields, build = _OPERATORS[op]
    at = (at, op)
    try:
        return build(body if fields is None else object_from_json(body, fields, at), at)
    except _BUILD_ERRORS as exc:
        raise SpecError(f"bad {op!r} spec: {exc}") from exc


def build_lingos(specs, at: JsonPath) -> list[Lingo]:
    """The lingos of a JSON list of specs at path ``at``."""
    return [build_lingo(s, (at, i)) for i, s in enumerate(list_from_json(specs, at))]
