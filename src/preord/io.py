"""Flat-file formats and DOT export.

Object files are JSON with fields n (size), pairs (non-diagonal related
pairs) and mode ("strict" keeps the pairs as given, "close" takes the
reflexive-transitive closure).  Morphism files carry a single "map"
array and are interpreted against explicitly supplied endpoints.
`save_object` always emits canonical strict-mode text, so save o load
and load o save are identities on canonical input.
"""

from __future__ import annotations

import json

import numpy as np

from .category import DEFAULT_BUDGET, Morph, PreObj, make_object
from .decompose import core_quotient
from .errors import BudgetError, ParseError, ValidationError
from .relations import Rel
from .topology import components

__all__ = ["save_object", "load_object", "load_morphism", "export_dot"]

_PALETTE = (
    "lightblue", "lightpink", "palegreen", "khaki",
    "plum", "lightsalmon", "paleturquoise", "wheat",
)


def save_object(a: PreObj) -> str:
    """Canonical single-line JSON for an object; diagonal pairs omitted."""
    body = {"n": a.n, "pairs": [list(p) for p in a.rel.pair_list], "mode": "strict"}
    return json.dumps(body, separators=(", ", ": "))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e


def load_object(text: str) -> PreObj:
    """Parse an object file; errors name the violated invariant.

    DEFAULT_BUDGET bounds the n x n cells of the relation matrix:
    BudgetError is raised before anything is allocated when they exceed
    it.
    """
    data = _parse_json(text)
    if not isinstance(data, dict):
        raise ValidationError("object file must be a JSON object")
    missing = {"n", "pairs", "mode"} - set(data)
    if missing:
        raise ValidationError(f"object file missing fields: {sorted(missing)}")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ValidationError("field 'n' must be an integer >= 1")
    if data["mode"] not in ("strict", "close"):
        raise ValidationError("field 'mode' must be 'strict' or 'close'")
    pairs = data["pairs"]
    if not isinstance(pairs, list):
        raise ValidationError("field 'pairs' must be a list")
    for p in pairs:
        # the JSON shape only: a JSON bool is an int to numpy, not to type();
        # `Rel.from_pairs` reads the whole list as one array for the rest
        if type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            raise ValidationError(f"pair {p!r} must be a two-integer list")
        if p[0] == p[1]:
            raise ValidationError(f"diagonal pair {p!r} must not be listed")
    if n * n > DEFAULT_BUDGET:
        raise BudgetError(f"relation of {n} x {n} cells exceeds budget {DEFAULT_BUDGET}")
    return make_object(n, pairs, mode=data["mode"])


def load_morphism(text: str, dom: PreObj, cod: PreObj) -> Morph:
    """Parse a morphism file against explicit endpoints."""
    data = _parse_json(text)
    if not isinstance(data, dict) or "map" not in data:
        raise ValidationError("morphism file must be a JSON object with a 'map' field")
    m = data["map"]
    if not isinstance(m, list) or not all(map(_is_int, m)):
        raise ValidationError("field 'map' must be a list of integers")
    return Morph(dom, cod, tuple(m))


# ----------------------------------------------------------------------
# DOT export

def _hasse_edges(q: PreObj) -> list[tuple[int, int]]:
    """Covering pairs in row-major order: strict pairs with no strict
    two-step path."""
    strict = Rel(q.n, q.rel.bits & ~np.eye(q.n, dtype=bool))
    return Rel(q.n, strict.bits & ~strict.compose(strict).bits).pair_list


def export_dot(a: PreObj, hasse: bool = False, color_components: bool = False) -> str:
    """Graphviz text: one arrow per non-reflexive related pair.

    hasse renders the quotient poset's covering relation instead (block
    labels list their members); color_components fills nodes per
    connected component.
    """
    if hasse:
        part, q, _ = core_quotient(a)
        points = [blk[0] for blk in part.blocks]
        labels = ["{" + ",".join(str(x) for x in blk) + "}" if len(blk) > 1
                  else str(blk[0]) for blk in part.blocks]
        edges = _hasse_edges(q)
    else:
        points, edges = range(a.n), a.rel.pair_list
        labels = [str(x) for x in points]
    # an edge joins two positions of points: blocks of the quotient, or points
    names = [str(x) for x in points]
    comp_of = components(a).class_of if color_components else None
    lines = ["digraph preord {"]
    for name, label, x in zip(names, labels, points):
        attrs = [f'label="{label}"']
        if color_components:
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{_PALETTE[comp_of[x] % len(_PALETTE)]}"')
        lines.append(f'  {name} [{", ".join(attrs)}];')
    for i, j in edges:
        lines.append(f"  {names[i]} -> {names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
