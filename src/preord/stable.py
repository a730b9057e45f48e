"""The stable category: morphisms up to trivial disagreement on a clopen part.

Two parallel morphisms are identified when they agree outside some clopen
subset on which both restrict to trivial morphisms.  Because every clopen
subset is a union of connected components, the identification is decided
component by component: equal restriction, or both restrictions trivial.
So each class has a canonical image row, with the components on which the
map is trivial read as -1; every decision below compares those rows for
whole hom arrays at once.  The kernel and cokernel verifiers read, per
object and base, a table of the class of every row of the candidate
grid, its first stably equal row, so that the engine of
`preord.exactness` counts factorizations by class.
Under it all equality-relation objects collapse to a single zero object,
so kernels and cokernels exist; they are the images of the prekernel and
precokernel constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .category import (
    Morph, PreObj, candidate_grid, compose, coproduct, grid_index, is_trivial_morphism,
    iso_search, array_cache, monotone_maps, DEFAULT_BUDGET,
)
from .errors import NotShortExactError, ValidationError
from .exactness import (
    Seq, image_equivalence, precokernel, precokernel_property, prekernel,
    prekernel_property,
)
from .relations import Rel
from .topology import clopen_enumerate, components, minimal_part, restrict

__all__ = [
    "StableHom", "stable_signature", "stable_eq", "stable_eq_oracle",
    "is_stable_zero", "congruence_check",
    "stable_iso", "stable_iso_witness",
    "stable_kernel", "stable_cokernel",
    "verify_stable_kernel", "verify_stable_cokernel",
    "stable_inverse", "classify_short_exact", "verify_coproduct_preservation",
]


@array_cache
def _component_layout(a: PreObj) -> np.ndarray:
    """Incidence of the components (columns) with the related pairs of
    `a.rel.pair_index`, then with the points: (pairs + points) x
    components, at most n * n cells.  Computed once per object."""
    comp = np.array(components(a).class_of)
    of_rows = np.concatenate([comp[a.rel.pair_index[0]], comp])
    layout = of_rows[:, None] == np.arange(comp.max() + 1)
    layout.setflags(write=False)
    return layout


def _stable_canon(rows: np.ndarray, dom: PreObj) -> np.ndarray:
    """Canonical rows of stable classes: maps out of dom, one per row, with
    each component on which a row is trivial read as -1.  Two parallel
    maps are stably equal exactly when their canonical rows are equal."""
    u, v = dom.rel.pair_index
    layout = _component_layout(dom)
    # the components a row moves a related pair in, then their points
    moved = (rows[:, u] != rows[:, v]) @ layout[:len(u)] @ layout[len(u):].T
    return np.where(moved, rows, -1)


@array_cache
def _stable_classes(a: PreObj, base: int) -> np.ndarray:
    """Per row of `candidate_grid(a.n, base)`, a map out of a, the position
    of the first row stably equal to it: its canonical row with every -1
    read as 0, since a map is constant on a component on which it is
    trivial and the grid is in lexicographic order.  Computed once per
    object and base."""
    # the callers have checked their budget against this grid already
    grid = candidate_grid(a.n, base, a.n * base ** a.n)
    out = grid_index(np.maximum(_stable_canon(grid, a), 0), base)
    out.setflags(write=False)
    return out


def _stably_equal_rows(rows: np.ndarray, dom: PreObj, target) -> np.ndarray:
    """Row mask of the maps in `rows` (out of dom) stably equal to `target`."""
    canon = _stable_canon(np.vstack([target, rows]), dom)
    return (canon[1:] == canon[0]).all(axis=1)


def stable_signature(f: Morph) -> tuple:
    """Canonical form of a morphism's stable class (same dom and cod only):
    the image tuple with every component on which f is trivial read as -1."""
    return tuple(_stable_canon(np.array([f.map]), f.dom)[0].tolist())


def stable_eq(f: Morph, g: Morph) -> bool:
    """Stable equality: equal canonical rows."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValidationError("stable equality needs parallel morphisms")
    return bool(_stably_equal_rows(np.array([g.map]), f.dom, f.map)[0])


def stable_eq_oracle(f: Morph, g: Morph, budget: int = DEFAULT_BUDGET) -> bool:
    """Literal form of the identification: some clopen subset exists on
    which both morphisms are trivial while they agree on its complement."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValidationError("stable equality needs parallel morphisms")
    pairs = f.dom.rel.pair_list
    for mask in clopen_enumerate(f.dom):
        if any(f.map[x] != g.map[x] for x in range(f.dom.n) if not mask[x]):
            continue
        if all(f.map[x] == f.map[y] and g.map[x] == g.map[y] for x, y in pairs if mask[x]):
            return True
    return False


def is_stable_zero(f: Morph) -> bool:
    """A morphism becomes the zero morphism exactly when it is trivial."""
    return is_trivial_morphism(f)


def congruence_check(f: Morph, g: Morph, h: Morph, l: Morph) -> bool:
    """Does stable equality of f and g survive pre- and post-composition?"""
    if not stable_eq(f, g):
        return True
    return stable_eq(compose(l, compose(f, h)), compose(l, compose(g, h)))


@dataclass(frozen=True, eq=False)
class StableHom:
    """A stable-category morphism, held by an arbitrary representative.

    Equality is stable equality of representatives; there is no canonical
    representative, so no hashing.
    """

    rep: Morph

    @property
    def dom(self) -> PreObj:
        return self.rep.dom

    @property
    def cod(self) -> PreObj:
        return self.rep.cod

    def __eq__(self, other) -> bool:
        if not isinstance(other, StableHom):
            return NotImplemented
        return stable_eq(self.rep, other.rep)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StableHom({self.rep!r})"


# ----------------------------------------------------------------------
# stable isomorphism

def stable_iso_witness(a: PreObj, b: PreObj) -> tuple[Morph, Morph] | None:
    """Mutually stable-inverse morphisms between a and b, or None.

    Objects are stably isomorphic exactly when their minimal parts (the
    union of multi-element components) are isomorphic, with two empty
    minimal parts counting as isomorphic: such objects are zero objects.
    The witnesses restrict to an isomorphism on the minimal parts and sit
    constant elsewhere.
    """
    ma, mb = minimal_part(a), minimal_part(b)
    if not ma.any() and not mb.any():
        return Morph(a, b, (0,) * a.n), Morph(b, a, (0,) * b.n)
    if ma.any() != mb.any():
        return None
    a_sub, inc_a = restrict(a, ma)
    b_sub, inc_b = restrict(b, mb)
    phi = iso_search(a_sub, b_sub)
    if phi is None:
        return None
    ia, ib = np.array(inc_a.map), np.array(inc_b.map)[list(phi.map)]
    fwd, back = np.zeros(a.n, dtype=int), np.zeros(b.n, dtype=int)
    fwd[ia], back[ib] = ib, ia
    return Morph(a, b, fwd), Morph(b, a, back)


def stable_iso(a: PreObj, b: PreObj) -> bool:
    return stable_iso_witness(a, b) is not None


def stable_inverse(f: Morph, budget: int = DEFAULT_BUDGET) -> Morph | None:
    """The lexicographically first stable inverse of f, if one exists."""
    fmap = np.array(f.map)
    back = monotone_maps(f.cod, f.dom, budget)
    ok = (_stably_equal_rows(back[:, fmap], f.dom, np.arange(f.dom.n))
          & _stably_equal_rows(fmap[back], f.cod, np.arange(f.cod.n)))
    hits = np.flatnonzero(ok)
    return Morph(f.cod, f.dom, back[hits[0]]) if len(hits) else None


# ----------------------------------------------------------------------
# kernels and cokernels

def stable_kernel(f: Morph) -> StableHom:
    """The prekernel, viewed in the stable category."""
    return StableHom(prekernel(f))


def stable_cokernel(f: Morph) -> StableHom:
    """The precokernel, viewed in the stable category."""
    return StableHom(precokernel(f))


def verify_stable_kernel(k: StableHom, f: Morph, tests: list[PreObj],
                         budget: int = DEFAULT_BUDGET) -> bool:
    """Universal property of the kernel, quantified over probe objects.

    f o k must be trivial, and every lam: Y -> dom(f) with f o lam trivial
    must factor through k up to stable equality, uniquely up to stable
    equality: the prekernel engine with plain triviality, comparing
    canonical rows of stable classes.
    """
    return prekernel_property(k.rep, f, tests, None, budget, _stable_classes)


def verify_stable_cokernel(p: StableHom, f: Morph, tests: list[PreObj],
                           budget: int = DEFAULT_BUDGET) -> bool:
    """Dual universal property, quantified over probe objects."""
    return precokernel_property(p.rep, f, tests, None, budget, _stable_classes)


# ----------------------------------------------------------------------
# classification of short exact sequences

def classify_short_exact(f: Morph, g: Morph, tests: list[PreObj],
                         budget: int = DEFAULT_BUDGET) -> tuple[Rel, Morph, Morph]:
    """Match a stable short exact sequence to its canonical quotient form.

    Returns the equivalence generated by the prekernel relation of g,
    plus stable isomorphism witnesses: left: dom(f) -> prekernel domain
    with k o left = f on the nose, and right: cod(g) -> quotient with
    right o g stably equal to the canonical projection.  Raises
    NotShortExactError naming the failing half otherwise.
    """
    Seq(f, g)  # checks that the legs compose
    if not verify_stable_kernel(StableHom(f), g, tests, budget):
        raise NotShortExactError(
            "first morphism is not a kernel of the second in the stable category")
    if not verify_stable_cokernel(StableHom(g), f, tests, budget):
        raise NotShortExactError(
            "second morphism is not a cokernel of the first in the stable category")
    k = prekernel(g)
    sim = image_equivalence(k)
    pi = precokernel(k)
    left = Morph(f.dom, k.dom, f.map)
    if stable_inverse(left, budget) is None:
        raise NotShortExactError("left witness is not a stable isomorphism")
    rows = monotone_maps(g.cod, pi.cod, budget)
    for row in rows[_stably_equal_rows(rows[:, list(g.map)], g.dom, pi.map)]:
        right = Morph(g.cod, pi.cod, row)
        if stable_inverse(right, budget) is not None:
            return sim, left, right
    raise NotShortExactError("no stable right witness found")


def verify_coproduct_preservation(objs: list[PreObj], tests: list[PreObj],
                                  budget: int = DEFAULT_BUDGET) -> bool:
    """Coproducts survive the passage to the stable category.

    For every probe Y, a stable morphism out of the coproduct must be
    exactly determined by its restrictions along the injections, and
    every family of components must be realized.
    """
    summed, injections = coproduct(objs)
    for y in tests:
        cmaps = monotone_maps(summed, y, budget)
        families = np.hstack([_stable_canon(cmaps[:, list(inj.map)], a)
                              for inj, a in zip(injections, objs)])
        realized = len(np.unique(families, axis=0))
        whole = _stable_canon(cmaps, summed)
        if len(np.unique(np.hstack([families, whole]), axis=0)) > realized:
            return False  # two stably distinct maps share all restrictions
        # the restrictions are maps out of the factors, so every family of
        # components is realized exactly when the counts agree
        if realized < prod(len(np.unique(_stable_canon(monotone_maps(a, y, budget), a), axis=0))
                           for a in objs):
            return False  # some family of components is not realized
    return True
