"""Torsion machinery relative to a class of null objects.

Fix a class Z of objects.  A morphism is Z-trivial when it factors
through a member of Z; prekernels and precokernels relativize in the
obvious way, as do short preexact sequences.  A pretorsion theory is a
pair of object classes (T, F), closed under isomorphism, such that every
object sits in a relative short preexact sequence with torsion end in T
and torsion-free end in F, and every morphism from T to F is trivial
relative to Z = T intersect F.

The concrete instance: T = objects whose relation is an equivalence,
F = objects whose relation is a partial order, Z = equality-relation
objects, and the canonical sequence of any object is its symmetric-core
inclusion followed by the quotient-poset projection.

The checks run many hom sets at a time.  The relative pre(co)kernel
checks hand the probes to the engine of `preord.exactness`, which checks
all probes of one size in one array pass, with plain triviality when Z is
exactly the equality-relation objects and a factorization search per row
otherwise.  `pretorsion_verify` and `closure_prop_check` read the labeled
objects from the enumeration's catalogue of each size: a class predicate
is asked once per labeled object and kept as a bit vector per class and
size, and whether Z is exactly the trivial objects is an array comparison
of those bits with the catalogue's trivial mask.  Axiom 1 builds the
canonical torsion sequences of all objects of one size as arrays, finds
their cores and quotients in the catalogues by code and reads their
membership from the bit vectors.  Relative preexactness is invariant
under relabeling: hom sets and Z-triviality carry over along
isomorphisms, whether or not Z is closed under them.  So the engine
checks the first object of each isomorphism class (by the catalogue's
canonical codes), one batch per quotient size, against the first probe
of each class, and every labeled member of a failing class fails; counts
and witnesses stay those of a labeled scan.  Axiom 2 and
`closure_prop_check` take, per T-member, one table of maps into each run
of same-size F-members, so maps are still visited in the order of the
classes' candidates, smaller first and by code within a size, and, within
a hom set, lexicographically.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .category import (
    Morph, PreObj, candidate_grid, is_iso_map, is_trivial_morphism, is_trivial_object,
    maps_out_table, monotone_maps, same_size_runs, table_slices,
    DEFAULT_BUDGET,
)
from .decompose import quotient_poset, symmetric_core
from .errors import ValidationError
from .exactness import (
    Seq, SeqBatch, plain_trivial, precokernel_batch, precokernel_property,
    prekernel_batch, prekernel_property,
)
from .enumeration import catalogue, class_representatives
from .relations import block_ids

__all__ = [
    "ObjClass", "EQUIVALENCES", "PARTIAL_ORDERS", "TRIVIAL_OBJECTS",
    "ALL_PREORDERS", "intersect_classes",
    "factors_through",
    "relative_prekernel_check", "relative_precokernel_check",
    "relative_preexact", "ends_trivial_iff_iso",
    "torsion_part", "torsionfree_part", "torsion_sequence",
    "PretorsionReport", "pretorsion_verify", "closure_prop_check",
]


@dataclass(frozen=True)
class ObjClass:
    """A class of objects: a name and a membership predicate.

    The class is its predicate: `candidates(n)` lists the labeled
    preorders on 1..n points that the predicate accepts, read from the
    enumeration's catalogues, so a class cannot list members that its
    predicate rejects or leave out members that it accepts.  Closure under
    isomorphism is not required: the verifiers ask the predicate once per
    labeled object and keep the answers, so it must not change them.
    trivial_exact marks a class whose members are exactly the
    equality-relation objects; factorization through such a class has an
    exact pairwise criterion, skipping the search.
    """

    name: str
    contains: Callable[[PreObj], bool]
    trivial_exact: bool = field(default=False, kw_only=True)

    def candidates(self, n: int) -> list[PreObj]:
        """The labeled members on 1..n points, smaller first and in
        catalogue (code) order within a size; BudgetError beyond the
        enumeration cap."""
        return [catalogue(k).objs[i] for k in range(1, n + 1)
                for i in np.flatnonzero(_members(self, k))]


EQUIVALENCES = ObjClass("equivalences", lambda a: a.rel.is_symmetric())
PARTIAL_ORDERS = ObjClass("partial-orders", lambda a: a.rel.is_antisymmetric())
TRIVIAL_OBJECTS = ObjClass("trivial", is_trivial_object, trivial_exact=True)
ALL_PREORDERS = ObjClass("preorders", lambda a: True)


def intersect_classes(t: ObjClass, f: ObjClass) -> ObjClass:
    # the trivial_exact flag never propagates: an intersection with the
    # trivial class could miss trivial objects of some sizes, and
    # pretorsion_verify re-detects the flag on its working range anyway
    return ObjClass(f"{t.name} ^ {f.name}", lambda a: t.contains(a) and f.contains(a))


def factors_through(f: Morph, cls: ObjClass, budget: int = DEFAULT_BUDGET) -> bool:
    """Does f factor as h o g through some member of the class?

    Factor objects are searched up to the domain size.  For a class of
    equality-relation objects that bound is exact (factor through the
    image); for a general class it is a documented approximation.
    """
    if cls.trivial_exact:
        return is_trivial_morphism(f)
    return _map_factors_through(list(f.map), f.dom, f.cod, cls, budget)


def _map_factors_through(map_row, dom: PreObj, cod: PreObj, cls: ObjClass,
                         budget: int) -> bool:
    row = np.asarray(map_row)
    for z0 in cls.candidates(dom.n):
        outs, ins = monotone_maps(dom, z0, budget), monotone_maps(z0, cod, budget)
        # g pins h on its image; look for a monotone h with h o g = the map
        if any((ins[:, g] == row).all(axis=1).any() for g in outs):
            return True
    return False


def _class_trivial(cls: ObjClass, budget: int):
    """Triviality relative to the class, as the engine takes it: None
    (plain triviality, checked pairwise as a table) for a trivial_exact
    class, else a row predicate searching a factorization per row."""
    if cls.trivial_exact:
        return None
    return lambda rows, dom, cod: np.array(
        [_map_factors_through(row.tolist(), dom, cod, cls, budget) for row in rows],
        dtype=bool)


def _hom_tables(doms: list[PreObj], cods: list[PreObj], budget: int):
    """Per domain, in order, and per slice of each run of same-size
    codomains: (domain, codomain slice, candidate grid, table).  Column j
    of the table marks the grid rows that are monotone maps into the j-th
    codomain of the slice, in the lexicographic order of `monotone_maps`;
    budgets are checked per run as `monotone_maps` checks them."""
    runs = same_size_runs(cods)
    for a in doms:
        for run in runs:
            grid = candidate_grid(a.n, run.m, budget)
            for cols in table_slices(len(run.objs), len(grid), budget):
                yield a, run.objs[cols], grid, maps_out_table(grid, a, run, cols, budget)


def _nontrivial(trivial, dom: PreObj, cods: list[PreObj], grid: np.ndarray,
                homs: np.ndarray) -> np.ndarray:
    """The entries of a `_hom_tables` table whose map is not trivial.  A
    predicate is asked column by column, up to the first column holding
    such a map."""
    if trivial is None:
        return homs & ~plain_trivial(grid, dom)[:, None]
    bad = np.zeros_like(homs)
    for j, cod in enumerate(cods):
        bad[homs[:, j], j] = ~trivial(grid[homs[:, j]], dom, cod)
        if bad[:, j].any():
            break
    return bad


def relative_prekernel_check(k: Morph, f: Morph, cls: ObjClass,
                             tests: list[PreObj],
                             budget: int = DEFAULT_BUDGET) -> bool:
    """Definitional prekernel property relative to the class, over probes."""
    return prekernel_property(k, f, tests, _class_trivial(cls, budget), budget)


def relative_precokernel_check(p: Morph, f: Morph, cls: ObjClass,
                               tests: list[PreObj],
                               budget: int = DEFAULT_BUDGET) -> bool:
    """Definitional precokernel property relative to the class, over probes."""
    return precokernel_property(p, f, tests, _class_trivial(cls, budget), budget)


def relative_preexact(f: Morph, g: Morph, cls: ObjClass, tests: list[PreObj],
                      budget: int = DEFAULT_BUDGET) -> bool:
    """f is a relative prekernel of g and g a relative precokernel of f."""
    if f.cod != g.dom:
        raise ValidationError("sequence legs do not compose")
    return (relative_prekernel_check(f, g, cls, tests, budget)
            and relative_precokernel_check(g, f, cls, tests, budget))


def ends_trivial_iff_iso(f: Morph, g: Morph, cls: ObjClass, tests: list[PreObj],
                         budget: int = DEFAULT_BUDGET) -> bool:
    """On a relative preexact sequence: one end is class-trivial exactly
    when the other is an isomorphism (both directions checked)."""
    if not relative_preexact(f, g, cls, tests, budget):
        raise ValidationError("sequence is not preexact relative to the class")
    a = factors_through(f, cls, budget) == is_iso_map(g.map, g.dom, g.cod)
    b = factors_through(g, cls, budget) == is_iso_map(f.map, f.dom, f.cod)
    return a and b


# ----------------------------------------------------------------------
# the concrete torsion decomposition

def torsion_part(a: PreObj) -> PreObj:
    """The carrier with only the mutually-related pairs kept."""
    return PreObj(symmetric_core(a))


def torsionfree_part(a: PreObj) -> PreObj:
    """The quotient poset of the object."""
    return quotient_poset(a)[0]


def torsion_sequence(a: PreObj) -> Seq:
    """Identity-carried inclusion of the torsion part, then the projection."""
    q, proj = quotient_poset(a)
    k = Morph(torsion_part(a), a, tuple(range(a.n)))
    return Seq(k, Morph(a, q, proj.map))


# ----------------------------------------------------------------------
# axiom verification

@dataclass
class PretorsionReport:
    """Outcome of checking the two pretorsion axioms on a finite range."""

    torsion_name: str
    torsionfree_name: str
    max_n: int
    axiom1_ok: bool
    axiom1_counterexample: tuple[PreObj, str] | None
    axiom2_ok: bool
    axiom2_counterexample: tuple[PreObj, PreObj, tuple[int, ...]] | None
    objects_checked: int
    maps_checked: int
    null_class_is_trivial: bool = field(default=False)
    # work counters, not printed: isomorphism classes whose torsion
    # sequence went to the engine, sequences given to the engine (once per
    # property), table cells (grid rows x probes, or x F-members for
    # axiom 2) and wall seconds for the catalogues (with the class
    # membership bits, the null-class test and the probes) and per axiom
    classes_checked: int = 0
    sequences_checked: int = 0
    axiom1_cells: int = 0
    axiom2_cells: int = 0
    catalogue_s: float = 0.0
    axiom1_s: float = 0.0
    axiom2_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.axiom1_ok and self.axiom2_ok

    def __str__(self) -> str:
        lines = [
            f"pretorsion check for ({self.torsion_name}, {self.torsionfree_name}) "
            f"up to n={self.max_n}",
            f"null class = intersection; members on range are "
            f"{'exactly the trivial objects' if self.null_class_is_trivial else 'not just trivial objects'}",
            f"axiom 1 (canonical sequence is relatively preexact with ends in the "
            f"classes): {'pass' if self.axiom1_ok else 'FAIL'} "
            f"on {self.objects_checked} objects",
        ]
        if self.axiom1_counterexample is not None:
            obj, why = self.axiom1_counterexample
            lines.append(f"  counterexample: {obj!r} ({why})")
        lines.append(
            f"axiom 2 (every hom from torsion to torsion-free is null-trivial): "
            f"{'pass' if self.axiom2_ok else 'FAIL'} on {self.maps_checked} maps")
        if self.axiom2_counterexample is not None:
            dom, cod, m = self.axiom2_counterexample
            lines.append(f"  counterexample: {list(m)} from {dom!r} to {cod!r}")
        lines.append(f"verdict: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


@lru_cache(maxsize=256)
def _members(cls: ObjClass, n: int) -> np.ndarray:
    """Which labeled preorders on n points, in catalogue order, the class
    holds; its predicate is asked once per object."""
    return np.fromiter(map(cls.contains, catalogue(n).objs), dtype=bool)


def _null_class(t: ObjClass, f: ObjClass, max_n: int) -> tuple[ObjClass, bool]:
    z = intersect_classes(t, f)
    # a list, not a generator: every size gets its membership bits
    trivial_on_range = all([
        np.array_equal(_members(t, n) & _members(f, n), catalogue(n).masks["trivial"])
        for n in range(1, max_n + 1)])
    return (replace(z, trivial_exact=True) if trivial_on_range else z), trivial_on_range


@lru_cache(maxsize=None)
def _torsion_parts(n: int):
    """The canonical torsion sequences of the labeled preorders on n
    points, in catalogue order, as read-only arrays: the positions of
    their symmetric cores in the catalogue of size n, their projection
    rows (blocks numbered by smallest member), their quotient sizes and
    the positions of their quotients in the catalogues of those sizes,
    found by code."""
    bits = catalogue(n).bits
    cores = bits & bits.transpose(0, 2, 1)
    proj, is_rep = block_ids(cores)
    sizes = is_rep.sum(axis=1)
    quotient_at = np.empty(len(bits), dtype=np.int64)
    # sorted(set()) rather than np.unique, which imports numpy.ma on first use
    for q in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == q)
        kept = np.nonzero(is_rep[at])[1].reshape(len(at), q)
        quotient_at[at] = catalogue(q).index(bits[at[:, None, None], kept[:, :, None],
                                                  kept[:, None, :]])
    parts = catalogue(n).index(cores), proj, sizes, quotient_at
    for part in parts:
        part.flags.writeable = False
    return parts


def _torsion_batches(n: int, at: np.ndarray):
    """The canonical torsion sequences of the labeled preorders on n points
    at the catalogue positions `at`, in batches of one quotient size:
    (the batch's catalogue positions, the batch, positions of its cores
    and of its quotients in the catalogues of their sizes).  Objects,
    cores and quotients are the catalogues' objects.

    The first object comes alone: every sequence of one size meets the
    same candidate grids, so alone it raises BudgetError exactly when an
    object-by-object check would, and the others never do.
    """
    objs = catalogue(n).objs
    core_at, proj, sizes, quotient_at = (part[at] for part in _torsion_parts(n))
    group = np.where(np.arange(len(at)) == 0, 0, sizes)
    batches = []
    for key in sorted(set(group.tolist())):
        sel = np.flatnonzero(group == key)
        quotients = catalogue(int(sizes[sel[0]])).objs
        batches.append((at[sel], SeqBatch(
            tuple(objs[i] for i in core_at[sel]), tuple(objs[i] for i in at[sel]),
            tuple(quotients[i] for i in quotient_at[sel]),
            np.broadcast_to(np.arange(n), (len(sel), n)), proj[sel]), core_at[sel], quotient_at[sel]))
    return batches


def _first_axiom1_failure(n: int, t: ObjClass, f: ObjClass, trivial, probes, budget: int,
                          stats: Counter) -> tuple[int, str] | None:
    """The catalogue position of the first labeled preorder on n points
    whose canonical torsion sequence fails axiom 1, with the reason, or
    None.

    Membership of the ends is read per labeled object, and only the
    objects before the first that fails it are checked further.
    Relative preexactness carries over along isomorphisms of sequences
    and probes, so `_torsion_batches` and the engine take the first object
    of each class among them, and every labeled member of a failing class
    fails.  Batches skip the classes after a failure already found."""
    cat = catalogue(n)
    core_at, _, sizes, quotient_at = _torsion_parts(n)
    why = np.where(~_members(t, n)[core_at], 1, 0)
    for q in sorted(set(sizes.tolist())):
        at = np.flatnonzero((sizes == q) & (why == 0))
        why[at[~_members(f, q)[quotient_at[at]]]] = 2
    cut = int(np.argmax(why != 0)) if why.any() else len(why)
    reps = cat.representatives
    reps = reps[reps < cut]
    first, failed = cut, np.zeros(cut, dtype=bool)
    for at, batch, *_ in _torsion_batches(n, reps):
        keep = np.flatnonzero(at < first)
        if not len(keep):
            continue
        at, batch = at[keep], batch.take(keep)
        stats["classes"] += len(at)
        exact = prekernel_batch(batch, probes, trivial, budget, stats=stats)
        exact[exact] = precokernel_batch(batch.take(np.flatnonzero(exact)), probes, trivial,
                                         budget, stats=stats)
        failed[at[~exact]] = True
        if not exact.all():
            first = int(at[~exact][0])
    why[:cut][failed[cat.class_of[:cut]]] = 3
    failing = np.flatnonzero(why)
    return (int(failing[0]), _AXIOM1_REASONS[why[failing[0]] - 1]) if len(failing) else None


_AXIOM1_REASONS = ("torsion part is outside the torsion class",
                   "quotient is outside the torsion-free class",
                   "canonical sequence is not relatively preexact")


def pretorsion_verify(t: ObjClass, f: ObjClass, max_n: int,
                      budget: int = DEFAULT_BUDGET) -> PretorsionReport:
    """Check both pretorsion axioms for (t, f) on all objects up to max_n.

    Axiom 1 is checked through the canonical torsion sequence of each
    object: its ends must lie in the classes, asked of every labeled
    object, and it must be relatively preexact, probed with all objects
    one size down.  Preexactness is checked once per isomorphism class of
    objects and of probes (`classes_checked` of the report counts the
    classes sent to the engine), which decides it for every labeled
    member; objects_checked counts the objects up to and including the
    first that fails, in enumeration order.  Axiom 2
    takes the hom set from every t-member to every f-member and asks each
    of its maps to factor through the intersection class, one table per
    t-member and run of same-size f-members; maps_checked counts the maps
    up to and including the first that fails, in the classes' candidate
    order and, within a hom set, lexicographically.

    The catalogues of every size up to max_n are built first (BudgetError
    beyond the enumeration cap), with each class predicate asked once per
    labeled object; `catalogue_s`, `axiom1_s` and `axiom2_s` of the report
    time the three phases.  A max_n below 1 is a ValidationError: there
    would be nothing to check.
    """
    if max_n < 1:
        raise ValidationError(f"max_n must be at least 1, got {max_n}")
    start = time.perf_counter()
    cats = [catalogue(n) for n in range(1, max_n + 1)]
    z, z_trivial = _null_class(t, f, max_n)
    trivial = _class_trivial(z, budget)
    probes = class_representatives(max(1, max_n - 1))
    ax1, ax2_cells = Counter(), 0
    built = time.perf_counter()
    ax1_witness, checked = None, 0
    for cat in cats:
        failure = _first_axiom1_failure(cat.n, t, f, trivial, probes, budget, ax1)
        if failure is not None:
            at, why = failure
            ax1_witness, checked = (cat.objs[at], why), checked + at + 1
            break
        checked += len(cat.codes)
    mid = time.perf_counter()
    ax2_witness, maps_checked = None, 0
    for tb, part, grid, homs in _hom_tables(t.candidates(max_n), f.candidates(max_n), budget):
        ax2_cells += homs.size
        bad = _nontrivial(trivial, tb, part, grid, homs)
        cols = np.flatnonzero(bad.any(axis=0))
        if not len(cols):
            maps_checked += int(homs.sum())
            continue
        j = cols[0]
        row = np.flatnonzero(bad[:, j])[0]
        maps_checked += int(homs[:, :j].sum() + homs[:row + 1, j].sum())
        ax2_witness = (tb, part[j], tuple(int(v) for v in grid[row]))
        break
    return PretorsionReport(
        torsion_name=t.name, torsionfree_name=f.name, max_n=max_n,
        axiom1_ok=ax1_witness is None, axiom1_counterexample=ax1_witness,
        axiom2_ok=ax2_witness is None, axiom2_counterexample=ax2_witness,
        objects_checked=checked, maps_checked=maps_checked,
        null_class_is_trivial=z_trivial,
        classes_checked=ax1["classes"], sequences_checked=ax1["sequences"], axiom1_cells=ax1["cells"], axiom2_cells=ax2_cells,
        catalogue_s=built - start, axiom1_s=mid - built, axiom2_s=time.perf_counter() - mid,
    )


def closure_prop_check(x: PreObj, t: ObjClass, f: ObjClass, max_n: int,
                       budget: int = DEFAULT_BUDGET) -> bool:
    """Both closure implications for a single object.

    If every morphism from x into every f-member (up to max_n) is trivial
    relative to the intersection class, then x must lie in t; dually for
    morphisms out of t-members into x.  Returns whether both implications
    hold on the range.  A max_n below 1 is a ValidationError, as in
    `pretorsion_verify`.
    """
    if max_n < 1:
        raise ValidationError(f"max_n must be at least 1, got {max_n}")
    z, _ = _null_class(t, f, max_n)
    trivial = _class_trivial(z, budget)

    def all_trivial(doms, cods):
        return not any(_nontrivial(trivial, *table).any()
                       for table in _hom_tables(doms, cods, budget))
    imp1 = (not all_trivial([x], f.candidates(max_n))) or t.contains(x)
    imp2 = (not all_trivial(t.candidates(max_n), [x])) or f.contains(x)
    return imp1 and imp2
