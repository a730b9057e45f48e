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
objects from the enumeration's catalogue of each size.  Membership is a
bit vector per class and size: the four built-in classes read their
kind's mask of the catalogue, and any other class asks its predicate
once per labeled object and keeps the answers.  Whether Z is exactly the
trivial objects is an array comparison of those bits with the
catalogue's trivial mask, and the null class is read as the AND of the
two classes' bits, never built as a class of its own.

Hom sets and Z-triviality carry over along isomorphisms, whether or not
Z is closed under them, so both axioms are checked once per isomorphism
class and labeled objects are touched only for counts and witnesses.
Axiom 1 builds the canonical torsion sequences of all objects of one
size as arrays, finds their cores and quotients in the catalogues by
code and reads their membership from the bit vectors; the engine checks
the first object of each class (by the catalogue's canonical codes), one
batch per quotient size, against the first probe of each class, and
every labeled member of a failing class fails.  Axiom 2 takes one table
of maps per pair of a class holding a T-member and a class holding an
F-member, represented by their first members, and weights each hom count
by how many labeled members of the two classes the predicates accept
(not n!/|Aut|, so that a class not closed under isomorphism stays
exact).  Counts and witnesses stay those of a labeled scan that visits
maps in the order of the classes' candidates, smaller first and by code
within a size, and, within a hom set, lexicographically.
`closure_prop_check` reads one table per class as well.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
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
from .enumeration import catalogue, catalogues, class_representatives, enumerate_objects
from .relations import block_ids, carrier_size

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
    labeled object and keep the answers, so it must not change them.  The
    four built-in classes are not asked at all: their members are the
    catalogues' masks of their kinds, which their predicates match.
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
        enumeration cap, before the predicate is asked."""
        return [cat.obj(i) for cat in catalogues(n) for i in np.flatnonzero(_members(self, cat.n))]


EQUIVALENCES = ObjClass("equivalences", lambda a: a.rel.is_symmetric())
PARTIAL_ORDERS = ObjClass("partial-orders", lambda a: a.rel.is_antisymmetric())
TRIVIAL_OBJECTS = ObjClass("trivial", is_trivial_object, trivial_exact=True)
ALL_PREORDERS = ObjClass("preorders", lambda a: True)


# the classes whose membership is a mask of every catalogue
_KIND_OF = {ALL_PREORDERS: "preorder", EQUIVALENCES: "equivalence",
            PARTIAL_ORDERS: "partial_order", TRIVIAL_OBJECTS: "trivial"}


@lru_cache(maxsize=64)
def intersect_classes(t: ObjClass, f: ObjClass) -> ObjClass:
    """The class of the objects in both, for the single-map checks
    (`factors_through` and the relative checks) that take one class; the
    same class for the same pair, so that its membership bits are kept.
    The verifiers read their null class as the AND of t's and f's bits
    instead, and never ask its predicate."""
    # the trivial_exact flag never propagates: an intersection with the
    # trivial class could miss trivial objects of some sizes
    return ObjClass(f"{t.name} ^ {f.name}", lambda a: t.contains(a) and f.contains(a))


def factors_through(f: Morph, cls: ObjClass, budget: int = DEFAULT_BUDGET) -> bool:
    """Does f factor as h o g through some member of the class?

    Factor objects are searched up to the domain size.  For a class of
    equality-relation objects that bound is exact (factor through the
    image); for a general class it is a documented approximation.
    """
    if cls.trivial_exact:
        return is_trivial_morphism(f)
    return bool(_class_trivial((cls,), budget)(np.array([f.map]), f.dom, f.cod)[0])


def _class_trivial(classes: tuple[ObjClass, ...], budget: int):
    """Triviality relative to the objects in all the classes, as the engine
    takes it: None (plain triviality, checked pairwise as a table) when
    every class is trivial_exact, else a predicate `trivial(rows, dom,
    cod)` on a stack of maps.

    The predicate searches the whole stack at once, through the first
    member z0 of each isomorphism class the classes hold on up to dom.n
    points, in `_by_class` order.  Per z0 it gathers the composites h o g
    of the monotone g: dom -> z0 and h: z0 -> cod as one array, in slices
    of the g that keep a block of composites within the budget, and marks
    the rows equal to one of them, compared whole.  It stops before the
    next z0 once every row is marked, so it enumerates the same hom sets,
    and raises the same BudgetError, as a search row by row.
    """
    if all(cls.trivial_exact for cls in classes):
        return None

    def trivial(rows, dom: PreObj, cod: PreObj) -> np.ndarray:
        # a map as one opaque item of dom.n int64s, so that maps compare whole
        rows = np.ascontiguousarray(rows, np.int64).view(f"V{8 * dom.n}").ravel()
        found = np.zeros(len(rows), dtype=bool)
        # f = h o g through z0 gives (h o phi^-1) o (phi o g) through any
        # z1 = phi(z0), so the first member of each isomorphism class
        # serves, and is a member even where the class is not closed under
        # isomorphism
        for z0 in _by_class(classes, dom.n)[0]:
            if found.all():
                break
            outs, ins = monotone_maps(dom, z0, budget), monotone_maps(z0, cod, budget)
            # ins holds the constant maps, so a slice is never empty; take
            # gathers the composites h o g of a slice as one contiguous block
            for part in table_slices(len(outs), len(ins) * dom.n, budget):
                found |= np.isin(rows, np.take(ins, outs[part], axis=1).view(rows.dtype))
        return found
    return trivial


def _hom_tables(doms, cods, budget: int):
    """Per domain, in order, and per slice of each run of same-size
    codomains: (domain position, codomain positions as a slice of cods,
    candidate grid, table).  Column j of the table marks the grid rows
    that are monotone maps into the j-th codomain of the slice, in the
    lexicographic order of `monotone_maps`; budgets are checked per run
    as `monotone_maps` checks them."""
    runs = same_size_runs(cods)
    for i, a in enumerate(doms):
        start = 0
        for run in runs:
            grid = candidate_grid(a.n, run.m, budget)
            for cols in table_slices(len(run.objs), len(grid), budget):
                at = slice(start + cols.start, start + min(cols.stop, len(run.objs)))
                yield i, at, grid, maps_out_table(grid, a.rel.pair_index, run, cols, budget)
            start += len(run.objs)


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
    return prekernel_property(k, f, tests, _class_trivial((cls,), budget), budget)


def relative_precokernel_check(p: Morph, f: Morph, cls: ObjClass,
                               tests: list[PreObj],
                               budget: int = DEFAULT_BUDGET) -> bool:
    """Definitional precokernel property relative to the class, over probes."""
    return precokernel_property(p, f, tests, _class_trivial((cls,), budget), budget)


def relative_preexact(f: Morph, g: Morph, cls: ObjClass, tests: list[PreObj],
                      budget: int = DEFAULT_BUDGET) -> bool:
    """f is a relative prekernel of g and g a relative precokernel of f."""
    Seq(f, g)  # checks that the legs compose
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
    # a preorder meets its converse in an equivalence
    return PreObj._trusted(symmetric_core(a))


def torsionfree_part(a: PreObj) -> PreObj:
    """The quotient poset of the object."""
    return quotient_poset(a)[0]


def torsion_sequence(a: PreObj) -> Seq:
    """Identity-carried inclusion of the torsion part, then the projection."""
    # the core is contained in the relation, so the identity map is monotone
    k = Morph._trusted(torsion_part(a), a, tuple(range(a.n)))
    return Seq(k, quotient_poset(a)[1])


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
    # property), those of them that an identity leg or a quotient leg
    # passed in closed form and those of the others that an isomorphic leg
    # decided without a table, runs of one-point probes that a sequence
    # decided without a table, pairs of a T-class and an F-class whose hom
    # set axiom 2 read, table cells (grid rows x probes, or x F-classes for
    # axiom 2) and wall seconds for the catalogues (with their canonical
    # codes, the class membership bits, the null-class test and the
    # probes) and per axiom
    classes_checked: int = 0
    sequences_checked: int = 0
    identity_legs: int = 0
    quotient_legs: int = 0
    iso_legs: int = 0
    point_runs: int = 0
    axiom2_class_pairs: int = 0
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
    holds: a built-in class reads its kind's mask, any other asks its
    predicate once per object, on objects it does not keep."""
    kind = _KIND_OF.get(cls)
    if kind is not None:
        return catalogue(n).masks[kind]
    return np.fromiter(map(cls.contains, enumerate_objects(n)), dtype=bool)


@lru_cache(maxsize=64)
def _by_class(classes: tuple[ObjClass, ...], max_n: int):
    """The labeled objects on 1..max_n points that every one of the classes
    holds, by isomorphism class: (the first member of each isomorphism
    class that holds one, in candidate order; per isomorphism class, how
    many members it holds; per member, in candidate order, the position of
    its isomorphism class among the first)."""
    firsts, of = [], []
    for cat in catalogues(max_n):
        # the objects in every one of the classes: the AND of their bits
        at = np.flatnonzero(np.logical_and.reduce([_members(cls, cat.n) for cls in classes]))
        iso = cat.class_of[at]
        # a stable sort puts each class's first member first in its group
        order = np.argsort(iso, kind="stable")
        first = np.sort(order[np.diff(iso[order], prepend=-1) != 0])
        index = np.zeros(len(cat.codes), dtype=np.intp)
        index[iso[first]] = len(firsts) + np.arange(len(first))
        of.append(index[iso])
        firsts.extend(map(cat.obj, at[first]))
    of = np.concatenate(of)
    return tuple(firsts), np.bincount(of, minlength=len(firsts)), of


def _null_class(t: ObjClass, f: ObjClass, max_n: int, budget: int):
    """The prologue of both verifiers, for the null class Z = t ^ f read as
    the AND of t's and f's membership bits: (max_n read as a carrier size,
    the catalogues of sizes 1..max_n, the triviality relative to Z that
    the engine takes, and whether Z is exactly the trivial objects on the
    range).  The triviality is None exactly in that case.

    A max_n below 1 is a ValidationError, and one beyond the enumeration
    cap a BudgetError raised before any catalogue is built or predicate
    asked."""
    max_n = carrier_size(max_n)
    if max_n < 1:
        raise ValidationError(f"max_n must be at least 1, got {max_n}")
    cats = catalogues(max_n)
    for cat in cats:
        # both axioms read every size's classes: its canonical codes are
        # built here, in the verdict's catalogue phase
        cat.canonical_codes
    # a list, not a generator: every size gets its membership bits
    exact = all([np.array_equal(_members(t, cat.n) & _members(f, cat.n), cat.masks["trivial"])
                 for cat in cats])
    return max_n, cats, None if exact else _class_trivial((t, f), budget), exact


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
    at the catalogue positions `at`, yielded in batches of one quotient
    size: (the batch's catalogue positions, the batch).  Objects, cores and
    quotients are the catalogues' objects.

    The first object comes alone.  Under plain triviality both legs of
    every sequence pass in closed form (an identity leg and a quotient
    leg), so the batches meet no grid and never raise BudgetError.  Under
    a searched null class a sequence meets the candidate grids of its legs
    that are not isomorphisms, which depend only on its sizes and its
    class, and a batch may meet a grid over the budget before the first
    failing object of a later batch is found.
    """
    cat = catalogue(n)
    core_at, proj, sizes, quotient_at = (part[at] for part in _torsion_parts(n))
    group = np.where(np.arange(len(at)) == 0, 0, sizes)
    for key in sorted(set(group.tolist())):
        sel = np.flatnonzero(group == key)
        quotients = catalogue(int(sizes[sel[0]]))
        yield at[sel], SeqBatch(
            tuple(map(cat.obj, core_at[sel])), tuple(map(cat.obj, at[sel])),
            tuple(map(quotients.obj, quotient_at[sel])),
            np.broadcast_to(np.arange(n), (len(sel), n)), proj[sel])


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
    for at, batch in _torsion_batches(n, reps):
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


def _axiom2(t: ObjClass, f: ObjClass, max_n: int, trivial, budget: int):
    """The first map from a t-member to an f-member that is not trivial,
    as (domain, codomain, map), or None; the maps checked up to and
    including it; and a Counter of the class pairs and table cells read.

    Hom sets between isomorphic pairs are in bijection, and triviality
    relative to any class carries over along isomorphisms, so one table
    per pair of classes, weighted by how many labeled members each class
    holds, counts the labeled maps.  The classes are represented by their
    first members and come in the order of those, so the first failing
    class pair holds the first failing labeled pair: its table is the
    labeled table of that pair, and the maps before it are read from the
    hom counts of the class pairs before it."""
    t_firsts, t_mult, t_of = _by_class((t,), max_n)
    f_firsts, f_mult, f_of = _by_class((f,), max_n)
    homs_of = np.zeros((len(t_firsts), len(f_firsts)), dtype=np.int64)
    work = Counter()
    for i, cols, grid, homs in _hom_tables(t_firsts, f_firsts, budget):
        work["pairs"] += homs.shape[1]
        work["cells"] += homs.size
        homs_of[i, cols] = homs.sum(axis=0)
        bad = _nontrivial(trivial, t_firsts[i], f_firsts[cols], grid, homs)
        failing = np.flatnonzero(bad.any(axis=0))
        if not len(failing):
            continue
        j = failing[0]
        row = np.flatnonzero(bad[:, j])[0]
        # the members before the failing ones are in classes before theirs
        before_t, before_f = np.argmax(t_of == i), np.argmax(f_of == cols.start + j)
        maps = (homs_of[t_of[:before_t]] @ f_mult).sum() + homs_of[i, f_of[:before_f]].sum()
        return ((t_firsts[i], f_firsts[cols][j], tuple(int(v) for v in grid[row])),
                int(maps) + int(homs[:row + 1, j].sum()), work)
    return None, int(t_mult @ homs_of @ f_mult), work


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
    first that fails, in enumeration order.  Under plain triviality (a
    null class of exactly the trivial objects) every k is an identity
    leg, the canonical prekernel of its g, and every p a quotient leg,
    the canonical precokernel of its k; both pass in closed form
    (`identity_legs` and `quotient_legs` of the report), so axiom 1 reads
    no table.  A searched null class tabulates them, except that a leg
    that is an isomorphism (k of an equivalence, p of a partial order) is
    decided by its composite alone (`iso_legs` of the report).  None of
    these meets a grid, so none raises BudgetError.  Axiom 2
    asks every map from a t-member to an f-member to factor through the
    intersection class, one table per pair of isomorphism classes
    (`axiom2_class_pairs`); maps_checked counts the labeled maps up to and
    including the first that fails, in the classes' candidate order and,
    within a hom set, lexicographically, and the witness is that map.

    The catalogues of every size up to max_n are built first (BudgetError
    beyond the enumeration cap), with their canonical codes and the
    membership bits of each class;
    `catalogue_s`, `axiom1_s` and `axiom2_s` of the report time the three
    phases.  A max_n below 1 is a ValidationError: there would be nothing
    to check.
    """
    start = time.perf_counter()
    max_n, cats, trivial, z_trivial = _null_class(t, f, max_n, budget)
    probes = class_representatives(max(1, max_n - 1))
    ax1 = Counter()
    built = time.perf_counter()
    ax1_witness, checked = None, 0
    for cat in cats:
        failure = _first_axiom1_failure(cat.n, t, f, trivial, probes, budget, ax1)
        if failure is not None:
            at, why = failure
            ax1_witness, checked = (cat.obj(at), why), checked + at + 1
            break
        checked += len(cat.codes)
    mid = time.perf_counter()
    ax2_witness, maps_checked, ax2 = _axiom2(t, f, max_n, trivial, budget)
    return PretorsionReport(
        torsion_name=t.name, torsionfree_name=f.name, max_n=max_n,
        axiom1_ok=ax1_witness is None, axiom1_counterexample=ax1_witness,
        axiom2_ok=ax2_witness is None, axiom2_counterexample=ax2_witness,
        objects_checked=checked, maps_checked=maps_checked,
        null_class_is_trivial=z_trivial,
        classes_checked=ax1["classes"], sequences_checked=ax1["sequences"],
        identity_legs=ax1["identity_legs"], quotient_legs=ax1["quotient_legs"],
        iso_legs=ax1["iso_legs"], point_runs=ax1["point_runs"], axiom2_class_pairs=ax2["pairs"],
        axiom1_cells=ax1["cells"], axiom2_cells=ax2["cells"],
        catalogue_s=built - start, axiom1_s=mid - built, axiom2_s=time.perf_counter() - mid,
    )


def closure_prop_check(x: PreObj, t: ObjClass, f: ObjClass, max_n: int,
                       budget: int = DEFAULT_BUDGET) -> bool:
    """Both closure implications for a single object.

    If every morphism from x into every f-member (up to max_n) is trivial
    relative to the intersection class, then x must lie in t; dually for
    morphisms out of t-members into x.  Each isomorphism class of members
    is checked once, through its first member.  Returns whether both
    implications hold on the range.  A max_n below 1 is a ValidationError,
    and one beyond the enumeration cap a BudgetError raised before any
    predicate is asked, as in `pretorsion_verify`.
    """
    max_n, _, trivial, _ = _null_class(t, f, max_n, budget)

    def all_trivial(doms, cods):
        return not any(_nontrivial(trivial, doms[i], cods[cols], grid, homs).any()
                       for i, cols, grid, homs in _hom_tables(doms, cods, budget))
    # a map into or out of a member is trivial exactly when the matching
    # map for the first member of its isomorphism class is
    t_firsts, f_firsts = _by_class((t,), max_n)[0], _by_class((f,), max_n)[0]
    imp1 = (not all_trivial((x,), f_firsts)) or t.contains(x)
    imp2 = (not all_trivial(t_firsts, (x,))) or f.contains(x)
    return imp1 and imp2
