import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from preord import (
    ALL_PREORDERS, BudgetError, EQUIVALENCES, Morph, ObjClass, PARTIAL_ORDERS,
    TRIVIAL_OBJECTS, ValidationError, chain, closure_prop_check, compose,
    ends_trivial_iff_iso, factors_through, hom_enumerate, identity,
    intersect_classes, is_epi, is_mono, is_trivial_morphism,
    is_trivial_object, make_object, monotone_maps, objects_upto, precokernel, prekernel,
    pretorsion_verify,
    quotient_poset, relative_precokernel_check, relative_preexact,
    relative_prekernel_check, symmetric_core, torsion_part,
    torsion_sequence, torsionfree_part, trivial_object,
    verify_precokernel_definitional, verify_prekernel_definitional,
)

import preord
from preord import enumeration, pretorsion
from preord.enumeration import (
    HARD_CAP, catalogue, catalogues, class_representatives, enumerate_objects,
)

from .oracles import (
    PARTIAL_ORDER_CLASS_COUNTS, PARTIAL_ORDER_COUNTS, axiom2_scan_brute, bell, brute_objects,
    canonical_code_brute, factors_through_search, integer_partitions, kind_test,
    precokernel_property_search, prekernel_property_search,
)

MIXED = make_object(3, [(0, 1), (1, 0), (1, 2)], mode="close")
KIND_OF = {ALL_PREORDERS: "preorder", EQUIVALENCES: "equivalence",
           PARTIAL_ORDERS: "partial_order", TRIVIAL_OBJECTS: "trivial"}


def counting(cls, asked):
    """The class with a predicate that counts in `asked`, per class name
    and object, each time it is asked."""
    def contains(a):
        asked[cls.name, a] += 1
        return cls.contains(a)
    return ObjClass(cls.name, contains, trivial_exact=cls.trivial_exact)


def fresh(code):
    """What the code prints, run in a new interpreter on this preord."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(preord.__file__).parents[1]), os.environ.get("PYTHONPATH"))
        if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def brute_spec(a):
    """The object as an (n, pairs) spec of `axiom2_scan_brute`, diagonal
    included."""
    return a.n, set(a.rel.pairs()) | {(x, x) for x in range(a.n)}


class TestObjClass:
    """A class is a name and a predicate; its candidates are its labeled
    members, read from the catalogues."""

    @pytest.mark.parametrize("cls", list(KIND_OF), ids=lambda c: c.name)
    def test_candidates_of_the_built_ins_are_their_kinds_n4(self, cls):
        for n in range(1, 5):
            assert cls.candidates(n) == objects_upto(n, KIND_OF[cls])

    def test_candidates_hold_exactly_the_predicates_members_n3(self, objects3):
        odd = ObjClass("odd-pairs", lambda a: len(list(a.rel.pairs())) % 2 == 1)
        assert odd.candidates(3) == [a for a in objects3 if odd.contains(a)]

    def test_a_bare_predicate_gets_the_verdict_of_its_members_n3(self):
        # listing only the equivalences as its candidates, this class passed
        bare = pretorsion_verify(ObjClass("all", lambda a: True), PARTIAL_ORDERS, 3)
        full = pretorsion_verify(ALL_PREORDERS, PARTIAL_ORDERS, 3)
        assert not bare.ok
        assert bare.axiom1_counterexample == full.axiom1_counterexample == (
            make_object(2, [(1, 0)]), "canonical sequence is not relatively preexact")
        assert bare.objects_checked == full.objects_checked == 3
        assert (bare.axiom2_counterexample, bare.maps_checked) == \
            (full.axiom2_counterexample, full.maps_checked)

    def test_kind_masks_are_the_built_in_predicates_n5(self):
        # the built-in classes read their kind's mask instead of asking
        # their predicate, so the two must agree on every labeled object
        for n in range(1, 6):
            cat = catalogue(n)
            for cls, kind in KIND_OF.items():
                assert cat.masks[kind].tolist() == [
                    bool(cls.contains(a)) for a in enumerate_objects(n)]
                assert pretorsion._members(cls, n) is cat.masks[kind]

    def test_a_candidate_list_is_rejected(self):
        # bound to trivial_exact, a candidate list moved a searched class
        # onto the plain path
        with pytest.raises(TypeError):
            ObjClass("trivial-searched", is_trivial_object, TRIVIAL_OBJECTS.candidates)
        assert not ObjClass("trivial-searched", is_trivial_object).trivial_exact


class TestFactorsThrough:
    def test_constant_factors_through_trivial(self):
        f = Morph(chain(2), chain(2), (0, 0))
        assert factors_through(f, TRIVIAL_OBJECTS)

    def test_identity_on_chain_does_not(self):
        assert not factors_through(identity(chain(2)), TRIVIAL_OBJECTS)

    def test_map_into_chain_factors_through_an_equivalence_object(self):
        f = Morph(trivial_object(2), chain(2), (0, 1))
        assert factors_through(f, EQUIVALENCES)

    def test_general_search_matches_trivial_fast_path_n2(self, objects2):
        # same membership, decided once by search and once by the pairwise
        # criterion
        searched = ObjClass("trivial-searched", is_trivial_object)
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert factors_through(f, searched) == \
                        factors_through(f, TRIVIAL_OBJECTS) == \
                        is_trivial_morphism(f)

    # neither closed under isomorphism: the points and the chain 0 <= 1 but
    # not 1 <= 0, and the objects whose point 0 lies below every point
    NOT_CLOSED = [
        ObjClass("points+chain01", lambda a: a.n == 1 or a == make_object(2, [(0, 1)])),
        ObjClass("0-least", lambda a: all(a.rel[0, x] for x in range(a.n)))]

    @pytest.mark.parametrize("cls", [EQUIVALENCES, PARTIAL_ORDERS] + NOT_CLOSED,
                             ids=lambda c: c.name)
    def test_one_member_per_class_finds_every_labeled_factorization_n3(self, objects3, cls):
        # f = h o g through z0 gives (h o phi^-1) o (phi o g) through any
        # z1 = phi(z0): the search over every labeled member agrees
        maps = [f for a in objects3 for b in objects3 for f in hom_enumerate(a, b)]
        sample = random.Random(11).sample(maps, 400)
        got = [factors_through(f, cls) for f in sample]
        want = [factors_through_search(f.map, brute_spec(f.dom), brute_spec(f.cod),
                                       [brute_spec(z) for z in cls.candidates(f.dom.n)])
                for f in sample]
        assert got == want and len(set(want)) == 2

    @pytest.mark.parametrize("cls", [EQUIVALENCES, PARTIAL_ORDERS] + NOT_CLOSED,
                             ids=lambda c: c.name)
    def test_stack_predicate_matches_search_on_every_hom_set_n3(self, objects3, cls):
        trivial = pretorsion._class_trivial((cls,), 10 ** 6)
        for a in objects3:
            zs = [brute_spec(z) for z in cls.candidates(a.n)]
            for b in objects3:
                rows = monotone_maps(a, b)
                want = [factors_through_search(row, brute_spec(a), brute_spec(b), zs)
                        for row in rows.tolist()]
                assert trivial(rows, a, b).tolist() == want
                empty = trivial(rows[:0], a, b)
                assert empty.dtype == bool and empty.shape == (0,)

    def test_stack_predicate_raises_where_a_search_row_by_row_would(self):
        # the first member of each class, in order: the point, then the
        # two-point objects, whose maps into chain(5) exceed the budget;
        # a stack whose rows all factor through the point stops before them
        trivial = pretorsion._class_trivial((ALL_PREORDERS,), 40)
        dom, cod = chain(2), chain(5)
        assert trivial(np.array([[3, 3], [1, 1]]), dom, cod).tolist() == [True, True]
        over = "25 candidate maps x 2 cells exceed budget 40"
        with pytest.raises(BudgetError, match=over):
            trivial(np.array([[3, 3], [0, 1]]), dom, cod)
        with pytest.raises(BudgetError, match=over):
            factors_through(Morph(dom, cod, (0, 1)), ALL_PREORDERS, 40)
        assert factors_through(Morph(dom, cod, (3, 3)), ALL_PREORDERS, 40)

    def test_stack_predicate_reads_every_slice_of_the_maps_into_the_member(self):
        # budget 8 keeps 3 maps h x 2 cells to one g per slice; the identity
        # of chain(2) factors through it only by g = (0, 1), the second
        # of (0, 0), (0, 1), (1, 1)
        c2 = chain(2)
        only = ObjClass("chain(2)", lambda a: a == c2)
        trivial = pretorsion._class_trivial((only,), 8)
        assert trivial(np.array([[0, 1], [1, 1], [0, 0]]), c2, c2).tolist() == [True] * 3
        assert factors_through(identity(c2), only, 8)

    def test_null_factoring_equals_zero_in_the_pointed_quotient_n2(self, objects2):
        # once trivial objects become zero objects, factoring through the
        # null class is exactly being the zero morphism
        from preord import is_stable_zero
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert factors_through(f, TRIVIAL_OBJECTS) == \
                        is_stable_zero(f)


class TestRelativeChecks:
    def test_agree_with_plain_verifiers_for_trivial_class_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    for x in objects2:
                        for k in hom_enumerate(x, a):
                            assert relative_prekernel_check(
                                k, f, TRIVIAL_OBJECTS, objects2) == \
                                verify_prekernel_definitional(k, f, objects2)

    def test_dual_agrees_with_plain_verifiers_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    for y in objects2:
                        for p in hom_enumerate(b, y):
                            assert relative_precokernel_check(
                                p, f, TRIVIAL_OBJECTS, objects2) == \
                                verify_precokernel_definitional(p, f, objects2)

    def test_passing_prekernels_are_mono_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    for x in objects2:
                        for k in hom_enumerate(x, a):
                            if relative_prekernel_check(
                                    k, f, TRIVIAL_OBJECTS, objects2):
                                assert is_mono(k)

    def test_passing_precokernels_are_epi_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    for y in objects2:
                        for p in hom_enumerate(b, y):
                            if relative_precokernel_check(
                                    p, f, TRIVIAL_OBJECTS, objects2):
                                assert is_epi(p)

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            relative_prekernel_check(identity(chain(2)), identity(chain(3)),
                                     TRIVIAL_OBJECTS, [])

    def test_passing_prekernels_linked_by_a_unique_iso_n2(self, objects2):
        from preord import iso_enumerate
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    passing = [
                        k for x in objects2 for k in hom_enumerate(x, a)
                        if relative_prekernel_check(
                            k, f, TRIVIAL_OBJECTS, objects2)
                    ]
                    for k1 in passing:
                        for k2 in passing:
                            linking = [
                                u for u in iso_enumerate(k2.dom, k1.dom)
                                if compose(k1, u) == k2
                            ]
                            assert len(linking) == 1

    def test_passing_precokernels_linked_by_a_unique_iso_n2(self, objects2):
        from preord import iso_enumerate
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    passing = [
                        p for y in objects2 for p in hom_enumerate(b, y)
                        if relative_precokernel_check(
                            p, f, TRIVIAL_OBJECTS, objects2)
                    ]
                    for p1 in passing:
                        for p2 in passing:
                            linking = [
                                u for u in iso_enumerate(p1.cod, p2.cod)
                                if compose(u, p1) == p2
                            ]
                            assert len(linking) == 1


class TestRelativeChecksAgainstLiteralOracle:
    """Seeded random (k, f) and (p, f) at n <= 3 with probes n <= 2, decided
    by the array-at-a-time checks (for the trivial class and for the same
    class decided by search) and by a per-map search oracle."""

    SEARCHED = ObjClass("trivial-searched", is_trivial_object)

    @staticmethod
    def spec(a):
        return a.n, list(a.rel.pairs())

    @staticmethod
    def pick(rng, items):
        return items[rng.integers(len(items))]

    def test_prekernel_check_matches_oracle(self, objects2, objects3):
        rng = np.random.default_rng(190206694)
        probes = [self.spec(y) for y in objects2]
        seen = set()
        for _ in range(1000):
            a, b, x = (self.pick(rng, objects3) for _ in range(3))
            f = self.pick(rng, hom_enumerate(a, b))
            k = prekernel(f) if rng.random() < 0.25 else self.pick(rng, hom_enumerate(x, a))
            want = prekernel_property_search(k.map, self.spec(k.dom), f.map,
                                             self.spec(a), self.spec(b), probes)
            for cls in (TRIVIAL_OBJECTS, self.SEARCHED):
                assert relative_prekernel_check(k, f, cls, objects2) == want
            seen.add((is_mono(k), is_trivial_morphism(compose(f, k)), want))
        # injective and other k reach the probes; injective ones both ways
        assert {(True, True, True), (True, True, False), (False, True, False)} <= seen

    def test_precokernel_check_matches_oracle(self, objects2, objects3):
        rng = np.random.default_rng(190206694)
        probes = [self.spec(t) for t in objects2]
        seen = set()
        for _ in range(1000):
            a, b, y = (self.pick(rng, objects3) for _ in range(3))
            f = self.pick(rng, hom_enumerate(a, b))
            p = precokernel(f) if rng.random() < 0.25 else self.pick(rng, hom_enumerate(b, y))
            want = precokernel_property_search(p.map, self.spec(p.cod), f.map,
                                               self.spec(a), self.spec(b), probes)
            for cls in (TRIVIAL_OBJECTS, self.SEARCHED):
                assert relative_precokernel_check(p, f, cls, objects2) == want
            seen.add((is_epi(p), is_trivial_morphism(compose(p, f)), want))
        assert {(True, True, True), (True, True, False), (False, True, False)} <= seen


class TestBatchedEngineAgainstLiteralOracle:
    """Seeded random (k, f) and (p, f) at n <= 3 against probe lists of
    sizes 1 to 3 in random order, each with a repeated probe.  The engine
    decides them with plain triviality, with the trivial class decided by
    search, and both again under a budget that cuts every table into
    slices; a per-map search oracle decides them once."""

    SEARCHED = ObjClass("trivial-searched", is_trivial_object)
    # the largest candidate grid at n = 3 (27 maps x 3 cells) just fits
    SLICING_BUDGET = 81

    @staticmethod
    def spec(a):
        return a.n, list(a.rel.pairs())

    @staticmethod
    def probes(rng, by_size):
        sizes = rng.integers(1, 4, size=rng.integers(2, 5))
        ys = [by_size[s][rng.integers(len(by_size[s]))] for s in sizes]
        ys.append(ys[rng.integers(len(ys))])
        return [ys[i] for i in rng.permutation(len(ys))]

    def verdicts(self, check, a, b, tests):
        return {check(a, b, cls, tests, budget)
                for cls in (TRIVIAL_OBJECTS, self.SEARCHED)
                for budget in (self.SLICING_BUDGET, 1_000_000)}

    def test_prekernel_engine_matches_oracle(self, objects3):
        rng = np.random.default_rng(20190611)
        by_size = {s: [a for a in objects3 if a.n == s] for s in (1, 2, 3)}
        seen, unsorted = set(), 0
        for _ in range(500):
            a, b, x = (objects3[rng.integers(len(objects3))] for _ in range(3))
            f = hom_enumerate(a, b)[rng.integers(len(hom_enumerate(a, b)))]
            homs = hom_enumerate(x, a)
            k = prekernel(f) if rng.random() < 0.25 else homs[rng.integers(len(homs))]
            tests = self.probes(rng, by_size)
            want = prekernel_property_search(k.map, self.spec(k.dom), f.map, self.spec(a),
                                             self.spec(b), [self.spec(y) for y in tests])
            assert self.verdicts(relative_prekernel_check, k, f, tests) == {want}
            assert verify_prekernel_definitional(k, f, tests) == want
            seen.add((is_mono(k), is_trivial_morphism(compose(f, k)), want))
            unsorted += [y.n for y in tests] != sorted(y.n for y in tests)
        # the inverse path passes and fails, the count path reaches the probes
        assert {(True, True, True), (True, True, False), (False, True, False)} <= seen
        assert unsorted > 100

    def test_precokernel_engine_matches_oracle(self, objects3):
        rng = np.random.default_rng(20190611)
        by_size = {s: [a for a in objects3 if a.n == s] for s in (1, 2, 3)}
        seen, unsorted = set(), 0
        for _ in range(500):
            a, b, y = (objects3[rng.integers(len(objects3))] for _ in range(3))
            f = hom_enumerate(a, b)[rng.integers(len(hom_enumerate(a, b)))]
            homs = hom_enumerate(b, y)
            p = precokernel(f) if rng.random() < 0.25 else homs[rng.integers(len(homs))]
            tests = self.probes(rng, by_size)
            want = precokernel_property_search(p.map, self.spec(p.cod), f.map, self.spec(a),
                                               self.spec(b), [self.spec(t) for t in tests])
            assert self.verdicts(relative_precokernel_check, p, f, tests) == {want}
            assert verify_precokernel_definitional(p, f, tests) == want
            seen.add((is_epi(p), is_trivial_morphism(compose(p, f)), want))
            unsorted += [t.n for t in tests] != sorted(t.n for t in tests)
        assert {(True, True, True), (True, True, False), (False, True, False)} <= seen
        assert unsorted > 100


class TestEngineBudget:
    """The engine raises BudgetError exactly where a per-probe hom
    enumeration would: at the first probe whose candidate grid exceeds the
    budget, unless an earlier probe already failed, and before allocating."""

    # f o k is trivial, and the identity of chain(2) does not factor through k
    K = Morph(trivial_object(2), chain(2), (0, 1))
    F = Morph(chain(2), trivial_object(1), (0, 0))
    # p o f is trivial, and the identity of chain(2) does not factor through p
    P = Morph(chain(2), make_object(2, [(0, 1), (1, 0)]), (0, 1))
    G = Morph(trivial_object(1), chain(2), (0,))

    def test_prekernel_budget_is_checked_probe_by_probe(self):
        big = trivial_object(7)  # 2 ** 7 maps x 7 cells
        assert not verify_prekernel_definitional(self.K, self.F, [chain(2), big], budget=100)
        with pytest.raises(BudgetError):
            verify_prekernel_definitional(self.K, self.F, [big, chain(2)], budget=100)
        # the bound is inclusive: 896 cells fit a budget of 896
        assert verify_prekernel_definitional(self.K, self.F, [trivial_object(1), big], budget=896)

    def test_precokernel_budget_is_checked_probe_by_probe(self):
        big = trivial_object(11)  # 11 ** 2 maps x 2 cells
        assert not verify_precokernel_definitional(self.P, self.G, [chain(2), big], budget=100)
        with pytest.raises(BudgetError):
            verify_precokernel_definitional(self.P, self.G, [big, chain(2)], budget=100)

    def test_nothing_is_allocated_before_the_budget_error(self):
        wide = trivial_object(17)  # 2 ** 17 maps x 17 cells into chain(2)
        tall = trivial_object(1000)  # 1000 ** 2 maps x 2 cells out of chain(2)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                verify_prekernel_definitional(self.K, self.F, [trivial_object(1), wide])
            with pytest.raises(BudgetError):
                verify_precokernel_definitional(self.P, self.G, [trivial_object(1), tall])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_axiom1_raises_exactly_where_the_object_order_meets_the_budget(self):
        # every 2-point sequence meets a grid of 2 cells; the first 2-point
        # object, trivial(2), stops axiom 1 before it when its torsion part
        # is outside T, although later objects would reach it
        everything = ObjClass("all", lambda a: True)
        no_trivial_part = ObjClass("no-trivial-part", lambda a: a.n == 1 or not
                                   is_trivial_object(a))
        # a one-point null class keeps the factorization search in budget
        point = ObjClass("point", lambda a: a.n == 1)
        probes = class_representatives(1)

        def first_failure(t, f, budget):
            return pretorsion._first_axiom1_failure(
                2, t, f, pretorsion._class_trivial((point,), budget), probes, budget, Counter())
        assert catalogue(2).obj(0) == trivial_object(2)
        assert first_failure(no_trivial_part, everything, 1) == (
            0, "torsion part is outside the torsion class")
        with pytest.raises(BudgetError):
            first_failure(everything, everything, 1)
        assert first_failure(everything, everything, 2) == (
            0, "canonical sequence is not relatively preexact")
        # after that witness, axiom 2's first table (1 point into 2) is
        # over the budget
        with pytest.raises(BudgetError):
            pretorsion_verify(no_trivial_part, everything, 2, budget=1)

    def test_axiom2_raises_at_the_first_grid_over_budget(self):
        # 3 ** 3 maps x 3 cells from a 3-point T-member into a 3-point F-member
        assert pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3, budget=81).ok
        with pytest.raises(BudgetError):
            pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3, budget=80)


class TestRelativePreexact:
    def test_torsion_sequences_n3(self, objects2, objects3):
        for a in objects3:
            seq = torsion_sequence(a)
            assert relative_preexact(seq.f, seq.g, TRIVIAL_OBJECTS, objects2)

    def test_identity_pair_on_chain_fails(self, objects2):
        f = identity(chain(2))
        assert not relative_preexact(f, f, TRIVIAL_OBJECTS, objects2)

    def test_ends_trivial_iff_iso_on_a_poset(self, objects2):
        a = chain(3)
        seq = torsion_sequence(a)
        assert factors_through(seq.f, TRIVIAL_OBJECTS)
        assert ends_trivial_iff_iso(seq.f, seq.g, TRIVIAL_OBJECTS, objects2)

    def test_ends_trivial_iff_iso_on_an_equivalence_object(self, objects2):
        a = make_object(2, [(0, 1), (1, 0)])
        seq = torsion_sequence(a)
        assert factors_through(seq.g, TRIVIAL_OBJECTS)
        assert ends_trivial_iff_iso(seq.f, seq.g, TRIVIAL_OBJECTS, objects2)

    def test_ends_trivial_iff_iso_on_a_mixed_object(self, objects2):
        seq = torsion_sequence(MIXED)
        assert not factors_through(seq.f, TRIVIAL_OBJECTS)
        assert not factors_through(seq.g, TRIVIAL_OBJECTS)
        assert ends_trivial_iff_iso(seq.f, seq.g, TRIVIAL_OBJECTS, objects2)

    def test_ends_check_requires_preexactness(self, objects2):
        f = identity(chain(2))
        with pytest.raises(ValidationError):
            ends_trivial_iff_iso(f, f, TRIVIAL_OBJECTS, objects2)


class TestDuality:
    def test_precokernel_check_matches_op_unfolded_prekernel_check(self, objects2):
        # the opposite-category reading of the prekernel property, written
        # out with reversed composition, must reproduce the direct
        # precokernel verdict; runs on self-dual (symmetric) objects
        def op_prekernel_check(p, f, cls, tests):
            if not factors_through(compose(p, f), cls):
                return False
            for y in tests:
                for lam in hom_enumerate(f.cod, y):
                    if not factors_through(compose(lam, f), cls):
                        continue
                    count = sum(
                        1 for lam1 in hom_enumerate(p.cod, y)
                        if compose(lam1, p) == lam)
                    if count != 1:
                        return False
            return True

        symmetric = [a for a in objects2 if a.rel.is_symmetric()]
        for a in symmetric:
            for b in symmetric:
                for f in hom_enumerate(a, b):
                    for y in symmetric:
                        for p in hom_enumerate(b, y):
                            assert relative_precokernel_check(
                                p, f, TRIVIAL_OBJECTS, objects2) == \
                                op_prekernel_check(p, f, TRIVIAL_OBJECTS,
                                                   objects2)


class TestTorsionParts:
    def test_poset_has_trivial_torsion_part(self):
        a = chain(3)
        assert is_trivial_object(torsion_part(a))
        q = torsionfree_part(a)
        assert q.rel == a.rel

    def test_equivalence_object_has_trivial_torsionfree_part(self):
        a = make_object(3, [(0, 1), (1, 0)])
        assert is_trivial_object(torsionfree_part(a))

    def test_mixed_object_splits_as_expected(self):
        assert torsion_part(MIXED).rel == symmetric_core(MIXED)
        assert torsionfree_part(MIXED).rel == chain(2).rel

    def test_parts_land_in_their_classes_n4(self, objects4):
        for a in objects4:
            assert EQUIVALENCES.contains(torsion_part(a))
            assert PARTIAL_ORDERS.contains(torsionfree_part(a))

    def test_sequence_legs(self):
        seq = torsion_sequence(MIXED)
        assert seq.f.map == (0, 1, 2)
        assert seq.g.map == quotient_poset(MIXED)[1].map


class TestPretorsionVerify:
    @pytest.mark.parametrize("max_n", [0, -1])
    def test_a_range_without_objects_is_rejected(self, max_n):
        # it passed on 0 objects and 0 maps
        with pytest.raises(ValidationError):
            pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, max_n)

    def test_equivalences_and_partial_orders_pass_n3(self):
        report = pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3)
        assert report.ok
        assert report.null_class_is_trivial
        assert report.objects_checked == 34
        assert "pass" in str(report)

    def test_all_against_all_fails_the_canonical_sequence(self):
        # with the null class equal to everything, axiom 2 is vacuous
        # (every morphism factors through its own codomain), but the
        # canonical sequence is no longer relatively preexact once the
        # probes include a chain
        report = pretorsion_verify(ALL_PREORDERS, ALL_PREORDERS, 3)
        assert report.axiom2_ok
        assert report.maps_checked == 11310
        assert not report.axiom1_ok
        obj, why = report.axiom1_counterexample
        assert not obj.rel.is_symmetric()
        assert "preexact" in why

    def test_trivial_pair_passes_only_on_points(self):
        assert pretorsion_verify(TRIVIAL_OBJECTS, TRIVIAL_OBJECTS, 1).ok
        report = pretorsion_verify(TRIVIAL_OBJECTS, TRIVIAL_OBJECTS, 3)
        assert report.maps_checked == 56
        assert not report.axiom1_ok
        obj, why = report.axiom1_counterexample
        assert not is_trivial_object(obj)

    def test_swapped_classes_fail_axiom2_on_a_pinned_map(self):
        # axiom 2 stops at the first map that does not factor, so the
        # witness and the count pin the order in which maps are checked
        report = pretorsion_verify(PARTIAL_ORDERS, EQUIVALENCES, 3)
        assert not report.axiom2_ok
        assert report.axiom2_counterexample == (
            make_object(2, [(1, 0)]), make_object(2, [(0, 1), (1, 0)]), (0, 1))
        assert report.maps_checked == 79

    def test_report_text_is_pinned_n3(self):
        assert str(pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3)) == (
            "pretorsion check for (equivalences, partial-orders) up to n=3\n"
            "null class = intersection; members on range are exactly the trivial objects\n"
            "axiom 1 (canonical sequence is relatively preexact with ends in the classes): "
            "pass on 34 objects\n"
            "axiom 2 (every hom from torsion to torsion-free is null-trivial): "
            "pass on 1466 maps\n"
            "verdict: pass")

    def test_report_text_of_a_failing_verdict_is_pinned_n3(self):
        assert str(pretorsion_verify(PARTIAL_ORDERS, EQUIVALENCES, 3)) == (
            "pretorsion check for (partial-orders, equivalences) up to n=3\n"
            "null class = intersection; members on range are exactly the trivial objects\n"
            "axiom 1 (canonical sequence is relatively preexact with ends in the classes): "
            "FAIL on 3 objects\n"
            "  counterexample: PreObj(2, [(1, 0)]) (quotient is outside the torsion-free class)\n"
            "axiom 2 (every hom from torsion to torsion-free is null-trivial): "
            "FAIL on 79 maps\n"
            "  counterexample: [0, 1] from PreObj(2, [(1, 0)]) to PreObj(2, [(0, 1), (1, 0)])\n"
            "verdict: FAIL")

    @pytest.mark.parametrize("max_n, counts", [(3, (13, 0, 0, 0, 6, 8)),
                                               (4, (46, 0, 0, 0, 11, 24))],
                             ids=["max_n3", "max_n4"])
    def test_work_counters_count_every_table_cell_n3(self, max_n, counts):
        # axiom 1 checks the first object of each isomorphism class: every
        # k is an identity leg and every p a quotient leg, both passed in
        # closed form, so no isomorphic leg, point run or table is left to
        # count; axiom 2 reads one table of the maps from each T-class into
        # each F-class
        n_classes, n_iso, n_points, n_cells, n_ts, n_fs = counts
        report = pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, max_n)
        classes = first_of_each_class(objects_upto(max_n))
        assert report.classes_checked == len(classes) == n_classes
        assert report.sequences_checked == 2 * len(classes)
        assert report.identity_legs == report.quotient_legs == report.classes_checked
        assert report.iso_legs == n_iso
        assert report.point_runs == n_points
        assert report.axiom1_cells == n_cells
        ts = first_of_each_class(EQUIVALENCES.candidates(max_n))
        fs = first_of_each_class(PARTIAL_ORDERS.candidates(max_n))
        assert report.axiom2_class_pairs == len(ts) * len(fs) == n_ts * n_fs
        assert report.axiom2_cells == sum(f.n ** t.n for t in ts for f in fs)
        assert report.axiom1_s > 0 and report.axiom2_s > 0

    def test_catalogue_and_axioms_account_for_the_verdict_n3(self):
        start = time.perf_counter()
        report = pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3)
        wall = time.perf_counter() - start
        parts = (report.catalogue_s, report.axiom1_s, report.axiom2_s)
        assert all(p > 0 for p in parts) and sum(parts) <= wall
        assert "catalogue" not in str(report)

    def test_canonical_codes_are_built_in_the_catalogue_phase_n4(self, monkeypatch):
        # both axioms read every size's classes, so `catalogue_s` times
        # their canonical codes: they were built lazily inside axiom 1
        phase, built = ["catalogue"], []
        for cat in catalogues(4):
            monkeypatch.delitem(vars(cat), "canonical_codes", raising=False)
        codes, axiom1 = enumeration._canonical_codes, pretorsion._first_axiom1_failure

        def recording(bits):
            built.append(phase[0])
            return codes(bits)

        def axioms(*args):
            phase[0] = "axioms"
            return axiom1(*args)
        monkeypatch.setattr(enumeration, "_canonical_codes", recording)
        monkeypatch.setattr(pretorsion, "_first_axiom1_failure", axioms)
        assert pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 4).ok
        assert built == ["catalogue"] * 4

    def test_each_predicate_is_asked_once_per_labeled_object(self, objects3):
        # across a verdict and a later closure check on the same range;
        # the closure check may ask the predicates of x itself once more
        asked = Counter()
        t, f = counting(EQUIVALENCES, asked), counting(PARTIAL_ORDERS, asked)
        assert pretorsion_verify(t, f, 3).ok
        assert max(asked.values()) == 1
        assert set(asked) == {(c.name, a) for c in (t, f) for a in objects3}
        x = objects3[-1]
        assert closure_prop_check(x, t, f, 3)
        assert asked.pop((t.name, x)) == 2  # x, the full relation, is an equivalence
        assert asked.pop((f.name, x)) <= 2
        assert max(asked.values()) == 1

    def test_a_searched_null_class_keeps_its_bits_across_calls_n3(self, objects3):
        # the intersection was a new class, with new membership bits, on
        # every call: each closure check asked both predicates of every
        # labeled object again
        asked = Counter()
        t, f = counting(ALL_PREORDERS, asked), counting(EQUIVALENCES, asked)
        assert intersect_classes(t, f) is intersect_classes(t, f)
        x = objects3[-1]
        assert closure_prop_check(x, t, f, 3)
        for _ in range(3):
            before = Counter(asked)
            assert closure_prop_check(x, t, f, 3)
            more = asked - before
            # only the predicates of x itself, once each
            assert set(more) <= {(t.name, x), (f.name, x)}
            assert max(more.values(), default=0) <= 1
        assert not pretorsion_verify(t, f, 3).null_class_is_trivial
        before = Counter(asked)
        pretorsion_verify(t, f, 3)
        assert asked == before

    def test_a_searched_null_class_asks_each_predicate_once_n3(self, objects3):
        # the null class was built as a class of its own, whose predicate
        # asked both classes of every labeled object a second time
        asked = Counter()
        t, f = counting(ALL_PREORDERS, asked), counting(EQUIVALENCES, asked)
        report = pretorsion_verify(t, f, 3)
        assert not report.null_class_is_trivial
        assert len(objects3) == 34
        assert asked == Counter({(c.name, a): 1 for c in (t, f) for a in objects3})

    def test_a_range_beyond_the_cap_asks_no_predicate(self):
        # the catalogues come first: the closure check asked the predicates
        # of every size below the cap before it raised
        asked = Counter()
        t, f = counting(ALL_PREORDERS, asked), counting(EQUIVALENCES, asked)
        with pytest.raises(BudgetError):
            pretorsion_verify(t, f, HARD_CAP + 1)
        with pytest.raises(BudgetError):
            closure_prop_check(chain(2), t, f, HARD_CAP + 1)
        assert not asked

    def test_a_searched_null_class_builds_only_the_objects_it_reads(self):
        # reading the null class through a predicate built every labeled
        # object of every size
        code = ("from preord import ALL_PREORDERS, EQUIVALENCES, pretorsion_verify\n"
                "from preord.enumeration import catalogue\n"
                "pretorsion_verify(ALL_PREORDERS, EQUIVALENCES, 4)\n"
                "objs = catalogue(4)._objs\n"
                "print(sum(a is not None for a in objs), len(objs))\n")
        built, labeled = map(int, fresh(code).split())
        assert labeled == 355 and built < labeled

    # each range reader built every catalogue below the cap, and a searched
    # class asked its predicate of their objects, before the cap's BudgetError
    BEYOND_CAP = {
        "objects_upto": "objects_upto(HARD_CAP + 1)",
        "class_representatives": "class_representatives(HARD_CAP + 1)",
        "candidates": "t.candidates(HARD_CAP + 1)",
        "pretorsion_verify": "pretorsion_verify(t, f, HARD_CAP + 1)",
        "closure_prop_check": "closure_prop_check(chain(2), t, f, HARD_CAP + 1)",
        "factors_through": "factors_through(Morph(chain(HARD_CAP + 1), chain(1), "
                           "(0,) * (HARD_CAP + 1)), t)",
    }

    @pytest.mark.parametrize("call", list(BEYOND_CAP.values()), ids=list(BEYOND_CAP))
    def test_a_range_beyond_the_cap_builds_no_catalogue(self, call):
        code = ("from preord import (BudgetError, Morph, ObjClass, chain, closure_prop_check,\n"
                "                    factors_through, objects_upto, pretorsion_verify)\n"
                "from preord.enumeration import HARD_CAP, catalogue, class_representatives\n"
                "asked = []\n"
                "t = ObjClass('sym', lambda a: asked.append(a) or a.rel.is_symmetric())\n"
                "f = ObjClass('anti', lambda a: asked.append(a) or a.rel.is_antisymmetric())\n"
                "try:\n"
                f"    {call}\n"
                "except BudgetError as e:\n"
                "    print(e)\n"
                "print(len(asked), catalogue.cache_info().currsize)\n")
        assert fresh(code).splitlines() == [f"enumeration capped at n <= {HARD_CAP}", "0 0"]

    def test_a_user_class_builds_no_more_objects_than_its_built_in_twin(self):
        # a user class asked its predicate of the catalogue's own objects, so
        # the catalogue kept every labeled object
        code = ("from preord import EQUIVALENCES, ObjClass, PARTIAL_ORDERS, pretorsion_verify\n"
                "from preord.enumeration import catalogue\n"
                "assert pretorsion_verify({}, PARTIAL_ORDERS, 4).ok\n"
                "objs = catalogue(4)._objs\n"
                "print(sum(a is not None for a in objs), len(objs))\n")
        user, labeled = map(int, fresh(code.format(
            "ObjClass('symmetric', lambda a: a.rel.is_symmetric())")).split())
        builtin, _ = map(int, fresh(code.format("EQUIVALENCES")).split())
        assert labeled == 355 and user <= builtin < labeled

    def test_the_verdict_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, 13 ms of a cold verdict
        code = ("import sys\n"
                "from preord import EQUIVALENCES, PARTIAL_ORDERS, pretorsion_verify\n"
                "assert pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3).ok\n"
                "print('numpy.ma' in sys.modules)\n")
        assert fresh(code).strip() == "False"

    def test_null_class_is_exactly_the_trivial_objects_n3(self, objects3):
        z = intersect_classes(EQUIVALENCES, PARTIAL_ORDERS)
        for a in objects3:
            assert z.contains(a) == is_trivial_object(a)


def first_of_each_class(objs):
    """The first object of each isomorphism class, by brute-force codes."""
    firsts = {}
    for a in objs:
        firsts.setdefault((a.n, canonical_code_brute(a.n, set(a.rel.pairs()))), a)
    return list(firsts.values())


def labeled_axiom1(t, f, max_n):
    """Axiom 1 object by object: membership of both ends, then relative
    preexactness of the torsion sequence against every labeled probe one
    size down; the first failure with its reason, and the objects up to it."""
    z = intersect_classes(t, f)
    probes = objects_upto(max(1, max_n - 1))
    objs = objects_upto(max_n)
    for i, a in enumerate(objs):
        seq = torsion_sequence(a)
        if not t.contains(seq.f.dom):
            why = "torsion part is outside the torsion class"
        elif not f.contains(seq.g.cod):
            why = "quotient is outside the torsion-free class"
        elif not relative_preexact(seq.f, seq.g, z, probes):
            why = "canonical sequence is not relatively preexact"
        else:
            continue
        return (a, why), i + 1
    return None, len(objs)


def _with_one_labeled(cls, extra):
    """The class and one labeled object, not its relabelings."""
    return ObjClass(f"{cls.name}+1", lambda a: cls.contains(a) or a == extra)


class TestAxiom1ByClass:
    """Axiom 1 runs the engine on one object per isomorphism class with one
    probe per class; the witness, its reason and the objects checked are
    those of a scan of every labeled object against every labeled probe."""

    # one labeled equivalence on 3 points joins the partial orders, so the
    # null class holds it but none of its two relabelings
    NOT_CLOSED = _with_one_labeled(PARTIAL_ORDERS, make_object(3, [(0, 1), (1, 0)]))

    @pytest.mark.parametrize("t, f, witness", [
        (EQUIVALENCES, PARTIAL_ORDERS, None),
        (PARTIAL_ORDERS, EQUIVALENCES, (2, [(1, 0)], "quotient is outside")),
        (ALL_PREORDERS, ALL_PREORDERS, (2, [(1, 0)], "canonical sequence")),
        (TRIVIAL_OBJECTS, TRIVIAL_OBJECTS, (2, [(1, 0)], "quotient is outside")),
        (EQUIVALENCES, NOT_CLOSED, (3, [(1, 2), (2, 1)], "canonical sequence")),
    ])
    def test_matches_the_labeled_scan_n3(self, t, f, witness):
        for max_n in (1, 2, 3):
            report = pretorsion_verify(t, f, max_n)
            assert (report.axiom1_counterexample, report.objects_checked) == \
                labeled_axiom1(t, f, max_n)
        if witness is None:
            assert report.axiom1_ok
        else:
            n, pairs, why = witness
            obj, reason = report.axiom1_counterexample
            assert obj == make_object(n, pairs) and reason.startswith(why)
        assert report.null_class_is_trivial == (f is not self.NOT_CLOSED
                                                and t is not ALL_PREORDERS)


class TestCheckOrder:
    """Axiom 2 and the closure check visit the hom sets in the order of the
    classes' candidates, smaller first and by code within a size, and maps
    within a hom set lexicographically.  Counts and witnesses are pinned and
    match a map-by-map scan with a brute factorization search."""

    @pytest.mark.parametrize("t, f, max_n, witness, maps", [
        (EQUIVALENCES, PARTIAL_ORDERS, 3, None, 1466),
        (PARTIAL_ORDERS, EQUIVALENCES, 4,
         (make_object(2, [(1, 0)]), make_object(2, [(0, 1), (1, 0)]), (0, 1)), 379),
    ])
    def test_axiom2_matches_the_brute_scan(self, t, f, max_n, witness, maps):
        report = pretorsion_verify(t, f, max_n)
        assert (report.axiom2_counterexample, report.maps_checked) == (witness, maps)
        want, visited = axiom2_scan_brute(max_n, KIND_OF[t], KIND_OF[f])
        assert visited == maps
        if witness is None:
            assert want is None
        else:
            dom, cod, m = witness
            assert want == (brute_spec(dom), brute_spec(cod), m)

    def test_searched_null_class_pins_both_axioms(self):
        # the intersection holds more than the trivial objects, so
        # triviality is a factorization search per T-member and F-member
        for t, f, maps in ((ALL_PREORDERS, EQUIVALENCES, 2466),
                           (EQUIVALENCES, ALL_PREORDERS, 2554)):
            report = pretorsion_verify(t, f, 3)
            assert not report.null_class_is_trivial
            assert report.axiom2_ok and report.maps_checked == maps
            assert axiom2_scan_brute(3, KIND_OF[t], KIND_OF[f]) == (None, maps)
        assert report.axiom1_counterexample == (
            make_object(2, [(0, 1), (1, 0)]), "canonical sequence is not relatively preexact")

    def test_sliced_tables_keep_the_order(self):
        # 81 cells hold one 3-point grid (27 maps x 3 cells) but cut every
        # table of more than three codomains into slices
        for t, f in ((PARTIAL_ORDERS, EQUIVALENCES), (EQUIVALENCES, PARTIAL_ORDERS)):
            sliced, whole = pretorsion_verify(t, f, 3, budget=81), pretorsion_verify(t, f, 3)
            assert sliced.axiom2_counterexample == whole.axiom2_counterexample
            assert sliced.maps_checked == whole.maps_checked

    @pytest.mark.parametrize("t, f, failing", [
        (EQUIVALENCES, PARTIAL_ORDERS, []),
        (EQUIVALENCES, ALL_PREORDERS, []),
        (TRIVIAL_OBJECTS, PARTIAL_ORDERS, [4, 10, 16, 18, 21, 25, 26, 29, 31, 32, 33]),
        (EQUIVALENCES, TRIVIAL_OBJECTS, [2, 3, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 19, 20,
                                         21, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32]),
    ])
    def test_closure_prop_check_pinned_n3(self, objects3, t, f, failing):
        assert [i for i, x in enumerate(objects3)
                if not closure_prop_check(x, t, f, 3)] == failing


CHAIN01, CHAIN10 = make_object(2, [(0, 1)]), make_object(2, [(1, 0)])
E3 = make_object(3, [(0, 1), (1, 0)])


def _spec_is(obj):
    """Does an (n, pairs) spec of the oracles, diagonal included, describe obj?"""
    return lambda n, pairs: (n, pairs) == (obj.n, brute_spec(obj)[1])


def _or(*tests):
    return lambda n, pairs: any(test(n, pairs) for test in tests)


class TestAxiom2ByClass:
    """Axiom 2 reads one table per pair of isomorphism classes, weighted by
    how many labeled members each class holds; maps_checked and the witness
    stay those of a map-by-map scan of every labeled pair, also for classes
    that are not closed under isomorphism."""

    # the partial orders and one labeled equivalence, not its relabelings
    PO_E3 = _with_one_labeled(PARTIAL_ORDERS, E3)
    # the partial orders but the chain 1 <= 0, which comes first in its class
    PO_BUT_CHAIN10 = ObjClass("partial-orders-1",
                              lambda a: PARTIAL_ORDERS.contains(a) and a != CHAIN10)
    # the trivial objects and the chain 0 <= 1, not the chain 1 <= 0 that
    # comes first in its class
    TRIVIAL_CHAIN = _with_one_labeled(TRIVIAL_OBJECTS, CHAIN01)
    BRUTE = {PO_E3: _or(kind_test("partial_order"), _spec_is(E3)),
             PO_BUT_CHAIN10: lambda n, pairs: (kind_test("partial_order")(n, pairs)
                                               and not _spec_is(CHAIN10)(n, pairs)),
             TRIVIAL_CHAIN: _or(lambda n, pairs: all(a == b for a, b in pairs),
                                _spec_is(CHAIN01))}

    @pytest.mark.parametrize("t, f, witness", [
        (EQUIVALENCES, PO_BUT_CHAIN10, None),
        # E3 is null, but maps into it from 2-point equivalences do not
        # factor through a null object of at most 2 points
        (EQUIVALENCES, PO_E3, (make_object(2, [(0, 1), (1, 0)]), E3, (0, 1))),
        (PO_E3, EQUIVALENCES, (make_object(2, [(1, 0)]), make_object(2, [(0, 1), (1, 0)]),
                               (0, 1))),
        (TRIVIAL_CHAIN, EQUIVALENCES, (CHAIN01, make_object(2, [(0, 1), (1, 0)]), (0, 1))),
        # the built-in classes swapped
        (PARTIAL_ORDERS, EQUIVALENCES, (make_object(2, [(1, 0)]),
                                        make_object(2, [(0, 1), (1, 0)]), (0, 1))),
    ], ids=["open-f-passes", "open-f-fails", "open-t-fails", "open-t-first-member",
            "swapped"])
    def test_matches_the_brute_scan_n3(self, t, f, witness):
        report = pretorsion_verify(t, f, 3)
        assert report.axiom2_counterexample == witness
        want, visited = axiom2_scan_brute(3, self.BRUTE.get(t, KIND_OF.get(t)),
                                          self.BRUTE.get(f, KIND_OF.get(f)))
        assert report.maps_checked == visited
        if witness is None:
            assert want is None
        else:
            dom, cod, m = witness
            assert want == (brute_spec(dom), brute_spec(cod), m)

    def test_class_pairs_stand_for_every_labeled_pair_n3(self):
        # the 2-chain's class holds one labeled member, not two; every
        # class pair is read once
        report = pretorsion_verify(EQUIVALENCES, self.PO_BUT_CHAIN10, 3)
        labeled = sum(len(monotone_maps(a, b)) for a in EQUIVALENCES.candidates(3)
                      for b in self.PO_BUT_CHAIN10.candidates(3))
        assert report.axiom2_ok and report.maps_checked == labeled
        assert report.maps_checked < pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 3).maps_checked
        ts = first_of_each_class(EQUIVALENCES.candidates(3))
        fs = first_of_each_class(self.PO_BUT_CHAIN10.candidates(3))
        assert report.axiom2_class_pairs == len(ts) * len(fs) == 6 * 8

    @pytest.mark.parametrize("max_n", range(1, HARD_CAP + 1))
    def test_class_weights_match_the_count_oracles(self, max_n):
        # per size, the isomorphism classes and the labeled members: A000041
        # and Bell numbers for the equivalences, A000112 and A001035 for the
        # partial orders, and one trivial object for their intersection
        sizes = range(1, max_n + 1)
        for classes, n_classes, labeled in (
                ((EQUIVALENCES,), map(integer_partitions, sizes), map(bell, sizes)),
                ((PARTIAL_ORDERS,), (PARTIAL_ORDER_CLASS_COUNTS[n] for n in sizes),
                 (PARTIAL_ORDER_COUNTS[n] for n in sizes)),
                ((EQUIVALENCES, PARTIAL_ORDERS), (1 for _ in sizes), (1 for _ in sizes))):
            firsts, weights, _ = pretorsion._by_class(classes, max_n)
            size = np.array([a.n for a in firsts])
            assert [(size == n).sum() for n in sizes] == list(n_classes)
            assert [weights[size == n].sum() for n in sizes] == list(labeled)
        assert all(map(is_trivial_object, firsts)) and (weights == 1).all()

    # labeled members and isomorphism classes on 5 points: Bell(5) and
    # A000041(5), A001035(5) and A000112(5)
    @pytest.mark.parametrize("cls, labeled5, classes5", [
        (EQUIVALENCES, 52, 7), (PARTIAL_ORDERS, 4231, 63),
    ], ids=["equivalences", "partial-orders"])
    def test_class_weights_count_every_labeled_member_n5(self, cls, labeled5, classes5):
        firsts, weights, _ = pretorsion._by_class((cls,), 5)
        per_class = Counter((n, canonical_code_brute(n, pairs))
                            for n, pairs in brute_objects(4, KIND_OF[cls]))
        small = [a for a in firsts if a.n <= 4]
        assert len(firsts) == len(weights) == len(per_class) + classes5
        assert weights.sum() == sum(per_class.values()) + labeled5
        assert weights.tolist()[:len(small)] == [
            per_class[a.n, canonical_code_brute(a.n, set(a.rel.pairs(include_diagonal=True)))]
            for a in small]
        assert (weights[len(small):] > 0).all()


class TestClosureProp:
    def test_equivalence_object_satisfies_hypothesis_and_membership(self, objects2):
        x = make_object(2, [(0, 1), (1, 0)])
        z = intersect_classes(EQUIVALENCES, PARTIAL_ORDERS)
        hyp = all(
            factors_through(f, z)
            for fb in PARTIAL_ORDERS.candidates(2)
            for f in hom_enumerate(x, fb))
        assert hyp
        assert closure_prop_check(x, EQUIVALENCES, PARTIAL_ORDERS, 2)

    def test_nontrivial_poset_fails_the_hypothesis_vacuously(self):
        x = chain(2)
        z = intersect_classes(EQUIVALENCES, PARTIAL_ORDERS)
        # the identity into a poset is a non-trivial witness
        assert not factors_through(identity(x), z)
        assert closure_prop_check(x, EQUIVALENCES, PARTIAL_ORDERS, 2)

    def test_mixed_object_passes_vacuously(self):
        assert closure_prop_check(MIXED, EQUIVALENCES, PARTIAL_ORDERS, 2)

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_a_range_without_objects_is_rejected(self, max_n):
        # it reported a closure failure without checking anything
        with pytest.raises(ValidationError):
            closure_prop_check(chain(2), EQUIVALENCES, PARTIAL_ORDERS, max_n)

    def test_implications_hold_for_every_object_n2(self, objects2):
        for x in objects2:
            assert closure_prop_check(x, EQUIVALENCES, PARTIAL_ORDERS, 2)


class TestClassClosure:
    def test_membership_survives_relabeling_n3(self, objects3):
        from preord import iso_enumerate
        for cls in (EQUIVALENCES, PARTIAL_ORDERS, TRIVIAL_OBJECTS):
            for a in objects3:
                for b in objects3:
                    if a.n == b.n and next(iter(iso_enumerate(a, b)), None):
                        assert cls.contains(a) == cls.contains(b)
