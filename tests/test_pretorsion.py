import numpy as np
import pytest

from preord import (
    ALL_PREORDERS, EQUIVALENCES, Morph, ObjClass, PARTIAL_ORDERS,
    TRIVIAL_OBJECTS, ValidationError, chain, closure_prop_check, compose,
    ends_trivial_iff_iso, factors_through, hom_enumerate, identity,
    intersect_classes, is_epi, is_mono, is_trivial_morphism,
    is_trivial_object, make_object, precokernel, prekernel, pretorsion_verify,
    quotient_poset, relative_precokernel_check, relative_preexact,
    relative_prekernel_check, symmetric_core, torsion_part,
    torsion_sequence, torsionfree_part, trivial_object,
    verify_precokernel_definitional, verify_prekernel_definitional,
)

from .oracles import precokernel_property_search, prekernel_property_search

MIXED = make_object(3, [(0, 1), (1, 0), (1, 2)], mode="close")


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
        searched = ObjClass("trivial-searched", is_trivial_object,
                            TRIVIAL_OBJECTS.candidates)
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert factors_through(f, searched) == \
                        factors_through(f, TRIVIAL_OBJECTS) == \
                        is_trivial_morphism(f)

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

    SEARCHED = ObjClass("trivial-searched", is_trivial_object,
                        TRIVIAL_OBJECTS.candidates)

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
        # both factorization branches reach the probes; injective ones both ways
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

    def test_null_class_is_exactly_the_trivial_objects_n3(self, objects3):
        z = intersect_classes(EQUIVALENCES, PARTIAL_ORDERS)
        for a in objects3:
            assert z.contains(a) == is_trivial_object(a)


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
