import itertools
import random
import tracemalloc

import numpy as np
import pytest

from preord import (
    Morph, NotShortExactError, Seq, StableHom, ValidationError, chain,
    classify_short_exact, compose, congruence_check, coproduct, hom_enumerate,
    identity, image_equivalence, is_stable_zero,
    is_trivial_object, is_clopen, make_object, minimal_part, monotone_maps,
    precokernel, prekernel, quotient_object, restrict, stable_cokernel,
    stable_eq, stable_eq_oracle, stable_inverse, stable_iso,
    stable_iso_witness, stable_kernel, stable_signature, subset_mask,
    symmetric_core, torsion_sequence, trivial_object,
    verify_coproduct_preservation, verify_stable_cokernel,
    verify_stable_kernel, quotient_poset,
)

from preord import stable
from preord.enumeration import class_representatives

from .oracles import (
    stable_precokernel_property_search, stable_prekernel_property_search,
)

MIXED = make_object(3, [(0, 1), (1, 0), (1, 2)], mode="close")


class TestStableEq:
    def test_equal_morphisms_are_stably_equal(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert stable_eq(f, f)

    def test_distinct_constants_on_an_indecomposable_domain(self):
        a, b = chain(2), chain(3)
        f = Morph(a, b, (0, 0))
        g = Morph(a, b, (2, 2))
        assert stable_eq(f, g)

    def test_identity_vs_collapse_on_a_chain(self):
        a = chain(2)
        assert not stable_eq(identity(a), Morph(a, a, (0, 0)))

    def test_mismatched_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            stable_eq(identity(chain(2)), identity(chain(3)))

    def test_thousand_point_chain_stays_small(self):
        # 499,500 related pairs in one component: the incidence is pairs x
        # components, not pairs x points (about 500 MB)
        f = identity(chain(1000))
        tracemalloc.start()
        try:
            assert stable_eq(f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_matches_signature_equality_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                homs = hom_enumerate(a, b)
                for f, g in itertools.product(homs, homs):
                    assert stable_eq(f, g) == \
                        (stable_signature(f) == stable_signature(g))

    def test_oracle_agreement_exhaustive_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                homs = hom_enumerate(a, b)
                for f, g in itertools.product(homs, homs):
                    assert stable_eq(f, g) == stable_eq_oracle(f, g)

    def test_oracle_agreement_sampled_n4(self, objects4):
        rng = random.Random(20260808)
        four = [a for a in objects4 if a.n == 4]
        for _ in range(300):
            a = rng.choice(four)
            b = rng.choice(four)
            maps = monotone_maps(a, b)
            f = Morph(a, b, tuple(maps[rng.randrange(len(maps))]))
            g = Morph(a, b, tuple(maps[rng.randrange(len(maps))]))
            assert stable_eq(f, g) == stable_eq_oracle(f, g)

    def test_is_an_equivalence_on_hom_sets(self, objects2):
        for a in objects2:
            for b in objects2:
                homs = hom_enumerate(a, b)
                for f in homs:
                    assert stable_eq(f, f)
                for f, g in itertools.product(homs, homs):
                    assert stable_eq(f, g) == stable_eq(g, f)
                for f, g, h in itertools.product(homs, homs, homs):
                    if stable_eq(f, g) and stable_eq(g, h):
                        assert stable_eq(f, h)


class TestCongruence:
    def test_composition_respects_stable_equality(self, objects2):
        rng = random.Random(99)
        for a in objects2:
            for b in objects2:
                homs = hom_enumerate(a, b)
                pairs = [(f, g) for f in homs for g in homs if stable_eq(f, g)]
                for f, g in rng.sample(pairs, min(len(pairs), 10)):
                    for x in objects2:
                        hs = hom_enumerate(x, a)
                        for y in objects2:
                            ls = hom_enumerate(b, y)
                            for h in rng.sample(hs, min(len(hs), 3)):
                                for l in rng.sample(ls, min(len(ls), 3)):
                                    assert congruence_check(f, g, h, l)

    def test_reflexive_case(self):
        f = identity(chain(2))
        assert congruence_check(f, f, f, f)

    def test_trivial_pair_case(self):
        a = chain(2)
        f = Morph(a, a, (0, 0))
        g = Morph(a, a, (1, 1))
        assert congruence_check(f, g, identity(a), identity(a))


class TestZeroObjects:
    def test_constant_is_stable_zero(self):
        assert is_stable_zero(Morph(chain(2), chain(2), (1, 1)))

    def test_identity_on_chain_is_not(self):
        assert not is_stable_zero(identity(chain(2)))

    def test_identity_on_trivial_object_is_zero(self):
        assert is_stable_zero(identity(trivial_object(3)))

    def test_hom_sets_through_trivial_objects_collapse_n3(self, objects3):
        trivials = [t for t in objects3 if is_trivial_object(t)]
        for a in objects3:
            for t in trivials:
                outs = hom_enumerate(a, t)
                for f, g in itertools.product(outs, outs):
                    assert stable_eq(f, g)
                ins = hom_enumerate(t, a)
                for f, g in itertools.product(ins, ins):
                    assert stable_eq(f, g)


class TestStableHom:
    def test_equality_is_stable_equality(self):
        a, b = chain(2), chain(3)
        assert StableHom(Morph(a, b, (0, 0))) == StableHom(Morph(a, b, (2, 2)))
        assert StableHom(identity(a)) != StableHom(Morph(a, a, (0, 0)))

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(StableHom(identity(chain(2))))


class TestProjections:
    def test_quotient_projection_sends_clopens_to_clopens_n3(self, objects3):
        from .test_topology import all_masks
        for a in objects3:
            sims = [o.rel for o in objects3
                    if o.n == a.n and o.rel.is_symmetric()
                    and o.rel.is_subrel(a.rel)]
            for sim in sims:
                q, proj = quotient_object(a, sim)
                for mask in all_masks(a.n):
                    if not is_clopen(a, mask):
                        continue
                    image = subset_mask(
                        q.n, {proj.map[x] for x in range(a.n) if mask[x]})
                    assert is_clopen(q, image)

    def test_precokernel_sends_clopens_to_clopens_n3(self, objects3):
        from .test_topology import all_masks
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    pi = precokernel(f)
                    for mask in all_masks(b.n):
                        if not is_clopen(b, mask):
                            continue
                        image = subset_mask(
                            pi.cod.n,
                            {pi.map[x] for x in range(b.n) if mask[x]})
                        assert is_clopen(pi.cod, image)

    def test_quotient_projections_are_stable_epis_n3(self, objects2, objects3):
        for a in objects3:
            q, proj = quotient_poset(a)
            for t in objects2:
                homs = hom_enumerate(q, t)
                for g, h in itertools.product(homs, homs):
                    if stable_eq(compose(g, proj), compose(h, proj)):
                        assert stable_eq(g, h)


class TestRigidity:
    def test_endomorphisms_stably_equal_to_identity_are_identity_n3(self, objects3):
        from preord import is_minimal
        for a in objects3:
            if not is_minimal(a):
                continue
            ida = identity(a)
            for f in hom_enumerate(a, a):
                if stable_eq(f, ida):
                    assert f == ida


class TestStableIso:
    def test_object_vs_its_minimal_part(self, objects3):
        for a in objects3:
            mp = minimal_part(a)
            if not mp.any():
                continue
            sub, _ = restrict(a, mp)
            assert stable_iso(a, sub)

    def test_trivial_objects_of_different_sizes(self):
        assert stable_iso(trivial_object(1), trivial_object(3))

    def test_chain_vs_trivial_pair(self):
        assert not stable_iso(chain(2), trivial_object(2))

    def test_witnesses_invert_up_to_stable_eq(self, objects3):
        for a in objects3:
            for b in objects3:
                w = stable_iso_witness(a, b)
                if w is None:
                    continue
                f, g = w
                assert stable_eq(compose(g, f), identity(a))
                assert stable_eq(compose(f, g), identity(b))

    def test_agrees_with_brute_force_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                brute = any(stable_inverse(f) is not None
                            for f in hom_enumerate(a, b))
                assert stable_iso(a, b) == brute


class TestStableKernels:
    def test_canonical_kernels_verify_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert verify_stable_kernel(stable_kernel(f), f, objects2)
                    assert verify_stable_cokernel(stable_cokernel(f), f, objects2)

    def test_kernel_reps_are_the_canonical_constructions(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        assert stable_kernel(f).rep == prekernel(f)
        assert stable_cokernel(f).rep == precokernel(f)

    def test_identity_on_a_chain_has_trivial_kernel_and_point_cokernel(self):
        f = identity(chain(2))
        assert stable_kernel(f).rep.dom == trivial_object(2)
        assert stable_cokernel(f).rep.cod == trivial_object(1)

    def test_constant_map_keeps_the_whole_domain_as_kernel(self):
        f = Morph(chain(2), chain(2), (1, 1))
        assert stable_kernel(f).rep.dom == chain(2)

    def test_undersized_kernel_candidate_fails(self):
        a = chain(2)
        f = Morph(a, trivial_object(1), (0, 0))
        # canonical kernel keeps the whole chain; a point cannot replace it
        point_leg = Morph(trivial_object(1), a, (0,))
        assert not verify_stable_kernel(
            StableHom(point_leg), f, [chain(2), trivial_object(1)])

    def test_kernel_with_nontrivial_composite_fails(self):
        f = identity(chain(2))
        assert not verify_stable_kernel(StableHom(identity(chain(2))), f,
                                        [trivial_object(1)])


class TestStableVerifiersAgainstLiteralOracle:
    """Seeded random (k, f) and (p, f) at n <= 3 with probes n <= 2: the
    stable verifiers against a map-by-map oracle built on clopen-existential
    stable equality.  A quarter of the candidates are the canonical ones."""

    @staticmethod
    def spec(a):
        return a.n, list(a.rel.pairs())

    @staticmethod
    def pick(rng, items):
        return items[rng.integers(len(items))]

    def test_kernel_verifier_matches_oracle(self, objects2, objects3):
        rng = np.random.default_rng(1902066941)
        probes = [self.spec(y) for y in objects2]
        seen = set()
        for _ in range(1000):
            a, b, x = (self.pick(rng, objects3) for _ in range(3))
            f = self.pick(rng, hom_enumerate(a, b))
            canonical = rng.random() < 0.25
            k = prekernel(f) if canonical else self.pick(rng, hom_enumerate(x, a))
            want = stable_prekernel_property_search(k.map, self.spec(k.dom), f.map,
                                                    self.spec(a), self.spec(b), probes)
            assert verify_stable_kernel(StableHom(k), f, objects2) == want
            seen.add((canonical, want))
        assert {(True, True), (False, True), (False, False)} <= seen

    def test_cokernel_verifier_matches_oracle(self, objects2, objects3):
        rng = np.random.default_rng(1902066942)
        probes = [self.spec(t) for t in objects2]
        seen = set()
        for _ in range(1000):
            a, b, y = (self.pick(rng, objects3) for _ in range(3))
            f = self.pick(rng, hom_enumerate(a, b))
            canonical = rng.random() < 0.25
            p = precokernel(f) if canonical else self.pick(rng, hom_enumerate(b, y))
            want = stable_precokernel_property_search(p.map, self.spec(p.cod), f.map,
                                                      self.spec(a), self.spec(b), probes)
            assert verify_stable_cokernel(StableHom(p), f, objects2) == want
            seen.add((canonical, want))
        assert {(True, True), (False, True), (False, False)} <= seen


class TestWitnesses:
    # (n, pairs) of each object of size <= 3, with the maps of the left and
    # right witnesses that classify_short_exact returns for its torsion
    # sequence against the probes of size <= 2
    TORSION_WITNESSES = [
        (1, [], (0,), (0,)),
        (2, [], (0, 1), (0, 0)),
        (2, [(1, 0)], (0, 1), (0, 1)),
        (2, [(0, 1)], (0, 1), (0, 1)),
        (2, [(0, 1), (1, 0)], (0, 1), (0,)),
        (3, [], (0, 1, 2), (0, 0, 0)),
        (3, [(2, 1)], (0, 1, 2), (0, 1, 2)),
        (3, [(2, 0)], (0, 1, 2), (0, 0, 2)),
        (3, [(2, 0), (2, 1)], (0, 1, 2), (0, 1, 2)),
        (3, [(1, 2)], (0, 1, 2), (0, 1, 2)),
        (3, [(1, 2), (2, 1)], (0, 1, 2), (0, 0)),
        (3, [(1, 0)], (0, 1, 2), (0, 1, 0)),
        (3, [(1, 0), (2, 0)], (0, 1, 2), (0, 1, 2)),
        (3, [(1, 0), (2, 0), (2, 1)], (0, 1, 2), (0, 1, 2)),
        (3, [(1, 0), (1, 2)], (0, 1, 2), (0, 1, 2)),
        (3, [(1, 0), (1, 2), (2, 0)], (0, 1, 2), (0, 1, 2)),
        (3, [(1, 0), (1, 2), (2, 0), (2, 1)], (0, 1, 2), (0, 1)),
        (3, [(0, 2)], (0, 1, 2), (0, 0, 2)),
        (3, [(0, 2), (2, 0)], (0, 1, 2), (0, 0)),
        (3, [(0, 2), (1, 2)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 2), (1, 0), (1, 2)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 2), (1, 0), (1, 2), (2, 0)], (0, 1, 2), (0, 1)),
        (3, [(0, 1)], (0, 1, 2), (0, 1, 0)),
        (3, [(0, 1), (2, 1)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 1), (2, 0), (2, 1)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 1), (1, 0)], (0, 1, 2), (0, 0)),
        (3, [(0, 1), (1, 0), (2, 0), (2, 1)], (0, 1, 2), (0, 1)),
        (3, [(0, 1), (0, 2)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 1), (0, 2), (2, 1)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 1), (0, 2), (2, 0), (2, 1)], (0, 1, 2), (0, 1)),
        (3, [(0, 1), (0, 2), (1, 2)], (0, 1, 2), (0, 1, 2)),
        (3, [(0, 1), (0, 2), (1, 2), (2, 1)], (0, 1, 2), (0, 1)),
        (3, [(0, 1), (0, 2), (1, 0), (1, 2)], (0, 1, 2), (0, 1)),
        (3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)], (0, 1, 2), (0,)),
    ]

    def test_stable_inverse_is_the_first_in_lexicographic_order_n2(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    first = next((g for g in hom_enumerate(b, a)
                                  if stable_eq_oracle(compose(g, f), identity(a))
                                  and stable_eq_oracle(compose(f, g), identity(b))), None)
                    assert stable_inverse(f) == first

    def test_classify_witnesses_are_pinned_n3(self, objects2, objects3):
        got = []
        for a in objects3:
            seq = torsion_sequence(a)
            _, left, right = classify_short_exact(seq.f, seq.g, objects2)
            got.append((a.n, sorted(a.rel.pairs()), left.map, right.map))
        assert got == self.TORSION_WITNESSES


class TestClassify:
    def test_torsion_sequences_classify_n2(self, objects2):
        for a in objects2:
            seq = torsion_sequence(a)
            sim, left, right = classify_short_exact(seq.f, seq.g, objects2)
            k = prekernel(seq.g)
            assert sim == image_equivalence(k)
            assert compose(k, left) == seq.f
            pi = precokernel(k)
            assert stable_eq(
                Morph(seq.g.dom, pi.cod,
                      tuple(right.map[z] for z in seq.g.map)),
                pi)

    def test_mixed_example_classifies(self, objects2):
        seq = torsion_sequence(MIXED)
        sim, left, right = classify_short_exact(seq.f, seq.g, objects2)
        assert sim == symmetric_core(MIXED).equivalence_closure()

    def test_class_probes_classify_as_the_labeled_probes_n3(self, objects2, objects3):
        # stable (co)kernel properties carry over along isomorphisms of
        # probes, so one probe per isomorphism class decides them
        reps = class_representatives(2)
        assert len(reps) == 4 and len(objects2) == 5
        rng = random.Random(1902066)
        seqs = [torsion_sequence(a) for a in objects3]
        for _ in range(300):
            x, y, z = (rng.choice(objects3) for _ in range(3))
            seqs.append(Seq(rng.choice(hom_enumerate(x, y)), rng.choice(hom_enumerate(y, z))))

        def outcome(seq, probes):
            try:
                return classify_short_exact(seq.f, seq.g, probes)
            except NotShortExactError as e:
                return str(e)
        results = [outcome(seq, reps) for seq in seqs]
        assert results == [outcome(seq, objects2) for seq in seqs]
        failed = sum(isinstance(r, str) for r in results)
        assert 0 < failed < len(seqs)

    def test_failing_pair_is_diagnosed(self, objects2):
        f = identity(chain(2))
        g = identity(chain(2))
        with pytest.raises(NotShortExactError) as exc:
            classify_short_exact(f, g, objects2)
        assert "kernel" in str(exc.value)

    def test_a_left_witness_without_a_stable_inverse_is_diagnosed(self, objects2, monkeypatch):
        seq = torsion_sequence(MIXED)
        monkeypatch.setattr(stable, "stable_inverse", lambda f, budget: None)
        with pytest.raises(NotShortExactError, match="^left witness is not a stable isomorphism$"):
            classify_short_exact(seq.f, seq.g, objects2)

    def test_right_witnesses_without_a_stable_inverse_are_diagnosed(self, objects2, monkeypatch):
        # the left witness keeps its inverse, every right candidate loses its own
        seq = torsion_sequence(MIXED)
        asked = []
        real = stable.stable_inverse

        def left_only(f, budget):
            asked.append(f)
            return real(f, budget) if len(asked) == 1 else None
        monkeypatch.setattr(stable, "stable_inverse", left_only)
        with pytest.raises(NotShortExactError, match="^no stable right witness found$"):
            classify_short_exact(seq.f, seq.g, objects2)
        assert len(asked) > 1


class TestCoproductPreservation:
    def test_two_points(self, objects2):
        assert verify_coproduct_preservation(
            [trivial_object(1), trivial_object(1)], objects2)

    def test_two_chains_against_a_chain(self):
        assert verify_coproduct_preservation([chain(2), chain(2)], [chain(3)])

    def test_single_object_family(self, objects2):
        assert verify_coproduct_preservation([chain(2)], objects2)

    def test_mixed_family_against_small_probes(self, objects2):
        assert verify_coproduct_preservation([MIXED, chain(2)], objects2)

    def test_maps_that_share_every_restriction_fail(self, monkeypatch):
        # a sum with a third chain that no injection reaches: every family of
        # components is realized, but two maps that differ only on the third
        # chain, stably distinct, have the same restrictions
        a = chain(2)
        summed, injections = coproduct([a, a, a])
        monkeypatch.setattr(stable, "coproduct", lambda objs: (summed, injections[:2]))
        assert not verify_coproduct_preservation([a, a], [chain(2)])

    def test_families_that_no_map_realizes_fail(self, monkeypatch):
        # the two chains glued into one: a map out of it is determined by its
        # restrictions, but those are equal, so two stably distinct
        # components never come together
        a = chain(2)
        monkeypatch.setattr(stable, "coproduct", lambda objs: (a, [identity(a)] * 2))
        assert not verify_coproduct_preservation([a, a], [chain(2)])
