import hashlib
import random

import pytest

from preord import (
    Morph, Partition, PreObj, Rel, Seq, ValidationError,
    canonical_preexact_from_morphism, chain, characterize_preexact, compose,
    hom_enumerate, identity, identity_prekernel_test, image_equivalence,
    is_epi, is_mono, is_precokernel, is_prekernel, is_short_preexact,
    is_trivial_morphism, iso_enumerate, kernel_pair_equiv, make_object,
    precokernel, precokernel_witness, prekernel, prekernel_witness,
    quotient_object, quotient_poset, symmetric_core, torsion_sequence,
    trivial_object, verify_precokernel_definitional,
    verify_prekernel_definitional,
)

MIXED = make_object(3, [(0, 1), (1, 0), (1, 2)], mode="close")


class TestKernelPairEquiv:
    def test_injective_gives_diagonal(self):
        f = identity(chain(3))
        assert kernel_pair_equiv(f) == Rel.identity(3)

    def test_constant_gives_full(self):
        f = Morph(trivial_object(3), trivial_object(1), (0, 0, 0))
        assert kernel_pair_equiv(f) == Rel.full(3)

    def test_fibres(self):
        f = Morph(trivial_object(3), trivial_object(2), (0, 0, 1))
        part = Partition.from_equivalence(kernel_pair_equiv(f))
        assert part.blocks == ((0, 1), (2,))


class TestPrekernel:
    def test_injective_morphism_has_trivial_domain(self):
        f = Morph(chain(2), chain(3), (0, 2))
        k = prekernel(f)
        assert k.dom == trivial_object(2)
        assert k.map == (0, 1)

    def test_constant_morphism_keeps_the_relation(self):
        f = Morph(chain(3), chain(2), (0, 0, 0))
        assert prekernel(f).dom == chain(3)

    def test_partial_collapse(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        k = prekernel(f)
        assert sorted(k.dom.rel.pairs()) == [(0, 1)]

    def test_composite_with_prekernel_is_trivial_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    assert is_trivial_morphism(compose(f, prekernel(f)))

    def test_prekernel_is_mono_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    assert is_mono(prekernel(f))


class TestQuotientObject:
    def test_diagonal_gives_an_isomorphic_copy(self):
        q, proj = quotient_object(MIXED, Rel.identity(3))
        assert q.rel == MIXED.rel
        assert proj.map == (0, 1, 2)

    def test_symmetric_core_quotient_matches_quotient_poset(self, objects3):
        for a in objects3:
            q1, p1 = quotient_object(a, symmetric_core(a))
            q2, p2 = quotient_poset(a)
            assert q1 == q2 and p1.map == p2.map

    def test_full_collapse(self):
        a = make_object(2, [(0, 1), (1, 0)])
        q, proj = quotient_object(a, Rel.full(2))
        assert q == trivial_object(1) and proj.map == (0, 0)

    def test_rejects_non_equivalence(self):
        with pytest.raises(ValidationError):
            quotient_object(MIXED, chain(3).rel)

    def test_rejects_equivalence_outside_the_relation(self):
        sim = Rel.from_pairs(3, [(0, 2), (2, 0)], reflexive=True)
        with pytest.raises(ValidationError):
            quotient_object(MIXED, sim)

    def test_induced_relation_well_defined_iff_contained_n3(self, objects3):
        # the quotient relation is independent of representatives (and
        # reflexive) exactly when the equivalence sits inside the relation
        equivalences = {}
        for a in objects3:
            if a.n not in equivalences:
                equivalences[a.n] = [
                    o.rel for o in objects3
                    if o.n == a.n and o.rel.is_symmetric()]
            for sim in equivalences[a.n]:
                part = Partition.from_equivalence(sim)
                well_defined = True
                for bi in part.blocks:
                    for bj in part.blocks:
                        vals = {bool(a.rel[x, y]) for x in bi for y in bj}
                        if len(vals) > 1:
                            well_defined = False
                assert well_defined == sim.is_subrel(a.rel)


class TestImageEquivalence:
    def test_trivial_domain_gives_diagonal(self):
        f = Morph(trivial_object(2), chain(3), (0, 2))
        assert image_equivalence(f) == Rel.identity(3)

    def test_identity_on_chain_collapses_it(self):
        assert image_equivalence(identity(chain(2))) == Rel.full(2)

    def test_constant_adds_nothing(self):
        f = Morph(chain(2), chain(3), (1, 1))
        assert image_equivalence(f) == Rel.identity(3)

    def test_contained_in_the_codomain_generated_equivalence_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    assert image_equivalence(f).is_subrel(
                        b.rel.equivalence_closure())


class TestPrecokernel:
    def test_identity_on_chain_collapses_to_a_point(self):
        c = precokernel(identity(chain(2)))
        assert c.cod == trivial_object(1)

    def test_injective_from_trivial_into_trivial_is_a_copy(self):
        f = Morph(trivial_object(2), trivial_object(3), (0, 2))
        c = precokernel(f)
        assert c.cod == trivial_object(3)
        assert c.map == (0, 1, 2)

    def test_point_into_chain_keeps_the_chain(self):
        f = Morph(trivial_object(1), chain(2), (0,))
        c = precokernel(f)
        assert c.cod == chain(2) and c.map == (0, 1)

    def test_composite_with_precokernel_is_trivial_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    assert is_trivial_morphism(compose(precokernel(f), f))

    def test_precokernel_is_epi_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    assert is_epi(precokernel(f))


class TestRecognition:
    def test_canonical_prekernel_recognized_with_identity_witness(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        k = prekernel(f)
        w = prekernel_witness(k, f)
        assert w is not None and w.map == (0, 1, 2)

    def test_nontrivial_composite_rejected(self):
        f = identity(chain(2))
        k = identity(chain(2))
        assert not is_prekernel(k, f)

    def test_iso_precomposed_prekernel_recognized(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        k = prekernel(f)
        relabel = make_object(3, [(1, 0)])  # 1 <= 0, plus isolated 2
        phi = next(iter(iso_enumerate(relabel, k.dom)), None)
        assert phi is not None
        k2 = compose(k, phi)
        w = prekernel_witness(k2, f)
        assert w is not None and w.map == phi.map

    def test_canonical_precokernel_recognized(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        c = precokernel(f)
        w = precokernel_witness(c, f)
        assert w is not None and w.map == tuple(range(c.cod.n))

    def test_iso_postcomposed_precokernel_recognized(self):
        f = Morph(chain(2), chain(3), (0, 1))
        c = precokernel(f)
        targets = [o for o in (make_object(c.cod.n, [(1, 0)]),)
                   if c.cod.n == 2]
        if targets:
            psi = next(iter(iso_enumerate(c.cod, targets[0])), None)
            if psi is not None:
                p2 = compose(psi, c)
                w = precokernel_witness(p2, f)
                assert w is not None and w.map == psi.map

    def test_nontrivial_postcomposite_rejected(self):
        f = Morph(trivial_object(1), chain(2), (0,))
        p = identity(chain(2))
        # p o f is a point inclusion, not trivial-breaking; instead take a
        # p that fails the collapse: identity précokernel exists, so use a
        # collapsing p after a non-collapsed f
        g = identity(chain(2))
        assert not is_precokernel(identity(chain(2)), g)


class TestDefinitionalOracles:
    def test_canonical_constructions_pass_with_small_probes(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert verify_prekernel_definitional(prekernel(f), f, objects2)
                    assert verify_precokernel_definitional(precokernel(f), f, objects2)

    def test_recognizers_agree_with_definitional_oracle_small(self, objects2, objects3):
        # every candidate k: X -> dom(f), X up to size 3, for every f at n <= 2
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    for x in objects3:
                        for k in hom_enumerate(x, a):
                            assert is_prekernel(k, f) == \
                                verify_prekernel_definitional(k, f, objects3)

    def test_dual_recognizers_agree_small(self, objects2, objects3):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    for y in objects3:
                        for p in hom_enumerate(b, y):
                            assert is_precokernel(p, f) == \
                                verify_precokernel_definitional(p, f, objects3)

    def test_recognizers_agree_on_sampled_candidates_n3(self, objects3):
        rng = random.Random(1789)
        morphs = []
        for a in objects3:
            for b in objects3:
                morphs.extend(hom_enumerate(a, b))
        for f in rng.sample(morphs, 60):
            for _ in range(3):
                x = rng.choice(objects3)
                homs = hom_enumerate(x, f.dom)
                k = rng.choice(homs)
                assert is_prekernel(k, f) == \
                    verify_prekernel_definitional(k, f, objects3)
                y = rng.choice(objects3)
                ps = hom_enumerate(f.cod, y)
                p = rng.choice(ps)
                assert is_precokernel(p, f) == \
                    verify_precokernel_definitional(p, f, objects3)

    def test_non_mono_candidate_fails_by_uniqueness(self):
        a = chain(2)
        f = Morph(a, trivial_object(1), (0, 0))
        # collapse from a trivial pair: f o k is trivial but k is not mono
        k = Morph(trivial_object(2), a, (0, 0))
        assert not is_mono(k)
        assert not verify_prekernel_definitional(k, f, [trivial_object(1)])
        assert not is_prekernel(k, f)

    def test_identity_candidate_fails_for_injective_morphisms(self):
        f = identity(chain(2))
        k = identity(chain(2))
        # the canonical domain is the trivial pair, not the chain
        assert not verify_prekernel_definitional(k, f, [trivial_object(1)])

    def test_collapsed_precokernel_candidate_fails(self, objects2):
        f = Morph(trivial_object(1), chain(2), (0,))
        c = precokernel(f)
        assert c.cod == chain(2)
        squash = Morph(c.cod, trivial_object(1), (0, 0))
        p2 = compose(squash, c)
        assert not verify_precokernel_definitional(p2, f, objects2)
        assert not is_precokernel(p2, f)


class TestShortPreexact:
    def test_quotient_sequence_is_preexact(self):
        # identity-carried inclusion of an equivalence below the relation,
        # then the projection onto the quotient
        a = MIXED
        sim = symmetric_core(a)
        k = Morph(PreObj(sim), a, (0, 1, 2))
        q, proj = quotient_object(a, sim)
        assert is_short_preexact(Seq(k, proj))

    def test_torsion_sequence_is_preexact_n3(self, objects3):
        for a in objects3:
            assert is_short_preexact(torsion_sequence(a))

    def test_identity_identity_fails_on_nontrivial_objects(self):
        s = Seq(identity(chain(2)), identity(chain(2)))
        assert not is_short_preexact(s)
        t = Seq(identity(trivial_object(2)), identity(trivial_object(2)))
        assert is_short_preexact(t)

    def test_canonical_sequence_from_every_morphism_n3(self, objects3):
        seen = set()
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    key = (a.rel, kernel_pair_equiv(f))
                    if key in seen:
                        continue
                    seen.add(key)
                    seq = canonical_preexact_from_morphism(f)
                    assert is_short_preexact(seq)
                    # the three meets collapse to the same relation
                    pi = seq.g
                    meet_pi = a.rel.meet(kernel_pair_equiv(pi))
                    meet_zeta = a.rel.meet(image_equivalence(seq.f))
                    meet_f = a.rel.meet(kernel_pair_equiv(f))
                    assert meet_pi == meet_zeta == meet_f


class TestCharacterize:
    def test_canonical_sequence_gets_identity_witnesses(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        seq = canonical_preexact_from_morphism(f)
        left, right = characterize_preexact(seq)
        assert left.map == (0, 1, 2)
        assert right.map == tuple(range(right.cod.n))

    def test_iso_precomposed_sequence_recovers_the_iso(self):
        a = MIXED
        seq = torsion_sequence(a)
        # relabeled copy of the torsion part (blocks {1,2} and {0})
        relabel = make_object(a.n, [(1, 2), (2, 1)])
        phi = next(iter(iso_enumerate(relabel, seq.f.dom)))
        twisted = Seq(compose(seq.f, phi), seq.g)
        left, right = characterize_preexact(twisted)
        assert left.map == phi.map

    def test_iso_postcomposed_sequence_recovers_the_inverse(self):
        f = Morph(chain(3), chain(2), (0, 0, 1))
        seq = canonical_preexact_from_morphism(f)
        relabel = make_object(seq.g.cod.n, [(1, 0)])
        psi = next(iter(iso_enumerate(seq.g.cod, relabel)))
        twisted = Seq(seq.f, compose(psi, seq.g))
        left, right = characterize_preexact(twisted)
        assert left.map == tuple(range(3))
        inv = [0] * len(psi.map)
        for i, v in enumerate(psi.map):
            inv[v] = i
        assert right.map == tuple(inv)

    def test_torsion_sequences_n3(self, objects3):
        for a in objects3:
            seq = torsion_sequence(a)
            left, right = characterize_preexact(seq)
            k = prekernel(seq.g)
            pi = precokernel(k)
            assert compose(k, left) == seq.f
            assert Morph(seq.g.dom, pi.cod,
                         tuple(right.map[z] for z in seq.g.map)) == pi

    def test_rejects_non_preexact_input(self):
        s = Seq(identity(chain(2)), identity(chain(2)))
        with pytest.raises(ValidationError):
            characterize_preexact(s)

    # The digests pin the (left, right) maps of the construction that read
    # right off g and pi point by point.
    @staticmethod
    def witness_digest(seqs):
        h = hashlib.sha256()
        for seq in seqs:
            left, right = characterize_preexact(seq)
            h.update(repr((left.map, right.map)).encode())
        return h.hexdigest()

    def test_witnesses_pinned_on_every_torsion_sequence_n4(self, objects4):
        assert self.witness_digest(torsion_sequence(a) for a in objects4) == (
            "0ebaf96774ae028290472ca1c8eadf9fcb5dc0240d68f0db85de01cca9100009")

    def test_witnesses_pinned_on_every_canonical_sequence_n3(self, objects3):
        # the canonical sequence of f depends on its domain and fibres only
        firsts = {}
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    firsts.setdefault((a.rel, kernel_pair_equiv(f)), f)
        assert len(firsts) == 154
        assert self.witness_digest(map(canonical_preexact_from_morphism, firsts.values())) == (
            "07c01873c3ac00d23fdc2f0965a2761c8eefe540e50ee969f74da48d8c68b9f3")


class TestUniqueness:
    def test_two_prekernels_linked_by_exactly_one_iso_small(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    k = prekernel(f)
                    for x in objects2:
                        for phi in iso_enumerate(x, k.dom):
                            k2 = compose(k, phi)
                            assert is_prekernel(k2, f)
                            # the canonical leg is identity-carried, so a
                            # commuting iso must share k2's map
                            linking = [
                                u for u in iso_enumerate(x, k.dom)
                                if compose(k, u) == k2
                            ]
                            assert linking == [phi]

    def test_two_precokernels_linked_by_exactly_one_iso_small(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    c = precokernel(f)
                    for y in objects2:
                        for psi in iso_enumerate(c.cod, y):
                            p2 = compose(psi, c)
                            assert is_precokernel(p2, f)
                            linking = [
                                u for u in iso_enumerate(c.cod, y)
                                if compose(u, c) == p2
                            ]
                            assert linking == [psi]


class TestIdentityPrekernelCriterion:
    def test_diagonal_always_qualifies(self, objects3):
        for a in objects3:
            assert identity_prekernel_test(Rel.identity(a.n), a.rel)

    def test_chain_inside_full_pair_fails(self):
        assert not identity_prekernel_test(chain(2).rel, Rel.full(2))

    def test_meet_with_any_equivalence_qualifies(self, objects3):
        for a in objects3:
            for e in (Rel.identity(a.n), Rel.full(a.n)):
                sigma = a.rel.meet(e.equivalence_closure())
                assert identity_prekernel_test(sigma, a.rel)

    def test_rejects_sigma_exceeding_rho(self):
        with pytest.raises(ValidationError):
            identity_prekernel_test(Rel.full(2), Rel.identity(2))
