import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from preord import (
    BudgetError, Morph, Partition, PreObj, Rel, ValidationError, assemble_preorder, chain,
    clopen_enumerate, components, count_objects, enumerate_objects, is_epi, is_mono,
    make_object, minimal_part, quotient_object, quotient_poset, roundtrip_check,
    symmetric_core, trivial_object,
)
from preord.decompose import core_quotient
from preord.pretorsion import torsion_part, torsion_sequence

from .oracles import condensation
from .strategies import preorders
from .test_enumeration_io import seeded_preorder

MIXED = make_object(3, [(0, 1), (1, 0), (1, 2)], mode="close")
FULL3 = make_object(3, [(i, j) for i in range(3) for j in range(3) if i != j])


class TestSymmetricCore:
    def test_poset_has_diagonal_core(self):
        assert symmetric_core(chain(3)) == Rel.identity(3)

    def test_full_relation_is_its_own_core(self):
        assert symmetric_core(FULL3) == Rel.full(3)

    def test_mixed_preorder(self):
        core = symmetric_core(MIXED)
        assert Partition.from_equivalence(core).blocks == ((0, 1), (2,))

    def test_core_is_equivalence_and_contained_n4(self, objects4):
        for a in objects4:
            core = symmetric_core(a)
            assert core.is_equivalence()
            assert core.is_subrel(a.rel)
            assert core.is_subrel(a.rel.equivalence_closure())


class TestQuotientPoset:
    def test_poset_quotient_is_a_copy(self):
        q, proj = quotient_poset(chain(3))
        assert q.rel == chain(3).rel
        assert is_mono(proj) and is_epi(proj)

    def test_full_relation_collapses_to_a_point(self):
        q, _ = quotient_poset(FULL3)
        assert q == trivial_object(1)

    def test_mixed_preorder_gives_two_chain(self):
        q, proj = quotient_poset(MIXED)
        assert q.rel == chain(2).rel
        assert proj.map == (0, 0, 1)

    def test_condensation_oracle_n4(self, objects4):
        for a in objects4:
            blocks, rel = condensation(a.n, list(a.rel.pairs()))
            part = Partition.from_equivalence(symmetric_core(a))
            q, proj = quotient_poset(a)
            assert list(part.blocks) == blocks
            assert q.n == len(blocks)
            for i in range(q.n):
                for j in range(q.n):
                    assert q.rel[i, j] == rel[i][j]
            assert all(proj.map[x] == i
                       for i, blk in enumerate(blocks) for x in blk)

    def test_quotient_is_partial_order_n4(self, objects4):
        for a in objects4:
            assert quotient_poset(a)[0].rel.is_partial_order()


class TestAssemble:
    def test_diagonal_equivalence_recovers_the_poset(self):
        leq = chain(3).rel
        part = Partition.from_equivalence(Rel.identity(3))
        assert assemble_preorder(Rel.identity(3), leq, part).rel == leq

    def test_single_class_gives_full_relation(self):
        part = Partition.from_equivalence(Rel.full(2))
        got = assemble_preorder(Rel.full(2), Rel.identity(1), part)
        assert got.rel == Rel.full(2)

    def test_two_blocks_under_a_chain(self):
        sim = Rel.from_pairs(3, [(0, 1), (1, 0)], reflexive=True)
        part = Partition.from_equivalence(sim)
        got = assemble_preorder(sim, chain(2).rel, part)
        assert sorted(got.rel.pairs()) == [(0, 1), (0, 2), (1, 0), (1, 2)]

    def test_rejects_non_equivalence(self):
        with pytest.raises(ValidationError):
            assemble_preorder(chain(2).rel, Rel.identity(2),
                              Partition.from_equivalence(Rel.identity(2)))

    def test_rejects_non_poset_quotient_order(self):
        part = Partition.from_equivalence(Rel.identity(2))
        with pytest.raises(ValidationError):
            assemble_preorder(Rel.identity(2), Rel.full(2), part)

    def test_rejects_partition_mismatch(self):
        part = Partition.from_equivalence(Rel.full(2))
        with pytest.raises(ValidationError):
            assemble_preorder(Rel.identity(2), Rel.identity(1), part)


class TestBijection:
    def test_trivial_objects_roundtrip(self):
        for n in (1, 2, 3):
            assert roundtrip_check(trivial_object(n))

    def test_all_labeled_preorders_n3(self):
        objs = list(enumerate_objects(3))
        assert len(objs) == 29
        assert all(roundtrip_check(a) for a in objs)

    def test_all_labeled_preorders_n4(self):
        objs = list(enumerate_objects(4))
        assert len(objs) == 355
        assert all(roundtrip_check(a) for a in objs)

    @given(preorders(max_n=7))
    @settings(max_examples=120, deadline=None)
    def test_random_larger_carriers(self, a):
        assert roundtrip_check(a)

    @given(preorders(max_n=6))
    @settings(max_examples=120, deadline=None)
    def test_condensation_oracle_on_random_carriers(self, a):
        blocks, rel = condensation(a.n, list(a.rel.pairs()))
        assert list(Partition.from_equivalence(symmetric_core(a)).blocks) == blocks
        q, _ = quotient_poset(a)
        assert [[bool(q.rel[i, j]) for j in range(q.n)]
                for i in range(q.n)] == rel

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_opposite_direction_exhaustive(self, n):
        # every (equivalence, partial order on blocks) pair assembles to a
        # preorder that decomposes back to the same pair
        total = 0
        for sim_obj in enumerate_objects(n, "equivalence"):
            sim = sim_obj.rel
            part = Partition.from_equivalence(sim)
            for leq_obj in enumerate_objects(part.size, "partial_order"):
                total += 1
                a = assemble_preorder(sim, leq_obj.rel, part)
                assert symmetric_core(a) == sim
                assert quotient_poset(a)[0].rel == leq_obj.rel
        # the two-sided bijection forces the pair count to match the
        # preorder count
        assert total == count_objects(n)


def quotient_digest(objects):
    """SHA-256 of every quotient-path output of each object: the symmetric
    core's partition, quotient and projection, `quotient_poset`, the
    torsion part and sequence, the components, the minimal part and the
    clopen sets (or the BudgetError beyond their cap)."""
    h = hashlib.sha256()
    for a in objects:
        part, q, proj = core_quotient(a)
        q2, proj2 = quotient_poset(a)
        seq = torsion_sequence(a)
        comps = components(a)
        try:
            clopens = np.array(clopen_enumerate(a)).tobytes()
        except BudgetError as e:
            clopens = str(e).encode()
        for x in (part.class_of, part.blocks, q.n, proj.map, q2.n, proj2.map, seq.f.map,
                  seq.g.map, seq.g.cod.n, comps.class_of, comps.blocks):
            h.update(repr(x).encode())
        for bits in (q.rel.bits, q2.rel.bits, torsion_part(a).rel.bits, seq.f.dom.rel.bits,
                     seq.g.cod.rel.bits, minimal_part(a)):
            h.update(bits.tobytes())
        h.update(clopens)
    return h.hexdigest()


def all_relations(n):
    return [Rel(n, np.reshape(cells, (n, n)))
            for cells in itertools.product((False, True), repeat=n * n)]


def quotient_object_digest(objects):
    """SHA-256 of `quotient_object` of each object by every relation on its
    carrier and by one on a larger carrier: the quotient and projection,
    or the ValidationError message."""
    h = hashlib.sha256()
    for a in objects:
        for sim in all_relations(a.n) + [Rel.identity(a.n + 1)]:
            try:
                q, proj = quotient_object(a, sim)
                h.update(q.rel.bits.tobytes() + repr(proj.map).encode())
            except ValidationError as e:
                h.update(str(e).encode())
    return h.hexdigest()


class TestOneQuotientPath:
    # The digests pin the outputs of the checked construction that the one
    # unchecked quotient path replaced: `Partition.from_equivalence` with a
    # relabeling loop over the argmax of each row, then the checking `Morph`.
    def test_outputs_pinned_on_every_object_n4(self, objects4):
        assert quotient_digest(objects4) == (
            "7e259eb4578b1cb16ea50d7b4253d5646f6ccb0ed002bc729921375bb8ca51f8")

    def test_outputs_pinned_on_hundreds_of_points(self):
        assert quotient_digest(seeded_preorder(seed) for seed in range(20)) == (
            "9e05e8f8801a52c73cfd7d8658a61b14769f6a1c6daa4e1b97fcf277efc2dded")

    def test_quotient_object_pinned_on_every_relation_n3(self, objects3):
        assert quotient_object_digest(objects3) == (
            "eeb91021cb1d7a8f650e09eb41f2d23535d966be9f97fe819a850bc776d83b71")

    def test_outputs_match_the_oracle_and_the_checking_constructors(self, objects4):
        seeded = [seeded_preorder(seed) for seed in range(20)]
        quotients = [quotient_object(a, sim) for a in objects4 if a.n <= 3
                     for sim in all_relations(a.n) if sim.is_equivalence() and sim <= a.rel]
        for a in list(objects4) + seeded:
            part, q, proj = core_quotient(a)
            blocks, rel = condensation(a.n, a.rel.pair_list)
            assert list(part.blocks) == blocks
            assert q.rel.bits.tolist() == rel
            for p in (part, components(a)):
                assert Partition(p.class_of, p.blocks) == p
            quotients.append((q, proj))
            seq = torsion_sequence(a)
            assert PreObj(torsion_part(a).rel) == torsion_part(a)
            quotients += [(seq.f.dom, seq.f), (seq.g.cod, seq.g)]
        for q, f in quotients:
            assert PreObj(q.rel) == q
            assert type(f.map) is tuple and all(type(x) is int for x in f.map)
            assert Morph(PreObj(f.dom.rel), PreObj(f.cod.rel), f.map) == f
