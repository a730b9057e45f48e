import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest

from preord import (
    Rel, ValidationError, chain, clopen_enumerate, components, compose, coproduct,
    coproduct_decomposition, identity, is_clopen, is_indecomposable,
    is_minimal, is_open, is_trivial_object, make_object, minimal_part,
    open_sets, restrict, specialization_preorder, subset_mask, trivial_object,
)

from preord.topology import _down_closed

from .oracles import alexandroff_failure_pairwise, specialization_pairs_brute, union_find_blocks


def all_masks(n):
    for picks in iproduct((False, True), repeat=n):
        yield np.array(picks)


def varied_families(objs, variants=5, seed=21):
    """The open sets of each object, then `variants` seeded variations of
    them: each member dropped with probability 1/5, then up to two random
    masks added."""
    rng = np.random.default_rng(seed)
    for a in objs:
        opens = open_sets(a)
        yield a.n, opens
        for _ in range(variants):
            kept = [s for s in opens if rng.random() >= 0.2]
            yield a.n, kept + list(rng.random((rng.integers(3), a.n)) < 0.5)


class TestOpen:
    def test_open_sets_are_the_open_codes_of_a_scan_n4(self, objects4):
        for a in objects4:
            scan = [s for s in (np.array([(code >> i) & 1 == 1 for i in range(a.n)])
                                for code in range(2 ** a.n)) if is_open(a, s)]
            assert [s.tolist() for s in open_sets(a)] == [s.tolist() for s in scan]

    def test_down_closed_is_is_open_and_with_the_complement_is_clopen_n4(self, objects4):
        for a in objects4:
            masks = np.array(list(all_masks(a.n)))
            opened = _down_closed(a.rel.bits, masks)
            assert opened.tolist() == [is_open(a, s) for s in masks]
            assert (opened & _down_closed(a.rel.bits, ~masks)).tolist() \
                == [is_clopen(a, s) for s in masks]

    def test_empty_and_full_are_open(self, objects3):
        for a in objects3:
            assert is_open(a, np.zeros(a.n, dtype=bool))
            assert is_open(a, np.ones(a.n, dtype=bool))

    def test_chain_down_set_is_open_up_set_is_not(self):
        a = chain(2)
        assert is_open(a, subset_mask(2, [0]))
        assert not is_open(a, subset_mask(2, [1]))

    def test_every_subset_open_on_trivial_object(self):
        a = trivial_object(3)
        for s in all_masks(3):
            assert is_open(a, s)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValidationError):
            is_open(chain(2), np.zeros(3, dtype=bool))

    def test_subset_mask_reads_a_bool_member_as_one(self):
        assert subset_mask(3, [True]).tolist() == [False, True, False]

    def test_subset_mask_rejects_a_float_member(self):
        with pytest.raises(ValidationError):
            subset_mask(3, [1.0])

    def test_arbitrary_intersections_stay_open(self, objects3):
        for a in objects3:
            opens = open_sets(a)
            for s in opens:
                for t in opens:
                    assert is_open(a, s & t)
            total = np.ones(a.n, dtype=bool)
            for s in opens:
                total &= s
            assert is_open(a, total)


class TestClopen:
    def test_empty_and_full_are_clopen(self, objects3):
        for a in objects3:
            assert is_clopen(a, np.zeros(a.n, dtype=bool))
            assert is_clopen(a, np.ones(a.n, dtype=bool))

    def test_chain_front_is_not_clopen(self):
        assert not is_clopen(chain(2), subset_mask(2, [0]))

    def test_coproduct_blocks_are_clopen(self):
        c, injections = coproduct([chain(2), chain(3)])
        assert is_clopen(c, subset_mask(c.n, injections[0].map))
        assert is_clopen(c, subset_mask(c.n, injections[1].map))

    def test_boundary_definition_matches_topological_one(self, objects3):
        for a in objects3:
            for s in all_masks(a.n):
                assert is_clopen(a, s) == (is_open(a, s) and is_open(a, ~s))


class TestComponents:
    def test_trivial_object_has_singletons(self):
        assert components(trivial_object(3)).blocks == ((0,), (1,), (2,))

    def test_chain_is_one_block(self):
        assert components(chain(3)).blocks == ((0, 1, 2),)

    def test_chain_plus_point(self):
        c, _ = coproduct([chain(2), trivial_object(1)])
        assert components(c).blocks == ((0, 1), (2,))

    def test_union_find_oracle_n4(self, objects4):
        for a in objects4:
            expected = union_find_blocks(a.n, list(a.rel.pairs()))
            assert list(components(a).blocks) == expected

    def test_no_second_equivalence_check_on_300_points(self, monkeypatch):
        # the closure is an equivalence by construction
        pairs = [(i, i + 1) for i in range(0, 299, 3)] + [(i + 2, i) for i in range(0, 297, 7)]
        a = make_object(300, pairs, mode="close")
        checked = []
        orig = Rel.is_transitive
        monkeypatch.setattr(Rel, "is_transitive", lambda r: checked.append(r.n) or orig(r))
        part = components(a)
        assert checked == []
        assert list(part.blocks) == union_find_blocks(300, pairs)


class TestIndecomposable:
    def test_point(self):
        assert is_indecomposable(trivial_object(1))

    def test_chain(self):
        assert is_indecomposable(chain(3))

    def test_trivial_pair_splits(self):
        assert not is_indecomposable(trivial_object(2))

    def test_agrees_with_clopen_definition(self, objects3):
        for a in objects3:
            only_trivial_clopens = all(
                s.all() or not s.any()
                for s in all_masks(a.n) if is_clopen(a, s))
            assert is_indecomposable(a) == only_trivial_clopens


class TestClopenEnumerate:
    def test_indecomposable_has_two(self):
        got = clopen_enumerate(chain(3))
        assert len(got) == 2

    def test_trivial_pair_has_four(self):
        assert len(clopen_enumerate(trivial_object(2))) == 4

    def test_three_points_have_eight(self):
        assert len(clopen_enumerate(trivial_object(3))) == 8

    def test_count_is_two_to_the_components_n4(self, objects4):
        for a in objects4:
            assert len(clopen_enumerate(a)) == 2 ** components(a).size

    def test_enumeration_is_exactly_the_clopen_subsets(self, objects3):
        for a in objects3:
            got = {s.tobytes() for s in clopen_enumerate(a)}
            expected = {s.tobytes() for s in all_masks(a.n) if is_clopen(a, s)}
            assert got == expected

    def test_components_are_the_minimal_nonempty_clopens(self, objects3):
        for a in objects3:
            clopens = [s for s in clopen_enumerate(a) if s.any()]
            minimal = [
                s for s in clopens
                if not any(t.any() and (t <= s).all() and (t != s).any()
                           for t in clopens)
            ]
            blocks = {tuple(np.nonzero(s)[0]) for s in minimal}
            assert blocks == set(components(a).blocks)


class TestMinimalPart:
    def test_trivial_object_has_empty_minimal_part(self):
        assert not minimal_part(trivial_object(3)).any()

    def test_chain_plus_isolated_point(self):
        c, _ = coproduct([chain(2), trivial_object(1)])
        assert list(minimal_part(c)) == [True, True, False]

    def test_full_relation_is_all_minimal(self):
        a = make_object(3, [(i, j) for i in range(3) for j in range(3) if i != j])
        assert minimal_part(a).all()

    def test_single_point_is_minimal(self):
        assert is_minimal(trivial_object(1))

    def test_chain_is_minimal(self):
        assert is_minimal(chain(2))

    def test_isolated_point_blocks_minimality(self):
        c, _ = coproduct([chain(2), trivial_object(1)])
        assert not is_minimal(c)

    def test_neighbor_characterization_n3(self, objects3):
        # non-trivial: minimal iff every element has a distinct neighbor
        for a in objects3:
            if is_trivial_object(a):
                continue
            has_neighbor = all(
                any((a.rel[x, y] or a.rel[y, x]) and x != y for y in range(a.n))
                for x in range(a.n))
            assert is_minimal(a) == has_neighbor


class TestSpecialization:
    def test_discrete_topology_gives_equality(self):
        opens = [np.array(m) for m in
                 ([False, False], [True, False], [False, True], [True, True])]
        got = specialization_preorder(2, opens)
        assert got == trivial_object(2).rel

    def test_chain_opens_recover_the_chain(self):
        opens = [subset_mask(2, []), subset_mask(2, [0]), subset_mask(2, [0, 1])]
        got = specialization_preorder(2, opens)
        assert got == chain(2).rel

    def test_indiscrete_topology_gives_full_relation(self):
        opens = [subset_mask(2, []), subset_mask(2, [0, 1])]
        got = specialization_preorder(2, opens)
        assert got.is_symmetric() and got.bits.all()

    def test_missing_full_set_rejected(self):
        with pytest.raises(ValidationError):
            specialization_preorder(2, [subset_mask(2, []), subset_mask(2, [0])])

    def test_union_closure_violation_rejected(self):
        opens = [subset_mask(3, []), subset_mask(3, [0]), subset_mask(3, [1]),
                 subset_mask(3, [0, 1, 2])]
        with pytest.raises(ValidationError):
            specialization_preorder(3, opens)

    def test_empty_carrier_with_its_one_open_set(self):
        assert specialization_preorder(0, [np.zeros(0, dtype=bool)]) == Rel.empty(0)

    def test_empty_carrier_without_open_sets_rejected(self):
        with pytest.raises(ValidationError, match="topology must contain the empty set"):
            specialization_preorder(0, [])

    def test_verdicts_and_messages_are_the_pairwise_ones_n4(self, objects4):
        verdicts = []
        for n, family in varied_families(objects4):
            want = alexandroff_failure_pairwise(n, family)
            verdicts.append(want)
            if want is None:
                got = specialization_preorder(n, family)
                assert set(got.pairs(include_diagonal=True)) \
                    == specialization_pairs_brute(n, family)
            else:
                with pytest.raises(ValidationError) as err:
                    specialization_preorder(n, family)
                assert str(err.value) == want
        # every verdict occurs, so no branch of the check goes untried
        assert len(verdicts) == 6 * len(objects4) == 2334
        assert set(verdicts) == {
            None, "topology must contain the empty set",
            "topology must contain the full carrier",
            "family is not closed under union/intersection"}

    def test_members_are_down_sets_of_the_preorder_they_give_n4(self, objects4):
        # why the check needs no down-set test of the members themselves:
        # x <= y when every member holding y holds x, for any family
        for n, family in varied_families(objects4):
            bits = np.zeros((n, n), dtype=bool)
            for x, y in specialization_pairs_brute(n, family):
                bits[x, y] = True
            assert _down_closed(bits, np.array(family).reshape(-1, n)).all()

    def test_chain_of_1000_points_round_trips_in_members_x_points_memory(self):
        # the 1,001 down-sets of the chain; a members x points x points
        # block would take 1 GB
        family = list(np.tri(1001, 1000, -1, dtype=bool))
        tracemalloc.start()
        try:
            got = specialization_preorder(1000, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == chain(1000).rel
        assert peak < 64 * 2 ** 20
        # {2} with {0} lacks their union {0, 2}
        with pytest.raises(ValidationError, match="not closed under union/intersection"):
            specialization_preorder(1000, family + [subset_mask(1000, [2])])

    def test_roundtrip_on_all_objects_n4(self, objects4):
        for a in objects4:
            assert specialization_preorder(a.n, open_sets(a)) == a.rel

    def test_morphism_equals_continuity_n3(self, objects3):
        # a map is monotone iff preimages of opens are open
        from preord import is_morphism
        opens = {b: open_sets(b) for b in objects3}
        for a in objects3:
            for b in objects3:
                for m in iproduct(range(b.n), repeat=a.n):
                    cont = all(
                        is_open(a, np.array([s[m[x]] for x in range(a.n)]))
                        for s in opens[b])
                    assert is_morphism(m, a, b) == cont


class TestDecomposition:
    def test_indecomposable_gives_single_factor(self):
        factors, witness = coproduct_decomposition(chain(3))
        assert len(factors) == 1
        assert witness == identity(chain(3))

    def test_three_points(self):
        factors, _ = coproduct_decomposition(trivial_object(3))
        assert [f.n for f in factors] == [1, 1, 1]

    def test_two_chains(self):
        c, _ = coproduct([chain(2), chain(2)])
        factors, witness = coproduct_decomposition(c)
        assert [f.rel for f in factors] == [chain(2).rel, chain(2).rel]
        assert witness.map == (0, 1, 2, 3)

    def test_factors_indecomposable_and_witness_is_iso_n3(self, objects3):
        for a in objects3:
            factors, witness = coproduct_decomposition(a)
            assert all(is_indecomposable(f) for f in factors)
            summed, _ = coproduct(factors)
            assert witness.dom == summed and witness.cod == a
            assert sorted(witness.map) == list(range(a.n))
            inv = [0] * a.n
            for i, v in enumerate(witness.map):
                inv[v] = i
            from preord import Morph
            back = Morph(a, summed, tuple(inv))
            assert compose(back, witness) == identity(summed)
            assert compose(witness, back) == identity(a)


class TestRestrict:
    def test_induced_subobject(self):
        a = chain(3)
        sub, inc = restrict(a, subset_mask(3, [0, 2]))
        assert sub == chain(2)
        assert inc.map == (0, 2)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError):
            restrict(chain(2), subset_mask(2, []))
