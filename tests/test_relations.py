import hypothesis
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preord.relations
from preord import (
    Partition, Rel, ValidationError, components, generated_equivalence,
    join_preorders, make_object,
)

from .oracles import (
    naive_compose, naive_equivalence_closure, naive_transitive_closure,
    union_find_blocks,
)
from .strategies import relations

DIAG3 = Rel.identity(3)


def rel(n, pairs, reflexive=True):
    return Rel.from_pairs(n, pairs, reflexive=reflexive)


def digraph(bits):
    g = nx.DiGraph()
    g.add_nodes_from(range(len(bits)))
    g.add_edges_from(zip(*np.nonzero(bits)))
    return g


def networkx_closure(bits):
    expected = np.zeros(bits.shape, dtype=bool)
    for a, b in nx.transitive_closure(digraph(bits), reflexive=False).edges:
        expected[a, b] = True
    return expected


class TestPredicates:
    def test_equality_relation_satisfies_all_four(self):
        r = Rel.identity(3)
        assert r.is_reflexive() and r.is_transitive()
        assert r.is_symmetric() and r.is_antisymmetric()

    def test_missing_composite_breaks_transitivity(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert not r.is_transitive()

    def test_full_relation_on_two_points(self):
        r = Rel.full(2)
        assert r.is_reflexive() and r.is_transitive() and r.is_symmetric()
        assert not r.is_antisymmetric()

    def test_kind_shortcuts(self):
        assert Rel.identity(2).is_partial_order()
        assert Rel.full(2).is_equivalence()
        assert not rel(2, [(0, 1)]).union(rel(2, [(1, 0)])).is_antisymmetric()


class TestValueSemantics:
    def test_equal_relations_hash_equal_and_the_hash_is_kept(self):
        r = Rel.from_pairs(3, [(0, 1), (1, 2)])
        same = Rel(3, r.bits.copy())
        assert r == same and hash(r) == hash(same)
        assert r != Rel.from_pairs(3, [(0, 1)])
        # hashed once, then read back: memoization keys hash it many times
        assert vars(r)["_hash"] == hash(r)

    def test_empty_list_is_the_empty_relation_on_no_points(self):
        r = Rel(0, [])
        assert r.n == 0 and r.bits.shape == (0, 0)
        assert r == Rel.empty(0) == Rel(0, np.zeros((0, 0), dtype=bool))
        # a flat list of entries is still not a matrix, nor [] of a carrier
        with pytest.raises(ValidationError, match="must be 2x2"):
            Rel(2, [True, False, False, True])
        with pytest.raises(ValidationError, match="must be 2x2"):
            Rel(2, [])

    def test_string_pair_entry_rejected(self):
        with pytest.raises(ValidationError):
            Rel.from_pairs(2, [("0", 1)])


class TestTransitiveClosure:
    def test_diagonal_is_a_fixed_point(self):
        assert DIAG3.transitive_closure() == DIAG3

    def test_chain_gains_the_composite_pair(self):
        r = rel(3, [(0, 1), (1, 2)])
        expected = naive_transitive_closure(set(r.pairs(include_diagonal=True)), 3)
        closed = r.transitive_closure()
        assert set(closed.pairs(include_diagonal=True)) == expected
        assert closed[0, 2]

    def test_full_is_a_fixed_point(self):
        assert Rel.full(3).transitive_closure() == Rel.full(3)

    def test_matches_naive_saturation_exhaustively_n3(self):
        for code in range(2 ** 9):
            bits = np.array([(code >> i) & 1 for i in range(9)],
                            dtype=bool).reshape(3, 3)
            r = Rel(3, bits)
            expected = naive_transitive_closure(set(r.pairs(include_diagonal=True)), 3)
            assert set(r.transitive_closure().pairs(include_diagonal=True)) == expected

    def test_256_witnesses_do_not_wrap_around(self):
        # 0 -> k -> 257 for k = 1..256: a uint8 witness count for (0, 257)
        # wraps to 0
        pairs = [(0, k) for k in range(1, 257)] + [(k, 257) for k in range(1, 257)]
        r = rel(258, pairs)
        assert r.transitive_closure()[0, 257]
        assert not r.is_transitive()
        with pytest.raises(ValidationError):
            make_object(258, pairs, mode="strict")

    @given(n=st.integers(100, 300), degree=st.floats(0.5, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_matches_networkx_on_hundreds_of_points(self, n, degree, seed):
        bits = np.random.default_rng(seed).random((n, n)) < degree / n
        expected = networkx_closure(bits)
        r = Rel(n, bits)
        closed = r.transitive_closure()
        assert np.array_equal(closed.bits, expected)
        assert closed.is_transitive()
        assert r.is_transitive() == (r == closed)


# the last size on the bool product, the first on the packed kernels
# (preord.relations._PACKED_MIN_N) and one above
SWITCH_SIZES = (47, 48, 49)


class TestKernelSizeSwitch:
    def test_switch_sits_between_the_tested_sizes(self):
        assert preord.relations._PACKED_MIN_N == SWITCH_SIZES[1]

    @given(n=st.sampled_from(SWITCH_SIZES) | st.integers(100, 300),
           degree=st.floats(0.3, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    @hypothesis.seed(5)
    def test_closure_matches_networkx(self, n, degree, seed):
        bits = np.random.default_rng(seed).random((n, n)) < degree / n
        closed = Rel(n, bits).transitive_closure()
        assert np.array_equal(closed.bits, networkx_closure(bits))
        assert closed.is_transitive()

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 5, 8) + SWITCH_SIZES)
    def test_a_stack_closes_each_of_its_matrices(self, n):
        # a cycle through all n points (whose loops need paths of n steps,
        # the longest a closure needs) and random matrices, on two axes
        cycle = np.zeros((n, n), dtype=bool)
        cycle[np.arange(n), (np.arange(n) + 1) % max(n, 1)] = True
        rng = np.random.default_rng(n)
        stack = np.stack([cycle] + [rng.random((n, n)) < 1.5 / max(n, 1) for _ in range(5)])
        stack = stack.reshape(2, 3, n, n)
        closed = preord.relations.transitive_closure_bits(stack)
        assert closed.shape == stack.shape and closed[0, 0].all()
        for i in np.ndindex(2, 3):
            assert np.array_equal(closed[i], networkx_closure(stack[i]))

    @pytest.mark.parametrize("n", (5,) + SWITCH_SIZES + (150,))
    def test_compose_matches_naive_product(self, n):
        rng = np.random.default_rng(n)
        r, s = (Rel(n, rng.random((n, n)) < 2 / n) for _ in range(2))
        expected = naive_compose(set(r.pairs(include_diagonal=True)),
                                 set(s.pairs(include_diagonal=True)))
        assert set(r.compose(s).pairs(include_diagonal=True)) == expected

    @pytest.mark.parametrize("n", SWITCH_SIZES + (150,))
    def test_one_missing_composite_breaks_transitivity(self, n):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert rel(n, pairs).is_transitive()
        pairs.remove((0, n - 1))
        assert not rel(n, pairs).is_transitive()
        with pytest.raises(ValidationError, match="not transitive"):
            make_object(n, pairs, mode="strict")

    @given(n=st.sampled_from(SWITCH_SIZES) | st.integers(100, 300),
           degree=st.floats(0.3, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    @hypothesis.seed(7)
    def test_components_match_networkx(self, n, degree, seed):
        bits = np.random.default_rng(seed).random((n, n)) < degree / n
        a = make_object(n, list(zip(*np.nonzero(bits))), mode="close")
        expected = sorted(tuple(sorted(c)) for c in
                          nx.weakly_connected_components(digraph(bits)))
        assert components(a).blocks == tuple(expected)


class TestEquivalenceClosure:
    def test_diagonal_already_an_equivalence(self):
        assert DIAG3.equivalence_closure() == DIAG3

    def test_two_separate_edges_give_two_blocks(self):
        r = rel(4, [(0, 1), (2, 3)])
        blocks = union_find_blocks(4, [(0, 1), (2, 3)])
        closed = r.equivalence_closure()
        assert Partition.from_equivalence(closed).blocks == tuple(blocks)

    def test_chain_collapses_to_full(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert r.equivalence_closure() == Rel.full(3)

    def test_result_is_equivalence_exhaustively_n3(self):
        for code in range(2 ** 9):
            bits = np.array([(code >> i) & 1 for i in range(9)],
                            dtype=bool).reshape(3, 3)
            closed = Rel(3, bits).equivalence_closure()
            assert closed.is_equivalence()
            expected = naive_equivalence_closure(
                set(Rel(3, bits).pairs(include_diagonal=True)), 3)
            assert set(closed.pairs(include_diagonal=True)) == expected


class TestGeneratedEquivalence:
    def test_no_generators_gives_diagonal(self):
        assert generated_equivalence([], 3) == DIAG3

    def test_symmetric_pair(self):
        got = generated_equivalence([(0, 1), (1, 0)], 3)
        assert Partition.from_equivalence(got).blocks == ((0, 1), (2,))

    def test_triangle_generates_full(self):
        assert generated_equivalence([(0, 1), (1, 2), (0, 2)], 3) == Rel.full(3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            generated_equivalence([(0, 5)], 3)

    def test_bool_generator_reads_as_one(self):
        assert generated_equivalence([(True, 2)], 3) == generated_equivalence([(1, 2)], 3)

    def test_minimality_against_every_equivalence_n4(self, objects4):
        equivalences = [a.rel for a in objects4
                        if a.n == 4 and a.rel.is_symmetric()]
        pair_sets = [[(0, 1)], [(0, 1), (2, 3)], [(1, 2), (2, 3)], [(0, 3)]]
        for pairs in pair_sets:
            gen = generated_equivalence(pairs, 4)
            for e in equivalences:
                if all(e[a, b] for a, b in pairs):
                    assert gen.is_subrel(e)


class TestMeetJoin:
    def test_meet_with_full_is_identity_op(self):
        r = rel(3, [(0, 1)])
        assert r.meet(Rel.full(3)) == r

    def test_meet_chain_with_equivalence(self):
        chain = rel(3, [(0, 1), (1, 2)]).transitive_closure()
        equiv = generated_equivalence([(0, 1)], 3)
        got = chain.meet(equiv)
        assert got == rel(3, [(0, 1)])

    def test_meet_with_diagonal_bottoms_out(self):
        r = rel(3, [(0, 2), (1, 2)])
        assert r.meet(DIAG3) == DIAG3

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Rel.full(2).meet(Rel.full(3))

    def test_join_with_diagonal_is_identity_op(self):
        r = rel(3, [(0, 1)])
        assert join_preorders(r, DIAG3) == r

    def test_join_of_overlapping_chains_closes(self):
        got = join_preorders(rel(3, [(0, 1)]), rel(3, [(1, 2)]))
        assert got == rel(3, [(0, 1), (1, 2), (0, 2)])

    def test_join_idempotent(self):
        r = rel(3, [(0, 1), (0, 2)])
        assert join_preorders(r, r) == r

    def test_join_rejects_non_preorders(self):
        with pytest.raises(ValidationError):
            join_preorders(Rel.empty(2), Rel.identity(2))

    def test_meet_of_preorders_is_preorder_and_join_is_least_n3(self, objects3):
        rels = [a.rel for a in objects3 if a.n == 3]
        for r in rels:
            for s in rels:
                assert r.meet(s).is_preorder()
                j = join_preorders(r, s)
                assert r.is_subrel(j) and s.is_subrel(j)
                for p in rels:
                    if r.is_subrel(p) and s.is_subrel(p):
                        assert j.is_subrel(p)


class TestClosureIdempotence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        k = n * n
        for code in range(2 ** k):
            bits = np.array([(code >> i) & 1 for i in range(k)],
                            dtype=bool).reshape(n, n)
            r = Rel(n, bits)
            t = r.transitive_closure()
            assert t.transitive_closure() == t
            e = r.equivalence_closure()
            assert e.equivalence_closure() == e
            f = r.reflexive_closure()
            assert f.reflexive_closure() == f

    @given(relations(max_n=8))
    @settings(max_examples=150, deadline=None)
    def test_random_larger_carriers(self, r):
        t = r.transitive_closure()
        assert t.transitive_closure() == t
        e = r.equivalence_closure()
        assert e.equivalence_closure() == e
        assert e.is_equivalence()

    @given(relations(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_closures_are_monotone_in_the_input(self, r):
        smaller = Rel(r.n, r.bits & Rel.identity(r.n).reflexive_closure().bits)
        assert smaller.transitive_closure().is_subrel(r.transitive_closure())


class TestPartition:
    def test_from_equivalence_roundtrip(self):
        e = generated_equivalence([(0, 2)], 4)
        p = Partition.from_equivalence(e)
        assert p.blocks == ((0, 2), (1,), (3,))
        assert p.to_equivalence() == e
        assert p.block_of(2) == (0, 2)

    def test_rejects_non_equivalence(self):
        with pytest.raises(ValidationError):
            Partition.from_equivalence(rel(2, [(0, 1)]))

    def test_rejects_inconsistent_blocks(self):
        with pytest.raises(ValidationError):
            Partition((0, 0), ((0,), (1,)))

    def test_blocks_ordered_by_smallest_member(self):
        p = Partition.from_class_ids([5, 7, 5, 9])
        assert p.blocks == ((0, 2), (1,), (3,))
        assert p.class_of == (0, 1, 0, 2)

    def test_rejects_an_empty_block(self):
        with pytest.raises(ValidationError):
            Partition((0, 1), ((0,), (1,), ()))

    def test_the_empty_carrier_has_the_empty_partition(self):
        # Rel allows n = 0; numpy's argmax finds no column in a 0 x 0 matrix
        assert Partition.from_equivalence(Rel.empty(0)) == Partition((), ())
        assert Partition.from_class_ids([]) == Partition((), ())

    def test_block_ids_of_empty_matrices_are_empty(self):
        ids, is_rep = preord.relations.block_ids(np.zeros((0, 0), dtype=bool))
        assert ids.shape == is_rep.shape == (0,) and is_rep.dtype == bool
        ids, is_rep = preord.relations.block_ids(np.zeros((3, 0, 0), dtype=bool))
        assert ids.shape == is_rep.shape == (3, 0)
