import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from preord import (
    EQUIVALENCES, PARTIAL_ORDERS, BudgetError, Morph, PreObj, Rel, ValidationError,
    chain, closure_prop_check, compose, count_objects, coproduct, enumerate_objects,
    find_lift, hom_enumerate, identity, is_epi, is_mono, is_morphism, is_trivial_morphism,
    is_trivial_object, iso_enumerate, iso_search, make_object, monotone_maps, objects_upto,
    pretorsion_verify, product, specialization_preorder, subset_mask, triv_enumerate,
    trivial_object,
)

from preord.category import (
    ByteLRU, _probe_runs, array_cache, candidate_grid, inverse_map, maps_into_table,
    maps_out_table, pair_rows, same_size_runs, table_slices,
)
from preord.enumeration import class_representatives
from preord.exactness import SeqBatch, precokernel_batch

from .oracles import brute_monotone_maps, precokernel_property_search
from .test_enumeration_io import seeded_preorder


class TestMakeObject:
    def test_close_mode_completes_the_chain(self):
        a = make_object(3, [(0, 1), (1, 2)], mode="close")
        assert a.rel[0, 2]

    def test_strict_mode_keeps_equality(self):
        assert make_object(2, [], mode="strict") == trivial_object(2)

    def test_strict_mode_rejects_missing_composites(self):
        with pytest.raises(ValidationError):
            make_object(3, [(0, 1), (1, 2)], mode="strict")

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValidationError):
            make_object(0, [])

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValidationError):
            make_object(2, [(0, 2)])

    def test_preobj_requires_preorder(self):
        with pytest.raises(ValidationError):
            PreObj(Rel.from_pairs(3, [(0, 1), (1, 2)], reflexive=True))

    def test_bool_pair_entry_reads_as_one(self):
        # True is the point 1, not a mask selecting all of row 2
        assert make_object(3, [(True, 2)]) == make_object(3, [(1, 2)])

    @staticmethod
    def warshall(n, pairs):
        """The reflexive-transitive closure of the pairs, point by point."""
        bits = np.eye(n, dtype=bool)
        for a, b in pairs:
            bits[a, b] = True
        for k in range(n):
            bits |= bits[:, k:k + 1] & bits[k:k + 1, :]
        return bits

    def test_close_mode_outputs_pass_the_checking_constructor(self):
        # close mode builds its output unchecked: each must pass PreObj's
        # checks and hold the closure of its generators
        rng = random.Random(5)
        cases = [(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 7, 64, 130)]
        for _ in range(40):
            n = rng.randint(1, 70)
            cases.append((n, [(rng.randrange(n), rng.randrange(n))
                              for _ in range(rng.randint(0, 2 * n))]))
        for n, pairs in cases:
            a = make_object(n, pairs)
            assert PreObj(a.rel) == a
            assert np.array_equal(a.rel.bits, self.warshall(n, pairs))
        assert all(chain(n) == make_object(n, [(i, i + 1) for i in range(n - 1)])
                   for n in (1, 2, 7, 64, 130))
        for seed in range(20):
            a = seeded_preorder(seed)
            assert PreObj(a.rel) == a
            assert np.array_equal(a.rel.bits, self.warshall(a.n, a.rel.pair_list))

    def test_bool_carrier_size_reads_as_one(self):
        assert count_objects(True) == count_objects(1) == 1
        assert objects_upto(True) == objects_upto(1)

    def test_float_pair_entry_rejected(self):
        with pytest.raises(ValidationError):
            make_object(2, [(0.5, 1)])

    # every carrier size is read as an int >= 0, and every pair has two entries
    @pytest.mark.parametrize("build", [
        lambda: make_object(2.0),
        lambda: Rel(2.0, np.eye(2, dtype=bool)),
        lambda: trivial_object(2.0),
        lambda: chain(2.0),
        lambda: trivial_object(-1),
        lambda: make_object(3, [(0, 1, 2)]),
        lambda: subset_mask(-1, []),
        lambda: count_objects(2.0),
        lambda: list(enumerate_objects(2.0)),
        lambda: objects_upto(1.0),
        lambda: class_representatives(1.0),
        lambda: EQUIVALENCES.candidates(2.0),
        lambda: pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 1.0),
        lambda: count_objects("2"),
        lambda: closure_prop_check(chain(2), EQUIVALENCES, PARTIAL_ORDERS, "3"),
        lambda: specialization_preorder(2.0, [np.zeros(2, bool), np.ones(2, bool)]),
        lambda: specialization_preorder(-1, []),
    ], ids=["make_object", "Rel", "trivial_object", "chain", "trivial_object_negative",
            "three_entry_pair", "subset_mask_negative", "count_objects", "enumerate_objects",
            "objects_upto", "class_representatives", "candidates", "pretorsion_verify",
            "count_objects_str", "closure_prop_check_str", "specialization_preorder",
            "specialization_preorder_negative"])
    def test_float_carrier_size_rejected(self, build):
        with pytest.raises(ValidationError):
            build()


class TestMorphisms:
    def test_identity_is_a_morphism(self, objects3):
        for a in objects3:
            assert is_morphism(tuple(range(a.n)), a, a)

    def test_collapsing_codomain_breaks_monotonicity(self):
        assert not is_morphism((0, 1), chain(2), trivial_object(2))

    def test_constants_are_morphisms(self, objects2):
        for a in objects2:
            for b in objects2:
                for y in range(b.n):
                    assert is_morphism((y,) * a.n, a, b)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            is_morphism((0,), chain(2), chain(2))
        with pytest.raises(ValidationError):
            is_morphism((0, 5), chain(2), chain(2))

    def test_morph_constructor_validates(self):
        with pytest.raises(ValidationError):
            Morph(chain(2), trivial_object(2), (0, 1))

    @pytest.mark.parametrize("entries", [(0.7, 1.9), (0.0, 1.0), ("0", "1"), (0, None)])
    def test_non_integer_entries_are_rejected(self, entries):
        # they were truncated by int(), so (0.7, 1.9) became [0, 1]
        with pytest.raises(ValidationError):
            Morph(chain(2), chain(2), entries)
        with pytest.raises(ValidationError):
            is_morphism(entries, chain(2), chain(2))

    def test_is_morphism_rejects_floats_without_an_index_error(self):
        a = chain(2)
        with pytest.raises(ValidationError):
            is_morphism((0.5, 1.2), a, a)

    def test_morph_and_is_morphism_check_entries_alike(self):
        for entries, message in [((0,), "map length 1 does not match domain size 2"),
                                 ((0, 2), "map image out of codomain range"),
                                 ((-1, 0), "map image out of codomain range")]:
            for check in (Morph, lambda dom, cod, map_: is_morphism(map_, dom, cod)):
                with pytest.raises(ValidationError, match=message):
                    check(chain(2), chain(2), entries)

    def test_numpy_integer_entries_become_python_ints(self):
        f = Morph(chain(2), chain(2), np.array([0, 1]))
        assert f.map == (0, 1) and all(type(x) is int for x in f.map)
        assert is_morphism(np.array([1, 1]), chain(2), chain(2))

    def test_compose_pointwise(self):
        a, b, c = chain(2), trivial_object(2), trivial_object(3)
        f = Morph(a, b, (1, 1))
        g = Morph(b, c, (0, 2))
        assert compose(g, f).map == (2, 2)

    def test_identity_laws(self, objects2):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    assert compose(identity(b), f) == f
                    assert compose(f, identity(a)) == f

    def test_associativity_on_samples(self, objects2):
        a, b = objects2[1], objects2[3]
        for f in hom_enumerate(a, b):
            for g in hom_enumerate(b, a):
                for h in hom_enumerate(a, b):
                    assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_endpoint_mismatch_raises(self):
        f = identity(chain(2))
        g = identity(chain(3))
        with pytest.raises(ValidationError):
            compose(g, f)

    def test_inverse_map_matches_a_dict_built_inverse_n3(self, objects3):
        not_onto = 0
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    last = {y: x for x, y in enumerate(f.map)}
                    inv = inverse_map(f.map, b.n)
                    assert inv == [last.get(y, -1) for y in range(b.n)]
                    assert all(type(x) is int for x in inv)
                    not_onto += -1 in inv
        assert not_onto > 1000


class TestTrivial:
    def test_trivial_objects(self):
        assert is_trivial_object(trivial_object(3))
        assert is_trivial_object(trivial_object(1))
        assert not is_trivial_object(chain(2))

    def test_constant_morphisms_are_trivial(self, objects2):
        for a in objects2:
            for b in objects2:
                for y in range(b.n):
                    assert is_trivial_morphism(Morph(a, b, (y,) * a.n))

    def test_identity_on_trivial_object_is_trivial(self):
        assert is_trivial_morphism(identity(trivial_object(2)))

    def test_identity_on_chain_is_not(self):
        assert not is_trivial_morphism(identity(chain(2)))


class TestHomEnumeration:
    def test_chain_endomaps(self):
        homs = hom_enumerate(chain(2), chain(2))
        assert [f.map for f in homs] == [(0, 0), (0, 1), (1, 1)]

    def test_point_into_anything(self, objects3):
        pt = trivial_object(1)
        for b in objects3:
            homs = hom_enumerate(pt, b)
            assert len(homs) == b.n
            assert all(is_trivial_morphism(f) for f in homs)

    def test_chain_into_trivial_pair(self):
        homs = hom_enumerate(chain(2), trivial_object(2))
        trivs = triv_enumerate(chain(2), trivial_object(2))
        assert [f.map for f in homs] == [(0, 0), (1, 1)]
        assert homs == trivs

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            hom_enumerate(trivial_object(5), trivial_object(5), budget=100)

    def test_unchecked_rows_equal_the_checked_construction_n3(self, objects3):
        # all 11,310 morphisms between preorders of size <= 3, in order
        total = 0
        for a in objects3:
            for b in objects3:
                homs = hom_enumerate(a, b)
                assert homs == [Morph(a, b, tuple(row)) for row in monotone_maps(a, b)]
                assert all(type(v) is int for f in homs for v in f.map)
                total += len(homs)
        assert total == 11310

    def test_budget_bounds_cells_before_allocating(self):
        # 4 ** 4 = 256 candidate maps fit a budget of 500, their 1024 cells do not
        with pytest.raises(BudgetError):
            monotone_maps(trivial_object(4), trivial_object(4), budget=500)
        # 3 ** 12 maps x 12 cells exceed the default budget: nothing is allocated
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                monotone_maps(trivial_object(12), trivial_object(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_point_codomain_takes_any_domain_size(self):
        # np.indices takes at most 64 axes, one per domain point
        homs = hom_enumerate(trivial_object(64), trivial_object(1))
        assert [f.map for f in homs] == [(0,) * 64]
        assert monotone_maps(chain(100), trivial_object(1)).tolist() == [[0] * 100]
        # 2 ** 64 rows of 64 cells: the budget refuses before any grid exists
        with pytest.raises(BudgetError):
            monotone_maps(trivial_object(64), trivial_object(2))

    def test_only_small_candidate_grids_are_cached(self):
        from preord.category import _cached_grid
        before = _cached_grid.cache_info().currsize
        big = monotone_maps.__wrapped__(chain(9), chain(3))  # 3 ** 9 x 9 cells
        assert len(big) == len(brute_monotone_maps(9, 3, [(i, i + 1) for i in range(8)],
                                                    [(0, 1), (1, 2), (0, 2)]))
        assert _cached_grid.cache_info().currsize == before
        assert _cached_grid.cache_info().maxsize is not None

    def test_large_hom_sets_stay_within_the_byte_bound(self):
        # each hom set is 4 ** 8 maps x 8 int64 cells = 4 MB (a distinct
        # budget per call makes a distinct entry); a cache bounded by count
        # would hold all twelve, 48 MB
        dom, cod = trivial_object(8), trivial_object(4)
        tracemalloc.start()
        try:
            for i in range(12):
                rows = monotone_maps(dom, cod, 1_000_000 + i)
                assert rows.nbytes == 4 << 20
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert array_cache.nbytes <= array_cache.max_bytes
        assert held <= array_cache.max_bytes + (1 << 20)
        # the latest entry is kept, the first one is gone
        hits = monotone_maps.cache_info().hits
        assert monotone_maps(dom, cod, 1_000_000 + 11) is rows
        assert monotone_maps.cache_info().hits == hits + 1
        misses = monotone_maps.cache_info().misses
        monotone_maps(dom, cod, 1_000_000)
        assert monotone_maps.cache_info().misses == misses + 1

    def test_byte_lru_evicts_the_least_recent_and_skips_oversized_arrays(self):
        cache = ByteLRU(100)
        made = []

        @cache
        def zeros(n):
            made.append(n)
            return np.zeros(n, dtype=np.uint8)

        @cache
        def ones(n):
            return np.ones(n, dtype=np.uint8)
        zeros(60), ones(30), zeros(60)
        assert made == [60] and cache.nbytes == 90
        ones(20)  # 110 bytes: the least recent, ones(30), goes
        assert cache.nbytes == 80 and ones.cache_info() == (0, 2)
        zeros(200)  # larger than the bound: returned, not kept
        zeros(60)
        assert made == [60, 200] and cache.nbytes == 80 and zeros.cache_info() == (2, 2)

    def test_counts_match_brute_force_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                brute = brute_monotone_maps(
                    a.n, b.n, list(a.rel.pairs()), list(b.rel.pairs()))
                got = monotone_maps(a, b)
                assert [tuple(r) for r in got] == brute

    def test_a_budget_of_the_grid_cuts_it_into_row_pieces_n3(self, objects3):
        # at exactly the grid's cells, a domain with more related pairs
        # than points reads its grid a piece of rows at a time
        cut = 0
        for a in objects3:
            for b in objects3:
                budget = b.n ** a.n * a.n
                cut += len(a.rel.pair_list) > a.n
                got = monotone_maps(a, b, budget)
                assert [tuple(r) for r in got] == brute_monotone_maps(
                    a.n, b.n, list(a.rel.pairs()), list(b.rel.pairs()))
        assert cut

    @pytest.mark.parametrize("n, m, count", [(8, 3, 45), (10, 2, 11), (6, 4, 84), (5, 3, 21)])
    def test_chains_beyond_the_catalogue_count_multisets(self, n, m, count):
        # a monotone map chain(n) -> chain(m) is a multiset of n points of m
        assert count == math.comb(n + m - 1, n)
        rows = monotone_maps(chain(n), chain(m))
        assert len(rows) == count
        assert (np.diff(rows, axis=1) >= 0).all()


class TestHomTables:
    """Both hom tables against brute-force hom sets, whole and with a
    budget so small that every row is a slice of its own."""

    @staticmethod
    def brute(a, b):
        return set(brute_monotone_maps(a.n, b.n, list(a.rel.pairs()), list(b.rel.pairs())))

    @pytest.mark.parametrize("budget", [9, 1_000_000])
    def test_out_tables_mark_the_maps_into_each_object_n3(self, objects3, budget):
        for a in objects3:
            for run in same_size_runs(objects3):
                grid = candidate_grid(a.n, run.m)
                table = maps_out_table(grid, a.rel.pair_index, run, slice(0, len(run.objs)),
                                       budget)
                for j, b in enumerate(run.objs):
                    assert {tuple(r) for r in grid[table[:, j]]} == self.brute(a, b)

    @pytest.mark.parametrize("budget", [9, 1_000_000])
    def test_into_tables_mark_the_maps_out_of_each_object_n3(self, objects3, budget):
        for b in objects3:
            for run in same_size_runs(objects3):
                grid = candidate_grid(run.m, b.n)
                table = maps_into_table(grid, ~b.rel.bits, run, slice(0, len(run.objs)),
                                        budget)
                for j, a in enumerate(run.objs):
                    assert {tuple(r) for r in grid[table[:, j]]} == self.brute(a, b)

    def test_column_slices_match_the_whole_table_n3(self, objects3):
        # three objects per slice, so most slices start and end inside the
        # run, away from its first and last mask column
        *_, run = same_size_runs(objects3)
        everyone = slice(0, len(run.objs))
        for a in objects3:
            outs, ins = candidate_grid(a.n, run.m), candidate_grid(run.m, a.n)
            out_whole = maps_out_table(outs, a.rel.pair_index, run, everyone)
            in_whole = maps_into_table(ins, ~a.rel.bits, run, everyone)
            for cols in table_slices(len(run.objs), len(outs), 3 * len(outs)):
                assert (maps_out_table(outs, a.rel.pair_index, run, cols)
                        == out_whole[:, cols]).all()
            for cols in table_slices(len(run.objs), len(ins), 3 * len(ins)):
                assert (maps_into_table(ins, ~a.rel.bits, run, cols)
                        == in_whole[:, cols]).all()

    @staticmethod
    def one_per_pair_count(objs):
        """The first object of each number of off-diagonal pairs, fewest first."""
        by_count = {}
        for a in objs:
            by_count.setdefault(len(a.rel.pair_list), a)
        return [by_count[p] for p in sorted(by_count)]

    def test_pair_rows_pad_with_the_diagonal_pair_n3(self, objects3):
        stack = self.one_per_pair_count(a for a in objects3 if a.n == 3)
        counts = [len(a.rel.pair_list) for a in stack]
        # an antichain, and lists of every length a preorder on 3 points has
        assert counts == [0, 1, 2, 3, 4, 6]
        u, v = pair_rows(stack)
        assert u.shape == v.shape == (len(stack), 6)
        for a, p, us, vs in zip(stack, counts, u, v):
            assert list(zip(us[:p].tolist(), vs[:p].tolist())) == a.rel.pair_list
            assert not us[p:].any() and not vs[p:].any()

    @pytest.mark.parametrize("budget", [9, 1_000_000])
    def test_out_tables_of_padded_pairs_match_the_domain_n3(self, objects3, budget):
        # the diagonal pair (0, 0), as `pair_rows` pads a row, changes no
        # row; 9 cells cut the 27-row grids into single rows
        for a in self.one_per_pair_count(a for a in objects3 if a.n == 3):
            padded = np.pad(a.rel.pair_index, ((0, 0), (0, 6 - len(a.rel.pair_list))))
            for run in same_size_runs(objects3):
                grid, everyone = candidate_grid(3, run.m), slice(0, len(run.objs))
                table = maps_out_table(grid, padded, run, everyone, budget)
                assert table.shape == (len(grid), len(run.objs))
                assert (table == maps_out_table(grid, a.rel.pair_index, run, everyone)).all()
                for j, b in enumerate(run.objs):
                    assert {tuple(r) for r in grid[table[:, j]]} == self.brute(a, b)

    @pytest.mark.parametrize("budget", [9, 1_000_000])
    def test_into_tables_of_forbidden_cells_match_the_codomain_n3(self, objects3, budget):
        # the relation of b with more cells forbidden: the maps into it
        # that also keep 0 and 1 apart; 9 cells cut the grids into single rows
        for b in self.one_per_pair_count(a for a in objects3 if a.n == 3):
            bad = ~b.rel.bits
            bad[0, 1] = bad[1, 0] = True
            for run in same_size_runs(objects3):
                grid, everyone = candidate_grid(run.m, 3), slice(0, len(run.objs))
                table = maps_into_table(grid, bad, run, everyone, budget)
                assert table.shape == (len(grid), len(run.objs))
                for j, a in enumerate(run.objs):
                    want = {m for m in self.brute(a, b)
                            if not any({m[x], m[y]} == {0, 1} for x, y in a.rel.pairs())}
                    assert {tuple(r) for r in grid[table[:, j]]} == want

    @pytest.mark.parametrize("budget", [24, 1_000_000])
    def test_precokernels_over_codomains_of_mixed_pair_counts(self, objects2, objects3, budget):
        # sequences X --f--> A --p--> C on 2, 3 and 2 points with p onto C,
        # a seeded sample mixing every pair count of X, A and C, zero
        # included
        sized = {n: [a for a in objects3 if a.n == n] for n in (2, 3)}
        seqs = [(f, p) for x in sized[2] for a in sized[3] for c in sized[2]
                for p in hom_enumerate(a, c) if is_epi(p) for f in hom_enumerate(x, a)]
        sample = random.Random(0).sample(seqs, 150)
        batch = SeqBatch.of(sample)
        for objs, most in ((batch.xs, 2), (batch.mids, 6), (batch.cs, 2)):
            assert {len(a.rel.pair_list) for a in objs} >= {0, 1, most}
        got = precokernel_batch(batch, objects2, None, budget).tolist()

        def spec(a):
            return a.n, list(a.rel.pairs())
        want = [precokernel_property_search(p.map, spec(p.cod), f.map, spec(f.dom),
                                            spec(f.cod), [spec(y) for y in objects2])
                for f, p in sample]
        assert got == want and len(set(want)) == 2

    def test_hom_sets_of_one_pair_leave_the_run_cache_alone(self):
        # a sparse 40-point domain into a point: one candidate map
        dom = make_object(40, [(i, i + 1) for i in range(0, 38, 2)])
        before = _probe_runs.cache_info()
        assert monotone_maps(dom, chain(1)).tolist() == [[0] * 40]
        assert _probe_runs.cache_info() == before

    def test_nine_point_carriers_over_more_than_eight_objects(self):
        # 81 cells of a 9-point square, each with a mask of ten objects
        nine = [chain(9), make_object(9, [(8, 0), (0, 4)]), trivial_object(9)] + [
            make_object(9, [(i, (i + 1) % 9), (8 - i, 4)]) for i in range(7)]
        run, = same_size_runs(nine)
        grid = candidate_grid(2, 9)
        table = maps_out_table(grid, chain(2).rel.pair_index, run, slice(0, len(nine)))
        for j, b in enumerate(nine):
            assert {tuple(r) for r in grid[table[:, j]]} == self.brute(chain(2), b)
        grid = candidate_grid(9, 2)
        table = maps_into_table(grid, ~chain(2).rel.bits, run, slice(0, len(nine)))
        for j, a in enumerate(nine):
            assert {tuple(r) for r in grid[table[:, j]]} == self.brute(a, chain(2))


class TestMonoEpi:
    def test_identity_is_both(self):
        f = identity(chain(2))
        assert is_mono(f) and is_epi(f)

    def test_constant_from_two_points_is_neither(self):
        f = Morph(trivial_object(2), trivial_object(2), (0, 0))
        assert not is_mono(f) and not is_epi(f)

    def test_point_inclusion_is_mono_not_epi(self):
        f = Morph(trivial_object(1), trivial_object(2), (0,))
        assert is_mono(f) and not is_epi(f)

    def test_categorical_characterization_small(self, objects2, objects3):
        # full quantification over probes for every morphism at n <= 2
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    fmap = np.array(f.map)
                    mono_cat = True
                    for x in objects3:
                        rows = monotone_maps(x, a)
                        images = fmap[rows]
                        _, counts = np.unique(images, axis=0, return_counts=True)
                        if (counts > 1).any():
                            mono_cat = False
                            break
                    assert mono_cat == is_mono(f)

    def test_non_injective_has_constant_witnesses_n3(self, objects3):
        pt = trivial_object(1)
        for a in objects3:
            for b in objects3:
                for f in hom_enumerate(a, b):
                    if is_mono(f):
                        continue
                    dup = [
                        (i, j) for i in range(a.n) for j in range(i + 1, a.n)
                        if f.map[i] == f.map[j]
                    ]
                    i, j = dup[0]
                    u = Morph(pt, a, (i,))
                    v = Morph(pt, a, (j,))
                    assert compose(f, u) == compose(f, v) and u != v

    def test_epi_characterization_small(self, objects2, objects3):
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    epi_cat = True
                    for x in objects3:
                        rows = monotone_maps(b, x)
                        seen = set()
                        for row in rows:
                            key = tuple(row[list(f.map)])
                            if key in seen:
                                epi_cat = False
                                break
                            seen.add(key)
                        if not epi_cat:
                            break
                    assert epi_cat == is_epi(f)


class TestCoproduct:
    def test_unary_coproduct_is_a_copy(self):
        a = chain(3)
        c, (inj,) = coproduct([a])
        assert c == a and inj == identity(a)

    def test_two_chains_stay_disjoint(self):
        c, injections = coproduct([chain(2), chain(2)])
        assert c.n == 4
        assert sorted(c.rel.pairs()) == [(0, 1), (2, 3)]
        assert injections[0].map == (0, 1)
        assert injections[1].map == (2, 3)

    def test_two_points_make_a_trivial_pair(self):
        c, _ = coproduct([trivial_object(1), trivial_object(1)])
        assert c == trivial_object(2)

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            coproduct([])

    def test_universal_property_by_enumeration_n3(self, objects2, objects3):
        # maps out of the coproduct correspond exactly to pairs of maps
        # out of the summands, by restriction along the injections;
        # all n<=3 families against small probes, small families against all
        def check(a1, a2, probes):
            c, _ = coproduct([a1, a2])
            for y in probes:
                h1 = monotone_maps(a1, y)
                h2 = monotone_maps(a2, y)
                hc = monotone_maps(c, y)
                assert len(hc) == len(h1) * len(h2)
                left = {tuple(r) for r in hc[:, :a1.n]}
                right = {tuple(r) for r in hc[:, a1.n:]}
                assert left == {tuple(r) for r in h1}
                assert right == {tuple(r) for r in h2}

        for a1 in objects3:
            for a2 in objects3:
                check(a1, a2, objects2)
        for a1 in objects2:
            for a2 in objects2:
                check(a1, a2, objects3)

    def test_mediating_morphism_commutes(self, objects2):
        for a1 in objects2:
            for a2 in objects2:
                c, injections = coproduct([a1, a2])
                for y in objects2:
                    for f1 in hom_enumerate(a1, y):
                        for f2 in hom_enumerate(a2, y):
                            h = Morph(c, y, f1.map + f2.map)
                            assert compose(h, injections[0]) == f1
                            assert compose(h, injections[1]) == f2


class TestProduct:
    def test_unary_product_is_a_copy(self):
        a = chain(3)
        p, (proj,) = product([a])
        assert p == a and proj == identity(a)

    def test_square_of_a_chain_is_the_diamond(self):
        p, _ = product([chain(2), chain(2)])
        # row-major tuple indexing: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)
        assert p.n == 4
        assert sorted(p.rel.pairs()) == [
            (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]

    def test_product_with_point_is_the_other_factor(self):
        a = chain(3)
        p, projections = product([a, trivial_object(1)])
        assert p.rel == a.rel
        assert projections[0].map == (0, 1, 2)

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            product([trivial_object(4)] * 4, budget=10)

    def test_budget_bounds_matrix_cells_before_allocating(self):
        # 10 ** 6 tuples fit the default budget, their 10 ** 12 relation
        # cells do not: nothing of that size is allocated
        factors = [trivial_object(10)] * 6
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                product(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # a 4 x 4 carrier holds 256 cells
        with pytest.raises(BudgetError):
            product([chain(2)] * 4, budget=255)
        assert product([chain(2)] * 4, budget=256)[0].n == 16

    def test_universal_property_by_enumeration_n3(self, objects2, objects3):
        def check(a1, a2, probes):
            p, projections = product([a1, a2])
            pi1 = np.array(projections[0].map)
            pi2 = np.array(projections[1].map)
            for y in probes:
                h1 = monotone_maps(y, a1)
                h2 = monotone_maps(y, a2)
                hp = monotone_maps(y, p)
                assert len(hp) == len(h1) * len(h2)
                pairs = {(tuple(pi1[r]), tuple(pi2[r])) for r in hp}
                assert pairs == {
                    (tuple(r1), tuple(r2))
                    for r1 in h1 for r2 in h2
                }

        for a1 in objects3:
            for a2 in objects3:
                check(a1, a2, objects2)
        for a1 in objects2:
            for a2 in objects2:
                check(a1, a2, objects3)


class TestIso:
    def test_identity_found_on_equal_objects(self):
        a = chain(3)
        assert iso_search(a, a) == identity(a)

    def test_chain_vs_trivial_pair_not_isomorphic(self):
        assert iso_search(chain(2), trivial_object(2)) is None

    def test_reversed_chain(self):
        rev = make_object(2, [(1, 0)])
        got = iso_search(chain(2), rev)
        assert got is not None and got.map == (1, 0)

    def test_enumeration_matches_brute_bijections_n3(self, objects3):
        for a in objects3:
            for b in objects3:
                if a.n != b.n:
                    continue
                brute = []
                for perm in itertools.permutations(range(a.n)):
                    fwd_ok = all(b.rel[perm[i], perm[j]] == a.rel[i, j]
                                 for i in range(a.n) for j in range(a.n))
                    if fwd_ok:
                        brute.append(perm)
                assert [f.map for f in iso_enumerate(a, b)] == brute

    def test_thousand_point_chain_finds_the_identity(self):
        # one backtracking level per point, so no recursion limit applies
        a = chain(1000)
        assert iso_search(a, chain(1000)) == identity(a)


class TestFindLift:
    def test_point_lifts_along_any_epi(self):
        a = chain(2)
        collapse = Morph(a, trivial_object(1), (0, 0))
        g = Morph(trivial_object(1), trivial_object(1), (0,))
        h = find_lift(g, collapse)
        assert h is not None and compose(collapse, h) == g

    def test_trivial_domains_always_lift(self, objects2, objects3):
        trivials = [t for t in objects3 if is_trivial_object(t)]
        for a in objects2:
            for b in objects2:
                for f in hom_enumerate(a, b):
                    if not is_epi(f):
                        continue
                    for x in trivials:
                        for g in hom_enumerate(x, b):
                            h = find_lift(g, f)
                            assert h is not None
                            assert compose(f, h) == g

    def test_nontrivial_object_fails_to_lift_its_identity(self, objects3):
        for x in objects3:
            if is_trivial_object(x):
                continue
            carrier = trivial_object(x.n)
            f = Morph(carrier, x, tuple(range(x.n)))
            assert is_epi(f)
            assert find_lift(identity(x), f) is None

    def test_codomain_mismatch_raises(self):
        with pytest.raises(ValidationError):
            find_lift(identity(chain(2)), identity(chain(3)))

    def test_non_epi_rejected(self):
        f = Morph(trivial_object(1), trivial_object(2), (0,))
        g = identity(trivial_object(2))
        with pytest.raises(ValidationError):
            find_lift(g, f)
