import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from preord import (
    DEFAULT_BUDGET, KINDS, BudgetError, ParseError, PreObj, Rel, ValidationError, chain,
    coproduct, count_objects, enumerate_objects, export_dot, load_morphism, load_object,
    make_object, quotient_poset, save_object, trivial_object,
)
from preord.enumeration import HARD_CAP, _extend, catalogue
from preord.io import _hasse_edges

import preord

from .oracles import (
    PARTIAL_ORDER_COUNTS, PREORDER_CLASS_COUNTS, PREORDER_COUNTS, automorphism_count_brute,
    brute_reflexive_relations, canonical_code_brute, count_equivalences_brute,
    count_partial_orders_brute, count_preorders_brute, count_preorders_by_blocks,
    naive_covering_pairs, naive_is_transitive, orbit_sizes_brute, stirling2,
)


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_preorder_counts(self, n, expected):
        assert count_objects(n) == expected
        assert count_preorders_brute(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 5), (4, 15)])
    def test_equivalence_counts(self, n, expected):
        assert count_objects(n, "equivalence") == expected
        assert count_equivalences_brute(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 19), (4, 219)])
    def test_partial_order_counts(self, n, expected):
        assert count_objects(n, "partial_order") == expected
        assert count_partial_orders_brute(n) == expected

    def test_trivial_kind_is_a_single_object(self):
        assert list(enumerate_objects(3, "trivial")) == [trivial_object(3)]

    def test_counts_at_the_cap(self):
        assert count_objects(5) == 6942
        assert count_objects(5, "equivalence") == 52
        assert count_objects(5, "partial_order") == 4231

    @pytest.mark.parametrize("kind", ["preorder", "equivalence", "partial_order", "trivial"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unchecked_objects_equal_validated_ones(self, n, kind):
        # the enumeration builds its objects without a second check; each
        # must pass the check and equal the object it validates into
        objs = list(enumerate_objects(n, kind))
        assert objs == [PreObj(Rel(a.n, a.rel.bits)) for a in objs]

    def test_lexicographic_bit_order_n2(self):
        got = [sorted(a.rel.pairs()) for a in enumerate_objects(2)]
        assert got == [[], [(1, 0)], [(0, 1)], [(0, 1), (1, 0)]]

    def test_first_is_trivial_last_is_full(self):
        objs = list(enumerate_objects(3))
        assert objs[0] == trivial_object(3)
        assert objs[-1].rel.bits.all()

    def test_kinds_are_filters_of_preorders(self):
        pre = {a.rel for a in enumerate_objects(3)}
        assert {a.rel for a in enumerate_objects(3, "equivalence")} == \
            {r for r in pre if r.is_symmetric()}
        assert {a.rel for a in enumerate_objects(3, "partial_order")} == \
            {r for r in pre if r.is_antisymmetric()}

    def test_cap_and_validation(self):
        with pytest.raises(BudgetError):
            list(enumerate_objects(HARD_CAP + 1))
        with pytest.raises(ValidationError):
            list(enumerate_objects(0))
        with pytest.raises(ValidationError):
            list(enumerate_objects(2, "poset"))


@lru_cache(maxsize=None)
def brute_preorders(n):
    """The preorders on n points in the order the oracle generates the
    reflexive relations: lexicographic in the row-major off-diagonal bits."""
    return [rel for rel in brute_reflexive_relations(n) if naive_is_transitive(rel)]


BRUTE_KINDS = {
    "preorder": lambda rel, n: True,
    "equivalence": lambda rel, n: all((b, a) in rel for a, b in rel),
    "partial_order": lambda rel, n: all(a == b for a, b in rel if (b, a) in rel),
    "trivial": lambda rel, n: len(rel) == n,
}


class TestCatalogue:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_kind_is_the_brute_force_filter_in_order(self, n, kind):
        want = [rel for rel in brute_preorders(n) if BRUTE_KINDS[kind](rel, n)]
        assert [set(a.rel.pairs(include_diagonal=True))
                for a in enumerate_objects(n, kind)] == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equivalence_plus_partial_order_decomposition_counts(self, n):
        # a preorder is an equivalence (a set partition into k blocks) with
        # a partial order on its blocks: sum_k S(n, k) * P(k) = A000798(n),
        # with P(k) the labeled posets of A001035
        a000798 = [1, 1, 4, 29, 355, 6942]
        a001035 = [1, 1, 3, 19, 219, 4231]
        assert [count_objects(k, "partial_order") for k in range(1, n + 1)] == a001035[1:n + 1]
        assert sum(stirling2(n, k) * a001035[k] for k in range(1, n + 1)) \
            == a000798[n] == count_objects(n)

    def test_codes_are_sorted_and_find_every_object(self):
        for n in range(1, 6):
            cat = catalogue(n)
            assert (np.diff(cat.codes) > 0).all()
            assert cat.index(cat.bits).tolist() == list(range(len(cat.codes)))

    def test_a_kind_builds_only_its_own_objects(self, monkeypatch):
        built = []
        trusted = PreObj._trusted

        def counting(rel):
            built.append(rel)
            return trusted(rel)
        monkeypatch.setattr(PreObj, "_trusted", staticmethod(counting))
        assert len(list(enumerate_objects(5, "trivial"))) == 1
        assert len(list(enumerate_objects(5, "equivalence"))) == 52
        assert len(built) == 53
        built.clear()
        assert count_objects(5, "partial_order") == 4231
        assert not built

    def test_the_first_object_holds_no_copy_of_the_stack(self):
        # objects are read one catalogue position at a time: neither the
        # masked stack (173,550 bytes at n = 5) nor an index array of its
        # positions (55,536 bytes) is built
        stack = catalogue(5).bits
        objs = enumerate_objects(5)
        tracemalloc.start()
        try:
            first = next(objs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.rel == Rel(5, stack[0])
        assert peak < stack.nbytes // 20

    def test_extension_chunks_stay_within_the_budget(self):
        # one chunk holds at most _CHUNK candidate matrices; all 90,880
        # candidates at n = 5 at once would take 9 MB of float32 alone
        prev = catalogue(4).bits
        tracemalloc.start()
        try:
            bits = _extend(prev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bits) == 6942
        assert peak < 4 * DEFAULT_BUDGET  # bytes: DEFAULT_BUDGET float32 cells


class TestIsomorphismClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_codes_are_the_brute_force_minimum(self, n):
        cat = catalogue(n)
        assert cat.canonical_codes.tolist() == [
            canonical_code_brute(n, set(a.rel.pairs(include_diagonal=True)))
            for a in enumerate_objects(n)]

    def test_class_counts_are_a001930(self):
        assert [len(catalogue(n).representatives) for n in range(1, 6)] == [1, 3, 9, 33, 139]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_stabilizer(self, n):
        # each class has n! / |Aut| labeled members, none before its first one
        cat = catalogue(n)
        members = np.bincount(cat.class_of, minlength=len(cat.codes))
        assert (cat.class_of <= np.arange(len(cat.codes))).all()
        assert np.flatnonzero(members).tolist() == cat.representatives.tolist()
        for i in cat.representatives:
            pairs = set(cat.obj(i).rel.pairs(include_diagonal=True))
            assert members[i] * automorphism_count_brute(n, pairs) == math.factorial(n)

    def test_codes_are_built_on_first_use_only(self):
        # neither the import nor a class constant builds a catalogue or a code
        code = ("import preord\n"
                "from preord import EQUIVALENCES, PARTIAL_ORDERS\n"
                "from preord.enumeration import catalogue\n"
                "EQUIVALENCES.name, PARTIAL_ORDERS.contains\n"
                "print(catalogue.cache_info().currsize)\n"
                "cat = catalogue(3)\n"
                "print('canonical_codes' in vars(cat))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(preord.__file__).parents[1]), os.environ.get("PYTHONPATH"))
            if p))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.split() == ["0", "False"]


class TestCountOracles:
    """The catalogue's counts against counts that read no catalogue."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_partial_order_counts_are_the_brute_force_ones(self, k):
        assert PARTIAL_ORDER_COUNTS[k] == count_partial_orders_brute(k)

    @pytest.mark.parametrize("n", range(1, HARD_CAP + 1))
    def test_preorders_are_partitions_with_posets_on_their_blocks(self, n):
        assert count_objects(n) == count_preorders_by_blocks(n) == PREORDER_COUNTS[n]

    def test_preorders_beyond_the_cap_are_partitions_with_posets_on_their_blocks(self):
        # n = 7 has 9,535,241 labeled preorders (A000798), not the
        # 6,129,859 labeled partial orders (A001035)
        assert count_preorders_by_blocks(HARD_CAP + 1) == PREORDER_COUNTS[7] == 9_535_241
        assert PARTIAL_ORDER_COUNTS[7] == 6_129_859

    @pytest.mark.parametrize("n", range(1, HARD_CAP + 1))
    def test_representatives_fill_the_catalogue_by_orbit_stabilizer(self, n):
        cat = catalogue(n)
        reps = [set(cat.obj(i).rel.pairs(include_diagonal=True)) for i in cat.representatives]
        assert orbit_sizes_brute(n, reps) == count_objects(n)

    @pytest.mark.parametrize("n", range(1, HARD_CAP + 1))
    def test_representatives_are_a001930(self, n):
        assert len(catalogue(n).representatives) == PREORDER_CLASS_COUNTS[n]


class TestObjectFiles:
    def test_save_then_load_is_identity_n4(self, objects4):
        for a in objects4:
            assert load_object(save_object(a)) == a

    def test_load_then_save_fixes_canonical_text(self):
        text = '{"n": 2, "pairs": [[0, 1]], "mode": "strict"}'
        assert save_object(load_object(text)) == text

    def test_close_mode_closes(self):
        a = load_object('{"n": 3, "pairs": [[0, 1], [1, 2]], "mode": "close"}')
        assert a == chain(3)

    def test_single_edge(self):
        a = load_object('{"n": 2, "pairs": [[0, 1]], "mode": "strict"}')
        assert a == chain(2)

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            load_object('{"n": 2,\n "pairs": }')
        assert "line 2" in str(exc.value)

    def test_missing_fields(self):
        with pytest.raises(ValidationError) as exc:
            load_object('{"n": 2, "pairs": []}')
        assert "mode" in str(exc.value)

    def test_zero_carrier_rejected(self):
        with pytest.raises(ValidationError):
            load_object('{"n": 0, "pairs": [], "mode": "strict"}')

    def test_diagonal_pair_rejected(self):
        with pytest.raises(ValidationError) as exc:
            load_object('{"n": 2, "pairs": [[1, 1]], "mode": "strict"}')
        assert "diagonal" in str(exc.value)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            load_object('{"n": 2, "pairs": [], "mode": "closure"}')

    def test_strict_mode_rejects_open_chain(self):
        with pytest.raises(ValidationError) as exc:
            load_object('{"n": 3, "pairs": [[0, 1], [1, 2]], "mode": "strict"}')
        assert "transitive" in str(exc.value)

    def test_relation_cells_are_budgeted_before_allocating(self):
        # 1001 x 1001 relation cells exceed the default budget of 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                load_object('{"n": 1001, "pairs": [], "mode": "close"}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_relation_of_exactly_the_budget_loads(self):
        # 1000 x 1000 cells are the default budget itself
        assert load_object('{"n": 1000, "pairs": [[0, 999]], "mode": "strict"}').n == 1000

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError) as exc:
            load_object('{"n": 2, "pairs": [[0, 7]], "mode": "strict"}')
        assert "range" in str(exc.value)


class TestMorphismFiles:
    def test_load_against_endpoints(self):
        f = load_morphism('{"map": [0, 0]}', chain(2), trivial_object(1))
        assert f.map == (0, 0)

    def test_shape_mismatch_names_the_problem(self):
        with pytest.raises(ValidationError) as exc:
            load_morphism('{"map": [0, 0]}', chain(3), trivial_object(1))
        assert "length" in str(exc.value)

    def test_non_monotone_map_rejected(self):
        with pytest.raises(ValidationError) as exc:
            load_morphism('{"map": [0, 1]}', chain(2), trivial_object(2))
        assert "monotone" in str(exc.value)

    def test_missing_map_field(self):
        with pytest.raises(ValidationError):
            load_morphism('{"mapping": [0]}', trivial_object(1), trivial_object(1))


def seeded_preorder(seed):
    rng = random.Random(seed)
    n = rng.randint(100, 300)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(int(n * rng.uniform(0.5, 2.0)))]
    return make_object(n, [(a, b) for a, b in pairs if a != b], mode="close")


def dot_digest(objects):
    h = hashlib.sha256()
    for a in objects:
        h.update(export_dot(a, hasse=True).encode())
    return h.hexdigest()


class TestDot:
    # The digests pin the Hasse texts written by the loop over strict pairs
    # x points that the array version replaced.
    def test_hasse_text_pinned_on_every_object_n4(self, objects4):
        assert dot_digest(objects4) == (
            "e360c2a945c34e983db05c92871b4a64a79f17570ab5841c30e0f6198ddb083e")

    def test_hasse_text_pinned_on_hundreds_of_points(self):
        assert dot_digest(seeded_preorder(seed) for seed in range(4)) == (
            "d79cde9d6185ba9cc171692288f33f910fbee15b6556b6f3a4bfb3afbc26a20f")

    @pytest.mark.parametrize("seed", range(4, 10))
    def test_hasse_edges_are_the_covering_pairs(self, seed):
        q, _ = quotient_poset(seeded_preorder(seed))
        assert _hasse_edges(q) == naive_covering_pairs(q.n, list(q.rel.pairs()))

    def test_trivial_object_has_no_edges(self):
        text = export_dot(trivial_object(2))
        assert "->" not in text
        assert '0 [label="0"];' in text

    def test_chain_emits_all_strict_pairs(self):
        text = export_dot(chain(3))
        assert text.count("->") == 3

    def test_hasse_reduces_the_chain(self):
        text = export_dot(chain(3), hasse=True)
        assert "0 -> 1;" in text and "1 -> 2;" in text
        assert "0 -> 2;" not in text

    def test_hasse_labels_blocks(self):
        a = make_object(3, [(0, 1), (1, 0), (1, 2)], mode="close")
        text = export_dot(a, hasse=True)
        assert '0 [label="{0,1}"];' in text
        assert "0 -> 2;" in text

    def test_component_colors_differ(self):
        c, _ = coproduct([chain(2), chain(2)])
        text = export_dot(c, color_components=True)
        assert 'fillcolor="lightblue"' in text
        assert 'fillcolor="lightpink"' in text

    def test_golden_chain(self):
        assert export_dot(chain(2)) == (
            "digraph preord {\n"
            '  0 [label="0"];\n'
            '  1 [label="1"];\n'
            "  0 -> 1;\n"
            "}\n"
        )
