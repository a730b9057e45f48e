"""The engine's sequence axis: a batch of same-shape sequences gets, per
sequence, the verdict of a call on that sequence alone and of the
map-by-map search oracles."""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preord import (
    BudgetError, Morph, ObjClass, StableHom, chain, hom_enumerate, identity,
    is_trivial_object, make_object, objects_upto, precokernel, prekernel, torsion_sequence,
    trivial_object, verify_precokernel_definitional, verify_prekernel_definitional,
    verify_stable_cokernel, verify_stable_kernel,
)
from preord import exactness
from preord.category import same_size_runs
from preord.enumeration import catalogue, class_representatives
from preord.exactness import (
    SeqBatch, precokernel_batch, precokernel_property, prekernel_batch, prekernel_property,
)
from preord.pretorsion import _class_trivial, _torsion_batches, _torsion_parts
from preord.stable import _stable_classes

from .oracles import (
    precokernel_property_search, prekernel_property_search,
    stable_precokernel_property_search, stable_prekernel_property_search,
)

SEARCHED = ObjClass("trivial-searched", is_trivial_object)
# the largest candidate grid of these shapes (2 ** 2 maps x 2 cells) just
# fits, and the tables of a 2-point probe run are cut into slices of
# probes and of grid rows
SMALL_BUDGET = 8


def spec(a):
    return a.n, list(a.rel.pairs())


@lru_cache(maxsize=None)
def shapes(prop: str) -> dict:
    """Every composable pair X --k--> A --g--> C with carriers of at most
    2 points, grouped by shape: the three sizes.  A group may mix
    injective and other k, and surjective and other g."""
    objs = objects_upto(2)
    groups = {}
    for x in objs:
        for a in objs:
            for c in objs:
                for k in hom_enumerate(x, a):
                    for g in hom_enumerate(a, c):
                        groups.setdefault((x.n, a.n, c.n), []).append((k, g))
    return groups


def engine(check, budget):
    """(trivial, canon) of the engine: plain triviality, triviality decided
    by a factorization search, or plain triviality up to stable equality."""
    return {"plain": (None, None), "searched": (_class_trivial((SEARCHED,), budget), None),
            "stable": (None, _stable_classes)}[check]


def single(prop, k, g, probes, check, budget):
    trivial, canon = engine(check, budget)
    if prop == "pre":
        return prekernel_property(k, g, probes, trivial, budget, canon)
    return precokernel_property(g, k, probes, trivial, budget, canon)


def oracle(prop, check, k, g, probes):
    specs = [spec(y) for y in probes]
    stable = check == "stable"
    if prop == "pre":
        search = stable_prekernel_property_search if stable else prekernel_property_search
        return search(k.map, spec(k.dom), g.map, spec(k.cod), spec(g.cod), specs)
    search = stable_precokernel_property_search if stable else precokernel_property_search
    return search(g.map, spec(g.cod), k.map, spec(k.dom), spec(k.cod), specs)


def batch(prop, seqs, probes, check, budget):
    run = prekernel_batch if prop == "pre" else precokernel_batch
    trivial, canon = engine(check, budget)
    return run(seqs, probes, trivial, budget, canon).tolist()


# a point alone lets sequences without an injective k or a surjective g
# pass, so that more batches hold passing and failing sequences; runs of
# one-point probes are decided without a table, so lists without them and
# with several of them, between other sizes, are checked too
PROBE_LISTS = {"n<=2": objects_upto(2), "point": [trivial_object(1)],
               "n=2": objects_upto(2)[1:],
               "1,2,1": [trivial_object(1), make_object(2, [(0, 1)]), trivial_object(1)]}


@pytest.mark.parametrize("probes", sorted(PROBE_LISTS))
@pytest.mark.parametrize("check", ["plain", "searched", "stable"])
@pytest.mark.parametrize("prop", ["pre", "co"])
def test_every_shape_batch_matches_single_calls_and_the_oracle(prop, check, probes):
    tests = PROBE_LISTS[probes]
    mixed = 0
    for group in shapes(prop).values():
        want = [oracle(prop, check, k, g, tests) for k, g in group]
        for budget in (SMALL_BUDGET, 1_000_000):
            assert [single(prop, k, g, tests, check, budget) for k, g in group] == want
            assert batch(prop, SeqBatch.of(group), tests, check, budget) == want
        mixed += len(set(want)) == 2
    # some batches hold passing and failing sequences
    assert mixed >= 1


@pytest.mark.parametrize("check", ["plain", "searched", "stable"])
@pytest.mark.parametrize("prop", ["pre", "co"])
def test_one_point_probes_read_no_table_and_meet_no_budget(prop, check, monkeypatch):
    # a map into a point is unique and a map out of one is a point, so only
    # a searched predicate keeps its prekernel tables
    calls = []
    for name in ("maps_into_table", "maps_out_table"):
        table = getattr(exactness, name)
        monkeypatch.setattr(exactness, name,
                            lambda *args, table=table: calls.append(1) or table(*args))
    run = prekernel_batch if prop == "pre" else precokernel_batch
    trivial, classes = engine(check, 1_000_000)
    points = [trivial_object(1)] * 2
    tabulated = prop == "pre" and check == "searched"
    for group in shapes(prop).values():
        want = [oracle(prop, check, k, g, points) for k, g in group]
        seqs = SeqBatch.of(group)
        assert run(seqs, points, trivial, 1_000_000, classes).tolist() == want
        if not tabulated:
            # without a grid even a budget of one cell is never met
            assert run(seqs, points, trivial, 1, classes).tolist() == want
    assert bool(calls) == tabulated


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_batches_match_single_calls(data):
    prop = data.draw(st.sampled_from(["pre", "co"]))
    groups = shapes(prop)
    group = groups[data.draw(st.sampled_from(sorted(groups)))]
    picks = data.draw(st.lists(st.integers(0, len(group) - 1), min_size=1, max_size=12))
    seqs = [group[i] for i in picks]
    probes = data.draw(st.permutations(objects_upto(2) + [trivial_object(1)]))
    probes = probes[:data.draw(st.integers(1, len(probes)))]
    # 6 cells hold no grid of maps between two 2-point carriers
    budget = data.draw(st.sampled_from([6, SMALL_BUDGET, 40, 1_000_000]))
    check = data.draw(st.sampled_from(["plain", "searched", "stable"]))
    run = prekernel_batch if prop == "pre" else precokernel_batch
    trivial, classes = engine(check, budget)
    # the batch raises BudgetError exactly when a call on one of its
    # sequences does, and its counters are the sums of theirs
    want, want_stats = [], Counter()
    try:
        for k, g in seqs:
            want.append(bool(run(SeqBatch.of([(k, g)]), probes, trivial, budget, classes,
                                 want_stats)[0]))
    except BudgetError:
        want = None
    stats = Counter()
    if want is None:
        with pytest.raises(BudgetError):
            run(SeqBatch.of(seqs), probes, trivial, budget, classes, stats)
    else:
        assert run(SeqBatch.of(seqs), probes, trivial, budget, classes, stats).tolist() == want
        assert stats == want_stats


class TestIsomorphicLegs:
    """When k (or p) is an isomorphism, lam' = k^-1 o lam (or lam o p^-1) is
    the one factorization of every lam, so triviality of the composite
    decides the sequence and no table is built."""

    CHAIN01, CHAIN10 = make_object(2, [(0, 1)]), make_object(2, [(1, 0)])
    POINT = trivial_object(1)
    # an isomorphism between two labelings of the 2-chain
    SWAP = Morph(CHAIN01, CHAIN10, (1, 0))
    ONTO_POINT, IDENTITY = Morph(CHAIN10, POINT, (0, 0)), Morph(CHAIN10, CHAIN10, (0, 1))
    FROM_POINT, IDENTITY01 = Morph(POINT, CHAIN01, (0,)), Morph(CHAIN01, CHAIN01, (0, 1))
    # identity-carried out of the discrete 2-set: no isomorphism
    UNDER = Morph(trivial_object(2), CHAIN10, (0, 1))

    @pytest.mark.parametrize("check", ["plain", "searched", "stable"])
    def test_decided_by_the_composite_without_a_table(self, objects2, monkeypatch, check):
        calls = []

        def counted(table):
            def counting(*args, **kwargs):
                calls.append(1)
                return table(*args, **kwargs)
            return counting
        for name in ("maps_into_table", "maps_out_table"):
            monkeypatch.setattr(exactness, name, counted(getattr(exactness, name)))
        # k = SWAP before g, and p = SWAP after f; the identity of a chain
        # is not trivial, plainly or through a trivial object
        for prop, k, g, want in [("pre", self.SWAP, self.ONTO_POINT, True),
                                 ("pre", self.SWAP, self.IDENTITY, False),
                                 ("co", self.FROM_POINT, self.SWAP, True),
                                 ("co", self.IDENTITY01, self.SWAP, False)]:
            assert single(prop, k, g, objects2, check, 1_000_000) == want
            assert oracle(prop, check, k, g, objects2) == want
        assert calls == []
        # a leg that is no isomorphism still reads its tables
        assert not single("pre", self.UNDER, self.ONTO_POINT, objects2, check, 1_000_000)
        assert calls

    def test_only_a_tabulated_leg_meets_the_budget(self):
        big = [trivial_object(7)]  # 2 ** 7 maps x 7 cells into a 2-point object
        assert prekernel_property(self.SWAP, self.ONTO_POINT, big, None, 100)
        with pytest.raises(BudgetError):
            prekernel_property(self.UNDER, self.ONTO_POINT, big, None, 100)
        # 11 ** 2 maps x 2 cells out of a 2-point object
        wide = [trivial_object(11)]
        assert precokernel_property(self.SWAP, self.FROM_POINT, wide, None, 100)
        with pytest.raises(BudgetError):
            precokernel_property(Morph(self.CHAIN01, self.POINT, (0, 0)), self.FROM_POINT,
                                 wide, None, 100)

    def test_counted_per_sequence(self):
        stats = Counter()
        # one shape: every sequence ends in the 2-chain
        const = Morph(self.CHAIN10, self.CHAIN10, (0, 0))
        seqs = SeqBatch.of([(self.SWAP, const), (self.SWAP, self.IDENTITY),
                            (self.UNDER, const)])
        assert prekernel_batch(seqs, objects_upto(2), None, 1_000_000,
                               stats=stats).tolist() == [True, False, False]
        assert (stats["iso_legs"], stats["sequences"]) == (2, 3)
        # and dually: every sequence starts at the 2-chain; under plain
        # triviality an isomorphic p with a trivial composite is a quotient
        # leg, so only a searched predicate leaves both to the iso counter
        const = Morph(self.CHAIN01, self.CHAIN01, (0, 0))
        seqs = SeqBatch.of([(const, self.SWAP), (self.IDENTITY01, self.SWAP),
                            (const, Morph(self.CHAIN01, self.CHAIN10, (0, 0)))])
        for trivial, counts in ((None, (1, 1, 3)),
                                (_class_trivial((SEARCHED,), 1_000_000), (0, 2, 3))):
            stats = Counter()
            assert precokernel_batch(seqs, objects_upto(2), trivial, 1_000_000,
                                     stats=stats).tolist() == [True, False, False]
            assert (stats["quotient_legs"], stats["iso_legs"], stats["sequences"]) == counts


class TestTorsionBatches:
    def test_batches_equal_the_torsion_sequences_n4(self):
        for n in range(1, 5):
            cat = catalogue(n)
            # every labeled object, and one per class as axiom 1 asks
            core_at, _, _, quotient_at = _torsion_parts(n)
            for positions in (np.arange(len(cat.codes)), cat.representatives):
                seen = []
                for at, seqs in _torsion_batches(n, positions):
                    for i, pos in enumerate(at):
                        want = torsion_sequence(cat.obj(pos))
                        assert seqs.mids[i] is cat.obj(pos)
                        assert (seqs.xs[i], seqs.mids[i], seqs.cs[i]) == (
                            want.f.dom, want.f.cod, want.g.cod)
                        assert tuple(seqs.k[i]) == want.f.map
                        assert tuple(seqs.g[i]) == want.g.map
                        # the objects are the catalogues', at the positions given
                        assert seqs.xs[i] is cat.obj(core_at[pos])
                        assert seqs.cs[i] is catalogue(want.g.cod.n).obj(quotient_at[pos])
                    seen.extend(at.tolist())
                # the first object alone, then every other object once
                assert seen[0] == positions[0] and sorted(seen) == positions.tolist()

    def test_canonical_prekernels_read_two_tables_per_run_and_sequence(self, objects2,
                                                                       monkeypatch):
        # under plain triviality a canonical prekernel is an identity leg,
        # passed in closed form with no table; a searched null class keeps
        # two tables per run, of the lam and of the lam', for each sequence
        # (they all pass, so none skips a run) but those whose objects are
        # their own cores (equivalences, k the identity, an isomorphism),
        # decided without a table
        calls = []
        orig = exactness.maps_into_table

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)
        monkeypatch.setattr(exactness, "maps_into_table", counting)
        runs = len(same_size_runs(objects2))
        specs = [spec(y) for y in objects2]
        for _, seqs in _torsion_batches(3, np.arange(len(catalogue(3).codes))):
            want = [prekernel_property_search(
                seqs.k[i].tolist(), spec(seqs.xs[i]), seqs.g[i].tolist(), spec(seqs.mids[i]),
                spec(seqs.cs[i]), specs) for i in range(len(seqs))]
            tabulated = sum(x != a for x, a in zip(seqs.xs, seqs.mids))
            plain, searched = 0, 2 * runs * tabulated
            searching = _class_trivial((SEARCHED,), 1_000_000)
            for trivial, tables in ((None, plain), (searching, searched)):
                calls.clear()
                assert prekernel_batch(seqs, objects2, trivial, 1_000_000).tolist() == want
                assert len(calls) == tables

    @pytest.mark.parametrize("trivial_class", [None, SEARCHED])
    def test_a_wrong_quotient_fails_among_torsion_sequences(self, objects2, trivial_class):
        everyone = np.arange(len(catalogue(3).codes))
        (at, seqs), = [(at, s) for at, s in _torsion_batches(3, everyone)
                       if len(at) > 1 and s.cs[0].n == 2]
        # the projection onto a 2-point quotient, read as a map onto the
        # full relation: still monotone and onto, but lam' must now join
        # what lam keeps apart
        wrong = 1
        cs = list(seqs.cs)
        cs[wrong] = make_object(2, [(0, 1), (1, 0)])
        broken = SeqBatch(seqs.xs, seqs.mids, tuple(cs), seqs.k, seqs.g)
        trivial = None if trivial_class is None else _class_trivial((trivial_class,), 1_000_000)
        got = precokernel_batch(broken, objects2, trivial, 1_000_000).tolist()
        assert got == [i != wrong for i in range(len(at))]
        assert prekernel_batch(broken, objects2, trivial, 1_000_000).all()
        specs = [spec(y) for y in objects2]
        assert [precokernel_property_search(broken.g[i].tolist(), spec(broken.cs[i]),
                                            broken.k[i].tolist(), spec(broken.xs[i]),
                                            spec(broken.mids[i]), specs)
                for i in range(len(at))] == got


class TestIdentityLegs:
    """Under plain triviality a sequence whose k is the identity map, with
    X exactly A cut down to the fibres of g (the canonical prekernel of g),
    passes in closed form: each lam with g o lam trivial is its own lam'.
    Every sequence the rule decides is checked here against the search
    oracles, and identity-carried legs it must not decide against the
    table."""

    def test_every_canonical_torsion_prekernel_n4(self):
        # probed as axiom 1 probes max_n = 4: one object per class up to n = 3
        probes = class_representatives(3)
        specs = [spec(y) for y in probes]
        decided = 0
        for n in range(1, 5):
            for _, seqs in _torsion_batches(n, np.arange(len(catalogue(n).codes))):
                for classes in (None, _stable_classes):
                    stats = Counter()
                    got = prekernel_batch(seqs, probes, None, 1_000_000, classes, stats)
                    assert got.all()
                    assert stats["identity_legs"] == stats["sequences"] == len(seqs)
                    assert stats["cells"] == stats["iso_legs"] == 0
                assert all(prekernel_property_search(
                    seqs.k[i].tolist(), spec(seqs.xs[i]), seqs.g[i].tolist(),
                    spec(seqs.mids[i]), spec(seqs.cs[i]), specs) for i in range(len(seqs)))
                decided += len(seqs)
        assert decided == 1 + 4 + 29 + 355

    def test_the_canonical_prekernel_of_every_morphism_n3(self, objects3):
        probes = class_representatives(2)
        specs = [spec(y) for y in probes]
        morphs = [f for a in objects3 for b in objects3 for f in hom_enumerate(a, b)]
        assert len(morphs) == 11_310
        groups = {}
        for f in morphs:
            k = prekernel(f)
            args = k.map, spec(k.dom), f.map, spec(f.dom), spec(f.cod), specs
            assert verify_prekernel_definitional(k, f, probes)
            assert prekernel_property_search(*args)
            assert verify_stable_kernel(StableHom(k), f, probes)
            assert stable_prekernel_property_search(*args)
            groups.setdefault((k.dom.n, f.dom.n, f.cod.n), []).append((k, f))
        # every one of them is decided by the rule, in batches of one shape
        for group in groups.values():
            for classes in (None, _stable_classes):
                stats = Counter()
                assert prekernel_batch(SeqBatch.of(group), probes, None, 1_000_000,
                                       classes, stats).all()
                assert stats["identity_legs"] == len(group) and stats["cells"] == 0

    POINT = trivial_object(1)
    CHAIN3 = chain(3)
    CONTROLS = {
        # the 2-chain under a constant g, from the discrete 2-set: X lacks
        # the one fibre pair (0, 1)
        "lacks-a-fibre-pair": (Morph(trivial_object(2), make_object(2, [(0, 1)]), (0, 1)),
                               Morph(make_object(2, [(0, 1)]), POINT, (0, 0))),
        # the full 2-point relation under a constant g, from the 2-chain:
        # X lacks the fibre pair (1, 0)
        "lacks-a-symmetric-fibre-pair": (
            Morph(make_object(2, [(0, 1)]), make_object(2, [(0, 1), (1, 0)]), (0, 1)),
            Morph(make_object(2, [(0, 1), (1, 0)]), POINT, (0, 0))),
        # the identity of the 3-chain itself, before a g with the fibre
        # {0, 1} that parts the related points 1 and 2: g o k is not trivial
        "from-A-itself": (identity(CHAIN3), Morph(CHAIN3, chain(2), (0, 0, 1))),
    }

    @pytest.mark.parametrize("classes", [None, _stable_classes], ids=["plain", "stable"])
    @pytest.mark.parametrize("control", sorted(CONTROLS))
    def test_identity_carried_legs_the_rule_does_not_decide(self, objects2, control, classes):
        k, g = self.CONTROLS[control]
        stats = Counter()
        assert not prekernel_batch(SeqBatch.of([(k, g)]), objects2, None, 1_000_000,
                                   classes, stats)[0]
        assert stats["identity_legs"] == 0
        # decided by the table, or, where X is A, by the composite alone
        assert (stats["cells"] > 0) == (k.dom != k.cod)
        search = prekernel_property_search if classes is None else stable_prekernel_property_search
        assert not search(k.map, spec(k.dom), g.map, spec(k.cod), spec(g.cod),
                          [spec(y) for y in objects2])

    @pytest.mark.parametrize("classes", [None, _stable_classes], ids=["plain", "stable"])
    def test_a_decided_leg_meets_no_budget(self, classes):
        # 2 ** 7 maps x 7 cells into a 2-point object exceed a budget of 100
        big = [trivial_object(7)]
        g = Morph(make_object(2, [(0, 1)]), self.POINT, (0, 0))
        assert prekernel_property(prekernel(g), g, big, None, 100, classes)
        k, g = self.CONTROLS["lacks-a-fibre-pair"]
        with pytest.raises(BudgetError):
            prekernel_property(k, g, big, None, 100, classes)


class TestQuotientLegs:
    """Under plain triviality a sequence whose p is onto C, with the image
    equivalence of f as its fibres and C pulled back along p exactly the
    join of A with it (the canonical precokernel of f, under any labelling
    of C), passes in closed form: each lam with lam o f trivial is lam' o p
    for one lam'.  Every sequence the rule decides is checked here against
    the search oracles, and controls it must not decide against the table."""

    def test_the_canonical_precokernel_of_every_morphism_n3(self, objects3):
        probes = class_representatives(2)
        specs = [spec(y) for y in probes]
        morphs = [f for a in objects3 for b in objects3 for f in hom_enumerate(a, b)]
        assert len(morphs) == 11_310
        groups = {}
        for f in morphs:
            c = precokernel(f)
            args = c.map, spec(c.cod), f.map, spec(f.dom), spec(f.cod), specs
            assert verify_precokernel_definitional(c, f, probes)
            assert precokernel_property_search(*args)
            assert verify_stable_cokernel(StableHom(c), f, probes)
            assert stable_precokernel_property_search(*args)
            groups.setdefault((f.dom.n, f.cod.n, c.cod.n), []).append((f, c))
        # every one of them is decided by the rule, in batches of one shape
        for group in groups.values():
            for classes in (None, _stable_classes):
                stats = Counter()
                assert precokernel_batch(SeqBatch.of(group), probes, None, 1_000_000,
                                         classes, stats).all()
                assert stats["quotient_legs"] == len(group)
                assert stats["cells"] == stats["iso_legs"] == 0

    def test_every_canonical_torsion_precokernel_n4(self):
        # probed as axiom 1 probes max_n = 4: one object per class up to n = 3
        probes = class_representatives(3)
        specs = [spec(y) for y in probes]
        decided = 0
        for n in range(1, 5):
            for _, seqs in _torsion_batches(n, np.arange(len(catalogue(n).codes))):
                for classes in (None, _stable_classes):
                    stats = Counter()
                    got = precokernel_batch(seqs, probes, None, 1_000_000, classes, stats)
                    assert got.all()
                    assert stats["quotient_legs"] == stats["sequences"] == len(seqs)
                    assert stats["cells"] == stats["iso_legs"] == stats["point_runs"] == 0
                assert all(precokernel_property_search(
                    seqs.g[i].tolist(), spec(seqs.cs[i]), seqs.k[i].tolist(),
                    spec(seqs.xs[i]), spec(seqs.mids[i]), specs) for i in range(len(seqs)))
                decided += len(seqs)
        assert decided == 1 + 4 + 29 + 355

    POINT = trivial_object(1)
    INDISCRETE = make_object(2, [(0, 1), (1, 0)])
    CONTROLS = {
        # each fails exactly one of the rule's three tests
        # a point into the discrete 2-set: the point 1 of C is no image
        "not-onto": (identity(POINT), Morph(POINT, trivial_object(2), (0,))),
        # the discrete 2-set into the indiscrete one, which collapses to a
        # point: zeta is the diagonal, but p's one fibre is everything
        "fibres-coarser": (Morph(trivial_object(2), INDISCRETE, (0, 1)),
                           Morph(INDISCRETE, POINT, (0, 0))),
        # the discrete 2-set onto the 2-chain by the identity map: C holds
        # the pair (0, 1) beyond the join of A with the diagonal
        "a-pair-beyond-the-join": (identity(trivial_object(2)),
                                   Morph(trivial_object(2), make_object(2, [(0, 1)]), (0, 1))),
    }

    @pytest.mark.parametrize("classes", [None, _stable_classes], ids=["plain", "stable"])
    @pytest.mark.parametrize("control", sorted(CONTROLS))
    def test_legs_the_rule_does_not_decide(self, objects2, control, classes):
        f, p = self.CONTROLS[control]
        stats = Counter()
        got = precokernel_batch(SeqBatch.of([(f, p)]), objects2, None, 1_000_000,
                                classes, stats)[0]
        assert stats["quotient_legs"] == 0 and stats["cells"] > 0
        search = (precokernel_property_search if classes is None
                  else stable_precokernel_property_search)
        assert got == search(p.map, spec(p.cod), f.map, spec(f.dom), spec(f.cod),
                             [spec(y) for y in objects2])
        if classes is None:
            # plainly, none of them is a precokernel
            assert not got

    @pytest.mark.parametrize("classes", [None, _stable_classes], ids=["plain", "stable"])
    def test_a_decided_leg_meets_no_budget(self, classes):
        # 11 ** 2 maps x 2 cells out of a 2-point object exceed a budget of 100
        wide = [trivial_object(11)]
        f = identity(make_object(2, [(0, 1)]))
        assert precokernel_property(precokernel(f), f, wide, None, 100, classes)
        f, p = self.CONTROLS["fibres-coarser"]
        with pytest.raises(BudgetError):
            precokernel_property(p, f, wide, None, 100, classes)


# The axiom-1 sample: per size, how many classes that are neither an
# equivalence nor a partial order (so that neither leg of their torsion
# sequence is an isomorphism) are drawn, and the seed that draws them.
SAMPLE = {5: 8, 6: 4}
SAMPLE_SEED = 2019


def test_sampled_torsion_sequences_n5_n6_match_the_search_oracles():
    """Independent evidence for the closed-form legs above the brute-force
    range: the canonical torsion sequences of seeded 5- and 6-point classes
    pass in closed form, and the search oracles, which share no code with
    the engine, agree with probes n <= 2.  The control replaces each
    torsion part by the discrete relation, the torsion part that the
    trivial objects would give (as for the pair (trivial objects, partial
    orders)): both legs must then fail, in the engine's tables and in the
    oracles."""
    probes = class_representatives(2)
    specs = [spec(y) for y in probes]
    rng = np.random.default_rng(SAMPLE_SEED)
    for n, count in SAMPLE.items():
        cat = catalogue(n)
        reps = cat.representatives
        mixed = reps[~cat.masks["equivalence"][reps] & ~cat.masks["partial_order"][reps]]
        drawn = np.sort(rng.choice(mixed, size=count, replace=False))
        for _, seqs in _torsion_batches(n, drawn):
            discrete = (trivial_object(n),) * len(seqs)
            control = SeqBatch(discrete, seqs.mids, seqs.cs, seqs.k, seqs.g)
            for batch, want in ((seqs, True), (control, False)):
                stats = Counter()
                assert (prekernel_batch(batch, probes, None, 1_000_000, stats=stats)
                        == want).all()
                assert (precokernel_batch(batch, probes, None, 1_000_000, stats=stats)
                        == want).all()
                closed = stats["identity_legs"] + stats["quotient_legs"]
                assert closed == (2 * len(seqs) if want else 0)
                for i in range(len(seqs)):
                    x, a, c = spec(batch.xs[i]), spec(batch.mids[i]), spec(batch.cs[i])
                    k, g = batch.k[i].tolist(), batch.g[i].tolist()
                    assert prekernel_property_search(k, x, g, a, c, specs) == want
                    assert precokernel_property_search(g, c, k, x, a, specs) == want
