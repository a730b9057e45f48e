"""The array-built constructions, their trusted outputs, the interned
construction objects, the construction cache, object hashing and the
per-object stable class tables."""

import numpy as np
import pytest

from preord import (
    HARD_CAP, Morph, PreObj, chain, compose, hom_enumerate, image_equivalence, make_object,
    objects_upto, precokernel, precokernel_witness, prekernel, prekernel_witness,
    trivial_object,
)
from preord.category import ByteLRU, candidate_grid, same_size_runs
from preord.exactness import (
    _BUILT, _INTERNED, SeqBatch, _built, _interned, precokernel_batch, prekernel_batch,
)
from preord.stable import _stable_canon, _stable_classes

from .oracles import naive_equivalence_closure, naive_transitive_closure, union_find_blocks


def _pairs(a):
    return set(a.rel.pairs(include_diagonal=True))


def _revalidated(f):
    """f rebuilt through the checking constructors."""
    return Morph(PreObj(f.dom.rel), PreObj(f.cod.rel), f.map)


@pytest.fixture(scope="module")
def morphisms3(objects3):
    return [f for a in objects3 for b in objects3 for f in hom_enumerate(a, b)]


class TestConstructionsAgainstNaiveClosures:
    def test_every_morphism_of_size_at_most_3_is_covered(self, morphisms3):
        assert len(morphisms3) == 11310

    def test_prekernels(self, morphisms3):
        for f in morphisms3:
            k = prekernel(f)
            assert k.map == tuple(range(f.dom.n)) and k.cod == f.dom
            assert _pairs(k.dom) == {(a, b) for a, b in _pairs(f.dom) if f.map[a] == f.map[b]}

    def test_precokernels(self, morphisms3):
        for f in morphisms3:
            n = f.cod.n
            zeta = naive_equivalence_closure({(f.map[a], f.map[b]) for a, b in _pairs(f.dom)}, n)
            assert _pairs(PreObj(image_equivalence(f))) == zeta
            joined = naive_transitive_closure(_pairs(f.cod) | zeta, n)
            blocks = union_find_blocks(n, zeta)
            c = precokernel(f)
            assert c.dom == f.cod
            assert c.map == tuple(next(i for i, blk in enumerate(blocks) if x in blk)
                                  for x in range(n))
            assert _pairs(c.cod) == {(i, j) for i, bi in enumerate(blocks)
                                     for j, bj in enumerate(blocks) if (bi[0], bj[0]) in joined}

    def test_trusted_outputs_pass_the_checking_constructors(self, morphisms3):
        for f in morphisms3:
            k, c = prekernel(f), precokernel(f)
            trusted = [k, c, compose(f, k), compose(c, f),
                       prekernel_witness(k, f), precokernel_witness(c, f)]
            for g in trusted:
                assert type(g.map) is tuple and all(type(x) is int for x in g.map)
                assert _revalidated(g) == g


class TestInterning:
    def test_equal_outputs_are_one_instance(self, objects3):
        a = make_object(3, [(0, 1), (1, 0)])
        f = Morph(a, chain(2), (0, 0, 1))
        g = Morph(a, trivial_object(2), (1, 1, 0))
        assert prekernel(f).dom is prekernel(g).dom
        assert precokernel(prekernel(f)).cod is precokernel(prekernel(g)).cod
        # user-built objects are never replaced
        assert prekernel(Morph(a, chain(1), (0, 0, 0))).dom == a
        assert prekernel(Morph(a, chain(1), (0, 0, 0))).dom is not a

    def test_the_table_stays_within_its_bound(self):
        # the constant map's prekernel is its domain: 6,942 distinct outputs
        point = trivial_object(1)
        for a in objects_upto(5)[-6942:]:
            assert prekernel(Morph(a, point, (0,) * 5)).dom == a
            assert _interned.cache_info().currsize <= _INTERNED
        assert _interned.cache_info().currsize == _INTERNED

    def test_carriers_beyond_the_enumeration_cap_are_not_interned(self):
        over = HARD_CAP + 1
        f = Morph(chain(over), trivial_object(1), (0,) * over)
        assert prekernel(f).dom == chain(over) and prekernel(f).dom is not prekernel(f).dom


class TestConstructionCache:
    """`prekernel` and `precokernel` keep their last outputs on small
    carriers, by the value of the morphism."""

    def test_a_hit_equals_a_fresh_build(self, morphisms3):
        for f in morphisms3[::29]:
            prekernel(f), precokernel(f)
            hits = _built.cache_info().hits
            got = prekernel(f), precokernel(f)
            assert _built.cache_info().hits == hits + 2
            _built.cache_clear()
            assert got == (prekernel(f), precokernel(f))

    def test_a_hit_ends_at_the_callers_objects(self):
        f = Morph(make_object(3, [(0, 1)]), chain(2), (0, 0, 1))
        twin = Morph(make_object(3, [(0, 1)]), chain(2), (0, 0, 1))
        assert twin == f and twin.dom is not f.dom and twin.cod is not f.cod
        _built.cache_clear()
        want = prekernel(twin), precokernel(twin)
        k, p = prekernel(f), precokernel(f)
        assert _built.cache_info().hits == 2
        assert (k, p) == want
        assert k.cod is f.dom and p.dom is f.cod
        assert prekernel(twin).cod is twin.dom and precokernel(twin).dom is twin.cod

    def test_the_cache_stays_within_its_bound(self, morphisms3):
        _built.cache_clear()
        for f in morphisms3[:200]:
            prekernel(f), precokernel(f)
            assert _built.cache_info().currsize <= _BUILT
        assert _built.cache_info().currsize == _BUILT

    def test_carriers_beyond_the_enumeration_cap_leave_the_cache_unchanged(self):
        before, over = _built.cache_info(), HARD_CAP + 1
        for f in (Morph(chain(over), trivial_object(1), (0,) * over),
                  Morph(chain(over), chain(over), tuple(range(over))),
                  Morph(chain(2), chain(over), (0, over - 1))):
            assert prekernel(f).cod is f.dom and precokernel(f).dom is f.cod
        assert _built.cache_info() == before

    def test_equal_objects_hash_alike(self):
        a, b = make_object(3, [(0, 1), (1, 2)]), chain(3)
        assert a == b and a is not b and a.rel is not b.rel
        assert hash(a) == hash(b) == hash(a.rel)
        # a trusted construction output hashes as the checked object
        k = prekernel(Morph(a, trivial_object(1), (0, 0, 0)))
        assert k.dom == a and hash(k.dom) == hash(a)

    def test_a_byte_lru_hit_hashes_its_key_at_most_twice(self):
        class Key:
            hashed = 0

            def __hash__(self):
                Key.hashed += 1
                return 7

        cache = ByteLRU(1 << 10)
        zeros = cache(lambda key: np.zeros(4))
        key = Key()
        zeros(key)
        Key.hashed = 0
        zeros(key)
        assert zeros.cache_info() == (1, 1)
        assert 1 <= Key.hashed <= 2


class TestStableClasses:
    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_each_grid_row_gets_the_first_row_stably_equal_to_it(self, objects3, base):
        for a in objects3:
            canon = _stable_canon(candidate_grid(a.n, base), a).tolist()
            first = {}
            for r, row in enumerate(canon):
                first.setdefault(tuple(row), r)
            assert _stable_classes(a, base).tolist() == [first[tuple(row)] for row in canon]


class TestRunCanon:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_run_equals_its_objects_one_at_a_time(self, objects2, objects3, m):
        # the stable engines stack the class tables of a run's probes: per
        # sequence, the run's verdict is that of its probes one at a time,
        # in any order, also when the budget slices the run
        (run,) = [r for r in same_size_runs(objects3) if r.m == m]
        order = [run.objs[i] for i in np.random.default_rng(m).permutation(len(run.objs))]
        groups = {}
        for x in objects2:
            for a in objects2:
                for c in objects2:
                    for k in hom_enumerate(x, a):
                        for g in hom_enumerate(a, c):
                            groups.setdefault((x.n, a.n, c.n), []).append((k, g))
        for engine in (prekernel_batch, precokernel_batch):
            for group in groups.values():
                seqs = SeqBatch.of(group)
                want = np.logical_and.reduce(
                    [engine(seqs, [y], None, 1_000_000, _stable_classes) for y in run.objs])
                for budget in (64, 1_000_000):
                    for probes in (list(run.objs), order):
                        got = engine(seqs, probes, None, budget, _stable_classes)
                        assert np.array_equal(got, want)
