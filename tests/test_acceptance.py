"""End-to-end acceptance suite: one test per exit criterion.

Every criterion runs exhaustively at its stated sizes and prints a pass
line.  Where a criterion quantifies a verifier over every morphism at
n <= 3, the verdict depends on the morphism only through a small key
(its fibre partition on the kernel side, its image-pairs equivalence on
the cokernel side); the loops still visit every morphism but memoize the
verdict per key, and the heavy inner scans run on integer map arrays.
"""

import random

import numpy as np

from preord import (
    EQUIVALENCES, Morph, PARTIAL_ORDERS,
    classify_short_exact, clopen_enumerate, components, compose,
    enumerate_objects, hom_enumerate, identity,
    identity_prekernel_test, image_equivalence, intersect_classes,
    is_minimal, is_morphism, is_trivial_object, iso_enumerate,
    kernel_pair_equiv, minimal_part, monotone_maps,
    precokernel, precokernel_witness, prekernel, prekernel_witness,
    pretorsion_verify, roundtrip_check, stable_cokernel,
    stable_eq, stable_eq_oracle, stable_iso, stable_kernel,
    stable_signature, torsion_sequence, trivial_object,
    verify_coproduct_preservation, verify_precokernel_definitional,
    verify_prekernel_definitional, verify_stable_cokernel,
    verify_stable_kernel,
)
from .oracles import (
    count_preorders_brute, factor_through_trivial_search, factors_through_search,
    union_find_blocks,
)


def test_c01_decomposition_bijection():
    """Round-trip identity on every labeled preorder at n=3 and n=4."""
    for n, expected in ((3, 29), (4, 355)):
        objs = list(enumerate_objects(n))
        assert len(objs) == expected
        assert count_preorders_brute(n) == expected
        failures = [a for a in objs if not roundtrip_check(a)]
        assert failures == []
    print("PASS criterion 1: decomposition bijection on 29 + 355 preorders")


def test_c02_trivial_morphism_criterion(objects3):
    """Explicit factor-through-trivial search agrees with the pairwise test."""
    checked = 0
    for a in objects3:
        dom_pairs = list(a.rel.pairs())
        carrier = trivial_object(a.n)
        for b in objects3:
            for row in monotone_maps(a, b):
                row = tuple(int(v) for v in row)
                checked += 1
                found = factor_through_trivial_search(row, a.n, b.n, dom_pairs)
                pairwise = all(row[x] == row[y] for x, y in dom_pairs)
                assert (found is not None) == pairwise
                if found is not None:
                    g, h = found
                    assert is_morphism(g, a, carrier)
                    assert is_morphism(h, carrier, b)
                    assert tuple(h[g[x]] for x in range(a.n)) == row
    assert checked == 11310
    print(f"PASS criterion 2: trivial-morphism criterion on {checked} morphisms")


def test_c03_components_are_generated_equivalence_classes(objects4):
    """Component partition matches a union-find oracle; clopen count is 2^k."""
    for a in objects4:
        expected = union_find_blocks(a.n, list(a.rel.pairs()))
        part = components(a)
        assert list(part.blocks) == expected
        assert len(clopen_enumerate(a)) == 2 ** part.size
    print(f"PASS criterion 3: components and clopen counts on {len(objects4)} objects")


def test_c04_prekernel_precokernel_universal_properties(objects3):
    """Canonical constructions pass the definitional verifiers; uniqueness
    up to a unique commuting iso is witnessed explicitly."""
    pre_cache: dict = {}
    coker_cache: dict = {}
    iso_cache: dict = {}

    def isos_between(x, y):
        key = (x.rel, y.rel)
        if key not in iso_cache:
            iso_cache[key] = list(iso_enumerate(x, y))
        return iso_cache[key]

    def prekernel_side(f):
        # verdict and witnesses depend on f only through its fibre partition
        k = prekernel(f)
        if not verify_prekernel_definitional(k, f, objects3):
            return False
        for x in objects3:
            if x.n != k.dom.n:
                continue
            for phi in isos_between(x, k.dom):
                k2 = compose(k, phi)
                w = prekernel_witness(k2, f)
                if w is None or w.map != phi.map:
                    return False
                linking = [u for u in isos_between(x, k.dom)
                           if compose(k, u) == k2]
                if linking != [phi]:
                    return False
        return True

    def precokernel_side(f):
        c = precokernel(f)
        if not verify_precokernel_definitional(c, f, objects3):
            return False
        for y in objects3:
            if y.n != c.cod.n:
                continue
            for psi in isos_between(c.cod, y):
                p2 = compose(psi, c)
                w = precokernel_witness(p2, f)
                if w is None or w.map != psi.map:
                    return False
                linking = [u for u in isos_between(c.cod, y)
                           if compose(u, c) == p2]
                if linking != [psi]:
                    return False
        return True

    checked = 0
    for a in objects3:
        for b in objects3:
            for f in hom_enumerate(a, b):
                checked += 1
                key = (a.rel, kernel_pair_equiv(f))
                if key not in pre_cache:
                    pre_cache[key] = prekernel_side(f)
                assert pre_cache[key]
                ckey = (b.rel, image_equivalence(f))
                if ckey not in coker_cache:
                    coker_cache[ckey] = precokernel_side(f)
                assert coker_cache[ckey]
    assert checked == 11310
    print(f"PASS criterion 4: universal properties with witnesses on {checked} morphisms")


def _literal_oracle_matrix(a, maps):
    """Vectorized literal clopen existential over all map pairs."""
    m = len(maps)
    blocks = components(a).blocks
    bits = a.rel.bits
    triv = np.ones((m, len(blocks)), dtype=bool)
    eq_on = np.ones((m, m, len(blocks)), dtype=bool)
    for c, blk in enumerate(blocks):
        cols = list(blk)
        sub = maps[:, cols]
        for i, x in enumerate(cols):
            for j, y in enumerate(cols):
                if bits[x, y]:
                    triv[:, c] &= sub[:, i] == sub[:, j]
        eq_on[:, :, c] = (sub[:, None, :] == sub[None, :, :]).all(axis=2)
    oracle = np.zeros((m, m), dtype=bool)
    for code in range(2 ** len(blocks)):
        inside = [c for c in range(len(blocks)) if (code >> c) & 1]
        outside = [c for c in range(len(blocks)) if not (code >> c) & 1]
        cond = np.ones((m, m), dtype=bool)
        for c in inside:
            cond &= triv[:, c][:, None] & triv[:, c][None, :]
        for c in outside:
            cond &= eq_on[:, :, c]
        oracle |= cond
    return oracle


def test_c05_stable_equality_matches_the_literal_oracle(objects3, objects4):
    """Per-component decision vs the clopen existential, exhaustive at
    n <= 3 plus 10^4 sampled pairs at n = 4."""
    pairs_checked = 0
    for a in objects3:
        for b in objects3:
            maps = monotone_maps(a, b)
            sigs = [stable_signature(Morph(a, b, tuple(r))) for r in maps]
            ids = {}
            sig_ids = np.array([ids.setdefault(s, len(ids)) for s in sigs])
            decided = sig_ids[:, None] == sig_ids[None, :]
            oracle = _literal_oracle_matrix(a, maps)
            assert np.array_equal(decided, oracle)
            pairs_checked += len(maps) ** 2
    rng = random.Random(404)
    four = [a for a in objects4 if a.n == 4]
    sampled = 0
    while sampled < 10_000:
        a, b = rng.choice(four), rng.choice(four)
        maps = monotone_maps(a, b)
        f = Morph(a, b, tuple(maps[rng.randrange(len(maps))]))
        g = Morph(a, b, tuple(maps[rng.randrange(len(maps))]))
        assert stable_eq(f, g) == stable_eq_oracle(f, g)
        sampled += 1
    print(f"PASS criterion 5: stable equality on {pairs_checked} exhaustive "
          f"pairs and {sampled} sampled pairs at n=4")


def test_c06_stable_isomorphism(objects3, objects4):
    """Minimal-part decision vs brute-force stable invertibility, plus
    rigidity of minimal objects."""
    rng = random.Random(77)
    for a in objects3:
        min_a = [int(i) for i in np.nonzero(minimal_part(a))[0]]
        for b in objects3:
            min_b = [int(i) for i in np.nonzero(minimal_part(b))[0]]
            fwd = monotone_maps(a, b)
            back = monotone_maps(b, a)
            # g o f fixes the minimal part of a  <=>  g o f is stably the
            # identity (identity restrictions are trivial only on
            # singleton components); dually for f o g
            comp_a = back[:, fwd]  # (m2, m1, a.n)
            ok_a = (comp_a[:, :, min_a] == np.array(min_a)).all(axis=2)
            comp_b = fwd[:, back]  # (m1, m2, b.n)
            ok_b = (comp_b[:, :, min_b] == np.array(min_b)).all(axis=2)
            brute = bool((ok_a.T & ok_b).any())
            assert stable_iso(a, b) == brute
            if len(fwd) and len(back):
                i = rng.randrange(len(fwd))
                j = rng.randrange(len(back))
                gf = Morph(a, a, tuple(int(v) for v in comp_a[j, i]))
                assert stable_eq(gf, identity(a)) == bool(ok_a[j, i])
    rigid_checked = 0
    for a in objects4:
        if not is_minimal(a):
            continue
        rigid_checked += 1
        ida = identity(a)
        for row in monotone_maps(a, a):
            f = Morph(a, a, tuple(int(v) for v in row))
            if stable_eq_oracle(f, ida):
                assert f == ida
    assert rigid_checked > 0
    print(f"PASS criterion 6: stable isomorphism on all object pairs at n<=3; "
          f"rigidity on {rigid_checked} minimal objects at n<=4")


def test_c07_stable_kernels_cokernels_and_classification(objects2, objects3):
    """Stable kernels/cokernels satisfy their universal property; every
    torsion sequence at n <= 3 classifies with stable witnesses."""
    kernel_cache: dict = {}
    coker_cache: dict = {}
    checked = 0
    for a in objects3:
        for b in objects3:
            for f in hom_enumerate(a, b):
                checked += 1
                key = (a.rel, kernel_pair_equiv(f))
                if key not in kernel_cache:
                    kernel_cache[key] = verify_stable_kernel(
                        stable_kernel(f), f, objects2)
                assert kernel_cache[key]
                ckey = (b.rel, image_equivalence(f))
                if ckey not in coker_cache:
                    coker_cache[ckey] = verify_stable_cokernel(
                        stable_cokernel(f), f, objects2)
                assert coker_cache[ckey]
    classified = 0
    for a in objects3:
        seq = torsion_sequence(a)
        sim, left, right = classify_short_exact(seq.f, seq.g, objects2)
        k = prekernel(seq.g)
        pi = precokernel(k)
        assert sim == image_equivalence(k)
        assert compose(k, left) == seq.f
        assert stable_eq(
            Morph(seq.g.dom, pi.cod, tuple(right.map[z] for z in seq.g.map)),
            pi)
        classified += 1
    print(f"PASS criterion 7: stable (co)kernels on {checked} morphisms, "
          f"classification on {classified} torsion sequences")


def test_c08_pretorsion_axioms(objects3, objects4):
    """Both axioms for (equivalences, partial orders); the intersection
    class is exactly the trivial objects."""
    null_class = intersect_classes(EQUIVALENCES, PARTIAL_ORDERS)
    assert not null_class.trivial_exact  # keep the honest search below
    def spec(a):
        return a.n, list(a.rel.pairs())
    maps_checked = 0
    for t in objects3:
        if not EQUIVALENCES.contains(t):
            continue
        # every labeled member of the null class no larger than the domain
        zs = [spec(z) for z in null_class.candidates(t.n)]
        for f_obj in objects3:
            if not PARTIAL_ORDERS.contains(f_obj):
                continue
            for row in monotone_maps(t, f_obj):
                maps_checked += 1
                assert factors_through_search(
                    [int(v) for v in row], spec(t), spec(f_obj), zs)
    report = pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, 4)
    assert report.ok
    assert report.objects_checked == 389
    for a in objects4:
        assert null_class.contains(a) == is_trivial_object(a)
    print(f"PASS criterion 8: axiom 2 by explicit search on {maps_checked} maps "
          f"at n<=3, axiom 1 on 389 objects at n<=4, null class = trivial objects")


def test_c09_identity_prekernel_criterion(objects3):
    """sigma = rho ^ closure(sigma) exactly when some morphism admits the
    identity-carried map as a prekernel (codomains up to n = 3)."""
    checked = 0
    by_size: dict = {}
    for b in objects3:
        by_size.setdefault(b.n, []).append(b)
    for a in objects3:
        rho = a.rel
        achievable = set()
        for b in objects3:
            for row in monotone_maps(a, b):
                fibre = np.array(row)[:, None] == np.array(row)[None, :]
                achievable.add((rho.bits & fibre).tobytes())
        for s in by_size[a.n]:
            sigma = s.rel
            if not sigma.is_subrel(rho):
                continue
            checked += 1
            predicted = identity_prekernel_test(sigma, rho)
            assert predicted == (sigma.bits.tobytes() in achievable)
    print(f"PASS criterion 9: identity-prekernel criterion on {checked} "
          f"contained preorder pairs")


def test_c10_stable_functor_preserves_coproducts(objects2, objects3):
    """Coproduct universal property survives in the stable category for
    every two-element family at n <= 2, probed at n <= 3."""
    families = 0
    for a1 in objects2:
        for a2 in objects2:
            assert verify_coproduct_preservation([a1, a2], objects3)
            families += 1
    print(f"PASS criterion 10: coproduct preservation on {families} families")
