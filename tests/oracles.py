"""Independent reference implementations, used only by the tests.

Everything here is deliberately pure-python and naive so that it shares
no code path with the numpy production implementations it checks.
"""

from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import itemgetter


def naive_transitive_closure(pairs, n):
    """Saturate by chasing pairs until nothing new appears."""
    out = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(out):
            for (c, d) in list(out):
                if b == c and (a, d) not in out:
                    out.add((a, d))
                    changed = True
    return out


def naive_equivalence_closure(pairs, n):
    sym = set(pairs) | {(b, a) for a, b in pairs} | {(x, x) for x in range(n)}
    return naive_transitive_closure(sym, n)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def union_find_blocks(n, edges):
    """Blocks of the equivalence generated by undirected edges, sorted by min."""
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    blocks = {}
    for x in range(n):
        blocks.setdefault(uf.find(x), []).append(x)
    return [tuple(sorted(v)) for _, v in sorted(blocks.items())]


def tarjan_scc(n, adj):
    """Strongly connected components, returned sorted by smallest member."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    counter = [0]
    out = []

    def strongconnect(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in adj[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(tuple(sorted(comp)))

    for v in range(n):
        if v not in index:
            strongconnect(v)
    return sorted(out)


def condensation(n, pairs):
    """SCC blocks plus the quotient relation between blocks."""
    adj = {v: [] for v in range(n)}
    for a, b in pairs:
        if a != b:
            adj[a].append(b)
    blocks = tarjan_scc(n, adj)
    block_of = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            block_of[x] = i
    k = len(blocks)
    rel = [[False] * k for _ in range(k)]
    full = set(pairs) | {(x, x) for x in range(n)}
    for a, b in full:
        rel[block_of[a]][block_of[b]] = True
    return blocks, rel


def brute_monotone_maps(n_dom, n_cod, dom_pairs, cod_pairs):
    """All monotone maps as tuples, via raw filtering of every map; a new
    list on each call, from a memo per (sizes, pair sets)."""
    return list(_brute_monotone_maps(n_dom, n_cod, frozenset(map(tuple, dom_pairs)),
                                     frozenset(map(tuple, cod_pairs))))


@lru_cache(maxsize=1 << 14)
def _brute_monotone_maps(n_dom, n_cod, dom_pairs, cod_pairs):
    cod_set = cod_pairs | {(x, x) for x in range(n_cod)}
    out = []
    for m in product(range(n_cod), repeat=n_dom):
        if all((m[a], m[b]) in cod_set for a, b in dom_pairs):
            out.append(m)
    return tuple(out)


def collapses_relation(map_row, pairs):
    """Does the map send every related pair to equal values?"""
    return all(map_row[a] == map_row[b] for a, b in pairs)


def factor_through_trivial_search(map_row, n_dom, n_cod, dom_pairs):
    """Search an explicit factorization through an equality-relation object.

    Tries every map g from the domain into a trivial object of the same
    size that collapses the relation, pins h on the image of g, and
    verifies h o g reproduces the map.  Returns the found (g, h) or None.
    """
    for g in product(range(n_dom), repeat=n_dom):
        if not collapses_relation(g, dom_pairs):
            continue
        h = [None] * n_dom
        ok = True
        for a in range(n_dom):
            if h[g[a]] is None:
                h[g[a]] = map_row[a]
            elif h[g[a]] != map_row[a]:
                ok = False
                break
        if not ok:
            continue
        h = [v if v is not None else 0 for v in h]
        if all(h[g[a]] == map_row[a] for a in range(n_dom)):
            return g, tuple(h)
    return None


def prekernel_property_search(k_map, k_dom, f_map, f_dom, f_cod, probes):
    """The prekernel property relative to the trivial objects, map by map.

    Objects are (n, pairs) specs; k maps k_dom into f_dom and f maps f_dom
    into f_cod.  f o k must factor through an equality-relation object, and
    every monotone lam from a probe into f_dom whose composite with f so
    factors must equal k o lam' for exactly one monotone lam' into k_dom.
    """
    if factor_through_trivial_search(
            [f_map[v] for v in k_map], k_dom[0], f_cod[0], k_dom[1]) is None:
        return False
    for y_n, y_pairs in probes:
        primes = brute_monotone_maps(y_n, k_dom[0], y_pairs, k_dom[1])
        for lam in brute_monotone_maps(y_n, f_dom[0], y_pairs, f_dom[1]):
            if factor_through_trivial_search(
                    [f_map[v] for v in lam], y_n, f_cod[0], y_pairs) is None:
                continue
            if sum(tuple(k_map[v] for v in pr) == lam for pr in primes) != 1:
                return False
    return True


def precokernel_property_search(p_map, p_cod, f_map, f_dom, f_cod, probes):
    """Dual of `prekernel_property_search`: p maps f_cod onto p_cod, and
    every monotone lam from f_cod into a probe with lam o f factoring
    through a trivial object must equal lam' o p for exactly one lam'."""
    if factor_through_trivial_search(
            [p_map[v] for v in f_map], f_dom[0], p_cod[0], f_dom[1]) is None:
        return False
    for t_n, t_pairs in probes:
        afters = brute_monotone_maps(p_cod[0], t_n, p_cod[1], t_pairs)
        for lam in brute_monotone_maps(f_cod[0], t_n, f_cod[1], t_pairs):
            if factor_through_trivial_search(
                    [lam[v] for v in f_map], f_dom[0], t_n, f_dom[1]) is None:
                continue
            if sum(tuple(h[v] for v in p_map) == lam for h in afters) != 1:
                return False
    return True


def stable_eq_search(n, pairs, f, g):
    """Stable equality, literally: f and g agree off some clopen subset of
    the n-point domain on which both send every related pair to equal values.
    A subset is clopen when no related pair crosses its boundary."""
    for inside in product((False, True), repeat=n):
        if any(inside[a] != inside[b] for a, b in pairs):
            continue
        if any(f[x] != g[x] for x in range(n) if not inside[x]):
            continue
        if all(f[a] == f[b] and g[a] == g[b] for a, b in pairs if inside[a]):
            return True
    return False


def _one_stable_class(n, pairs, found):
    """Are the factorizations non-empty and pairwise stably equal?"""
    return bool(found) and all(stable_eq_search(n, pairs, h, found[0]) for h in found)


def stable_prekernel_property_search(k_map, k_dom, f_map, f_dom, f_cod, probes):
    """The kernel property of the stable category, map by map.

    Objects are (n, pairs) specs.  f o k must collapse the relation of k_dom,
    and every monotone lam from a probe into f_dom with f o lam collapsing
    the probe's relation must be stably equal to k o lam' for some monotone
    lam' into k_dom, with all such lam' stably equal to each other.
    """
    if not collapses_relation([f_map[v] for v in k_map], k_dom[1]):
        return False
    for y_n, y_pairs in probes:
        primes = brute_monotone_maps(y_n, k_dom[0], y_pairs, k_dom[1])
        for lam in brute_monotone_maps(y_n, f_dom[0], y_pairs, f_dom[1]):
            if not collapses_relation([f_map[v] for v in lam], y_pairs):
                continue
            found = [pr for pr in primes
                     if stable_eq_search(y_n, y_pairs, [k_map[v] for v in pr], lam)]
            if not _one_stable_class(y_n, y_pairs, found):
                return False
    return True


def stable_precokernel_property_search(p_map, p_cod, f_map, f_dom, f_cod, probes):
    """Dual of `stable_prekernel_property_search`: p maps f_cod into p_cod,
    and every monotone lam from f_cod into a probe with lam o f collapsing
    the relation of f_dom must be stably equal to lam' o p for a single
    stable class of monotone lam' out of p_cod."""
    if not collapses_relation([p_map[v] for v in f_map], f_dom[1]):
        return False
    for t_n, t_pairs in probes:
        afters = brute_monotone_maps(p_cod[0], t_n, p_cod[1], t_pairs)
        for lam in brute_monotone_maps(f_cod[0], t_n, f_cod[1], t_pairs):
            if not collapses_relation([lam[v] for v in f_map], f_dom[1]):
                continue
            found = [h for h in afters
                     if stable_eq_search(f_cod[0], f_cod[1], [h[v] for v in p_map], lam)]
            if not _one_stable_class(p_cod[0], p_cod[1], found):
                return False
    return True


def brute_reflexive_relations(n):
    """Every reflexive relation on n points as a frozenset of pairs."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for picks in product((False, True), repeat=len(cells)):
        chosen = {c for c, p in zip(cells, picks) if p}
        yield chosen | {(x, x) for x in range(n)}


def naive_is_transitive(pairs):
    return all((a, d) in pairs
               for a, b in pairs for c, d in pairs if b == c)


def naive_compose(r_pairs, s_pairs):
    return {(a, d) for a, b in r_pairs for c, d in s_pairs if b == c}


def naive_covering_pairs(n, pairs):
    """Strict pairs with no strict two-step path, sorted."""
    strict = {(a, b) for a, b in pairs if a != b}
    return [(a, b) for a, b in sorted(strict)
            if not any((a, m) in strict and (m, b) in strict for m in range(n))]


def count_preorders_brute(n):
    return sum(1 for rel in brute_reflexive_relations(n) if naive_is_transitive(rel))


def count_equivalences_brute(n):
    return sum(1 for rel in brute_reflexive_relations(n)
               if naive_is_transitive(rel)
               and all((b, a) in rel for a, b in rel))


def count_partial_orders_brute(n):
    return sum(1 for rel in brute_reflexive_relations(n)
               if naive_is_transitive(rel)
               and all(a == b for a, b in rel if (b, a) in rel))


# labeled preorders on n = 0..7 points (OEIS A000798)
PREORDER_COUNTS = (1, 1, 4, 29, 355, 6942, 209527, 9535241)
# labeled partial orders on k = 0..7 points (OEIS A001035)
PARTIAL_ORDER_COUNTS = (1, 1, 3, 19, 219, 4231, 130023, 6129859)
# preorders on n = 0..6 points up to isomorphism (OEIS A001930)
PREORDER_CLASS_COUNTS = (1, 1, 3, 9, 33, 139, 718)
# partial orders on k = 0..6 points up to isomorphism (OEIS A000112)
PARTIAL_ORDER_CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318)


def stirling2(n, k):
    """Partitions of n labeled points into k non-empty blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n):
    """Partitions of n labeled points: the labeled equivalences (Bell numbers)."""
    return sum(stirling2(n, k) for k in range(n + 1))


def integer_partitions(n, largest=None):
    """Partitions of n into parts of at most `largest` (default n): the
    equivalences on n points up to isomorphism (OEIS A000041)."""
    if n == 0:
        return 1
    return sum(integer_partitions(n - part, part) for part in range(1, min(n, largest or n) + 1))


def count_preorders_by_blocks(n):
    """Labeled preorders on n points counted as a set partition into k
    blocks (the symmetric part) and a labeled partial order on the
    blocks: sum over k of S(n, k) * P(k)."""
    return sum(stirling2(n, k) * PARTIAL_ORDER_COUNTS[k] for k in range(n + 1))


def relation_code(n, pairs):
    """The off-diagonal cells in row-major order as bits of one binary
    number, the first cell highest."""
    code = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                code = 2 * code + ((i, j) in pairs)
    return code


def relabelings(n, pairs):
    """The relation relabeled by every permutation p of the points: i is
    related to j when p(i) is related to p(j)."""
    pairs = set(pairs)
    for p in permutations(range(n)):
        yield {(i, j) for i in range(n) for j in range(n) if (p[i], p[j]) in pairs}


def canonical_code_brute(n, pairs):
    """The smallest code over all n! relabelings."""
    return min(relation_code(n, r) for r in relabelings(n, pairs))


def automorphism_count_brute(n, pairs):
    """The permutations that map the relation onto itself."""
    pairs = set(pairs)
    return sum(1 for r in relabelings(n, pairs) if r == pairs)


def orbit_sizes_brute(n, reps):
    """The labeled relations in the orbits of the relations `reps` (sets
    of pairs) under relabeling: n! / |Aut| each."""
    return sum(factorial(n) // automorphism_count_brute(n, pairs) for pairs in reps)


KIND_TESTS = {
    "preorder": lambda pairs: True,
    "equivalence": lambda pairs: all((b, a) in pairs for a, b in pairs),
    "partial_order": lambda pairs: all(a == b for a, b in pairs if (b, a) in pairs),
}


def kind_test(kind):
    """The test of an (n, pairs) spec for a kind: a name of KIND_TESTS, or
    a predicate of n and the pairs (diagonal included) itself."""
    return kind if callable(kind) else lambda n, pairs: KIND_TESTS[kind](pairs)


def brute_objects(max_n, kind):
    """The (n, pairs) specs of the kind (as in `kind_test`) with
    1 <= n <= max_n, pairs with the diagonal, smaller first and by code
    within a size."""
    test = kind_test(kind)
    out = []
    for n in range(1, max_n + 1):
        rels = [r for r in brute_reflexive_relations(n)
                if naive_is_transitive(r) and test(n, r)]
        out.extend((n, r) for r in sorted(rels, key=lambda r: relation_code(n, r)))
    return out


def _spec_key(spec):
    n, pairs = spec
    return n, frozenset(map(tuple, pairs))


def factors_through_search(map_row, dom, cod, factor_objs):
    """Is the map h o g for monotone g: dom -> z and h: z -> cod, for some
    z among the (n, pairs) specs?"""
    composites = _composites(_spec_key(dom), _spec_key(cod), tuple(map(_spec_key, factor_objs)))
    return tuple(map(int, map_row)) in composites


@lru_cache(maxsize=1 << 12)
def _composites(dom, cod, factor_objs):
    """Every map h o g for monotone g: dom -> z and h: z -> cod, z among
    the factor specs, as a set of tuples; a memo per (dom, cod, factors)."""
    out = set()
    for z_n, z_pairs in factor_objs:
        hs = brute_monotone_maps(z_n, cod[0], z_pairs, cod[1])
        for g in brute_monotone_maps(dom[0], z_n, dom[1], z_pairs):
            pick = itemgetter(*g)
            # itemgetter of one index gives the item, not a 1-tuple
            out.update(map(pick, hs) if len(g) > 1 else zip(map(pick, hs)))
    return frozenset(out)


def axiom2_scan_brute(max_n, t_kind, f_kind):
    """Axiom 2 map by map: every monotone map from a T-member into an
    F-member must factor through a member of T ^ F no larger than its
    domain.  The kinds are as in `kind_test`.  Members come smaller first
    and by code, maps within a hom set lexicographically.  Returns the
    first map that does not factor, as (dom spec, cod spec, map), or None,
    with the maps visited up to and including it."""
    ts, fs = brute_objects(max_n, t_kind), brute_objects(max_n, f_kind)
    zs = [z for z in ts if kind_test(f_kind)(*z)]
    visited = 0
    for dom in ts:
        small = [z for z in zs if z[0] <= dom[0]]
        for cod in fs:
            for m in brute_monotone_maps(dom[0], cod[0], dom[1], cod[1]):
                visited += 1
                if not factors_through_search(m, dom, cod, small):
                    return (dom, cod, m), visited
    return None, visited


def alexandroff_failure_pairwise(n, opens):
    """Why a family of subsets of {0..n-1} (bool sequences) is not an
    Alexandroff topology, found member against member, in the words of
    `specialization_preorder`; None when it is one."""
    sets = [tuple(bool(v) for v in s) for s in opens]
    if any(len(s) != n for s in sets):
        return "open set mask has wrong length"
    keys = set(sets)
    if (False,) * n not in keys:
        return "topology must contain the empty set"
    if (True,) * n not in keys:
        return "topology must contain the full carrier"
    for s in sets:
        for t in sets:
            union = tuple(a or b for a, b in zip(s, t))
            meet = tuple(a and b for a, b in zip(s, t))
            if union not in keys or meet not in keys:
                return "family is not closed under union/intersection"
    return None


def specialization_pairs_brute(n, opens):
    """The pairs (x, y) such that every set of the family holding y holds x."""
    return {(x, y) for x in range(n) for y in range(n)
            if all(s[x] for s in opens if s[y])}
