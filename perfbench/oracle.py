"""Reference results for checking the program's outputs.

Nothing here imports `preord`: closures use a boolean Warshall loop,
object counts come from OEIS and from brute-force enumeration, and stable
equality is decided by literally searching for a clopen subset.
"""

from __future__ import annotations

from itertools import product

import numpy as np

# OEIS A000798 (preorders), A000110 (equivalences), A001035 (posets), n = 1..5
OEIS = {
    "preorder": (1, 4, 29, 355, 6942),
    "equivalence": (1, 2, 5, 15, 52),
    "partial_order": (1, 3, 19, 219, 4231),
}

# pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, max_n=4): objects, maps
PRETORSION_N4 = (389, 203_858)


def warshall(bits) -> np.ndarray:
    """Transitive closure by Warshall's algorithm on a boolean matrix."""
    r = np.array(bits, dtype=bool)
    for k in range(len(r)):
        r |= r[:, k, None] & r[None, k, :]
    return r


def preorders(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """Every reflexive transitive relation on {0..n-1}, by brute force."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for code in range(2 ** len(cells)):
        r = [[i == j for j in range(n)] for i in range(n)]
        for t, (i, j) in enumerate(cells):
            if code >> t & 1:
                r[i][j] = True
        if all(r[i][j] or not (r[i][k] and r[k][j])
               for i, k, j in product(range(n), repeat=3)):
            out.append(tuple(map(tuple, r)))
    return out


def is_symmetric(r) -> bool:
    return all(r[i][j] == r[j][i] for i in range(len(r)) for j in range(len(r)))


def is_antisymmetric(r) -> bool:
    return not any(r[i][j] and r[j][i] for i in range(len(r)) for j in range(len(r)) if i != j)


def monotone_maps(a, b) -> list[tuple[int, ...]]:
    """All relation-preserving maps between two relation matrices."""
    related = [(x, y) for x in range(len(a)) for y in range(len(a)) if x != y and a[x][y]]
    return [m for m in product(range(len(b)), repeat=len(a))
            if all(b[m[x]][m[y]] for x, y in related)]


def pretorsion_counts(max_n: int) -> tuple[int, int]:
    """(objects, maps) that the pretorsion check on sizes <= max_n visits.

    A map from an equivalence into a partial order is monotone exactly
    when it is constant on classes, so each (E, P) pair contributes
    |P| ** classes(E) maps.
    """
    objects = sum(OEIS["preorder"][:max_n])
    posets = list(zip(range(1, max_n + 1), OEIS["partial_order"]))
    maps = 0
    for n in range(1, max_n + 1):
        for e in preorders(n):
            if is_symmetric(e):
                classes = len({row for row in e})
                maps += sum(count * size ** classes for size, count in posets)
    return objects, maps


def partition(eq: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """Class of each element and the classes, numbered by smallest member."""
    class_of = [-1] * len(eq)
    blocks: list[list[int]] = []
    for x in range(len(eq)):
        if class_of[x] < 0:
            members = [int(m) for m in np.flatnonzero(eq[x])]
            for m in members:
                class_of[m] = len(blocks)
            blocks.append(members)
    return class_of, blocks


def _blocks_text(blocks) -> str:
    return " ".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def _flag(b) -> str:
    return "true" if b else "false"


def cli_expected(command: str, r: np.ndarray) -> str:
    """Exact stdout of `preord <command> FILE` for a closed preorder matrix r."""
    n = len(r)
    eye = np.eye(n, dtype=bool)
    core = r & r.T
    comp = warshall(r | r.T | eye)
    comp_of, comps = partition(comp)
    if command == "components":
        return f"components: {_blocks_text(comps)}\ncount: {len(comps)}\n"
    if command == "check":
        trivial = bool((r == eye).all())
        minimal = n == 1 if trivial else all(len(comps[c]) > 1 for c in comp_of)
        return (f"ok: preorder on {n} elements\n"
                f"partial order: {_flag(not (core & ~eye).any())}\n"
                f"equivalence: {_flag((r == r.T).all())}\n"
                f"trivial: {_flag(trivial)}\n"
                f"indecomposable: {_flag(len(comps) == 1)}\n"
                f"minimal: {_flag(minimal)}\n")
    class_of, blocks = partition(core)
    reps = [b[0] for b in blocks]
    q = r[np.ix_(reps, reps)]
    strict = q & ~np.eye(len(reps), dtype=bool)
    if command == "decompose":
        pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(strict))]
        return (f"torsion blocks: {_blocks_text(blocks)}\n"
                f"quotient poset pairs: {pairs}\n"
                f"projection: {class_of}\n")
    if command == "dot --hasse":
        s = strict.astype(np.int64)
        cover = strict & ~((s @ s) > 0)
        lines = ["digraph preord {"]
        for b in blocks:
            label = "{" + ",".join(map(str, b)) + "}" if len(b) > 1 else str(b[0])
            lines.append(f'  {b[0]} [label="{label}"];')
        lines += [f"  {reps[i]} -> {reps[j]};" for i, j in zip(*np.nonzero(cover))]
        return "\n".join(lines) + "\n}\n"
    raise ValueError(f"no oracle for command {command!r}")


def stable_eq_literal(rel, f, g) -> bool:
    """f and g agree off some clopen subset on which both are trivial."""
    n = len(f)
    related = [(x, y) for x in range(n) for y in range(n) if rel[x][y]]
    for mask in range(2 ** n):
        inside = [mask >> x & 1 == 1 for x in range(n)]
        if any(inside[x] != inside[y] for x, y in related):
            continue
        if any(f[x] != g[x] for x in range(n) if not inside[x]):
            continue
        if all(f[x] == f[y] and g[x] == g[y] for x, y in related if inside[x]):
            return True
    return False


def prekernel_relation(rel, f) -> np.ndarray:
    """Domain relation of the canonical prekernel: rel cut to f's fibres."""
    m = np.asarray(f)
    return np.asarray(rel, dtype=bool) & (m[:, None] == m[None, :])


def precokernel(dom_rel, cod_rel, f) -> tuple[np.ndarray, list[int]]:
    """Codomain relation and projection of the canonical precokernel."""
    nb = len(cod_rel)
    gen = np.eye(nb, dtype=bool)
    for x, y in zip(*np.nonzero(np.asarray(dom_rel, dtype=bool))):
        gen[f[x], f[y]] = True
    zeta = warshall(gen | gen.T)
    joined = warshall(np.asarray(cod_rel, dtype=bool) | zeta)
    class_of, blocks = partition(zeta)
    reps = [b[0] for b in blocks]
    return joined[np.ix_(reps, reps)], class_of
