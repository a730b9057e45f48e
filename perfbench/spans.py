"""Spans and counters around the calls into each layer of `preord`.

Only the traced run installs these wrappers.  Each wraps a public callable
where its callers look it up: the attribute of every `preord` module that
binds it (or the `Rel` method), so calls from inside the library are
traced too.  Spans live in flat arrays until the run ends.  A generator's
span counts only the time spent producing its items, not the time its
consumer spends between them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# span group -> (defining module, attribute) pairs; "Rel.x" names a method
LAYERS = {
    "relations.pairs": [("relations", "Rel.pairs")],
    "relations.is_transitive": [("relations", "Rel.is_transitive")],
    "relations.closure": [("relations", "Rel.transitive_closure")],
    "category.hom": [("category", "monotone_maps")],
    "topology.components": [("topology", "components")],
    "decompose.quotient_poset": [("decompose", "quotient_poset")],
    "decompose.symmetric_core": [("decompose", "symmetric_core")],
    "exactness.construct": [("exactness", "prekernel"), ("exactness", "precokernel"),
                            ("exactness", "canonical_preexact_from_morphism")],
    "exactness.definitional": [("exactness", "verify_prekernel_definitional"),
                               ("exactness", "verify_precokernel_definitional")],
    "exactness.preexact": [("exactness", "is_short_preexact")],
    "stable.verify": [("stable", "verify_stable_kernel"), ("stable", "verify_stable_cokernel")],
    "stable.stable_eq": [("stable", "stable_eq")],
    "pretorsion.axiom1": [("pretorsion", "relative_preexact"),
                          ("pretorsion", "relative_prekernel_check"),
                          ("pretorsion", "relative_precokernel_check")],
    "pretorsion.verify": [("pretorsion", "pretorsion_verify")],
    "pretorsion.torsion_sequence": [("pretorsion", "torsion_sequence")],
    "enumeration.enumerate": [("enumeration", "enumerate_objects")],
    "io.load": [("io", "load_object"), ("io", "load_morphism")],
    "io.save": [("io", "save_object")],
    "io.dot": [("io", "export_dot")],
    "cli.main": [("cli", "main")],
}
GENERATORS = {"relations.pairs", "enumeration.enumerate"}


class Tracer:
    """Records spans (name, start, end, parent) and the time each was busy."""

    def __init__(self):
        self.groups: list[str] = []
        self.name = array("h")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _open(self, gid: int) -> int:
        idx = len(self.name)
        self.name.append(gid)
        self.parent.append(self.stack[-1])
        self.start.append(0)
        self.end.append(0)
        self.busy.append(0)
        return idx

    def _gid(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def wrap(self, group: str, fn):
        gid, stack, clock = self._gid(group), self.stack, time.perf_counter_ns
        start, end, busy, open_ = self.start, self.end, self.busy, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(gid)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx], end[idx], busy[idx] = t0, t1, t1 - t0
        return traced

    def wrap_generator(self, group: str, fn, counter: str | None = None):
        gid, clock = self._gid(group), time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(gid)
            t0 = clock()
            inner = fn(*args, **kwargs)
            t1 = clock()
            self.start[idx], self.end[idx], self.busy[idx] = t0, t1, t1 - t0
            return self._drive(idx, inner, counter)
        return traced

    def _drive(self, idx: int, inner, counter: str | None):
        stack, clock, busy, end = self.stack, time.perf_counter_ns, self.busy, self.end
        items = 0
        try:
            while True:
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    busy[idx] += t1 - t0
                    end[idx] = t1
                items += 1
                yield item
        finally:
            inner.close()
            if counter:
                self.counts[counter] += items

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span group: (calls, self seconds), self = busy minus children."""
        busy = np.frombuffer(self.busy, dtype=np.int64).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int16)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=busy[nested], minlength=len(busy))
        own = busy - children
        calls = np.bincount(name, minlength=len(self.groups))
        self_ns = np.bincount(name, weights=own, minlength=len(self.groups))
        return {g: (int(calls[i]), float(self_ns[i]) / 1e9) for i, g in enumerate(self.groups)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, groups=np.array(self.groups), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), busy=np.asarray(self.busy))


def _counting_hom(tracer: Tracer, hom, cache_info):
    """Counts hits and misses of the cached hom enumeration from cache_info()."""
    counts = tracer.counts

    @functools.wraps(hom)
    def counted(dom, cod, *args, **kwargs):
        misses = cache_info().misses
        rows = hom(dom, cod, *args, **kwargs)
        counts["hom_calls"] += 1
        if cache_info().misses != misses:
            counts["hom_misses"] += 1
            counts["hom_candidates"] += cod.n ** dom.n
            counts["hom_kept"] += len(rows)
            counts["hom_bytes_computed"] += rows.nbytes
        return rows
    return counted


def _counting_load(tracer: Tracer, load):
    @functools.wraps(load)
    def counted(text, *args, **kwargs):
        tracer.counts["io_bytes_parsed"] += len(text.encode("utf-8"))
        return load(text, *args, **kwargs)
    return counted


def _counting_verify(tracer: Tracer, verify):
    @functools.wraps(verify)
    def counted(*args, **kwargs):
        report = verify(*args, **kwargs)
        tracer.counts["pretorsion_objects"] += report.objects_checked
        tracer.counts["pretorsion_maps"] += report.maps_checked
        return report
    return counted


def install(tracer: Tracer) -> None:
    """Replace every binding of the layer callables in `preord`'s modules."""
    importlib.import_module("preord.cli")
    modules = [m for name, m in sys.modules.items()
               if name == "preord" or name.startswith("preord.")]
    for group, targets in LAYERS.items():
        for mod_name, attr in targets:
            home = sys.modules[f"preord.{mod_name}"]
            if attr.startswith("Rel."):
                method = attr[4:]
                orig = getattr(home.Rel, method)
                setattr(home.Rel, method, _wrapped(tracer, group, orig))
                continue
            orig = getattr(home, attr)
            new = _wrapped(tracer, group, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, new)


def _wrapped(tracer: Tracer, group: str, fn):
    if group in GENERATORS:
        counter = "objects_emitted" if group == "enumeration.enumerate" else None
        return tracer.wrap_generator(group, fn, counter)
    span = tracer.wrap(group, fn)
    if group == "category.hom":
        return _counting_hom(tracer, span, fn.cache_info)
    if group == "io.load":
        return _counting_load(tracer, span)
    if group == "pretorsion.verify":
        return _counting_verify(tracer, span)
    return span


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, idle layers included as 0."""
    totals = tracer.layer_totals()
    c = tracer.counts

    def calls(group):
        return totals[group][0]

    def self_s(group):
        return totals[group][1]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "relations.pairs_calls": calls("relations.pairs"),
        "relations.pairs_self_s": self_s("relations.pairs"),
        "relations.is_transitive_calls": calls("relations.is_transitive"),
        "relations.is_transitive_self_s": self_s("relations.is_transitive"),
        "relations.closure_calls": calls("relations.closure"),
        "relations.closure_self_s": self_s("relations.closure"),
        "category.hom_calls": c["hom_calls"],
        "category.hom_misses": c["hom_misses"],
        "category.hom_hit_ratio": ratio(c["hom_calls"] - c["hom_misses"], c["hom_calls"]),
        "category.hom_self_s": self_s("category.hom"),
        "category.hom_candidates": c["hom_candidates"],
        "category.hom_kept": c["hom_kept"],
        "category.hom_kept_ratio": ratio(c["hom_kept"], c["hom_candidates"]),
        "category.hom_bytes_computed": c["hom_bytes_computed"],
        "topology.components_calls": calls("topology.components"),
        "topology.components_self_s": self_s("topology.components"),
        "decompose.quotient_poset_self_s": self_s("decompose.quotient_poset"),
        "decompose.symmetric_core_self_s": self_s("decompose.symmetric_core"),
        "exactness.construct_self_s": self_s("exactness.construct"),
        "exactness.definitional_self_s": self_s("exactness.definitional"),
        "exactness.preexact_self_s": self_s("exactness.preexact"),
        "stable.verify_self_s": self_s("stable.verify"),
        "stable.stable_eq_self_s": self_s("stable.stable_eq"),
        "pretorsion.axiom1_self_s": self_s("pretorsion.axiom1"),
        "pretorsion.verify_self_s": self_s("pretorsion.verify"),
        "pretorsion.torsion_sequence_self_s": self_s("pretorsion.torsion_sequence"),
        "pretorsion.objects_checked": c["pretorsion_objects"],
        "pretorsion.maps_checked": c["pretorsion_maps"],
        "enumeration.enumerate_self_s": self_s("enumeration.enumerate"),
        "enumeration.objects_emitted": c["objects_emitted"],
        "io.load_self_s": self_s("io.load"),
        "io.save_self_s": self_s("io.save"),
        "io.dot_self_s": self_s("io.dot"),
        "io.bytes_parsed": c["io_bytes_parsed"],
        "cli.main_self_s": self_s("cli.main"),
    }
