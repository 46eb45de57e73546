"""Spans and probes around the calls into matzero's layers.

The traced run patches public names in place, in every loaded matzero
module namespace that holds them, so calls between modules are caught
as well as the benchmark's own calls.  Two kinds of wrapper exist:

* a *span* records (name, start, end, id, parent, instance) for every
  call and keeps it in memory until the run ends;
* a *probe* only counts (and for the rank oracle, times) calls.  The
  rank oracle and ``IntPoly.evaluate`` run hundreds of thousands of
  times per batch, so they are probes: their time stays inside the
  self time of the span that called them.

A name that is missing from ``matzero.__all__`` (or a method missing
from its class) is reported as unmeasured instead of raising.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from time import perf_counter

# (layer, name): a plain name must be listed in matzero.__all__; a
# "Class.method" name is patched on the class, which must be listed.
SPANS = (
    ("gfq", "gf"),
    ("harness", "gen_random_linear"),
    ("harness", "gen_glued"),
    ("harness", "main_theorem_suite"),
    ("harness", "charpoly_auto"),
    ("harness", "verify_main_theorem"),
    ("harness", "verify_no_lines_theorem"),
    ("harness", "verify_identities"),
    ("charpoly", "cp_delete_contract"),
    ("charpoly", "cp_cocircuit_expansion"),
    ("charpoly", "poly_exact_div"),
    ("charpoly", "squarefree_part"),
    ("charpoly", "sturm_chain"),
    ("charpoly", "count_roots_above"),
    ("charpoly", "sturm_positive_beyond"),
    ("charpoly", "cauchy_root_bound"),
    ("charpoly", "largest_real_root"),
    ("matroid", "Matroid.has_line_minor"),
    ("matroid", "Matroid.find_small_cocircuit"),
    ("treedecomp", "best_heuristic"),
    ("treedecomp", "heuristic_decomposition"),
    ("treedecomp", "TreeDecomposition.width"),
    ("projgeom", "pg_build"),
    ("projgeom", "embed"),
    ("projgeom", "extend"),
    ("projgeom", "neck_of_edge"),
    ("projgeom", "telescoping_expansion"),
    ("projgeom", "brylawski_charpoly"),
    ("projgeom", "is_modular_flat"),
)

RANK_PROBE = ("matroid", "Matroid.rank_mask")
EVALUATE_PROBE = ("charpoly", "IntPoly.evaluate")

# spans whose result length is summed (the Sturm chain length)
COUNT_LENGTH = frozenset({"charpoly.sturm_chain"})

# the benchmark's own span around instance generation
GENERATE = "harness.generate"


def span_name(layer: str, name: str) -> str:
    return f"{layer}.{name.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}  # name -> [outermost s, self s, calls, length]
        self.instance = None
        self.unmeasured: list[str] = []
        self.rank = [0, 0.0, 0]  # calls, outermost seconds, nesting depth
        self.rank_seen: dict[int, tuple] = {}  # id -> (matroid kept alive, masks)
        self.evaluate_calls = [0]
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self, mz, spans=SPANS) -> None:
        """Wrap every listed name of the loaded package ``mz``."""
        exported = set(getattr(mz, "__all__", ()))
        for layer, name in spans:
            target = self._lookup(mz, exported, layer, name)
            if target is None:
                self.unmeasured.append(span_name(layer, name))
                continue
            self._patch(target, self._span(span_name(layer, name), target[2]))
        for layer, name, make in (
            RANK_PROBE + (self._rank_probe,),
            EVALUATE_PROBE + (self._evaluate_probe,),
        ):
            target = self._lookup(mz, exported, layer, name)
            if target is None:
                self.unmeasured.append(span_name(layer, name))
                continue
            self._patch(target, make(target[2]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _lookup(mz, exported, layer, name):
        """(owner, attribute, original) or None when the name is gone."""
        module = sys.modules.get(f"{mz.__name__}.{layer}")
        if module is None:
            return None
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(module, cls_name, None)
            if cls_name not in exported or cls is None or attr not in vars(cls):
                return None
            return cls, attr, vars(cls)[attr]
        if name not in exported or not callable(getattr(module, name, None)):
            return None
        return module, name, getattr(module, name)

    def _patch(self, target, wrapper) -> None:
        owner, attr, original = target
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        prefix = owner.__name__.split(".")[0]
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != prefix:
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        spans, stack, depth = self.spans, self._stack, self._depth
        tot = self.totals.setdefault(name, [0.0, 0.0, 0, 0])
        depth.setdefault(name, 0)
        count_length = name in COUNT_LENGTH

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count_length:
                    tot[3] += len(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] = level
                dur = end - start
                if not level:
                    tot[0] += dur
                tot[1] += dur - frame[1]
                tot[2] += 1
                if parent is not None:
                    parent[1] += dur
                spans.append((name, start, end, span_id,
                               None if parent is None else parent[0], tracer.instance))

        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of the benchmark's own."""
        return self._span(name, fn)(*args)

    def _rank_probe(self, fn):
        cell, seen = self.rank, self.rank_seen

        @wraps(fn)
        def rank_mask(m, mask):
            cell[0] += 1
            entry = seen.get(id(m))
            if entry is None:
                entry = seen[id(m)] = (m, set())
            entry[1].add(mask)
            if cell[2]:
                return fn(m, mask)
            cell[2] = 1
            start = perf_counter()
            try:
                return fn(m, mask)
            finally:
                cell[1] += perf_counter() - start
                cell[2] = 0

        return rank_mask

    def _evaluate_probe(self, fn):
        cell = self.evaluate_calls

        @wraps(fn)
        def evaluate(p, x):
            cell[0] += 1
            return fn(p, x)

        return evaluate

    # -- results --------------------------------------------------------------

    @property
    def rank_misses(self) -> int:
        return sum(len(masks) for _, masks in self.rank_seen.values())

    def top_level_seconds(self) -> dict:
        """Summed duration of the parentless spans of each instance."""
        out: dict = {}
        for _name, start, end, _id, parent, instance in self.spans:
            if parent is None and instance is not None:
                out[instance] = out.get(instance, 0.0) + (end - start)
        return out

    def write_spans(self, path, origin: float) -> None:
        """One JSON array per span: name, start, end, id, parent, instance,
        with times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, instance in self.spans:
                row = [name, start - origin, end - origin, span_id, parent, instance]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
