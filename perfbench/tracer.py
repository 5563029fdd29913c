"""Spans and counters recorded from outside the package, by patching names.

A function is wrapped at every name its callers look it up by: the
modules bind each other's functions through ``from .core import ...``, so
patching ``starcut.core.components`` alone would miss the call made from
``starcut.cuts``.  ``Tracer.installed`` therefore replaces every module global that
is the original object, and patches methods on the class itself.

Hot tiny functions get a counter only; everything else gets a span with a
parent and an op id (the id of its outermost span).  Spans stay in memory
and are written as JSON lines once the pass is over.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("starcut", "starcut.core", "starcut.cuts", "starcut.decomposition",
           "starcut.oracle", "starcut.cli")

# (module defining the name, name, layer); each becomes a span.
SPANNED = (
    ("starcut.core", "components", "core"),
    ("starcut.core", "min_degree", "core"),
    ("starcut.core", "neighborhood", "core"),
    ("starcut.core", "edge_boundary", "core"),
    ("starcut.core", "induced_min_degree", "core"),
    ("starcut.cuts", "substar_isolating_cut", "cuts"),
    ("starcut.cuts", "substar_iso_ok", "cuts"),
    ("starcut.cuts", "is_k_vertex_cut", "cuts"),
    ("starcut.cuts", "is_k_edge_cut", "cuts"),
    ("starcut.cuts", "unique_neighbor_report", "cuts"),
    ("starcut.cuts", "sample_min_degree_subgraphs", "cuts"),
    ("starcut.cuts", "witness_position", "cuts"),
    ("starcut.cuts", "symbol_profile", "cuts"),
    ("starcut.cuts", "verify_witness_exhaustive", "cuts"),
    ("starcut.decomposition", "validate_dimension_partition", "decomposition"),
    ("starcut.decomposition", "validate_symbol_partition", "decomposition"),
    ("starcut.oracle", "classical_connectivity", "oracle.flow"),
    ("starcut.oracle", "compare_formula", "oracle.subset"),
    ("starcut.cli", "cmd_table", "cli"),
    ("starcut.cli", "cmd_check", "cli"),
    ("starcut.cli", "cmd_cut", "cli"),
    ("starcut.cli", "cmd_verify_cut", "cli"),
    ("starcut.cli", "cmd_decompose", "cli"),
    ("starcut.cli", "cmd_oracle", "cli"),
)
# Module-level names that get a call counter and no span.
COUNTED = (
    ("starcut.core", "perm_rank", "core.perm_rank_calls"),
    ("starcut.core", "perm_unrank", "core.perm_unrank_calls"),
    ("starcut.oracle", "_max_flow_unit", "oracle.flow.runs"),
)
# StarGraph methods: construction is a span, the per-vertex ones are counted.
METHOD_SPANNED = (("__init__", "StarGraph", "core"),)
METHOD_COUNTED = (("neighbors", "core.neighbors_calls"),
                  ("has_edge", "core.has_edge_calls"))
SEARCHES = (("exact_kappa_super", "vertex"), ("exact_lambda_super", "edge"))

LAYERS = ("core", "cuts", "decomposition", "oracle.flow", "oracle.subset",
          "oracle.growth", "cli")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        # span: [id, parent, op, layer, name, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.search_time: Counter = Counter()
        self._stack: list[int] = []
        self.enabled = True

    def open(self, layer: str, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[self._stack[0]][2] if self._stack else sid
        rec = [sid, parent, op, layer, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def close(self, rec: list):
        rec[6] = perf_counter()
        self._stack.pop()

    def spanned(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self.open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def search(self, name: str, mode: str, fn):
        """Span an oracle entry point and fold its SearchStats into counters.

        The layer is chosen per call from the budget's strategy, so the
        subset and growth kernels are told apart at the same entry point.
        """
        def wrapper(g, k, budget=None, *args, **kwargs):
            if not self.enabled:
                return fn(g, k, budget, *args, **kwargs)
            growth = budget is not None and budget.strategy == "component-growth"
            layer = "oracle.growth" if growth else "oracle.subset"
            rec = self.open(layer, name)
            try:
                res = fn(g, k, budget, *args, **kwargs)
            finally:
                self.close(rec)
            key = f"{layer}.{mode}"
            st = res.stats
            self.counts[f"{key}.nodes"] += st.nodes
            self.counts[f"{key}.checked"] += st.candidates_checked
            self.search_time[key] += rec[6] - rec[5]
            if (budget is not None and budget.max_nodes is not None
                    and res.kind == "upper-bound-only"):
                self.counts[f"{key}.overshoot"] += st.nodes - budget.max_nodes
            return res
        return wrapper

    @contextmanager
    def paused(self):
        """Run harness-side checks without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def installed(self):
        """Patch every binding listed above; restore them all on exit."""
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]
        undo = []

        def rebind(orig, wrapper):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, attr, val))
                        setattr(m, attr, wrapper)

        for modname, name, layer in SPANNED:
            orig = getattr(importlib.import_module(modname), name)
            rebind(orig, self.spanned(layer, name, orig))
        for modname, name, key in COUNTED:
            orig = getattr(importlib.import_module(modname), name)
            rebind(orig, self.counted(key, orig))
        oracle = importlib.import_module("starcut.oracle")
        for name, mode in SEARCHES:
            orig = getattr(oracle, name)
            rebind(orig, self.search(name, mode, orig))
        cls = importlib.import_module("starcut.core").StarGraph
        for meth, name, layer in METHOD_SPANNED:
            orig = vars(cls)[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, self.spanned(layer, name, orig))
        for meth, key in METHOD_COUNTED:
            orig = vars(cls)[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, self.counted(key, orig))
        try:
            yield self
        finally:
            for owner, attr, val in reversed(undo):
                setattr(owner, attr, val)

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, op, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers: named span totals, self time, counters."""
        total: Counter = Counter()
        calls: Counter = Counter()
        child: defaultdict = defaultdict(float)
        for sid, parent, _op, _layer, name, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for sid, _p, _op, layer, _n, start, end in self.spans:
            self_s[layer] += (end - start) - child[sid]

        c = self.counts
        m = {
            "core.build_s": total["StarGraph"],
            "core.build_calls": calls["StarGraph"],
            "core.components_s": total["components"],
            "core.min_degree_s": total["min_degree"],
            "core.neighbors_calls": c["core.neighbors_calls"],
            "core.perm_rank_calls": c["core.perm_rank_calls"],
            "core.perm_unrank_calls": c["core.perm_unrank_calls"],
            "core.has_edge_calls": c["core.has_edge_calls"],
            "cuts.construct_s": total["substar_isolating_cut"],
            "cuts.substar_iso_s": total["substar_iso_ok"],
            "cuts.vertex_verdict_s": total["is_k_vertex_cut"],
            "cuts.edge_verdict_s": total["is_k_edge_cut"],
            "cuts.verdict_calls": calls["is_k_vertex_cut"] + calls["is_k_edge_cut"],
            "cuts.unique_neighbor_s": total["unique_neighbor_report"],
            "cuts.sampling_s": total["sample_min_degree_subgraphs"],
            "decomposition.dimension_s": total["validate_dimension_partition"],
            "decomposition.symbol_s": total["validate_symbol_partition"],
            "oracle.flow.connectivity_s": total["classical_connectivity"],
            "oracle.flow.runs": c["oracle.flow.runs"],
            "cli.cut_s": total["cmd_cut"],
            "cli.verify_cut_s": total["cmd_verify_cut"],
            "cli.decompose_s": total["cmd_decompose"],
            "cli.table_s": total["cmd_table"],
            "cli.check_s": total["cmd_check"],
        }
        for mode in ("vertex", "edge"):
            key = f"oracle.subset.{mode}"
            nodes = c[f"{key}.nodes"]
            secs = self.search_time[key]
            m[f"{key}.nodes"] = nodes
            m[f"{key}.checked"] = c[f"{key}.checked"]
            m[f"{key}.nodes_per_s"] = nodes / secs if secs else 0.0
            m[f"{key}.checked_share"] = c[f"{key}.checked"] / nodes if nodes else 0.0
            m[f"{key}.overshoot"] = c[f"{key}.overshoot"]
            key = f"oracle.growth.{mode}"
            nodes = c[f"{key}.nodes"]
            secs = self.search_time[key]
            m[f"{key}.nodes"] = nodes
            m[f"{key}.nodes_per_s"] = nodes / secs if secs else 0.0
        for layer, secs in self_s.items():
            m[f"{layer}.self_s"] = secs
        m["trace.spans"] = len(self.spans)
        return m
