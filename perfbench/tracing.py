"""Spans and counters recorded from outside the program.

The tracer wraps public functions of each linkmorse module and rebinds every
name under which the program looks the function up (the defining module and
each module that imported it), plus the methods of ``ChartOracle``. Nothing
inside the package changes. Spans are held in memory and written out when the
run ends; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, attribute); layer = the part before the first dot
FUNCTIONS = {
    "cli.main": ("linkmorse.cli", "main"),
    "graphs.load_linkage": ("linkmorse.graphs", "load_linkage"),
    "graphs.detect_polygon_with_chains": ("linkmorse.graphs", "detect_polygon_with_chains"),
    "graphs.relative_decomposition": ("linkmorse.graphs", "relative_decomposition"),
    "graphs.is_partial_two_tree": ("linkmorse.graphs", "is_partial_two_tree"),
    "graphs.sp_decompose": ("linkmorse.graphs", "sp_decompose"),
    "graphs.biconnected_blocks": ("linkmorse.graphs", "biconnected_blocks"),
    "graphs.elementary_cycles": ("linkmorse.graphs", "elementary_cycles"),
    "graphs.cell_lengths": ("linkmorse.graphs", "cell_lengths"),
    "geometry.wall_check": ("linkmorse.geometry", "wall_check"),
    "geometry.enumerate_cyclic": ("linkmorse.geometry", "enumerate_cyclic"),
    "indices.cyclic_index": ("linkmorse.indices", "cyclic_index"),
    "indices.aligned_nu": ("linkmorse.indices", "aligned_nu"),
    "indices.ptt_index": ("linkmorse.indices", "ptt_index"),
    "indices.open_chain_index": ("linkmorse.indices", "open_chain_index"),
    "enumeration.enumerate": ("linkmorse.enumeration", "enumerate_critical_structure"),
    "enumeration.match_record": ("linkmorse.enumeration", "match_record"),
    "oracle.continue_family": ("linkmorse.oracle", "continue_family"),
}

# span name -> ChartOracle method
METHODS = {
    "oracle.build": "__init__",
    "oracle.find_critical": "find_critical",
    "oracle.project": "project",
    "oracle.newton_kkt": "newton_kkt",
    "oracle.inertia": "inertia",
    "oracle.smallest_signed_eigenvalue": "smallest_signed_eigenvalue",
}

# name, unit, better; the order in which a traced run reports them
PER_LAYER = [
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("graphs.s", "s", "lower"),
    ("graphs.sp_decompose.calls", "count", "lower"),
    ("geometry.wall_check.s", "s", "lower"),
    ("geometry.enumerate_cyclic.calls", "count", "lower"),
    ("geometry.enumerate_cyclic.s", "s", "lower"),
    ("geometry.enumerate_cyclic.distinct_frac", "ratio", "lower"),
    ("indices.calls", "count", "lower"),
    ("indices.s", "s", "lower"),
    ("enumeration.enumerate.s", "s", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("enumeration.records", "count", "higher"),
    ("enumeration.match_record.s", "s", "lower"),
    ("oracle.build.calls", "count", "lower"),
    ("oracle.build.s", "s", "lower"),
    ("oracle.find_critical.s", "s", "lower"),
    ("oracle.find_critical.self_s", "s", "lower"),
    ("oracle.seeds", "count", "lower"),
    ("oracle.project.calls", "count", "lower"),
    ("oracle.project.failed", "count", "lower"),
    ("oracle.project.s", "s", "lower"),
    ("oracle.newton_kkt.calls", "count", "lower"),
    ("oracle.newton_kkt.failed", "count", "lower"),
    ("oracle.newton_kkt.converged_frac", "ratio", "higher"),
    ("oracle.newton_kkt.s", "s", "lower"),
    ("oracle.newton_kkt.iters", "count", "lower"),
    ("oracle.inertia.calls", "count", "lower"),
    ("oracle.inertia.s", "s", "lower"),
    ("oracle.smallest_signed_eigenvalue.calls", "count", "lower"),
    ("oracle.continue_family.self_s", "s", "lower"),
]


class Tracer:
    """Span recorder. A span is (id, name, start, end, parent id, item id, ok)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.cyclic_lengths: set[tuple[float, ...]] = set()
        self.item: str | None = None
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append((sid, name))
            ok = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ok = False
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.item, ok))
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, kwargs, result):
        if name == "oracle.newton_kkt" and result is None:
            self.counts["oracle.newton_kkt.failed"] += 1
        elif name == "oracle.find_critical":
            self.counts["oracle.seeds"] += args[1] if len(args) > 1 else kwargs["n_seeds"]
        elif name == "enumeration.enumerate":
            self.counts["enumeration.records"] += len(result)
        elif name == "geometry.enumerate_cyclic":
            lengths = args[0] if args else kwargs["lengths"]
            self.cyclic_lengths.add(tuple(float(x) for x in lengths))

    def _count_newton_iteration(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][1] == "oracle.newton_kkt":
                tracer.counts["oracle.newton_kkt.iters"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------------
    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Rebind every traced function wherever the package looks it up."""
        import linkmorse.oracle

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "linkmorse" or k.startswith("linkmorse."))]
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
        cls = linkmorse.oracle.ChartOracle
        for name, attr in METHODS.items():
            self._rebind(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._rebind(cls, "multipliers", self._count_newton_iteration(cls.multipliers))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output ----------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, item, ok in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item, "ok": ok}) + "\n")

    def layer_metrics(self, passes: int, out_bytes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the workload's items."""
        by_id = {s[0]: s for s in self.spans}
        child_time: Counter = Counter()
        for sid, name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0

        def layer(name):
            return name.split(".", 1)[0]

        def nested_in_layer(span):
            lay, parent = layer(span[1]), span[4]
            while parent is not None:
                up = by_id[parent]
                if layer(up[1]) == lay:
                    return True
                parent = up[4]
            return False

        calls: Counter = Counter()
        total: Counter = Counter()
        failed: Counter = Counter()
        layer_calls: Counter = Counter()
        layer_total: Counter = Counter()
        layer_self: Counter = Counter()
        self_time: Counter = Counter()
        for span in self.spans:
            sid, name, t0, t1, _, _, ok = span
            dur = t1 - t0
            calls[name] += 1
            total[name] += dur
            self_time[name] += dur - child_time[sid]
            layer_self[layer(name)] += dur - child_time[sid]
            if not ok:
                failed[name] += 1
            if not nested_in_layer(span):
                layer_calls[layer(name)] += 1
                layer_total[layer(name)] += dur

        newton = calls["oracle.newton_kkt"]
        newton_failed = self.counts["oracle.newton_kkt.failed"]
        cyclic = calls["geometry.enumerate_cyclic"]
        m = {
            "cli.calls": layer_calls["cli"],
            "cli.self_s": layer_self["cli"],
            "cli.out_bytes": out_bytes,
            "graphs.s": layer_total["graphs"],
            "graphs.sp_decompose.calls": calls["graphs.sp_decompose"],
            "geometry.wall_check.s": total["geometry.wall_check"],
            "geometry.enumerate_cyclic.calls": cyclic,
            "geometry.enumerate_cyclic.s": total["geometry.enumerate_cyclic"],
            "indices.calls": layer_calls["indices"],
            "indices.s": layer_total["indices"],
            "enumeration.enumerate.s": total["enumeration.enumerate"],
            "enumeration.self_s": layer_self["enumeration"],
            "enumeration.records": self.counts["enumeration.records"],
            "enumeration.match_record.s": total["enumeration.match_record"],
            "oracle.build.calls": calls["oracle.build"],
            "oracle.build.s": total["oracle.build"],
            "oracle.find_critical.s": total["oracle.find_critical"],
            "oracle.find_critical.self_s": self_time["oracle.find_critical"],
            "oracle.seeds": self.counts["oracle.seeds"],
            "oracle.project.calls": calls["oracle.project"],
            "oracle.project.failed": failed["oracle.project"],
            "oracle.project.s": total["oracle.project"],
            "oracle.newton_kkt.calls": newton,
            "oracle.newton_kkt.failed": newton_failed,
            "oracle.newton_kkt.s": total["oracle.newton_kkt"],
            "oracle.newton_kkt.iters": self.counts["oracle.newton_kkt.iters"],
            "oracle.inertia.calls": calls["oracle.inertia"],
            "oracle.inertia.s": total["oracle.inertia"],
            "oracle.smallest_signed_eigenvalue.calls":
                calls["oracle.smallest_signed_eigenvalue"],
            "oracle.continue_family.self_s": self_time["oracle.continue_family"],
        }
        m = {k: v / passes for k, v in m.items()}
        # every pass repeats the same inputs, so distinct length tuples are
        # counted against one pass's calls; a layer never called reads as
        # nothing repeated and nothing failed
        m["geometry.enumerate_cyclic.distinct_frac"] = \
            len(self.cyclic_lengths) * passes / cyclic if cyclic else 0.0
        m["oracle.newton_kkt.converged_frac"] = \
            (newton - newton_failed) / newton if newton else 1.0
        return {name: m[name] for name, _, _ in PER_LAYER}
