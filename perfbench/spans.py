"""Span tracing around gnarlib's public calls, from outside the library.

A :class:`Tracer` replaces each public function listed in ``LAYERS`` at every
module binding of that name inside the loaded ``gnarlib`` modules (for
example ``gnarlib.selection.build_design`` as well as
``gnarlib.gnar_core.build_design``) with a wrapper that records a span and
the counts named for it.  ``uninstall`` puts the original functions back,
so untraced passes run the library exactly as shipped.

Spans stay in memory; :func:`self_times` folds them into per-layer self
times (a span's duration minus the durations of its direct children);
the counters fill ``Tracer.counts`` at the same boundaries.  Nothing is written while a pass runs.
"""

from __future__ import annotations

import collections
import itertools
import sys
import time
from typing import Callable, Optional


def _edges(counts, result, args, kwargs):
    counts["geo_graph.edges"] += result.n_edges


def _rows_in(counts, result, args, kwargs):
    # long-CSV rows pivoted into observed cells (the generated feeds carry
    # no duplicates and no empty values, so this equals the data rows)
    counts["panel.rows_in"] += int(result.observed_mask().sum())


def _design(counts, result, args, kwargs):
    counts["gnar_core.design_calls"] += 1
    counts["gnar_core.design_rows"] += int(result[0].shape[0])


def _solve(counts, result, args, kwargs):
    counts["gnar_core.solve_calls"] += 1
    counts["gnar_core.solve_cols"] += int(result.M)


def _simulate(counts, result, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    burn_in = kwargs.get("burn_in", args[7] if len(args) > 7 else 0)
    counts["gnar_core.simulate_steps"] += result.n_times + burn_in - spec.order.p


def _select(counts, result, args, kwargs):
    for c in result.candidates:
        counts["selection.candidates"] += 1
        if c.status == "ok":
            counts["selection.fitted"] += 1
        else:
            counts["selection.skipped_" + c.status] += 1


def _moran(counts, result, args, kwargs):
    counts["diagnostics.moran_stats"] += int(result.tested.sum()) * result.R


# (module, function, layer, counter).  A layer's self time is reported as
# "<layer>_s"; counters add exact counts at the same boundary.
LAYERS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("gnarlib.geo_graph", "distance_matrix", "geo_graph.distance", None),
    ("gnarlib.geo_graph", "build_knn", "geo_graph.knn", _edges),
    ("gnarlib.geo_graph", "build_dnn", "geo_graph.dnn", _edges),
    ("gnarlib.geo_graph", "build_delaunay", "geo_graph.delaunay", _edges),
    ("gnarlib.geo_graph", "derive_gabriel", "geo_graph.gabriel", _edges),
    ("gnarlib.geo_graph", "derive_soi", "geo_graph.soi", _edges),
    ("gnarlib.geo_graph", "derive_relative", "geo_graph.relative", _edges),
    ("gnarlib.geo_graph", "build_economic_hub", "geo_graph.hub", _edges),
    ("gnarlib.geo_graph", "build_complete", "geo_graph.complete", _edges),
    ("gnarlib.geo_graph", "build_from_edgelist", "geo_graph.edgelist", _edges),
    ("gnarlib.geo_graph", "read_points_csv", "geo_graph.io", None),
    ("gnarlib.geo_graph", "read_edgelist_csv", "geo_graph.io", None),
    ("gnarlib.geo_graph", "read_graph_json", "geo_graph.io", None),
    ("gnarlib.geo_graph", "write_graph_json", "geo_graph.io", None),
    ("gnarlib.geo_graph", "shortest_path_lengths", "geo_graph.spl", None),
    ("gnarlib.geo_graph", "network_summary", "geo_graph.summary", None),
    ("gnarlib.geo_graph", "stage_neighbourhoods", "geo_graph.stages", None),
    ("gnarlib.panel", "ingest_long_csv", "panel.ingest", _rows_in),
    ("gnarlib.panel", "weekly_from_cumulative", "panel.prep", None),
    ("gnarlib.panel", "rolling_average", "panel.prep", None),
    ("gnarlib.panel", "difference", "panel.prep", None),
    ("gnarlib.panel", "split_phases", "panel.prep", None),
    ("gnarlib.panel", "boxcox_profile", "panel.prep", None),
    ("gnarlib.panel", "read_wide_csv", "panel.io", None),
    ("gnarlib.panel", "write_wide_csv", "panel.io", None),
    ("gnarlib.panel", "read_phase_spec_json", "panel.io", None),
    ("gnarlib.gnar_core", "compute_weights", "gnar_core.weights", None),
    ("gnarlib.gnar_core", "build_design", "gnar_core.design", _design),
    ("gnarlib.gnar_core", "fit_ols", "gnar_core.solve", _solve),
    ("gnarlib.gnar_core", "estimate_sigma", "gnar_core.egls", None),
    ("gnarlib.gnar_core", "fit_egls", "gnar_core.egls", _solve),
    ("gnarlib.gnar_core", "simulate", "gnar_core.simulate", _simulate),
    ("gnarlib.gnar_core", "forecast", "gnar_core.forecast", None),
    ("gnarlib.selection", "select_model", "selection.select", _select),
    ("gnarlib.selection", "fit_ar_baseline", "selection.ar", None),
    ("gnarlib.selection", "ar_rolling_forecast", "selection.ar", None),
    ("gnarlib.diagnostics", "moran_permutation_test", "diagnostics.moran", _moran),
    ("gnarlib.diagnostics", "mase", "diagnostics.mase", None),
    ("gnarlib.diagnostics", "ks_normality", "diagnostics.residual_tests", None),
    ("gnarlib.diagnostics", "ljung_box_panel", "diagnostics.residual_tests", None),
)

# Layers whose self time is reported, in report order.  "cli.import" and
# "cli.cmd" come from the CLI workload's own spans, "trace.other" is the
# pass span's self time: benchmark glue plus library code outside any
# wrapped call.
SELF_LAYERS = tuple(dict.fromkeys(
    [layer for _, _, layer, _ in LAYERS] + ["cli.import", "cli.cmd", "trace.other"]))


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []   # (id, name, layer, start, end, parent, run_id)
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> tuple[int, Optional[int], float]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token, name: str, layer: str) -> None:
        sid, parent, start = token
        stop = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, layer, start, stop, parent, self.run_id))

    def current(self) -> Optional[int]:
        """Id of the innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def add_span(self, name: str, layer: str, start: float, stop: float,
                 parent: Optional[int] = None) -> int:
        """Record a finished span measured elsewhere (e.g. in a child process)."""
        sid = next(self._ids)
        self.spans.append((sid, name, layer, start, stop, parent, self.run_id))
        return sid

    def _wrap(self, func, layer: str, counter):
        name = func.__name__
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer.begin(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(token, name, layer)
            if counter is not None:
                counter(tracer.counts, result, args, kwargs)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = name
        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every gnarlib binding of it."""
        if self._patched:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gnarlib" or n.startswith("gnarlib."))]
        for modname, fname, layer, counter in LAYERS:
            orig = getattr(sys.modules[modname], fname)
            wrapped = self._wrap(orig, layer, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> dict[str, float]:
    """Self seconds per layer: duration minus the direct children's durations."""
    child_total: dict[int, float] = collections.defaultdict(float)
    for sid, _, _, start, stop, parent, _ in spans:
        if parent is not None:
            child_total[parent] += stop - start
    out: dict[str, float] = collections.defaultdict(float)
    for sid, _, layer, start, stop, _, _ in spans:
        out[layer] += (stop - start) - child_total.get(sid, 0.0)
    return dict(out)


def inclusive_time(spans, layer: str) -> float:
    """Total duration of one layer's spans (only for layers whose public
    calls never call each other, such as ``select_model``)."""
    return sum(stop - start for _, _, lay, start, stop, _, _ in spans if lay == layer)
