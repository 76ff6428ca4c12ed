"""The benchmark's three workloads.

Each workload generates its inputs from the seed in ``__init__`` (the
set-up that ``setup_s`` times), runs one complete pass in ``run_pass``
(what ``wall_s`` times), checks a pass's outputs against independent
computations in ``check``, and reduces a pass to ``digest``: the discrete
results compared with the recorded reference (``"reference"``) and the
full results that must repeat exactly from pass to pass (``"identity"``).

Every public gnarlib call goes through ``ops`` so that it is counted as an
operation and a raised exception is recorded under the operation's name.
Library calls are made through module attributes (``gg.build_knn``), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle

import gnarlib.datasets as ds
import gnarlib.diagnostics as dg
import gnarlib.geo_graph as gg
import gnarlib.gnar_core as gc
import gnarlib.panel as pn
import gnarlib.selection as sel

HERE = Path(__file__).resolve().parent
SCHEMES = ("spl", "uniform", "idw", "pb")

# The paper's fitted GNAR(5, [2, 1, 1, 1, 1]) (README config example).
PAPER_ALPHA = np.array([0.18, -0.19, -0.09, -0.17, -0.11])
PAPER_BETA = [np.array([0.14, 0.41]), np.array([-0.07]), np.array([0.03]),
              np.array([0.14]), np.array([0.01])]
PAPER_ORDER = gc.GnarOrder(p=5, s=(2, 1, 1, 1, 1))
START = datetime.date(2020, 3, 1)


class OpFailed(Exception):
    """An operation raised; the pass stops and the failure is recorded."""


class Ops:
    """Counts operations and collects named failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (pass, op, message)
        self.label = "setup"
        self.on_op = None   # called after every operation (the worker's clock)

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append((self.label, name, f"{type(exc).__name__}: {exc}"))
            raise OpFailed(name) from exc
        if self.on_op:
            self.on_op()
        return result

    def record(self, name: str, ok: bool, message: str) -> None:
        """An operation run outside this process (a CLI command)."""
        self.attempted += 1
        self.check(ok, name, message)
        if self.on_op:
            self.on_op()

    def check(self, ok: bool, name: str, message: str) -> None:
        if not ok:
            self.failures.append((self.label, name, message))

    def failed(self) -> int:
        return len({(lbl, name) for lbl, name, _ in self.failures})


def sha(obj) -> str:
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
    else:
        data = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def edge_digest(g) -> list:
    return [g.n_edges, sha(sorted(list(e) for e in g.edges))]


def close(a, b, tol=1e-10) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    ok = ~np.isnan(a)
    scale = max(1.0, float(np.max(np.abs(b[ok]))) if ok.any() else 1.0)
    return bool(np.all(np.abs(a[ok] - b[ok]) <= tol * scale))


def _weights_by_stage(g, kind, r_max, dist=None, pops=None):
    hops = oracle.hop_distances(g.n, g.edges)
    return {r: oracle.stage_weights(hops, r, kind, dist, pops) for r in range(1, r_max + 1)}


def check_fit(ops, name, fit_obj, values, g, dist=None, pops=None):
    """gamma and n_obs of a fitted model against an independent solve."""
    spec = fit_obj.spec
    w = _weights_by_stage(g, spec.scheme.kind, max(spec.order.max_stage, 1), dist, pops)
    design, y = oracle.gnar_design(values, spec.order.p, spec.order.s, spec.global_alpha, w)
    ops.check(design.shape[0] == fit_obj.n_obs, name,
              f"n_obs {fit_obj.n_obs} != independent row count {design.shape[0]}")
    if design.shape[0] == fit_obj.n_obs:
        ref = oracle.normal_equations_solve(design, y)
        ops.check(close(fit_obj.gamma, ref), name,
                  f"gamma differs from the normal-equations solve by "
                  f"{float(np.max(np.abs(fit_obj.gamma - ref))):.3g}")
    return w


def check_rolling(ops, name, preds, fit_obj, values, w):
    n, T = values.shape
    h = preds.shape[1]
    alpha_np = np.tile(fit_obj.alpha, (n, 1)) if fit_obj.alpha.ndim == 1 else fit_obj.alpha
    ref = np.column_stack([oracle.one_step(values, T - h + k, alpha_np, fit_obj.beta, w)
                           for k in range(h)])
    ops.check(close(preds, ref), name, "rolling one-step forecast differs from the model")


def check_moran(ops, name, res):
    t = res.tested
    outside = (res.observed < res.lower) | (res.observed > res.upper)
    ops.check(bool(np.array_equal(res.outside[t], outside[t])), name,
              "outside flags disagree with the reported bands")
    ops.check(math.isclose(res.n_m, float(res.outside[t].mean())), name,
              "n_m is not the share of tested dates outside the band")


def moran_flags(res) -> str:
    return "".join("x" if not t else ("1" if o else "0")
                   for t, o in zip(res.tested, res.outside))


def gnar_panel(rng, g, alpha, beta, T, sigma, burn=50) -> np.ndarray:
    """Seeded GNAR series with uniform stage weights (benchmark-side)."""
    w = _weights_by_stage(g, "uniform", max(len(b) for b in beta))
    n, p = g.n, len(alpha)
    X = np.zeros((n, T + burn))
    X[:, :p] = rng.normal(0.0, sigma, size=(n, p))
    alpha_np = np.tile(alpha, (n, 1))
    for t in range(p, T + burn):
        X[:, t] = oracle.one_step(X, t, alpha_np, beta, w) + rng.normal(0.0, sigma, size=n)
    return X[:, burn:]


def write_long_csv(path, labels, base, diffs) -> np.ndarray:
    """Daily cumulative counts whose weekly differences follow ``diffs``.

    Weekly incidence is ``base + 2 * cumsum(diffs)``; the cumulative count
    is linear within each week.  Returns the weekly incidence.
    """
    inc = base[:, None] + 2.0 * np.cumsum(diffs, axis=1)
    if not (inc > 0).all():
        raise ValueError("generated incidence is not positive")
    cum = np.cumsum(inc, axis=1)
    n, W = inc.shape
    with open(path, "w") as fh:
        fh.write("date,node,value\n")
        for day in range(7 * (W - 1) + 1):
            w, k = divmod(day, 7)
            col = cum[:, w] if k == 0 else cum[:, w] + inc[:, w + 1] * k / 7.0
            d = (START + datetime.timedelta(days=day)).isoformat()
            for lbl, v in zip(labels, col):
                fh.write(f"{d},{lbl},{v:.3f}\n")
    return inc


def week(k: int) -> datetime.date:
    return START + datetime.timedelta(days=7 * k)


# ---------------------------------------------------------------------------
# paper-protocol
# ---------------------------------------------------------------------------

class PaperProtocol:
    """The paper's workflow on the 26 shipped Irish counties."""

    WEEKS = 75
    PHASES = {"A": ((2, 20), (24, 38)), "B": ((42, 70),)}
    NODE_SPECIFIC_NETS = ("queen", "delaunay", "complete")
    HOLDOUT = 5
    MORAN_R = 100

    def __init__(self, seed: int, work: Path):
        import scipy.linalg  # noqa: F401  (lazy loads the passes would pay)
        import scipy.spatial  # noqa: F401
        import scipy.stats  # noqa: F401

        self.seed = seed
        self.towns = ds.irish_county_towns()
        self.labels = [p.node_id for p in self.towns]
        self.edge_pairs = gg.read_edgelist_csv(ds.irish_queen_edges_path())
        self.pops = np.array([p.population for p in self.towns])
        queen = gg.build_from_edgelist(self.labels, self.edge_pairs)
        rng = np.random.default_rng([seed, 1])
        diffs = gnar_panel(rng, queen, PAPER_ALPHA, PAPER_BETA, self.WEEKS, 1.0)
        self.csv_path = work / "paper_long.csv"
        write_long_csv(self.csv_path, self.labels, 200.0 + self.pops / 2000.0, diffs)
        self.specs = {name: pn.PhaseSpec(name, tuple((week(a), week(b)) for a, b in iv))
                      for name, iv in self.PHASES.items()}

    def _networks(self, ops):
        t = self.towns
        nets = {
            "queen": ops("build[queen]", gg.build_from_edgelist, self.labels, self.edge_pairs),
            "knn": ops("build[knn]", gg.build_knn, t, 3),
            "dnn": ops("build[dnn]", gg.build_dnn, t, 80.0),
            "delaunay": ops("build[delaunay]", gg.build_delaunay, t),
            "gabriel": ops("build[gabriel]", gg.derive_gabriel, t),
            "soi": ops("build[soi]", gg.derive_soi, t),
            "relative": ops("build[relative]", gg.derive_relative, t),
        }
        nets["hub"] = ops("build[hub]", gg.build_economic_hub, nets["queen"], t, ds.IRISH_HUBS)
        nets["complete"] = ops("build[complete]", gg.build_complete, self.labels)
        return nets

    def run_pass(self, ops):
        out = {"cells": {}, "phases": {}}
        daily = ops("ingest", pn.ingest_long_csv, self.csv_path)
        weekly = ops("weekly", pn.weekly_from_cumulative, daily)
        diffed = ops("difference", pn.difference, weekly)
        phases = {}
        for name, spec in self.specs.items():
            phases[name] = ops(f"phases[{name}]", pn.split_phases, diffed, spec)
            out["phases"][name] = {
                "boxcox": ops(f"boxcox[{name}]", pn.boxcox_profile,
                              phases[name].values.ravel())}

        nets = self._networks(ops)
        out["nets"] = nets
        out["summaries"] = {k: ops(f"summary[{k}]", gg.network_summary, g,
                                   brg_samples=5, seed=7) for k, g in nets.items()}
        dist = ops("distance", gg.distance_matrix, self.towns)
        schemes = {"spl": gc.WeightScheme("spl"), "uniform": gc.WeightScheme("uniform"),
                   "idw": gc.WeightScheme("idw", dist_km=dist),
                   "pb": gc.WeightScheme("pb", dist_km=dist, populations=self.pops)}
        out["dist"] = dist

        for pi, (ph, panel) in enumerate(phases.items()):
            T = panel.n_times
            grid = sel.order_grid(sel.schwert_max_lag(T), 1)
            for k, (net, g) in enumerate(nets.items()):
                scheme = SCHEMES[(k + pi) % len(SCHEMES)]
                cell = f"{ph}/{net}/{scheme}/global"
                out["cells"][cell] = ops(f"select[{cell}]", sel.select_model, panel, g,
                                         schemes[scheme], grid, global_alpha=True)
            for net in self.NODE_SPECIFIC_NETS:
                cell = f"{ph}/{net}/spl/vertex"
                out["cells"][cell] = ops(f"select[{cell}]", sel.select_model, panel,
                                         nets[net], schemes["spl"], sel.order_grid(3, 3),
                                         global_alpha=False)

            best_cell = min((c for c in out["cells"] if c.startswith(ph + "/")
                             and c.endswith("/global")),
                            key=lambda c: out["cells"][c].best.bic)
            _, net, scheme, _ = best_cell.split("/")
            g, h = nets[net], self.HOLDOUT
            spec = gc.GnarSpec(out["cells"][best_cell].best.order, True, schemes[scheme])
            train = pn.TimeSeriesPanel(panel.labels, panel.dates[:-h], panel.values[:, :-h])
            fit = ops(f"fit[{ph}]", gc.fit, train, g, spec)
            preds = ops(f"forecast[{ph}]", gc.forecast, fit, panel, h, mode="rolling_one_step")
            actual = panel.values[:, -h:]
            res = {"best_cell": best_cell, "panel": panel, "train": train, "fit": fit,
                   "preds": preds,
                   "mase": ops(f"mase[{ph}]", dg.mase, actual, preds, panel.values,
                               labels=panel.labels)}
            ar = ops(f"ar[{ph}]", sel.fit_ar_baseline, train, 3)
            ar_preds = np.full((panel.n_nodes, h), np.nan)
            for i, lbl in enumerate(panel.labels):
                if ar[lbl].status == "ok":
                    ar_preds[i] = ops(f"ar_forecast[{ph}]", sel.ar_rolling_forecast,
                                      ar[lbl], panel.values[i], h)
            res["ar"] = ar
            res["ar_mase"] = ops(f"ar_mase[{ph}]", dg.mase, actual, ar_preds, panel.values,
                                 labels=panel.labels)
            for kind, rank in (("plain", False), ("rank", True)):
                res["moran_" + kind] = ops(f"moran[{ph}/{kind}]", dg.moran_permutation_test,
                                           panel, g, R=self.MORAN_R, seed=self.seed,
                                           rank_based=rank)
            out["phases"][ph].update(res)

        # simulation study: T = 1000 from the paper's model, OLS and EGLS
        # refits, residual tests.  EGLS runs only here, where the full
        # covariance is estimable (see README: no diagonal fallback exists).
        spec = gc.GnarSpec(PAPER_ORDER, True, schemes["uniform"])
        sim = ops("simulate", gc.simulate, spec, PAPER_ALPHA, PAPER_BETA, nets["queen"],
                  T=1000, sigma=math.sqrt(0.001), init_mean=10.0, seed=self.seed)
        ols = ops("sim_fit[ols]", gc.fit, sim, nets["queen"], spec, method="ols")
        egls = ops("sim_fit[egls]", gc.fit, sim, nets["queen"], spec, method="egls")
        resid = {lbl: ols.residuals[i] for i, lbl in enumerate(sim.labels)}
        out["sim"] = {"panel": sim, "ols": ols, "egls": egls,
                      "ks": ops("ks", dg.ks_normality, resid),
                      "lb": ops("ljungbox", dg.ljung_box_panel, resid)}
        return out

    def check(self, out, ops):
        nets, dist = out["nets"], out["dist"]
        ops.check(min(np.bincount(np.ravel(list(nets["dnn"].edges)), minlength=26)) > 0,
                  "build[dnn]", "distance graph has an isolated county")
        for cell, rep in out["cells"].items():
            ok = rep.ranked()
            bics = [c.bic for c in ok]
            ops.check(bics == sorted(bics), f"select[{cell}]", "ranking not ascending in BIC")
            ph = cell.split("/")[0]
            values = out["phases"][ph]["panel"].values
            g = nets[cell.split("/")[1]]
            check_fit(ops, f"select[{cell}]", rep.best.fit, values, g, dist, self.pops)
        for ph, res in out["phases"].items():
            w = check_fit(ops, f"fit[{ph}]", res["fit"], res["train"].values,
                          nets[res["best_cell"].split("/")[1]], dist, self.pops)
            check_rolling(ops, f"forecast[{ph}]", res["preds"], res["fit"],
                          res["panel"].values, w)
            for kind in ("plain", "rank"):
                check_moran(ops, f"moran[{ph}/{kind}]", res["moran_" + kind])
            ops.check(math.isfinite(res["mase"].overall_mean), f"mase[{ph}]",
                      "overall MASE is not finite")
        sim = out["sim"]
        truth = np.concatenate([PAPER_ALPHA] + PAPER_BETA)
        check_fit(ops, "sim_fit[ols]", sim["ols"], sim["panel"].values, nets["queen"])
        for method in ("ols", "egls"):
            f = sim[method]
            ops.check(bool(np.all(np.abs(f.gamma - truth) <= 10.0 * f.gamma_se)),
                      f"sim_fit[{method}]", "estimate more than 10 standard errors from truth")
        for name in ("ks", "lb"):
            ps = [r.p_value for r in sim[name].values()]
            ops.check(all(0.0 <= v <= 1.0 for v in ps), "ks" if name == "ks" else "ljungbox",
                      "p-value missing or outside [0, 1]")

    def digest(self, out):
        phases = out["phases"]
        reference = {
            "fixed": {"edges": {k: edge_digest(g) for k, g in out["nets"].items()}},
            "seeded": {
                "cells": {c: {"best": r.best.order.name(),
                              "ranking": [x.order.name() for x in r.ranked()],
                              "skips": {s: sum(1 for x in r.candidates if x.status == s)
                                        for s in ("inadmissible", "singular", "insufficient")}}
                          for c, r in out["cells"].items()},
                "moran": {f"{ph}/{k}": moran_flags(res["moran_" + k])
                          for ph, res in phases.items() for k in ("plain", "rank")},
                "ar_orders": {ph: [r.order for r in res["ar"].values()]
                              for ph, res in phases.items()},
            },
        }
        identity = {
            "gamma": {c: sha(r.best.fit.gamma) for c, r in out["cells"].items()},
            "phases": {ph: [sha(res["preds"]), repr(res["mase"].overall_mean),
                            repr(res["ar_mase"].overall_mean), res["boxcox"].lambda_hat,
                            sha(res["moran_plain"].observed)]
                       for ph, res in phases.items()},
            "summaries": {k: repr(s) for k, s in out["summaries"].items()},
            "sim": [sha(out["sim"]["panel"].values), sha(out["sim"]["ols"].gamma),
                    sha(out["sim"]["egls"].gamma)],
        }
        return reference, identity


# ---------------------------------------------------------------------------
# spatial-scale
# ---------------------------------------------------------------------------

class SpatialScale:
    """A seeded synthetic point cloud; geometry and per-node loops grow with n."""

    N = 300
    K = 5
    D_MAX_KM = 25.0
    T_SIM = 200
    HOLDOUT = 5
    MORAN_DATES = 50
    MORAN_R = 20
    ORDER = gc.GnarOrder(p=2, s=(2, 1))
    ALPHA = np.array([0.3, 0.1])
    BETA = [np.array([0.2, 0.1]), np.array([0.1])]

    def __init__(self, seed: int, work: Path):
        import scipy.linalg  # noqa: F401
        import scipy.spatial  # noqa: F401
        import scipy.stats  # noqa: F401

        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        lat = rng.uniform(51.6, 55.2, self.N)
        lon = rng.uniform(-10.3, -6.1, self.N)
        pops = np.round(rng.lognormal(10.0, 1.0, self.N))
        self.points = [gg.GeoPoint(f"p{i:04d}", float(a), float(o), float(q))
                       for i, (a, o, q) in enumerate(zip(lat, lon, pops))]
        self.labels = [p.node_id for p in self.points]
        self.pops = pops
        self.hubs = [self.labels[i] for i in np.argsort(-pops, kind="stable")[:5]]

    def run_pass(self, ops):
        pts = self.points
        out = {"dist": ops("distance", gg.distance_matrix, pts)}
        nets = {
            "knn": ops("build[knn]", gg.build_knn, pts, self.K),
            "dnn": ops("build[dnn]", gg.build_dnn, pts, self.D_MAX_KM),
            "delaunay": ops("build[delaunay]", gg.build_delaunay, pts),
            "gabriel": ops("build[gabriel]", gg.derive_gabriel, pts),
            "soi": ops("build[soi]", gg.derive_soi, pts),
            "relative": ops("build[relative]", gg.derive_relative, pts),
        }
        nets["hub"] = ops("build[hub]", gg.build_economic_hub, nets["knn"], pts, self.hubs)
        nets["complete"] = ops("build[complete]", gg.build_complete, self.labels)
        out["nets"] = nets
        out["summaries"] = {k: ops(f"summary[{k}]", gg.network_summary, nets[k],
                                   brg_samples=3, seed=7)
                            for k in ("delaunay", "gabriel", "knn")}
        tri = nets["delaunay"]
        stages = ops("stages", gg.stage_neighbourhoods, tri, 2)
        schemes = {"spl": gc.WeightScheme("spl"), "uniform": gc.WeightScheme("uniform"),
                   "idw": gc.WeightScheme("idw", dist_km=out["dist"]),
                   "pb": gc.WeightScheme("pb", dist_km=out["dist"], populations=self.pops)}
        out["weights"] = {k: ops(f"weights[{k}]", gc.compute_weights, tri, stages, s)
                          for k, s in schemes.items()}
        spec = gc.GnarSpec(self.ORDER, True, schemes["uniform"])
        sim = ops("simulate", gc.simulate, spec, self.ALPHA, self.BETA, tri,
                  T=self.T_SIM, sigma=1.0, seed=self.seed)
        h = self.HOLDOUT
        train = pn.TimeSeriesPanel(sim.labels, sim.dates[:-h], sim.values[:, :-h])
        fit = ops("fit", gc.fit, train, tri, spec)
        out.update(sim=sim, train=train, fit=fit,
                   recursive=ops("forecast[recursive]", gc.forecast, fit, train, h,
                                 mode="recursive"),
                   rolling=ops("forecast[rolling]", gc.forecast, fit, sim, h,
                               mode="rolling_one_step"))
        m = self.MORAN_DATES
        tail = pn.TimeSeriesPanel(sim.labels, sim.dates[-m:], sim.values[:, -m:])
        out["moran"] = ops("moran", dg.moran_permutation_test, tail, tri,
                           R=self.MORAN_R, seed=self.seed)
        return out

    def check(self, out, ops):
        lat = [p.lat_deg for p in self.points]
        lon = [p.lon_deg for p in self.points]
        dist = out["dist"]
        ops.check(close(dist, oracle.great_circle_matrix(lat, lon), 1e-9), "distance",
                  "distance matrix differs from the vectorised great-circle formula")
        xy = oracle.project(lat, lon)
        tri = oracle.delaunay_edges(xy)
        expect = {
            "knn": oracle.knn_edges(dist, self.labels, self.K),
            "dnn": oracle.dnn_edges(dist, self.D_MAX_KM),
            "delaunay": tri,
            "gabriel": oracle.gabriel_edges(xy, tri),
            "soi": oracle.soi_edges(xy, tri),
            "relative": oracle.relative_edges(xy, tri),
        }
        expect["hub"] = oracle.hub_edges(expect["knn"], dist, self.labels, self.hubs)
        for k, e in expect.items():
            ops.check(set(out["nets"][k].edges) == e, f"build[{k}]",
                      "edge set differs from the brute-force construction")
        n = self.N
        ops.check(out["nets"]["complete"].n_edges == n * (n - 1) // 2, "build[complete]",
                  "complete graph edge count")
        for k, s in out["summaries"].items():
            ops.check(math.isclose(s.avg_degree, 2.0 * out["nets"][k].n_edges / n),
                      f"summary[{k}]", "average degree is not 2m/n")
        hops = oracle.hop_distances(n, out["nets"]["delaunay"].edges)
        for k, ws in out["weights"].items():
            for r in (1, 2):
                ref = oracle.stage_weights(hops, r, k, dist, self.pops)
                ops.check(close(ws.matrix(r, n), ref, 1e-12), f"weights[{k}]",
                          f"stage-{r} weights differ from the hop-distance weights")
        w = check_fit(ops, "fit", out["fit"], out["train"].values, out["nets"]["delaunay"])
        check_rolling(ops, "forecast[rolling]", out["rolling"], out["fit"],
                      out["sim"].values, w)
        ext = np.concatenate([out["train"].values, np.zeros((n, self.HOLDOUT))], axis=1)
        T0 = out["train"].n_times
        alpha_np = np.tile(out["fit"].alpha, (n, 1))
        for k in range(self.HOLDOUT):
            ext[:, T0 + k] = oracle.one_step(ext, T0 + k, alpha_np, out["fit"].beta, w)
        ops.check(close(out["recursive"], ext[:, T0:]), "forecast[recursive]",
                  "recursive forecast differs from the model recursion")
        check_moran(ops, "moran", out["moran"])

    def digest(self, out):
        reference = {"fixed": {}, "seeded": {
            "edges": {k: edge_digest(g) for k, g in out["nets"].items()},
            "moran": moran_flags(out["moran"]),
            "fit": [out["fit"].n_obs, out["fit"].M],
        }}
        identity = {
            "dist": sha(out["dist"]),
            "summaries": {k: repr(s) for k, s in out["summaries"].items()},
            "sim": sha(out["sim"].values),
            "gamma": sha(out["fit"].gamma),
            "forecasts": [sha(out["recursive"]), sha(out["rolling"])],
            "moran": sha(out["moran"].observed),
        }
        return reference, identity


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

def _read_wide(path) -> np.ndarray:
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return np.array([[math.nan if c == "" else float(c) for c in r[1:]] for r in rows[1:]]).T


class CliRoundtrip:
    """The README round trip plus the data commands, one fresh `gnar` process each."""

    WEEKS = 30
    SIM_T = 100
    MORAN_R = 20

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ds.irish_county_towns_path(), inputs / "towns.csv")
        shutil.copyfile(ds.irish_queen_edges_path(), inputs / "queen_edges.csv")
        towns = ds.irish_county_towns()
        labels = [p.node_id for p in towns]
        queen = gg.build_from_edgelist(labels, gg.read_edgelist_csv(inputs / "queen_edges.csv"))
        pops = np.array([p.population for p in towns])
        rng = np.random.default_rng([seed, 3])
        diffs = gnar_panel(rng, queen, PAPER_ALPHA, PAPER_BETA, self.WEEKS, 1.0)
        self.incidence = write_long_csv(inputs / "long.csv", labels,
                                        200.0 + pops / 2000.0, diffs)
        with open(inputs / "phases.json", "w") as fh:
            json.dump({"name": "cli", "intervals": [[week(2).isoformat(), week(12).isoformat()],
                                                    [week(16).isoformat(), week(28).isoformat()]]},
                      fh)
        self.commands = self._commands()
        self.passes = 0

    def _commands(self):
        i = "../inputs/"
        return [
            ("network build edgelist", f"network build --kind edgelist --edges {i}queen_edges.csv"
             f" --points {i}towns.csv --out queen.json", ["queen.json"]),
            ("network build knn", f"network build --kind knn --k 11 --points {i}towns.csv"
             " --out knn11.json", ["knn11.json"]),
            ("network summarize", "network summarize --graph queen.json --brg-samples 100"
             " --seed 7 --out summary.csv", ["summary.csv"]),
            ("simulate", "simulate --graph queen.json --p 2 --s 1,0 --alpha 0.4,-0.3"
             f" --beta 0.35; --T {self.SIM_T} --sigma 0.25 --seed {self.seed} --out-dir sim/",
             ["sim/panel.csv", "sim/params.json"]),
            ("select", "select --panel sim/panel.csv --graph queen.json --scheme spl"
             " --pmax 3 --smax 2 --out report", ["report.csv", "report.json"]),
            ("fit", "fit --panel sim/panel.csv --graph queen.json --p 2 --s 1,0"
             " --residuals-out resid.csv --out fit.json", ["fit.json", "resid.csv"]),
            ("forecast", "forecast --panel sim/panel.csv --graph queen.json --p 2 --s 1,0"
             " --holdout 5 --mode rolling --out-dir fc/",
             ["fc/forecast.csv", "fc/mase.csv", "fc/mase_summary.json"]),
            ("diagnose moran", "diagnose moran --panel sim/panel.csv --graph queen.json"
             f" --R {self.MORAN_R} --seed 3 --out moran", ["moran.csv", "moran.json"]),
            ("diagnose ks", "diagnose ks --panel resid.csv --out ks.json", ["ks.json"]),
            ("diagnose ljungbox", "diagnose ljungbox --panel resid.csv --out lb.json",
             ["lb.json"]),
            ("baseline ar", "baseline ar --panel sim/panel.csv --pmax 3 --holdout 5"
             " --out-dir ar/", ["ar/ar.json", "ar/ar_forecast.csv", "ar/ar_mase.json"]),
            ("data ingest", f"data ingest --csv {i}long.csv --out daily.csv", ["daily.csv"]),
            ("data weekly", "data weekly --panel daily.csv --out weekly.csv", ["weekly.csv"]),
            ("data smooth", f"data smooth --panel weekly.csv --window 3 --start {week(3)}"
             f" --end {week(12)} --out smooth.csv", ["smooth.csv"]),
            ("data diff", "data diff --panel smooth.csv --out diff.csv", ["diff.csv"]),
            ("data phases", f"data phases --panel diff.csv --spec {i}phases.json"
             " --out phase.csv", ["phase.csv"]),
            ("data boxcox", "data boxcox --panel phase.csv --out boxcox.csv", ["boxcox.csv"]),
        ]

    def run_pass(self, ops, tracer=None):
        pdir = self.work / f"pass{self.passes}"
        self.passes += 1
        pdir.mkdir()
        env = dict(os.environ)
        stats = {"warnings": 0, "rusage_peak_kb": 0}
        span_file = self.work / "child_spans.json"
        for name, args, _ in self.commands:
            argv = args.split(" ")
            if tracer is None:
                cmd = [sys.executable, "-m", "gnarlib.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file), *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=pdir, env=env, capture_output=True, text=True)
            t1 = time.perf_counter()
            err = proc.stderr.strip().splitlines()
            ops.record(name, proc.returncode == 0,
                       f"exit {proc.returncode}: {err[-1] if err else ''}")
            stats["warnings"] += sum(1 for line in err if line.startswith("warning"))
            if tracer is not None:
                _merge_child_spans(tracer, name, t0, t1, span_file)
        files = sorted(p for p in pdir.rglob("*") if p.is_file())
        stats["files"] = {str(p.relative_to(pdir)): hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in files}
        stats["bytes_written"] = sum(p.stat().st_size for p in files)
        stats["dir"] = pdir
        return stats

    def check(self, out, ops):
        pdir = out["dir"]
        for name, _, outs in self.commands:
            for f in outs:
                ops.check(f in out["files"], name, f"{f} was not written")
        if not all(f in out["files"] for f in ("queen.json", "fit.json", "sim/panel.csv")):
            return
        g = gg.Graph.from_json(json.loads((pdir / "queen.json").read_text()))
        fit_obj = json.loads((pdir / "fit.json").read_text())
        values = _read_wide(pdir / "sim/panel.csv")
        w = _weights_by_stage(g, "spl", 1)
        design, y = oracle.gnar_design(values, 2, (1, 0), True, w)
        ops.check(design.shape[0] == fit_obj["n_obs"], "fit", "n_obs differs from the design")
        if design.shape[0] == fit_obj["n_obs"]:
            ops.check(close(fit_obj["gamma"], oracle.normal_equations_solve(design, y)),
                      "fit", "gamma differs from the normal-equations solve")
        report = json.loads((pdir / "report.json").read_text())
        bics = [c["bic"] for c in report["candidates"] if c["status"] == "ok"]
        ops.check(bics == sorted(bics) and report["best"]["bic"] == bics[0], "select",
                  "ranking not ascending in BIC")
        moran = json.loads((pdir / "moran.json").read_text())
        yes = (pdir / "moran.csv").read_text().count(",yes\n")
        ops.check(moran["outside"] == yes, "diagnose moran", "outside count differs from rows")
        weekly = _read_wide(pdir / "weekly.csv")
        ops.check(close(weekly, self.incidence, 2e-3 / np.max(self.incidence)), "data weekly",
                  "weekly incidence differs from the generated feed")

    def digest(self, out):
        pdir = out["dir"]
        edges = {}
        for f in ("queen.json", "knn11.json"):
            if f in out["files"]:
                g = gg.Graph.from_json(json.loads((pdir / f).read_text()))
                edges[f] = edge_digest(g)
        return {"fixed": {"edges": edges}, "seeded": {}}, {"files": out["files"]}


def _merge_child_spans(tracer, name, t0, t1, span_file: Path) -> None:
    """Attach a traced CLI child's spans under the command's own span."""
    cmd_id = tracer.add_span(name, "cli.cmd", t0, t1, tracer.current())
    if not span_file.exists():
        return
    data = json.loads(span_file.read_text())
    span_file.unlink()
    ti, te = data["import"]
    tracer.add_span("import gnarlib.cli", "cli.import", ti, te, cmd_id)
    remap = {}
    for sid, sname, layer, start, stop, parent, _ in sorted(data["spans"], key=lambda s: s[3]):
        remap[sid] = tracer.add_span(sname, layer, start, stop,
                                     cmd_id if parent is None else remap[parent])
    tracer.counts.update(data["counts"])


WORKLOADS = {
    "paper-protocol": PaperProtocol,
    "spatial-scale": SpatialScale,
    "cli-roundtrip": CliRoundtrip,
}
