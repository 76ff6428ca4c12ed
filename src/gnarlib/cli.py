"""Batch command-line front end.

Subcommands cover the full pipeline: network construction and summaries,
panel preparation, model fitting, order selection, forecasting with held-out
evaluation, seeded simulation (optionally refitting and tabulating truth
versus estimates), residual diagnostics, and the per-node AR baseline.

Every output file embeds tool version, the command line, and the seed, and
goes through the one CSV writer or the one JSON writer in ``errors``: CSV
with ``#`` metadata lines, minimal quoting and LF line ends, JSON with
sorted keys and ``null`` for an undefined number, each written atomically
(temp + rename) with the mode the umask gives.  Reruns with identical
inputs produce byte-identical outputs.  Option precedence is flags >
config file > built-in defaults; the config is a flat JSON object keyed by
option name (dashes or underscores) and may supply any option of the
invoked subcommand, including ones that are otherwise mandatory.  Each
value is parsed exactly as the same flag would be.

``build_parser`` declares each subcommand once: its parser, its handler and
its mandatory options.  A mandatory option missing from both the flags and
the config ends the command, before it reads or writes anything, in one
``error:`` line naming every missing flag and exit code 1.  ``network
build`` needs --kind, --out and the options ``_KINDS`` lists for the kind.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import errors
from .errors import GnarError, InvalidInputError, UndefinedStatisticError, _read_json
from . import geo_graph as gg
from . import panel as pn
from . import gnar_core as gc
from . import selection as sel
from . import diagnostics as dg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _meta(args: argparse.Namespace) -> dict:
    return {
        "tool": f"gnarlib {__version__}",
        "command": " ".join(args.argv),
        "seed": getattr(args, "seed", 0),
    }


def _meta_lines(args: argparse.Namespace) -> list[str]:
    m = _meta(args)
    return [f"tool={m['tool']}", f"command={m['command']}", f"seed={m['seed']}"]


def _write_json(path: str, obj: dict, args: argparse.Namespace) -> None:
    errors._write_json(path, {**obj, "meta": _meta(args)})


def _write_csv(path: str, header: Sequence[str], rows, args: argparse.Namespace) -> None:
    errors._write_csv(path, header, rows, _meta_lines(args))


def _write_forecast(path: str, panel: pn.TimeSeriesPanel, preds: np.ndarray,
                    args: argparse.Namespace) -> dg.MaseResult:
    """Predictions against the panel's last ``preds.shape[1]`` columns; returns their MASE."""
    h = preds.shape[1]
    result = dg.mase(panel.values[:, -h:], preds, panel.values, labels=panel.labels)
    rows = [[d.isoformat(), lbl, panel.values[i, j - h], preds[i, j]]
            for j, d in enumerate(panel.dates[-h:]) for i, lbl in enumerate(panel.labels)]
    _write_csv(path, ["date", "node", "actual", "predicted"], rows, args)
    return result


def _out_path(args: argparse.Namespace, name: str) -> str:
    out_dir = getattr(args, "out_dir", None) or "."
    return os.path.join(out_dir, name)


def _stationarity(alpha, beta, weights: gc.WeightSet, n: int) -> dict:
    """Stationarity fields for an output file; warns only when the exact
    spectral radius is >= 1 (the margin is a sufficient condition only)."""
    margin = gc.stationarity_margin(alpha, beta)
    radius = gc.spectral_radius(alpha, beta, weights, n)
    if radius >= 1:
        print(f"warning: spectral radius {radius:.3f} >= 1: the model is not "
              f"stationary (stationarity margin {margin:.3f})", file=sys.stderr)
    elif margin <= 0:
        print(f"note: stationarity margin {margin:.3f} <= 0 fails the sufficient "
              f"condition only; spectral radius {radius:.3f} < 1", file=sys.stderr)
    return {"stationarity_margin": margin, "spectral_radius": radius}


# The constant upper bounds of size flags, by dest: each is a hundred times
# its default, a thousand for the Box-Cox grid, and a complete graph of
# 10,000 nodes has 49,995,000 edges (800 MB of int64 index pairs).
_AT_MOST = {"brg_samples": 10_000, "R": 10_000, "grid_steps": 100_000, "n": 10_000}


def _require(args: argparse.Namespace) -> None:
    """Every mandatory option of the invoked subcommand is set (``required``
    names their dests, or is a function of ``args`` that returns them), and
    no size flag exceeds its ``_AT_MOST`` bound."""
    names = args.required(args) if callable(args.required) else args.required
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InvalidInputError(f"missing required option(s): {flags} "
                                "(set on the command line or in --config)")
    for name, bound in _AT_MOST.items():
        value = getattr(args, name, None)
        if value is not None and value > bound:
            raise InvalidInputError(f"--{name.replace('_', '-')} must be <= {bound}, got {value}")


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------

def _points(args: argparse.Namespace) -> list:
    return gg.read_points_csv(args.points)


def _load_scheme(args: argparse.Namespace, g: gg.Graph) -> gc.WeightScheme:
    kind = args.scheme
    if kind in ("spl", "uniform"):
        return gc.WeightScheme(kind)
    if not args.points:
        raise InvalidInputError(f"scheme {kind!r} needs --points for distances")
    points = _points(args)
    by_id = {p.node_id: p for p in points}
    missing = [lbl for lbl in g.labels if lbl not in by_id]
    if missing:
        raise InvalidInputError(f"points file lacks coordinates for {missing}")
    ordered = [by_id[lbl] for lbl in g.labels]
    dist = gg._distances(ordered)    # read-only; the weights only read it
    if kind == "idw":
        return gc.WeightScheme("idw", dist_km=dist)
    pops = [p.population for p in ordered]
    if any(v is None for v in pops):
        raise InvalidInputError("scheme 'pb' needs a population column in --points")
    return gc.WeightScheme("pb", dist_km=dist, populations=np.asarray(pops, dtype=float))


def _arg_type(parse, expected: str):
    """``parse`` as an argparse ``type=``: a bad value is reported as
    "expected <expected>", not by the name of the converter."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _parse_s(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


def _parse_alpha(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",")])


def _parse_beta(text: str) -> list[np.ndarray]:
    return [np.asarray([float(v) for v in grp.split(",") if v.strip() != ""])
            for grp in text.split(";")]


_STAGES = _arg_type(_parse_s, "comma-separated integers")
_ISO_DATE = _arg_type(datetime.date.fromisoformat, "an ISO date")


def _spec_from_args(args: argparse.Namespace, g: gg.Graph) -> gc.GnarSpec:
    order = gc.GnarOrder(p=args.p, s=args.s)
    return gc.GnarSpec(order=order, global_alpha=not getattr(args, "vertex_alpha", False),
                       scheme=_load_scheme(args, g))


def _graph_and_panel(args: argparse.Namespace) -> tuple[gg.Graph, pn.TimeSeriesPanel]:
    """The --graph network and the --panel panel, its rows in the graph's order."""
    g = gg.read_graph_json(args.graph)
    panel = pn.read_wide_csv(args.panel)
    if tuple(panel.labels) == tuple(g.labels):
        return g, panel
    if set(panel.labels) != set(g.labels):
        raise InvalidInputError("panel and graph node sets differ; cannot align them")
    order = [panel.labels.index(lbl) for lbl in g.labels]
    return g, pn.TimeSeriesPanel(labels=g.labels, dates=panel.dates,
                                 values=panel.values[order])


def _training_part(panel: pn.TimeSeriesPanel, h: int) -> pn.TimeSeriesPanel:
    """The panel without its last ``h`` (held-out) columns."""
    if h < 1 or h >= panel.n_times:
        raise InvalidInputError(f"--holdout {h} outside 1..{panel.n_times - 1}")
    return pn.TimeSeriesPanel(labels=panel.labels, dates=panel.dates[:-h],
                              values=panel.values[:, :-h])


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def _build_complete(args: argparse.Namespace) -> gg.Graph:
    if args.points:
        labels = [p.node_id for p in _points(args)]
    elif args.n:
        width = len(str(args.n))
        labels = [f"v{i + 1:0{width}d}" for i in range(args.n)]
    else:
        raise InvalidInputError("complete graph needs --points or --n")
    return gg.build_complete(labels)


def _build_edgelist(args: argparse.Namespace) -> gg.Graph:
    edges = gg.read_edgelist_csv(args.edges)
    if args.points:
        labels = [p.node_id for p in _points(args)]
    else:
        labels = sorted({v for e in edges for v in e})
    return gg.build_from_edgelist(labels, edges)


def _build_hub(args: argparse.Namespace) -> gg.Graph:
    points = _points(args)
    edges = gg.read_edgelist_csv(args.edges)
    base = gg.build_from_edgelist([p.node_id for p in points], edges)
    hubs = [h.strip() for h in args.hubs.split(",") if h.strip()]
    return gg.build_economic_hub(base, points, hubs)


# The ``network build --kind`` choices: the options each kind needs besides
# --kind and --out, and the function that builds its graph from ``args``.
_KINDS = {
    "knn": (("points", "k"), lambda a: gg.build_knn(_points(a), a.k)),
    "dnn": (("points", "d_max"), lambda a: gg.build_dnn(_points(a), a.d_max)),
    "delaunay": (("points",), lambda a: gg.build_delaunay(_points(a))),
    "gabriel": (("points",), lambda a: gg.derive_gabriel(_points(a))),
    "soi": (("points",), lambda a: gg.derive_soi(_points(a))),
    "relative": (("points",), lambda a: gg.derive_relative(_points(a))),
    "edgelist": (("edges",), _build_edgelist),
    "hub": (("points", "edges", "hubs"), _build_hub),
    "complete": ((), _build_complete),
}


def cmd_network_build(args: argparse.Namespace) -> int:
    g = _KINDS[args.kind][1](args)
    _write_json(args.out, g.to_json(), args)
    print(f"wrote {args.out} ({g.n} nodes, {g.n_edges} edges)")
    return 0


def cmd_network_summarize(args: argparse.Namespace) -> int:
    g = gg.read_graph_json(args.graph)
    s = gg.network_summary(g, brg_samples=args.brg_samples, seed=args.seed)
    row = {"n": g.n, "n_edges": g.n_edges, **dataclasses.asdict(s)}
    _write_csv(args.out, list(row), [list(row.values())], args)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def _write_data(args: argparse.Namespace, panel: pn.TimeSeriesPanel) -> int:
    pn.write_wide_csv(panel, args.out, _meta_lines(args))
    print(f"wrote {args.out}")
    return 0


def cmd_data_ingest(args: argparse.Namespace) -> int:
    return _write_data(args, pn.ingest_long_csv(args.csv))


def cmd_data_weekly(args: argparse.Namespace) -> int:
    return _write_data(args, pn.weekly_from_cumulative(pn.read_wide_csv(args.panel),
                                                       tolerance=args.tolerance))


def cmd_data_smooth(args: argparse.Namespace) -> int:
    return _write_data(args, pn.rolling_average(pn.read_wide_csv(args.panel), args.window,
                                                (args.start, args.end)))


def cmd_data_diff(args: argparse.Namespace) -> int:
    return _write_data(args, pn.difference(pn.read_wide_csv(args.panel), args.lag))


def cmd_data_phases(args: argparse.Namespace) -> int:
    spec = pn.read_phase_spec_json(args.spec)
    return _write_data(args, pn.split_phases(pn.read_wide_csv(args.panel), spec))


def cmd_data_boxcox(args: argparse.Namespace) -> int:
    panel = pn.read_wide_csv(args.panel)
    series = panel.row(args.node) if args.node else panel.values.ravel()
    if args.grid_steps < 1:
        raise InvalidInputError(f"--grid-steps must be >= 1, got {args.grid_steps}")
    if not math.isfinite(args.grid_max - args.grid_min):
        raise InvalidInputError("--grid-min..--grid-max must span a finite range, got "
                                f"{args.grid_min}..{args.grid_max}")
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    prof = pn.boxcox_profile(series[~np.isnan(series)], grid)
    summary = f"lambda_hat={prof.lambda_hat:g} shift={prof.shift:g}"
    bad = [lmb for lmb, ll in zip(prof.lambda_grid, prof.loglik) if not math.isfinite(ll)]
    if bad:     # e^(lambda log x) overflows for a huge lambda; the file would hold blanks
        raise UndefinedStatisticError(
            f"the Box-Cox log-likelihood is not finite at lambda={bad[0]:g}; narrow the grid")
    rows = [[lmb, ll] for lmb, ll in zip(prof.lambda_grid, prof.loglik)]
    _write_csv(args.out, ["lambda", "loglik"], rows, args)
    print(summary)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# fit / select / forecast
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    g, panel = _graph_and_panel(args)
    spec = _spec_from_args(args, g)
    fit = gc.fit(panel, g, spec, method=args.method)
    obj = fit.to_json()
    obj.update(_stationarity(fit.alpha, fit.beta, fit.weight_set, panel.n_nodes))
    _write_json(args.out, obj, args)
    if args.residuals_out:
        resid_panel = pn.TimeSeriesPanel(labels=panel.labels, dates=panel.dates,
                                         values=fit.residuals)
        pn.write_wide_csv(resid_panel, args.residuals_out, _meta_lines(args))
        print(f"wrote {args.residuals_out}")
    print(f"wrote {args.out} (bic={fit.bic:.4f}, n_obs={fit.n_obs})")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    g, panel = _graph_and_panel(args)
    scheme = _load_scheme(args, g)
    if args.pmax is not None and args.pmax >= panel.n_times:
        # no lag at or beyond the panel length fits, and the grid grows with it
        raise InvalidInputError(f"--pmax must be below the panel length {panel.n_times}, "
                                f"got {args.pmax}")
    p_max = args.pmax if args.pmax is not None else sel.schwert_max_lag(panel.n_times)
    grid = sel.order_grid(p_max, args.smax)
    report = sel.select_model(panel, g, scheme, grid, criterion=args.criterion,
                              global_alpha=not args.vertex_alpha)
    header = ["rank", "model", "scheme", "global_alpha", "status",
              "bic", "aic", "loglik", "M", "n_obs", "reason"]
    rows = [[rank, c.order.name(), c.scheme_kind, c.global_alpha, c.status,
             c.bic, c.aic, c.loglik, c.M, c.n_obs, ""]
            for rank, c in enumerate(report.ranked(), start=1)]
    rows += [["", c.order.name(), c.scheme_kind, c.global_alpha, c.status,
              "", "", "", "", "", c.reason]
             for c in report.candidates if c.status != "ok"]
    _write_csv(args.out + ".csv", header, rows, args)
    _write_json(args.out + ".json", report.to_json(), args)
    print(f"{'rank':>4}  {'model':<22} {'bic':>12} {'aic':>12} {'M':>3} {'n_obs':>6}")
    for rank, c in enumerate(report.ranked()[:10], start=1):
        print(f"{rank:>4}  {c.order.name():<22} {c.bic:>12.4f} {c.aic:>12.4f} "
              f"{c.M:>3} {c.n_obs:>6}")
    print(f"wrote {args.out}.csv and {args.out}.json")
    return 0


def _mase_means(result: dg.MaseResult) -> dict:
    """The per-node and overall mean scaled errors of a MASE summary file."""
    return {"per_node_mean": dict(zip(result.labels, map(float, result.per_node_mean))),
            "overall_mean": result.overall_mean}


def cmd_forecast(args: argparse.Namespace) -> int:
    g, panel = _graph_and_panel(args)
    spec = _spec_from_args(args, g)
    h = args.holdout
    train = _training_part(panel, h)
    fit = gc.fit(train, g, spec, method="ols")
    if args.mode == "rolling":
        preds = gc.forecast(fit, panel, h, mode="rolling_one_step")
    else:
        preds = gc.forecast(fit, train, h, mode="recursive")
    result = _write_forecast(_out_path(args, "forecast.csv"), panel, preds, args)
    rows = [[lbl, d.isoformat(), result.entries[i, j]]
            for i, lbl in enumerate(panel.labels) for j, d in enumerate(panel.dates[-h:])]
    _write_csv(_out_path(args, "mase.csv"),
               ["node", "date", "scaled_error"], rows, args)
    _write_json(_out_path(args, "mase_summary.json"), {
        **_mase_means(result),
        "undefined_nodes": list(result.undefined_nodes),
        "mode": args.mode,
        "holdout": h,
    }, args)
    print(f"wrote forecast.csv, mase.csv, mase_summary.json "
          f"(overall MASE {result.overall_mean:.4f})")
    return 0


# ---------------------------------------------------------------------------
# simulate / diagnose / baseline
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    g = gg.read_graph_json(args.graph)
    cells = (args.T + args.burn_in) * g.n
    if cells > 10**8:  # 800 MB of float64
        raise InvalidInputError(f"(--T + --burn-in) x {g.n} nodes must be <= 10^8 cells, "
                                f"got {cells}")
    spec = _spec_from_args(args, g)
    order, alpha, beta = spec.order, args.alpha, args.beta
    if args.sigma2 is not None and args.sigma2 < 0:
        raise InvalidInputError(f"sigma2 must be >= 0, got {args.sigma2}")
    sigma = math.sqrt(args.sigma2) if args.sigma2 is not None else args.sigma
    if sigma is None:
        raise InvalidInputError("provide --sigma2 or --sigma")
    sigma += 0.0    # -0.0 + 0.0 is 0.0: params.json records the 0 the run used
    panel = gc.simulate(spec, alpha, beta, g, T=args.T, sigma=sigma,
                        init_mean=args.init_mean, burn_in=args.burn_in,
                        seed=args.seed)
    fit = gc.fit(panel, g, spec, method="ols") if args.refit else None   # before any write
    weights = fit.weight_set if fit else gc._weight_stack(g, order.max_stage, spec.scheme)
    stationarity = _stationarity(alpha, beta, weights, g.n)
    pn.write_wide_csv(panel, _out_path(args, "panel.csv"), _meta_lines(args))
    sidecar = {
        "order": {"p": order.p, "s": list(order.s)},
        "alpha": alpha.tolist(),
        "beta": [b.tolist() for b in beta],
        "sigma": sigma,
        "init_mean": args.init_mean,
        "burn_in": args.burn_in,
        "T": args.T,
        "scheme": spec.scheme.kind,
        "labels": list(g.labels),
        **stationarity,
    }
    _write_json(_out_path(args, "params.json"), sidecar, args)
    written = ["panel.csv", "params.json"]

    if fit is not None:
        truth = dict(zip(fit.column_names, np.concatenate([alpha, *beta])))
        est = dict(zip(fit.column_names, zip(fit.gamma, fit.gamma_se)))
        rows = []
        for j in range(1, order.p + 1):   # lag by lag: alpha_j, then its betas
            for nm in [f"alpha{j}"] + [f"beta{j}.{r}" for r in range(1, order.s[j - 1] + 1)]:
                tv, (ev, se) = float(truth[nm]), est[nm]
                lo, hi = ev - 1.96 * se, ev + 1.96 * se
                rows.append([nm, tv, float(ev), lo, hi, "yes" if lo <= tv <= hi else "no"])
        _write_csv(_out_path(args, "refit_table.csv"),
                   ["coefficient", "true", "estimate", "ci_lower", "ci_upper",
                    "covered"],
                   rows, args)
        written.append("refit_table.csv")
        covered = sum(1 for r in rows if r[5] == "yes")
        print(f"refit: {covered}/{len(rows)} true values inside the 95% CI")
    print(f"wrote {', '.join(written)}")
    return 0


def cmd_diagnose_moran(args: argparse.Namespace) -> int:
    g, panel = _graph_and_panel(args)
    res = dg.moran_permutation_test(panel, g, R=args.R, seed=args.seed,
                                    rank_based=args.rank)
    rows = []
    for t, d in enumerate(res.dates):
        if not res.tested[t]:
            continue
        rows.append([d.isoformat(), res.observed[t], res.lower[t],
                     res.median[t], res.upper[t],
                     "yes" if res.outside[t] else "no"])
    _write_csv(args.out + ".csv",
               ["date", "I", "lower", "median", "upper", "outside"],
               rows, args)
    _write_json(args.out + ".json", {
        "n_m": res.n_m,
        "tested_dates": int(res.tested.sum()),
        "outside": int(res.outside.sum()),
        "R": res.R,
        "rank_based": res.rank_based,
        "skipped": list(res.skipped_reasons),
    }, args)
    print(f"N_m = {res.n_m:.4f} over {int(res.tested.sum())} dates; "
          f"wrote {args.out}.csv/.json")
    return 0


def _write_tests(args: argparse.Namespace, results: dict) -> None:
    _write_json(args.out, {"tests": {
        lbl: {"statistic": r.statistic, "p_value": r.p_value,
              "parameters": r.parameters}
        for lbl, r in results.items()}}, args)


def cmd_diagnose_ks(args: argparse.Namespace) -> int:
    results = dg.ks_normality(pn.read_wide_csv(args.panel))
    _write_tests(args, results)
    n_rej = sum(1 for r in results.values()
                if not math.isnan(r.p_value) and r.p_value <= 0.025)
    print(f"{n_rej}/{len(results)} nodes rejected at p <= 0.025; wrote {args.out}")
    return 0


def cmd_diagnose_ljungbox(args: argparse.Namespace) -> int:
    _write_tests(args, dg.ljung_box_panel(pn.read_wide_csv(args.panel), max_lag=args.max_lag))
    print(f"wrote {args.out}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    panel = pn.read_wide_csv(args.panel)
    h = args.holdout
    train = _training_part(panel, h) if h else panel
    results = sel.fit_ar_baseline(train, args.pmax)
    _write_json(_out_path(args, "ar.json"),
                {"nodes": {lbl: r.to_json() for lbl, r in results.items()}},
                args)
    written = ["ar.json"]
    if h:
        preds = np.full((panel.n_nodes, h), np.nan)
        for i, lbl in enumerate(panel.labels):
            r = results[lbl]
            if r.status == "ok":
                preds[i] = sel.ar_rolling_forecast(r, panel.values[i], h)
        res = _write_forecast(_out_path(args, "ar_forecast.csv"), panel, preds, args)
        _write_json(_out_path(args, "ar_mase.json"), _mase_means(res), args)
        written += ["ar_forecast.csv", "ar_mase.json"]
    print(f"wrote {', '.join(written)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # options of several subcommands, each declared once in a parent parser
    common, panel, out, graph, points, out_dir, order, model = (
        argparse.ArgumentParser(add_help=False) for _ in range(8))
    common.add_argument("--config", help="JSON file with default option values")
    common.add_argument("--seed", type=int, default=0)
    panel.add_argument("--panel", help="wide panel CSV")
    out.add_argument("--out")
    graph.add_argument("--graph")
    points.add_argument("--points", help="CSV node,lat,lon[,population]")
    out_dir.add_argument("--out-dir", default=".")
    order.add_argument("--p", type=int)
    order.add_argument("--s", type=_STAGES, help="comma-separated stages, e.g. 2,1,0")
    model.add_argument("--scheme", default="spl", choices=errors.WEIGHT_KINDS,
                       help="idw and pb need --points")
    model.add_argument("--vertex-alpha", action="store_true",
                       help="node-specific own-lag coefficients")

    parser = argparse.ArgumentParser(
        prog="gnar",
        description="Network autoregressive modeling: build spatial networks, "
                    "prepare panels, fit and select models, forecast, simulate, "
                    "and run diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, dest, help):
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    def leaf(within, name, help, func, required, *parents):
        """A subcommand's parser, its handler and the dests of its mandatory
        options (or a function of the parsed args that returns them); the
        parser is recorded too, for reading a --config against it."""
        p = within.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func, required=required, parser=p)
        return p

    net = group("network", "net_cmd", "build or summarize networks")
    nb = leaf(net, "build", "construct a network and write JSON", cmd_network_build,
              lambda a: ("kind", "out", *(_KINDS[a.kind][0] if a.kind else ())), points, out)
    nb.add_argument("--kind", choices=_KINDS)
    nb.add_argument("--edges", help="CSV from,to (edgelist/hub kinds)")
    nb.add_argument("--hubs", help="comma-separated hub labels (hub kind)")
    nb.add_argument("--k", type=int, help="neighbour count (knn)")
    nb.add_argument("--d-max", type=float, help="distance threshold km (dnn)")
    nb.add_argument("--n", type=int, help="node count (complete without points)")
    leaf(net, "summarize", "structural summary with G(n,m) baseline", cmd_network_summarize,
         ("graph", "out"), graph, out).add_argument("--brg-samples", type=int, default=100)

    data = group("data", "data_cmd", "panel preparation")
    leaf(data, "ingest", "pivot long CSV to a wide panel", cmd_data_ingest,
         ("csv", "out"), out).add_argument("--csv")
    leaf(data, "weekly", "weekly incidence from daily cumulative", cmd_data_weekly,
         ("panel", "out"), panel, out).add_argument("--tolerance", type=float, default=0.0)
    dsm = leaf(data, "smooth", "centered moving average in an interval", cmd_data_smooth,
               ("panel", "window", "start", "end", "out"), panel, out)
    dsm.add_argument("--window", type=int)
    dsm.add_argument("--start", type=_ISO_DATE, help="ISO date")
    dsm.add_argument("--end", type=_ISO_DATE, help="ISO date")
    leaf(data, "diff", "lag differencing", cmd_data_diff,
         ("panel", "out"), panel, out).add_argument("--lag", type=int, default=1)
    leaf(data, "phases", "restrict to a phase spec", cmd_data_phases,
         ("panel", "spec", "out"), panel, out).add_argument("--spec", help="phase spec JSON")
    db = leaf(data, "boxcox", "Box-Cox profile likelihood", cmd_data_boxcox,
              ("panel", "out"), panel, out)
    db.add_argument("--node", help="profile one node instead of the pooled panel")
    db.add_argument("--grid-min", type=float, default=-2.0)
    db.add_argument("--grid-max", type=float, default=3.0)
    db.add_argument("--grid-steps", type=int, default=101)

    fit_p = leaf(sub, "fit", "fit one model", cmd_fit,
                 ("panel", "graph", "p", "s", "out"), panel, graph, model, points, order, out)
    fit_p.add_argument("--method", default="ols", choices=["ols", "egls"])
    fit_p.add_argument("--residuals-out", help="also write the residual panel")
    sel_p = leaf(sub, "select", "BIC/AIC grid search; writes <out>.csv and <out>.json",
                 cmd_select, ("panel", "graph", "out"), panel, graph, model, points, out)
    sel_p.add_argument("--pmax", type=int,
                       help="lag cap; defaults to Schwert's rule on the panel length")
    sel_p.add_argument("--smax", type=int, default=5)
    sel_p.add_argument("--criterion", default="bic", choices=["bic", "aic"])
    fc = leaf(sub, "forecast", "hold out weeks, fit, predict, score", cmd_forecast,
              ("panel", "graph", "p", "s"), panel, graph, model, points, order, out_dir)
    fc.add_argument("--holdout", type=int, default=5)
    fc.add_argument("--mode", default="rolling", choices=["rolling", "recursive"])

    sim = leaf(sub, "simulate", "simulate a panel from the model", cmd_simulate,
               ("graph", "p", "s", "alpha", "beta", "T"), graph, order, points, out_dir)
    sim.add_argument("--alpha", type=_arg_type(_parse_alpha, "comma-separated numbers"),
                     help="comma-separated, one per lag")
    sim.add_argument("--beta", type=_arg_type(_parse_beta, "';'-separated groups of numbers"),
                     help="semicolon-separated lag groups of comma-separated "
                          "stage values, e.g. '0.14,0.41;-0.07;0.03;0.14;0.01'")
    sim.add_argument("--T", type=int)
    sim.add_argument("--sigma", type=float, help="innovation standard deviation")
    sim.add_argument("--sigma2", type=float, help="innovation variance")
    sim.add_argument("--init-mean", type=float, default=0.0)
    sim.add_argument("--burn-in", type=int, default=0)
    sim.add_argument("--scheme", default="uniform", choices=errors.WEIGHT_KINDS)
    sim.add_argument("--refit", action="store_true",
                     help="refit the generating model and write a truth/estimate "
                          "table with 95%% CIs")

    diag = group("diagnose", "diag_cmd", "residual and dependence diagnostics")
    dm = leaf(diag, "moran", "permutation test of spatial correlation; writes <out>.csv "
              "and <out>.json", cmd_diagnose_moran, ("panel", "graph", "out"), panel, graph, out)
    dm.add_argument("--R", type=int, default=100)
    dm.add_argument("--rank", action="store_true", help="use rank-based values")
    leaf(diag, "ks", "per-node normality of residuals", cmd_diagnose_ks,
         ("panel", "out"), panel, out)
    leaf(diag, "ljungbox", "per-node whiteness of residuals", cmd_diagnose_ljungbox,
         ("panel", "out"), panel, out).add_argument("--max-lag", type=int)

    ba = leaf(group("baseline", "base_cmd", "per-node AR reference model"), "ar",
              "fit AR(p) per node with BIC order choice", cmd_baseline,
              ("panel", "pmax"), panel, out_dir)
    ba.add_argument("--pmax", type=int)
    ba.add_argument("--holdout", type=int, default=0)
    return parser


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The entries of a ``--config`` JSON object as ``--option=value`` tokens
    of ``parser``: a list joins with ``,``, a list of lists with ``;``, and a
    switch takes only ``true`` or ``false``."""
    options = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    tokens = []
    for key, value in _read_json(path, _flat_object, "a flat JSON object").items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise InvalidInputError(f"config key {key!r} is not an option of this subcommand")
        if action.nargs != 0:
            tokens.append(f"{action.option_strings[-1]}={_config_text(key, value)}")
        elif isinstance(value, bool):
            tokens += [action.option_strings[-1]] if value else []
        else:
            raise InvalidInputError(f"config key {key!r} is a switch: use true or false")
    return tokens


def _config_text(key: str, value) -> str:
    if isinstance(value, list):
        sep = ";" if any(isinstance(v, list) for v in value) else ","
        return sep.join(_config_text(key, v) for v in value)
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InvalidInputError(f"config key {key!r}: {json.dumps(value)} is not a "
                                "string, a number or a list")
    return str(value)


def _flat_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise TypeError(f"got a JSON {type(obj).__name__}")
    return obj


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config entries go right after the subcommand names, so that any
            # spelling of a flag on the command line comes later and wins
            k = next(i for i, token in enumerate(argv) if token.startswith("-"))
            args = parser.parse_args(argv[:k] + _config_flags(args.config, args.parser) + argv[k:])
        args.argv = ["gnar", *argv]
        _require(args)
        return args.func(args)
    except (GnarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
