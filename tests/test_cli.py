"""End-to-end command-line checks: files, determinism, exit codes."""

import csv
import datetime
import io
import itertools
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gnarlib.cli import main
from gnarlib.datasets import irish_county_towns_path, irish_queen_edges_path
from gnarlib.panel import read_wide_csv, write_wide_csv


def run(argv):
    return main(argv)


@pytest.fixture()
def towns():
    return irish_county_towns_path()


@pytest.fixture()
def queen_json(tmp_path, towns):
    out = tmp_path / "queen.json"
    assert run(["network", "build", "--kind", "edgelist",
                "--edges", irish_queen_edges_path(),
                "--points", towns, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture()
def sim_panel(tmp_path, queen_json):
    """Small simulated panel on the shipped contiguity graph."""
    out_dir = tmp_path / "sim"
    assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
                "--alpha", "0.3", "--beta", "0.4", "--T", "80",
                "--sigma", "0.5", "--seed", "11",
                "--out-dir", str(out_dir)]) == 0
    return str(out_dir / "panel.csv")


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def test_network_build_knn_full_is_complete(tmp_path, towns):
    out = tmp_path / "g.json"
    assert run(["network", "build", "--kind", "knn", "--k", "25",
                "--points", towns, "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["edges"]) == 26 * 25 // 2
    assert obj["meta"]["seed"] == 0


def test_network_build_complete_n3(tmp_path):
    out = tmp_path / "k3.json"
    assert run(["network", "build", "--kind", "complete", "--n", "3",
                "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["edges"]) == 3


def test_network_summarize_byte_identical_reruns(tmp_path, queen_json):
    out = tmp_path / "summary.csv"
    argv = ["network", "summarize", "--graph", queen_json,
            "--brg-samples", "100", "--seed", "7", "--out", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_network_build_bad_input_exit_code(tmp_path, towns):
    out = tmp_path / "g.json"
    assert run(["network", "build", "--kind", "knn", "--k", "99",
                "--points", towns, "--out", str(out)]) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# data pipeline
# ---------------------------------------------------------------------------

def test_data_pipeline_ingest_weekly_diff(tmp_path):
    long_csv = tmp_path / "long.csv"
    rows = ["date,node,value"]
    import datetime

    start = datetime.date(2020, 3, 2)
    cum = {"a": 0.0, "b": 0.0}
    rng = np.random.default_rng(3)
    for day in range(28):
        d = start + datetime.timedelta(days=day)
        for node in ("a", "b"):
            cum[node] += float(rng.integers(0, 5))
            rows.append(f"{d.isoformat()},{node},{cum[node]}")
    long_csv.write_text("\n".join(rows) + "\n")

    wide = tmp_path / "wide.csv"
    weekly = tmp_path / "weekly.csv"
    diffed = tmp_path / "diff.csv"
    assert run(["data", "ingest", "--csv", str(long_csv), "--out", str(wide)]) == 0
    assert run(["data", "weekly", "--panel", str(wide), "--out", str(weekly)]) == 0
    assert run(["data", "diff", "--panel", str(weekly), "--lag", "1",
                "--out", str(diffed)]) == 0
    p = read_wide_csv(str(diffed))
    assert p.labels == ("a", "b")
    assert p.n_times == 3  # 4 weekly points, one lost to differencing


def test_line_break_in_out_path_keeps_metadata_lines_whole(tmp_path, monkeypatch, sim_panel):
    # the '# command=' line echoes the argv; a CR or LF in it is escaped, so
    # the written panel still reads as one
    monkeypatch.chdir(tmp_path)
    assert run(["data", "diff", "--panel", sim_panel, "--out", "d\nx.csv"]) == 0
    text = (tmp_path / "d\nx.csv").read_text()
    assert "# command=gnar data diff --panel " + sim_panel + " --out d\\nx.csv\n" in text
    assert run(["diagnose", "ks", "--panel", "d\nx.csv", "--out", "ks.json"]) == 0
    assert len(json.loads((tmp_path / "ks.json").read_text())["tests"]) == 26


def test_data_phases_and_smooth(tmp_path, sim_panel):
    panel = read_wide_csv(sim_panel)
    spec = {"name": "x", "intervals": [
        [panel.dates[0].isoformat(), panel.dates[9].isoformat()],
        [panel.dates[15].isoformat(), panel.dates[-1].isoformat()],
    ]}
    spec_path = tmp_path / "phases.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "phased.csv"
    assert run(["data", "phases", "--panel", sim_panel, "--spec", str(spec_path),
                "--out", str(out)]) == 0
    q = read_wide_csv(str(out))
    assert np.isnan(q.values[:, 12]).all()

    smoothed = tmp_path / "smooth.csv"
    assert run(["data", "smooth", "--panel", sim_panel, "--window", "4",
                "--start", panel.dates[5].isoformat(),
                "--end", panel.dates[20].isoformat(),
                "--out", str(smoothed)]) == 0


def test_data_boxcox(tmp_path, sim_panel, capsys):
    out = tmp_path / "boxcox.csv"
    assert run(["data", "boxcox", "--panel", sim_panel, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "lambda_hat=" in text


# ---------------------------------------------------------------------------
# fit / select / forecast
# ---------------------------------------------------------------------------

def test_fit_writes_json_and_residuals(tmp_path, queen_json, sim_panel):
    out = tmp_path / "fit.json"
    res = tmp_path / "resid.csv"
    assert run(["fit", "--panel", sim_panel, "--graph", queen_json,
                "--scheme", "spl", "--p", "1", "--s", "1",
                "--residuals-out", str(res), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["M"] == 2
    assert abs(obj["alpha"][0] - 0.3) < 0.15
    assert abs(obj["beta"][0][0] - 0.4) < 0.15
    resid = read_wide_csv(str(res))
    assert resid.n_times == 80


def test_fit_egls_and_vertex_alpha_variants(tmp_path, queen_json, sim_panel):
    egls_out = tmp_path / "egls.json"
    assert run(["fit", "--panel", sim_panel, "--graph", queen_json,
                "--p", "1", "--s", "1", "--method", "egls",
                "--out", str(egls_out)]) == 0
    obj = json.loads(egls_out.read_text())
    assert abs(obj["alpha"][0] - 0.3) < 0.2

    vx_out = tmp_path / "vertex.json"
    assert run(["fit", "--panel", sim_panel, "--graph", queen_json,
                "--p", "1", "--s", "1", "--vertex-alpha",
                "--out", str(vx_out)]) == 0
    vx = json.loads(vx_out.read_text())
    assert vx["M"] == 26 + 1
    assert len(vx["alpha"]) == 26


def test_select_top_row_has_minimal_bic(tmp_path, queen_json, sim_panel):
    out = tmp_path / "report"
    assert run(["select", "--panel", sim_panel, "--graph", queen_json,
                "--scheme", "spl", "--pmax", "2", "--smax", "2",
                "--out", str(out)]) == 0
    obj = json.loads((tmp_path / "report.json").read_text())
    bics = [c["bic"] for c in obj["candidates"] if c["status"] == "ok"]
    assert obj["best"]["bic"] == min(bics)


def test_forecast_outputs_mase_per_node_week(tmp_path, queen_json, sim_panel):
    out_dir = tmp_path / "fc"
    assert run(["forecast", "--panel", sim_panel, "--graph", queen_json,
                "--scheme", "spl", "--p", "1", "--s", "1", "--holdout", "5",
                "--mode", "rolling", "--out-dir", str(out_dir)]) == 0
    lines = [l for l in (out_dir / "mase.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1 + 26 * 5  # header + node x week rows
    summary = json.loads((out_dir / "mase_summary.json").read_text())
    assert 0 < summary["overall_mean"] < 10


def test_end_to_end_selection_on_known_order(tmp_path):
    # simulate from a 2-lag model with an empty second-lag neighbourhood and
    # check the search finds it (single representative seed)
    ring = tmp_path / "ring.json"
    labels = [f"n{i:02d}" for i in range(10)]
    edges = [[i, (i + 1) % 10] for i in range(10)]
    edges = [[min(a, b), max(a, b)] for a, b in edges]
    ring.write_text(json.dumps({"labels": labels, "edges": sorted(edges)}))
    sim_dir = tmp_path / "sim"
    assert run(["simulate", "--graph", str(ring), "--p", "2", "--s", "1,0",
                "--alpha", "0.4,-0.25", "--beta", "0.3;", "--T", "500",
                "--sigma", "0.3", "--seed", "42", "--out-dir", str(sim_dir)]) == 0
    out = tmp_path / "report"
    assert run(["select", "--panel", str(sim_dir / "panel.csv"),
                "--graph", str(ring), "--scheme", "spl",
                "--pmax", "3", "--smax", "2", "--out", str(out)]) == 0
    obj = json.loads((tmp_path / "report.json").read_text())
    assert obj["best"]["order"] == {"p": 2, "s": [1, 0]}


def _library_scheme(kind, towns, g):
    """The WeightScheme that ``--scheme kind --points towns`` names on ``g``."""
    from gnarlib import geo_graph as gg
    from gnarlib.gnar_core import WeightScheme

    by_id = {p.node_id: p for p in gg.read_points_csv(towns)}
    ordered = [by_id[lbl] for lbl in g.labels]
    pops = {"populations": np.array([p.population for p in ordered], dtype=float)}
    return WeightScheme(kind, dist_km=gg.distance_matrix(ordered), **(pops if kind == "pb" else {}))


@pytest.mark.parametrize("kind", ["idw", "pb"])
def test_fit_and_select_weigh_by_points(tmp_path, towns, queen_json, sim_panel, kind):
    from gnarlib import gnar_core as gc
    from gnarlib import selection as sel
    from gnarlib.geo_graph import read_graph_json

    g, panel = read_graph_json(queen_json), read_wide_csv(sim_panel)
    scheme = _library_scheme(kind, towns, g)
    model = ["--panel", sim_panel, "--graph", queen_json, "--scheme", kind, "--points", towns]
    assert run(["fit", *model, "--p", "1", "--s", "1", "--out", str(tmp_path / "f.json")]) == 0
    ref = gc.fit(panel, g, gc.GnarSpec(gc.GnarOrder(1, (1,)), True, scheme))
    assert json.loads((tmp_path / "f.json").read_text())["gamma"] == ref.gamma.tolist()
    assert run(["select", *model, "--pmax", "2", "--smax", "1", "--out", str(tmp_path / "r")]) == 0
    got = json.loads((tmp_path / "r.json").read_text())
    best = sel.select_model(panel, g, scheme, sel.order_grid(2, 1)).best
    assert {c["scheme"] for c in got["candidates"]} == {kind}
    assert (got["best"]["name"], got["best"]["bic"]) == (best.order.name(), best.bic)


def test_distance_schemes_need_usable_points(tmp_path, capsys, towns, queen_json, sim_panel):
    rows = Path(towns).read_text().splitlines()
    some = tmp_path / "some.csv"                 # Carlow and Cavan only
    some.write_text("\n".join(rows[:3]) + "\n")
    no_pops = tmp_path / "no_pops.csv"
    no_pops.write_text("".join(",".join(r.split(",")[:3]) + "\n" for r in rows))
    base = ["fit", "--panel", sim_panel, "--graph", queen_json, "--p", "1", "--s", "1",
            "--out", str(tmp_path / "f.json")]
    for flags, needle in [(["--scheme", "idw"], "scheme 'idw' needs --points for distances"),
                          (["--scheme", "pb", "--points", str(some)],
                           "points file lacks coordinates for ['Clare', "),
                          (["--scheme", "pb", "--points", str(no_pops)],
                           "scheme 'pb' needs a population column in --points")]:
        assert run([*base, *flags]) == 1
        _single_error(capsys, needle)
    assert not (tmp_path / "f.json").exists()
    # idw reads no population
    assert run([*base, "--scheme", "idw", "--points", str(no_pops)]) == 0


def test_recursive_forecast_predicts_from_the_training_part(tmp_path, queen_json, sim_panel):
    from gnarlib import gnar_core as gc
    from gnarlib.geo_graph import read_graph_json
    from gnarlib.panel import TimeSeriesPanel

    out_dir = tmp_path / "fc"
    assert run(["forecast", "--panel", sim_panel, "--graph", queen_json, "--p", "1",
                "--s", "1", "--holdout", "4", "--mode", "recursive",
                "--out-dir", str(out_dir)]) == 0
    g, panel = read_graph_json(queen_json), read_wide_csv(sim_panel)
    train = TimeSeriesPanel(labels=panel.labels, dates=panel.dates[:-4],
                            values=panel.values[:, :-4])
    fit = gc.fit(train, g, gc.GnarSpec(gc.GnarOrder(1, (1,))))
    preds = gc.forecast(fit, train, 4, mode="recursive")
    lines = [line for line in (out_dir / "forecast.csv").read_text().splitlines()
             if not line.startswith("#")]
    got = [float(row[3]) for row in csv.reader(lines[1:])]
    assert got == preds.T.ravel().tolist()       # date-major rows
    summary = json.loads((out_dir / "mase_summary.json").read_text())
    assert (summary["mode"], summary["holdout"]) == ("recursive", 4)


def test_panel_columns_are_aligned_to_the_graph(tmp_path, capsys, queen_json, sim_panel):
    from gnarlib.panel import TimeSeriesPanel

    panel = read_wide_csv(sim_panel)
    shuffled = tmp_path / "shuffled.csv"
    order = np.random.default_rng(0).permutation(panel.n_nodes)
    write_wide_csv(TimeSeriesPanel(labels=tuple(panel.labels[i] for i in order),
                                   dates=panel.dates, values=panel.values[order]), shuffled)
    fits = {}
    for name, path in (("given", sim_panel), ("shuffled", str(shuffled))):
        assert run(["fit", "--panel", path, "--graph", queen_json, "--p", "1", "--s", "1",
                    "--residuals-out", str(tmp_path / f"{name}_r.csv"),
                    "--out", str(tmp_path / f"{name}.json")]) == 0
        obj = json.loads((tmp_path / f"{name}.json").read_text())
        del obj["meta"]
        fits[name] = obj
    assert fits["given"] == fits["shuffled"]
    resid = [read_wide_csv(tmp_path / f"{name}_r.csv") for name in ("given", "shuffled")]
    assert resid[0].labels == resid[1].labels == panel.labels
    assert np.array_equal(resid[0].values, resid[1].values, equal_nan=True)

    fewer = tmp_path / "fewer.csv"
    write_wide_csv(TimeSeriesPanel(labels=panel.labels[1:], dates=panel.dates,
                                   values=panel.values[1:]), fewer)
    assert run(["fit", "--panel", str(fewer), "--graph", queen_json, "--p", "1", "--s", "1",
                "--out", str(tmp_path / "fewer.json")]) == 1
    _single_error(capsys, "panel and graph node sets differ; cannot align them")
    assert not (tmp_path / "fewer.json").exists()


# ---------------------------------------------------------------------------
# simulate / diagnose / baseline
# ---------------------------------------------------------------------------

def test_simulate_seeded_reruns_identical(tmp_path, queen_json):
    out_dir = tmp_path / "s1"
    argv = ["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
            "--alpha", "0.2", "--beta", "0.3", "--T", "30", "--sigma", "0.1",
            "--seed", "1", "--out-dir", str(out_dir)]
    assert run(argv) == 0
    first = (out_dir / "panel.csv").read_bytes()
    params = (out_dir / "params.json").read_bytes()
    assert run(argv) == 0
    assert (out_dir / "panel.csv").read_bytes() == first
    assert (out_dir / "params.json").read_bytes() == params


def test_simulate_protocol_config_refit_table(tmp_path, queen_json, capsys):
    # full generating-protocol run driven by a config file
    config = {
        "graph": queen_json,
        "p": 5,
        "s": "2,1,1,1,1",
        "alpha": "0.18,-0.19,-0.09,-0.17,-0.11",
        "beta": "0.14,0.41;-0.07;0.03;0.14;0.01",
        "T": 1000,
        "sigma2": 0.001,
        "init-mean": 10.0,
        "scheme": "uniform",
        "seed": 1,
        "refit": True,
    }
    cfg = tmp_path / "protocol.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "proto"
    code = run(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "stationarity margin" in captured.err  # margin -0.54 surfaced
    table = (out_dir / "refit_table.csv").read_text().splitlines()
    rows = [l for l in table if l and not l.startswith("#")]
    assert rows[0] == "coefficient,true,estimate,ci_lower,ci_upper,covered"
    assert len(rows) == 1 + 11  # 5 alphas + 6 betas
    sidecar = json.loads((out_dir / "params.json").read_text())
    assert sidecar["stationarity_margin"] == pytest.approx(-0.54)


def test_diagnose_moran_null_rate(tmp_path, queen_json):
    rng = np.random.default_rng(8)
    import datetime

    from gnarlib.geo_graph import read_graph_json
    from gnarlib.panel import TimeSeriesPanel, write_wide_csv

    g = read_graph_json(queen_json)
    dates = tuple(datetime.date(2021, 1, 4) + datetime.timedelta(days=7 * k)
                  for k in range(60))
    panel = TimeSeriesPanel(labels=g.labels, dates=dates,
                            values=rng.normal(size=(26, 60)))
    path = tmp_path / "noise.csv"
    write_wide_csv(panel, path)
    out = tmp_path / "moran"
    assert run(["diagnose", "moran", "--panel", str(path), "--graph", queen_json,
                "--R", "100", "--seed", "3", "--out", str(out)]) == 0
    obj = json.loads((tmp_path / "moran.json").read_text())
    assert obj["n_m"] <= 0.12
    header = (tmp_path / "moran.csv").read_text().splitlines()
    data = [l for l in header if l and not l.startswith("#")]
    assert data[0] == "date,I,lower,median,upper,outside"

    rank_out = tmp_path / "moran_rank"
    assert run(["diagnose", "moran", "--panel", str(path), "--graph", queen_json,
                "--R", "100", "--seed", "3", "--rank", "--out",
                str(rank_out)]) == 0
    rank_obj = json.loads((tmp_path / "moran_rank.json").read_text())
    assert rank_obj["rank_based"] is True
    assert rank_obj["n_m"] <= 0.12


def test_diagnose_ks_and_ljungbox(tmp_path, queen_json, sim_panel):
    fit_out = tmp_path / "fit.json"
    res = tmp_path / "resid.csv"
    run(["fit", "--panel", sim_panel, "--graph", queen_json, "--p", "1",
         "--s", "1", "--residuals-out", str(res), "--out", str(fit_out)])
    ks_out = tmp_path / "ks.json"
    lb_out = tmp_path / "lb.json"
    assert run(["diagnose", "ks", "--panel", str(res), "--out", str(ks_out)]) == 0
    assert run(["diagnose", "ljungbox", "--panel", str(res),
                "--max-lag", "8", "--out", str(lb_out)]) == 0
    ks = json.loads(ks_out.read_text())
    assert len(ks["tests"]) == 26
    lb = json.loads(lb_out.read_text())
    ps = [v["p_value"] for v in lb["tests"].values()]
    assert all(0.0 <= p <= 1.0 for p in ps if not math.isnan(p))


def test_baseline_ar_with_holdout(tmp_path, sim_panel):
    out_dir = tmp_path / "ar"
    assert run(["baseline", "ar", "--panel", sim_panel, "--pmax", "3",
                "--holdout", "5", "--out-dir", str(out_dir)]) == 0
    obj = json.loads((out_dir / "ar.json").read_text())
    assert len(obj["nodes"]) == 26
    assert (out_dir / "ar_forecast.csv").exists()
    assert (out_dir / "ar_mase.json").exists()


def test_forecast_and_baseline_score_a_node_with_a_blank_holdout_silently(tmp_path, capsys,
                                                                          queen_json):
    # the second node misses both held-out weeks: its mean is null, and no
    # numpy warning about an empty slice gets out
    sim = tmp_path / "sim"
    assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1", "--alpha", "0.3",
                "--beta", "0.4", "--T", "40", "--sigma", "0.5", "--seed", "11",
                "--out-dir", str(sim)]) == 0
    panel = read_wide_csv(sim / "panel.csv")
    values = panel.values.copy()
    values[1, -2:] = np.nan
    write_wide_csv(type(panel)(panel.labels, panel.dates, values), tmp_path / "tail.csv")
    capsys.readouterr()
    fc, ar = tmp_path / "fc", tmp_path / "ar"
    assert _run_showing_warnings(["forecast", "--panel", str(tmp_path / "tail.csv"), "--graph",
                                  queen_json, "--p", "1", "--s", "1", "--holdout", "2",
                                  "--out-dir", str(fc)]) == 0
    assert _run_showing_warnings(["baseline", "ar", "--panel", str(tmp_path / "tail.csv"),
                                  "--pmax", "2", "--holdout", "2", "--out-dir", str(ar)]) == 0
    assert capsys.readouterr().err == ""
    for path in (fc / "mase_summary.json", ar / "ar_mase.json"):
        summary = json.loads(path.read_text())
        assert summary["per_node_mean"][panel.labels[1]] is None
        means = [v for v in summary["per_node_mean"].values() if v is not None]
        assert len(means) == 25
        assert summary["overall_mean"] == pytest.approx(np.mean(means), rel=1e-12)


# ---------------------------------------------------------------------------
# config precedence
# ---------------------------------------------------------------------------

def test_config_flag_precedence(tmp_path, towns):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "knn", "k": 25, "points": towns}))
    out1 = tmp_path / "g1.json"
    assert run(["network", "build", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(json.loads(out1.read_text())["edges"]) == 325
    # explicit flag beats the config value
    out2 = tmp_path / "g2.json"
    assert run(["network", "build", "--config", str(cfg), "--k", "1",
                "--out", str(out2)]) == 0
    assert len(json.loads(out2.read_text())["edges"]) < 325


def test_config_unknown_key_rejected(tmp_path, towns):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert run(["network", "build", "--config", str(cfg), "--kind", "complete",
                "--n", "3", "--out", str(tmp_path / "g.json")]) == 1


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "gnarlib.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "network" in proc.stdout


# ---------------------------------------------------------------------------
# stationarity reporting
# ---------------------------------------------------------------------------

def test_simulate_readme_example_prints_no_warning(tmp_path, queen_json, capsys):
    # margin 1 - (0.4 + 0.35 + 0.3) = -0.05 fails the sufficient condition,
    # but the companion spectral radius is about 0.55: the model is stationary
    out_dir = tmp_path / "sim"
    assert run(["simulate", "--graph", queen_json, "--p", "2", "--s", "1,0",
                "--alpha", "0.4,-0.3", "--beta", "0.35;", "--T", "100",
                "--sigma", "0.25", "--seed", "1", "--out-dir", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert not [line for line in err.splitlines() if line.startswith("warning")]
    params = json.loads((out_dir / "params.json").read_text())
    assert params["stationarity_margin"] == pytest.approx(-0.05)
    assert params["spectral_radius"] == pytest.approx(0.5477, abs=1e-3)


def test_simulate_nonstationary_model_warns(tmp_path, queen_json, capsys):
    out_dir = tmp_path / "sim"
    assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
                "--alpha", "0.8", "--beta", "0.3", "--T", "20", "--sigma", "0.1",
                "--out-dir", str(out_dir)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning")]
    assert len(warnings) == 1 and "spectral radius 1.100 >= 1" in warnings[0]
    assert json.loads((out_dir / "params.json").read_text())["spectral_radius"] == \
        pytest.approx(1.1)


def test_simulate_sigma_minus_zero_records_zero(tmp_path, queen_json):
    # the flag as given and math.sqrt(-0.0) both keep the sign bit
    for flag in ("--sigma", "--sigma2"):
        out_dir = tmp_path / flag.strip("-")
        assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
                    "--alpha", "0.3", "--beta", "0.2", "--T", "10", flag, "-0.0",
                    "--out-dir", str(out_dir)]) == 0
        sigma = json.loads((out_dir / "params.json").read_text())["sigma"]
        assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0, flag
        assert '"sigma": 0.0,' in (out_dir / "params.json").read_text()


def test_fit_json_reports_spectral_radius(tmp_path, queen_json, sim_panel):
    out = tmp_path / "fit.json"
    assert run(["fit", "--panel", sim_panel, "--graph", queen_json, "--p", "1",
                "--s", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert 0.0 < obj["spectral_radius"] < 1.0
    assert obj["stationarity_margin"] == pytest.approx(
        1 - abs(obj["alpha"][0]) - abs(obj["beta"][0][0]))


# ---------------------------------------------------------------------------
# config precedence under every flag spelling argparse accepts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag", [["--pm", "3"], ["--pmax=3"], ["--pm=3"]])
def test_config_loses_to_abbreviated_or_inline_flag(tmp_path, queen_json, sim_panel,
                                                    flag):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"pmax": 1}))
    base = tmp_path / "report"
    assert run(["select", "--panel", sim_panel, "--graph", queen_json, "--smax", "1",
                *flag, "--config", str(cfg), "--out", str(base)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert max(c["order"]["p"] for c in report["candidates"]) == 3


# ---------------------------------------------------------------------------
# malformed input ends in one error line and exit 1
# ---------------------------------------------------------------------------

def _single_error(capsys, *needles):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(needle in err[0] for needle in needles), err[0]


def test_graph_json_without_edges_is_an_error(tmp_path, capsys):
    bad = tmp_path / "g.json"
    bad.write_text(json.dumps({"labels": ["a", "b"]}))
    assert run(["network", "summarize", "--graph", str(bad),
                "--out", str(tmp_path / "s.csv")]) == 1
    _single_error(capsys, str(bad), "edges")


def test_ragged_wide_csv_is_an_error(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("date,a,b\n2020-01-06,1,2\n2020-01-13,3\n")
    assert run(["diagnose", "ks", "--panel", str(bad),
                "--out", str(tmp_path / "ks.json")]) == 1
    _single_error(capsys, str(bad), "data row 2")


def test_bad_iso_date_is_an_error(tmp_path, capsys):
    bad = tmp_path / "dates.csv"
    bad.write_text("# a comment line\ndate,a,b\n2020-01-06,1,2\n2020-13-45,3,4\n")
    assert run(["data", "diff", "--panel", str(bad), "--out", str(tmp_path / "d.csv")]) == 1
    _single_error(capsys, str(bad), "data row 2", "2020-13-45")


@pytest.mark.parametrize("argv", [
    ["fit", "--p", "1", "--s", "1", "--out", "fit.json"],
    ["select", "--pmax", "1", "--smax", "1", "--out", "report"],
    ["diagnose", "ks", "--out", "ks.json"],
])
def test_infinite_panel_value_is_an_error(tmp_path, capsys, monkeypatch, queen_json,
                                          sim_panel, argv):
    lines = Path(sim_panel).read_text().splitlines()
    row = next(k for k, line in enumerate(lines) if line[:1].isdigit()) + 3  # data row 4
    cells = lines[row].split(",")
    cells[4] = "inf"
    lines[row] = ",".join(cells)
    bad = tmp_path / "inf.csv"
    bad.write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    graph = [] if argv[0] == "diagnose" else ["--graph", queen_json]
    assert run([*argv, "--panel", str(bad), *graph]) == 1
    _single_error(capsys, str(bad), "data row 4", "non-finite value 'inf'")


def test_long_csv_infinite_value_is_an_error(tmp_path, capsys):
    bad = tmp_path / "long.csv"
    bad.write_text("date,node,value\n2020-01-06,a,1\n2020-01-13,a,-inf\n")
    assert run(["data", "ingest", "--csv", str(bad), "--out", str(tmp_path / "w.csv")]) == 1
    _single_error(capsys, str(bad), "data row 2", "non-finite value '-inf'")


def test_long_csv_conflicting_duplicate_names_the_cell(tmp_path, capsys):
    # the duplicate check runs while the rows are read, yet it still reports
    # the cell, not a malformed row
    bad = tmp_path / "long.csv"
    bad.write_text("date,node,value\n2020-01-06,a,1\n2020-01-13,a,2\n2020-01-06,a,3\n")
    assert run(["data", "ingest", "--csv", str(bad), "--out", str(tmp_path / "w.csv")]) == 1
    _single_error(capsys, "conflicting duplicate for node 'a' on 2020-01-06: 1.0 vs 3.0")
    assert not (tmp_path / "w.csv").exists()


def test_egls_on_a_short_panel_names_the_bound(tmp_path, capsys, queen_json):
    sim = tmp_path / "sim"
    assert run(["simulate", "--graph", queen_json, "--p", "2", "--s", "1,0",
                "--alpha", "0.3,0.1", "--beta", "0.2;", "--T", "60", "--sigma", "1",
                "--seed", "4", "--out-dir", str(sim)]) == 0
    capsys.readouterr()
    assert run(["fit", "--panel", str(sim / "panel.csv"), "--graph", queen_json,
                "--p", "2", "--s", "1,0", "--method", "egls",
                "--out", str(tmp_path / "fit.json")]) == 1
    _single_error(capsys, "58 complete columns < N*(p+1) = 78")


def test_egls_with_a_copied_node_names_the_dependent_column(tmp_path, capsys):
    # the VAR lag window of a panel with two identical nodes is rank
    # deficient, so its residual covariance is not estimable
    graph, sim = tmp_path / "k5.json", tmp_path / "sim"
    assert run(["network", "build", "--kind", "complete", "--n", "5", "--out", str(graph)]) == 0
    assert run(["simulate", "--graph", str(graph), "--p", "1", "--s", "1", "--alpha", "0.3",
                "--beta", "0.2", "--T", "60", "--sigma", "1", "--out-dir", str(sim)]) == 0
    panel = read_wide_csv(sim / "panel.csv")
    values = panel.values.copy()
    values[3] = values[1]
    write_wide_csv(type(panel)(panel.labels, panel.dates, values), tmp_path / "copied.csv")
    capsys.readouterr()
    out = tmp_path / "fit.json"
    assert run(["fit", "--panel", str(tmp_path / "copied.csv"), "--graph", str(graph),
                "--p", "1", "--s", "1", "--method", "egls", "--out", str(out)]) == 1
    _single_error(capsys, "the VAR lag window is rank deficient (4/5); dependent columns: ",
                  "diagonal fallback")
    assert not out.exists()


def test_points_csv_bad_latitude_is_an_error(tmp_path, capsys):
    bad = tmp_path / "points.csv"
    bad.write_text("node,lat,lon\na,52.0,-8.0\nb,north,-7.0\nc,53.0,-6.0\n")
    assert run(["network", "build", "--kind", "knn", "--k", "1", "--points", str(bad),
                "--out", str(tmp_path / "g.json")]) == 1
    _single_error(capsys, str(bad), "data row 2", "north")


def test_points_csv_bad_population_is_an_error(tmp_path, capsys):
    bad = tmp_path / "points.csv"
    bad.write_text("node,lat,lon,population\na,52.0,-8.0,100\nb,52.5,-7.0,lots\n"
                   "c,53.0,-6.0,5\n")
    assert run(["network", "build", "--kind", "knn", "--k", "1", "--points", str(bad),
                "--out", str(tmp_path / "g.json")]) == 1
    _single_error(capsys, str(bad), "data row 2", "lots")


def test_edgelist_row_without_to_field_is_an_error(tmp_path, capsys):
    bad = tmp_path / "edges.csv"
    bad.write_text("from,to\na,b\nc\n")
    assert run(["network", "build", "--kind", "edgelist", "--edges", str(bad),
                "--out", str(tmp_path / "g.json")]) == 1
    _single_error(capsys, str(bad), "data row 2")


def test_gabriel_with_duplicate_points_is_an_error(tmp_path, capsys):
    bad = tmp_path / "points.csv"
    bad.write_text("node,lat,lon\na,53.0,-8.0\nb,52.0,-7.0\nc,53.0,-8.0\nd,52.5,-9.0\n")
    assert run(["network", "build", "--kind", "gabriel", "--points", str(bad),
                "--out", str(tmp_path / "g.json")]) == 1
    _single_error(capsys, "'a'", "'c'", "coincides")
    assert not (tmp_path / "g.json").exists()


def test_simulate_negative_burn_in_is_an_error(tmp_path, queen_json, capsys):
    assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
                "--alpha", "0.3", "--beta", "0.4", "--T", "10", "--sigma", "0.5",
                "--burn-in", "-3", "--out-dir", str(tmp_path / "sim")]) == 1
    _single_error(capsys, "burn_in")


def test_graph_json_with_fractional_edge_is_an_error(tmp_path, capsys):
    bad = tmp_path / "g.json"
    bad.write_text(json.dumps({"labels": ["a", "b", "c"], "edges": [[0, 1.5]]}))
    assert run(["network", "summarize", "--graph", str(bad),
                "--out", str(tmp_path / "s.csv")]) == 1
    _single_error(capsys, str(bad), "1.5")


def test_summarize_one_node_graph_is_an_error(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"labels": ["a"], "edges": []}))
    assert run(["network", "summarize", "--graph", str(graph),
                "--out", str(tmp_path / "s.csv")]) == 1
    _single_error(capsys, "network summary needs at least 2 nodes, got 1")
    assert not (tmp_path / "s.csv").exists()


def test_summarize_graph_without_edges_is_silent(tmp_path, capsys):
    # every G(n, 0) sample is disconnected: the baseline SPL is an empty cell,
    # with no numpy warning about the mean of an empty slice
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"labels": ["a", "b", "c"], "edges": []}))
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["network", "summarize", "--graph", str(graph), "--brg-samples", "3",
                    "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, row = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["avg_spl"] == cells["brg_avg_spl"] == ""
    assert cells["brg_disconnected_pair_fraction"] == "1.0"


def test_boxcox_unknown_node_is_an_error(tmp_path, sim_panel, capsys):
    assert run(["data", "boxcox", "--panel", sim_panel, "--node", "Atlantis",
                "--out", str(tmp_path / "b.csv")]) == 1
    _single_error(capsys, "'Atlantis'")


def _run_showing_warnings(argv):
    """``run(argv)``, printing each warning it raises to stderr as a
    ``gnar`` process would; pytest would otherwise record it silently."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    for w in caught:
        sys.stderr.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_boxcox_empty_grid_is_an_error(tmp_path, sim_panel, capsys, steps):
    assert run(["data", "boxcox", "--panel", sim_panel, "--grid-steps", steps,
                "--out", str(tmp_path / "b.csv")]) == 1
    _single_error(capsys, "--grid-steps")
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("flags,needle", [
    (["--grid-max", "inf"], "got -2.0..inf"),
    (["--grid-min=-inf"], "got -inf..3.0"),
    (["--grid-min=-1e308", "--grid-max=1e308"], "got -1e+308..1e+308"),
    (["--grid-min", "nan"], "got nan..3.0"),
    # one past the bound: refused before np.linspace allocates anything
    (["--grid-steps", "100001"], "--grid-steps must be <= 100000, got 100001"),
    # (lambda - 1) * sum(log x) overflows, with no RuntimeWarning
    (["--grid-min=1e308"], "not finite at lambda=1e+308; narrow the grid"),
    (["--grid-max=1e308"], "not finite at lambda=1e+306; narrow the grid"),
])
def test_boxcox_hostile_grid_ends_in_one_error_line(tmp_path, sim_panel, capfd, flags, needle):
    capfd.readouterr()
    assert _run_showing_warnings(["data", "boxcox", "--panel", sim_panel, *flags,
                                  "--out", str(tmp_path / "b.csv")]) == 1
    out, err = capfd.readouterr()
    assert err.splitlines() == [err.strip()] and err.startswith("error: ") and needle in err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("argv, needle", [
    (["select", "--panel", "{panel}", "--graph", "{queen}", "--pmax", "80", "--out", "{out}"],
     "--pmax must be below the panel length 80, got 80"),
    (["diagnose", "moran", "--panel", "{panel}", "--graph", "{queen}", "--R", "10001",
      "--out", "{out}"],
     "--R must be <= 10000, got 10001"),
    # 17 x (5882350 + 3) = 10^8 + 1 cells
    (["simulate", "--graph", "{k17}", "--p", "1", "--s", "1", "--alpha", "0.3", "--beta", "0.4",
      "--T", "5882350", "--burn-in", "3", "--sigma", "0.5", "--out-dir", "{out}"],
     "(--T + --burn-in) x 17 nodes must be <= 10^8 cells, got 100000001"),
    (["network", "summarize", "--graph", "{queen}", "--brg-samples", "10001", "--out", "{out}"],
     "--brg-samples must be <= 10000, got 10001"),
])
def test_size_flags_past_their_bounds_end_in_one_error_line(tmp_path, queen_json, sim_panel,
                                                            capfd, argv, needle):
    # one past each bound: refused before the search grid, the permutation
    # seeds or the simulated panel are allocated
    k17 = str(tmp_path / "k17.json")
    assert run(["network", "build", "--kind", "complete", "--n", "17", "--out", k17]) == 0
    capfd.readouterr()
    out = tmp_path / "out"
    assert run([a.format(panel=sim_panel, queen=queen_json, k17=k17, out=out) for a in argv]) == 1
    _, err = capfd.readouterr()
    assert err.splitlines() == [err.strip()] and err == f"error: {needle}\n"
    assert not any(tmp_path.glob("out*"))


def test_complete_graph_node_count_is_bounded(tmp_path, capfd, monkeypatch):
    # one past the bound: refused before a label or an index pair is made
    from gnarlib import geo_graph

    monkeypatch.setattr(geo_graph, "build_complete", lambda labels: pytest.fail("built"))
    capfd.readouterr()
    assert run(["network", "build", "--kind", "complete", "--n", "10001",
                "--out", str(tmp_path / "g.json")]) == 1
    _, err = capfd.readouterr()
    assert err == "error: --n must be <= 10000, got 10001\n"
    assert not (tmp_path / "g.json").exists()


def test_boxcox_constant_node_is_an_error(tmp_path, capsys):
    panel = tmp_path / "flat.csv"
    panel.write_text("date,a,b\n2020-01-06,5,1\n2020-01-13,5,2\n2020-01-20,5,4\n")
    assert run(["data", "boxcox", "--panel", str(panel), "--node", "a",
                "--out", str(tmp_path / "b.csv")]) == 1
    _single_error(capsys, "constant")
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("argv, seed, out", [
    (["diagnose", "moran", "--panel", "{panel}", "--graph", "{graph}", "--out", "{tmp}/moran"],
     "-3", "moran.csv"),
    (["network", "summarize", "--graph", "{graph}", "--out", "{tmp}/s.csv"], "-1", "s.csv"),
    (["simulate", "--graph", "{graph}", "--p", "1", "--s", "1", "--alpha", "0.3",
      "--beta", "0.4", "--T", "10", "--sigma", "0.5", "--out-dir", "{tmp}/neg"], "-1", "neg"),
])
def test_negative_seed_is_an_error(tmp_path, queen_json, sim_panel, capsys, argv, seed, out):
    capsys.readouterr()
    argv = [a.format(panel=sim_panel, graph=queen_json, tmp=tmp_path) for a in argv]
    assert run([*argv, "--seed", seed]) == 1
    _single_error(capsys, f"seed must be a non-negative integer, got {seed}")
    assert not (tmp_path / out).exists()


def test_ljungbox_zero_max_lag_is_an_error(tmp_path, sim_panel, capsys):
    assert run(["diagnose", "ljungbox", "--panel", sim_panel, "--max-lag", "0",
                "--out", str(tmp_path / "lb.json")]) == 1
    _single_error(capsys, "max_lag")
    assert not (tmp_path / "lb.json").exists()


def test_import_loads_no_scipy():
    # scipy loads lazily, inside the functions that need it, so a command
    # that never reaches them does not pay for the import
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gnarlib

    src = str(Path(gnarlib.__file__).resolve().parents[1])
    code = ("import sys, gnarlib, gnarlib.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_network_commands_load_no_scipy(tmp_path, towns):
    # KNN, DNN, complete and edge-list graphs and their summaries (bitset BFS,
    # triangle counts) run on numpy alone; only the Delaunay family loads scipy
    import os
    import subprocess
    import sys

    import gnarlib

    src = str(Path(gnarlib.__file__).resolve().parents[1])
    code = ("import sys; from gnarlib.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.exit(rc)")
    builds = [["--kind", "knn", "--k", "3", "--points", towns],
              ["--kind", "dnn", "--d-max", "80", "--points", towns],
              ["--kind", "complete", "--n", "5"],
              ["--kind", "edgelist", "--edges", irish_queen_edges_path(), "--points", towns]]
    for k, build in enumerate(builds):
        graph = str(tmp_path / f"g{k}.json")
        for argv in (["network", "build", *build, "--out", graph],
                     ["network", "summarize", "--graph", graph, "--brg-samples", "5",
                      "--out", str(tmp_path / f"s{k}.csv")]):
            proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, (argv, proc.stderr)
            assert proc.stdout.strip().splitlines()[-1] == "[]", (argv, proc.stdout)


def test_residual_commands_load_no_scipy_stats(tmp_path, queen_json, sim_panel):
    # KS, Ljung-Box, Box-Cox and ranks run on scipy.special kernels, so the
    # commands that use them never import scipy.stats
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gnarlib

    src = str(Path(gnarlib.__file__).resolve().parents[1])
    code = ("import sys; from gnarlib.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats'))); sys.exit(rc)")
    commands = [
        ["diagnose", "ks", "--panel", sim_panel, "--out", str(tmp_path / "ks.json")],
        ["diagnose", "ljungbox", "--panel", sim_panel, "--out", str(tmp_path / "lb.json")],
        ["data", "boxcox", "--panel", sim_panel, "--out", str(tmp_path / "bc.csv")],
        ["diagnose", "moran", "--panel", sim_panel, "--graph", queen_json, "--rank",
         "--R", "20", "--out", str(tmp_path / "moran")],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]", (argv, proc.stdout)


def test_model_commands_load_no_scipy_linalg(tmp_path, queen_json, sim_panel):
    # fits of clear rank run on numpy's QR and EGLS whitens with numpy's
    # inverse, so no model command on clean data imports any scipy module;
    # only the pivoted QR of a design whose rank is in doubt loads scipy.linalg
    import os
    import subprocess
    import sys

    import gnarlib

    src = str(Path(gnarlib.__file__).resolve().parents[1])
    code = ("import sys; from gnarlib.cli import main; rc = main(sys.argv[1:]); "
            "print('scipy.linalg' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)")
    model = ["--panel", sim_panel, "--graph", queen_json]
    commands = [
        ["fit", *model, "--p", "2", "--s", "1,1", "--out", str(tmp_path / "f.json")],
        ["fit", *model, "--p", "1", "--s", "1", "--vertex-alpha",
         "--out", str(tmp_path / "fv.json")],
        ["select", *model, "--pmax", "3", "--smax", "2", "--out", str(tmp_path / "s")],
        ["select", *model, "--pmax", "3", "--smax", "2", "--vertex-alpha",
         "--out", str(tmp_path / "sv")],
        ["forecast", *model, "--p", "1", "--s", "1", "--holdout", "5",
         "--out-dir", str(tmp_path / "fc")],
        ["fit", *model, "--p", "1", "--s", "1", "--method", "egls",
         "--out", str(tmp_path / "e.json")],
        ["simulate", "--graph", queen_json, "--p", "1", "--s", "1", "--alpha", "0.3",
         "--beta", "0.2", "--T", "60", "--sigma", "1", "--refit",
         "--out-dir", str(tmp_path / "sim")],
        ["baseline", "ar", "--panel", sim_panel, "--pmax", "3", "--holdout", "5",
         "--out-dir", str(tmp_path / "ar")],
        ["diagnose", "moran", *model, "--R", "20", "--out", str(tmp_path / "moran")],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.strip().splitlines()[-1] == "False []", (argv, proc.stdout)


def test_data_boxcox_loads_no_scipy(tmp_path, sim_panel):
    # the Box-Cox profile runs on numpy alone
    import os
    import subprocess
    import sys

    import gnarlib

    src = str(Path(gnarlib.__file__).resolve().parents[1])
    code = ("import sys; from gnarlib.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.exit(rc)")
    for node in ([], ["--node", "Dublin"]):
        argv = ["data", "boxcox", "--panel", sim_panel, *node,
                "--out", str(tmp_path / "bc.csv")]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.strip().splitlines()[-1] == "[]", (argv, proc.stdout)


def test_commands_run_only_the_submodules_they_call(tmp_path, towns, sim_panel):
    # the package namespace is lazy: a submodule's code runs on first use, so
    # a fresh gnar process runs only the submodules its command reaches
    import subprocess
    import sys

    import gnarlib

    src = str(Path(gnarlib.__file__).resolve().parents[1])
    code = ("import sys, types; from gnarlib.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(n for n in ('errors', 'geo_graph', 'panel', 'gnar_core', "
            "'selection', 'diagnostics') if type(sys.modules['gnarlib.' + n]) "
            "is types.ModuleType)); sys.exit(rc)")
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("date,node,value\n" + "".join(
        f"{datetime.date(2020, 3, 2) + datetime.timedelta(days=d)},{node},{d * (k + 1)}\n"
        for d in range(21) for k, node in enumerate("ab")))
    panel = read_wide_csv(sim_panel)
    spec = tmp_path / "phases.json"
    spec.write_text(json.dumps({"name": "x", "intervals": [
        [panel.dates[0].isoformat(), panel.dates[9].isoformat()]]}))

    def out(name):
        return str(tmp_path / name)

    data = [["ingest", "--csv", str(long_csv), "--out", out("wide.csv")],
            ["weekly", "--panel", out("wide.csv"), "--out", out("weekly.csv")],
            ["smooth", "--panel", sim_panel, "--window", "4", "--start",
             panel.dates[5].isoformat(), "--end", panel.dates[20].isoformat(),
             "--out", out("sm.csv")],
            ["diff", "--panel", sim_panel, "--out", out("diff.csv")],
            ["phases", "--panel", sim_panel, "--spec", str(spec), "--out", out("ph.csv")],
            ["boxcox", "--panel", sim_panel, "--out", out("bc.csv")]]
    network = [["build", "--kind", "knn", "--k", "3", "--points", towns, "--out", out("g.json")],
               ["build", "--kind", "edgelist", "--edges", irish_queen_edges_path(),
                "--points", towns, "--out", out("q.json")],
               ["summarize", "--graph", out("q.json"), "--brg-samples", "5",
                "--out", out("s.csv")]]
    diagnose = [["ks", "--panel", sim_panel, "--out", out("ks.json")],
                ["ljungbox", "--panel", sim_panel, "--out", out("lb.json")]]
    # the per-node AR baseline needs no network
    baseline = ["baseline", "ar", "--panel", sim_panel, "--pmax", "3", "--holdout", "5",
                "--out-dir", out("ar")]
    commands = ([(["data", *argv], "['errors', 'panel']") for argv in data]
                + [(["network", *argv], "['errors', 'geo_graph']") for argv in network]
                + [(["diagnose", *argv], "['diagnostics', 'errors', 'panel']")
                   for argv in diagnose]
                + [(baseline, "['diagnostics', 'errors', 'gnar_core', 'panel', 'selection']")])
    for argv, ran in commands:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.strip().splitlines()[-1] == ran, (argv, proc.stdout)


@pytest.mark.parametrize("flag,value,expected", [
    ("--alpha", "x", "expected comma-separated numbers, got 'x'"),
    ("--beta", "0.1;y", "expected ';'-separated groups of numbers, got '0.1;y'"),
    ("--s", "1,a", "expected comma-separated integers, got '1,a'"),
])
def test_bad_list_flag_names_the_expected_form(tmp_path, capsys, queen_json, flag, value,
                                               expected):
    argv = {"--alpha": "0.3", "--beta": "0.4", "--s": "1", flag: value}
    with pytest.raises(SystemExit) as exit_info:
        run(["simulate", "--graph", queen_json, "--p", "1", "--T", "20",
             *(tok for item in argv.items() for tok in item),
             "--out-dir", str(tmp_path / "sim")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {expected}" in err.splitlines()[-1]
    assert "_parse" not in err and "convert" not in err


def test_bad_date_flag_names_the_expected_form(tmp_path, capsys, sim_panel):
    with pytest.raises(SystemExit) as exit_info:
        run(["data", "smooth", "--panel", sim_panel, "--window", "3",
             "--start", "2020-13-01", "--end", "2020-12-01", "--out", str(tmp_path / "s.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert "argument --start: expected an ISO date, got '2020-13-01'" in err


# ---------------------------------------------------------------------------
# CSV outputs hold plain numbers
# ---------------------------------------------------------------------------

def _numeric_cells(path, text_columns):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    cells = [cell for line in lines[1:]
             for name, cell in zip(header, line.split(",")) if name not in text_columns]
    return [float(cell) for cell in cells if cell != ""]


def test_csv_outputs_hold_plain_numbers(tmp_path, queen_json, sim_panel):
    text_columns = {"date", "node", "coefficient", "covered", "outside"}
    fc = tmp_path / "fc"
    assert run(["forecast", "--panel", sim_panel, "--graph", queen_json, "--p", "1",
                "--s", "1", "--holdout", "5", "--mode", "rolling",
                "--out-dir", str(fc)]) == 0
    assert run(["diagnose", "moran", "--panel", sim_panel, "--graph", queen_json,
                "--R", "20", "--seed", "3", "--out", str(tmp_path / "moran")]) == 0
    sim = tmp_path / "refit"
    assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
                "--alpha", "0.3", "--beta", "0.4", "--T", "80", "--sigma", "0.5",
                "--seed", "2", "--refit", "--out-dir", str(sim)]) == 0
    counts = {path.name: len(_numeric_cells(path, text_columns))
              for path in (fc / "forecast.csv", fc / "mase.csv",
                           tmp_path / "moran.csv", sim / "refit_table.csv")}
    assert counts == {"forecast.csv": 2 * 26 * 5, "mase.csv": 26 * 5,
                      "moran.csv": 4 * 80, "refit_table.csv": 4 * 2}


# ---------------------------------------------------------------------------
# every CSV input: a directory or undecodable bytes end in one error line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", ["directory", "undecodable"])
@pytest.mark.parametrize("reader", ["points", "edgelist", "long", "wide"])
def test_unreadable_csv_input_is_an_error(tmp_path, capsys, reader, bad):
    path = tmp_path / "input.csv"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"date,node,value\n2020-01-06,\xff\xfe,1\n")
    out = str(tmp_path / "out")
    argv = {
        "points": ["network", "build", "--kind", "knn", "--k", "1", "--points", str(path)],
        "edgelist": ["network", "build", "--kind", "edgelist", "--edges", str(path)],
        "long": ["data", "ingest", "--csv", str(path)],
        "wide": ["diagnose", "ks", "--panel", str(path)],
    }[reader]
    assert run([*argv, "--out", out]) == 1
    _single_error(capsys, str(path), *(["undecodable"] if bad == "undecodable" else []))


def test_weekly_on_a_header_only_panel_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("date,a,b\n")
    assert run(["data", "weekly", "--panel", str(empty),
                "--out", str(tmp_path / "w.csv")]) == 1
    _single_error(capsys, "no dates")


# ---------------------------------------------------------------------------
# a config value is parsed exactly as the same flag
# ---------------------------------------------------------------------------

def _data_lines(path):
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]


def _without_meta(path):
    obj = json.loads(Path(path).read_text())
    del obj["meta"]
    return obj


def test_config_strings_convert_like_flags(tmp_path, queen_json, sim_panel):
    model = ["--panel", sim_panel, "--graph", queen_json, "--s", "1"]
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"p": "1"}))
    assert run(["fit", *model, "--config", str(cfg), "--out", str(tmp_path / "c.json")]) == 0
    assert run(["fit", *model, "--p", "1", "--out", str(tmp_path / "f.json")]) == 0
    assert _without_meta(tmp_path / "c.json") == _without_meta(tmp_path / "f.json")

    moran = ["diagnose", "moran", "--panel", sim_panel, "--graph", queen_json]
    cfg.write_text(json.dumps({"R": "50"}))
    assert run([*moran, "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 0
    assert run([*moran, "--R", "50", "--out", str(tmp_path / "mf")]) == 0
    assert _data_lines(tmp_path / "mc.csv") == _data_lines(tmp_path / "mf.csv")
    assert _without_meta(tmp_path / "mc.json") == _without_meta(tmp_path / "mf.json")


def test_config_non_integer_fails_like_the_flag(tmp_path, capsys, queen_json, sim_panel):
    model = ["fit", "--panel", sim_panel, "--graph", queen_json, "--s", "1",
             "--out", str(tmp_path / "f.json")]
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"p": 2.5}))
    with pytest.raises(SystemExit) as from_config:
        run([*model, "--config", str(cfg)])
    config_err = capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(SystemExit) as from_flag:
        run([*model, "--p", "2.5"])
    assert from_config.value.code == from_flag.value.code == 2
    assert config_err == capsys.readouterr().err.splitlines()[-1]
    assert "invalid int value: '2.5'" in config_err


@pytest.mark.parametrize("config", [{"vertex_alpha": "false"}, {"vertex-alpha": 0},
                                    {"func": 1}, {"required": ["p"]}, {"p": None}])
def test_config_value_without_a_flag_form_is_rejected(tmp_path, capsys, queen_json,
                                                      sim_panel, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run(["fit", "--panel", sim_panel, "--graph", queen_json, "--p", "1",
                "--s", "1", "--config", str(cfg), "--out", str(tmp_path / "f.json")]) == 1
    _single_error(capsys, repr(next(iter(config))))
    assert not (tmp_path / "f.json").exists()


def test_readme_protocol_config_lists_match_strings(tmp_path, queen_json, capsys):
    config = {"graph": queen_json, "p": 5, "s": "2,1,1,1,1",
              "alpha": "0.18,-0.19,-0.09,-0.17,-0.11",
              "beta": "0.14,0.41;-0.07;0.03;0.14;0.01",
              "T": 1000, "sigma2": 0.001, "init-mean": 10.0,
              "scheme": "uniform", "seed": 1, "refit": True}
    lists = {**config, "s": [2, 1, 1, 1, 1], "alpha": [0.18, -0.19, -0.09, -0.17, -0.11],
             "beta": [[0.14, 0.41], [-0.07], [0.03], [0.14], [0.01]]}
    for name, obj in (("strings", config), ("lists", lists)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        assert run(["simulate", "--config", str(tmp_path / f"{name}.json"),
                    "--out-dir", str(tmp_path / name)]) == 0
    for out in ("panel.csv", "refit_table.csv"):
        assert _data_lines(tmp_path / "lists" / out) == _data_lines(tmp_path / "strings" / out)
    assert (_without_meta(tmp_path / "lists" / "params.json")
            == _without_meta(tmp_path / "strings" / "params.json"))


def test_select_pmax_zero_is_rejected_not_defaulted(tmp_path, capsys, queen_json, sim_panel):
    assert run(["select", "--panel", sim_panel, "--graph", queen_json, "--pmax", "0",
                "--smax", "1", "--out", str(tmp_path / "report")]) == 1
    _single_error(capsys, "p_max and s_max must be >= 1")


# ---------------------------------------------------------------------------
# mandatory options: one error line naming every missing flag; --config
# may supply any of them
# ---------------------------------------------------------------------------

# Every leaf subcommand (each network kind apart) as a command that runs,
# and the flags it cannot run without.
MANDATORY = {
    "network build knn": ("network build --kind knn --k 3 --points {towns} --out {out}.json",
                          ["--kind", "--k", "--points", "--out"]),
    "network build dnn": ("network build --kind dnn --d-max 80 --points {towns} --out {out}.json",
                          ["--kind", "--d-max", "--points", "--out"]),
    **{f"network build {kind}": (f"network build --kind {kind} --points {{towns}}"
                                 " --out {out}.json", ["--kind", "--points", "--out"])
       for kind in ("delaunay", "gabriel", "soi", "relative")},
    "network build edgelist": ("network build --kind edgelist --edges {edges} --out {out}.json",
                               ["--kind", "--edges", "--out"]),
    "network build hub": ("network build --kind hub --points {towns} --edges {edges}"
                          " --hubs Dublin,Cork --out {out}.json",
                          ["--kind", "--points", "--edges", "--hubs", "--out"]),
    "network build complete": ("network build --kind complete --n 4 --out {out}.json",
                               ["--kind", "--out"]),
    "network summarize": ("network summarize --graph {graph} --brg-samples 5 --out {out}.csv",
                          ["--graph", "--out"]),
    "data ingest": ("data ingest --csv {long} --out {out}.csv", ["--csv", "--out"]),
    "data weekly": ("data weekly --panel {daily} --out {out}.csv", ["--panel", "--out"]),
    "data smooth": ("data smooth --panel {panel} --window 3 --start 2000-01-17"
                    " --end 2000-03-06 --out {out}.csv",
                    ["--panel", "--window", "--start", "--end", "--out"]),
    "data diff": ("data diff --panel {panel} --out {out}.csv", ["--panel", "--out"]),
    "data phases": ("data phases --panel {panel} --spec {spec} --out {out}.csv",
                    ["--panel", "--spec", "--out"]),
    "data boxcox": ("data boxcox --panel {panel} --out {out}.csv", ["--panel", "--out"]),
    "fit": ("fit --panel {panel} --graph {graph} --p 1 --s 1 --out {out}.json",
            ["--panel", "--graph", "--p", "--s", "--out"]),
    "select": ("select --panel {panel} --graph {graph} --pmax 1 --smax 1 --out {out}",
               ["--panel", "--graph", "--out"]),
    "forecast": ("forecast --panel {panel} --graph {graph} --p 1 --s 1 --out-dir {out}",
                 ["--panel", "--graph", "--p", "--s"]),
    "simulate": ("simulate --graph {graph} --p 1 --s 1 --alpha 0.3 --beta 0.4 --T 20"
                 " --sigma 0.5 --out-dir {out}",
                 ["--graph", "--p", "--s", "--alpha", "--beta", "--T"]),
    "diagnose moran": ("diagnose moran --panel {panel} --graph {graph} --R 20 --out {out}",
                       ["--panel", "--graph", "--out"]),
    "diagnose ks": ("diagnose ks --panel {panel} --out {out}.json", ["--panel", "--out"]),
    "diagnose ljungbox": ("diagnose ljungbox --panel {panel} --out {out}.json",
                          ["--panel", "--out"]),
    "baseline ar": ("baseline ar --panel {panel} --pmax 1 --out-dir {out}", ["--panel", "--pmax"]),
}


@pytest.fixture()
def command(tmp_path, towns, queen_json, sim_panel):
    """``command(name)``: the argv of MANDATORY[name] in tmp_path."""
    daily = tmp_path / "daily.csv"
    daily.write_text("date,a,b\n" + "".join(f"2020-01-{d:02d},{d},{2 * d}\n"
                                            for d in range(1, 16)))
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("date,node,value\n2020-01-06,a,1\n2020-01-06,b,2\n2020-01-13,a,3\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "x", "intervals": [["2000-01-10", "2000-05-01"]]}))
    paths = dict(towns=towns, edges=irish_queen_edges_path(), graph=queen_json,
                 panel=sim_panel, daily=daily, long=long_csv, spec=spec, out=tmp_path / "o")
    return lambda name: MANDATORY[name][0].format(**paths).split(" ")


def _without(argv, flags):
    """argv without each of ``flags`` and its value."""
    for flag in flags:
        k = argv.index(flag)
        argv = argv[:k] + argv[k + 2:]
    return argv


def _missing_flags(capsys) -> set:
    """The flags named by the one error line of a missing-option exit."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    prefix = "error: missing required option(s): "
    suffix = " (set on the command line or in --config)"
    assert err[0].startswith(prefix) and err[0].endswith(suffix), err[0]
    return set(err[0][len(prefix):-len(suffix)].split(", "))


@pytest.mark.parametrize("name, flag", [(name, flag) for name, (_, flags) in MANDATORY.items()
                                        for flag in flags])
def test_missing_option_is_one_error_and_config_may_supply_it(tmp_path, capsys, command,
                                                              name, flag):
    argv = command(name)
    value = argv[argv.index(flag) + 1]
    argv = _without(argv, [flag])
    assert run(argv) == 1
    assert _missing_flags(capsys) == {flag}
    assert not list(tmp_path.glob("o*"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: value}))
    assert run([*argv, "--config", str(cfg)]) == 0
    assert list(tmp_path.glob("o*"))


@pytest.mark.parametrize("name", list(MANDATORY))
def test_missing_options_are_named_in_one_error(tmp_path, capsys, command, name):
    # --kind stays: without it, the options of the kind are unknown
    flags = set(MANDATORY[name][1]) - {"--kind"}
    assert run(_without(command(name), flags)) == 1
    assert _missing_flags(capsys) == flags
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("config", [{"n": 4}, {"points": irish_county_towns_path()}])
def test_complete_graph_needs_points_or_n(tmp_path, capsys, command, config):
    argv = _without(command("network build complete"), ["--n"])
    assert run(argv) == 1
    _single_error(capsys, "complete graph needs --points or --n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*argv, "--config", str(cfg)]) == 0


# ---------------------------------------------------------------------------
# values no command can use end in one error line and leave no file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "nan", "alpha must be finite, got nan"),
    ("--beta", "nan", "beta must be finite, got nan"),
    ("--sigma", "inf", "sigma must be finite, got inf"),
    ("--sigma", "nan", "sigma must be finite, got nan"),
    ("--sigma2", "nan", "sigma must be finite, got nan"),
    ("--sigma2", "-1", "sigma2 must be >= 0, got -1.0"),
    ("--init-mean", "inf", "init_mean must be finite, got inf"),
])
def test_simulate_nonfinite_parameter_is_an_error(tmp_path, capsys, command, flag, value,
                                                  message):
    # the last of a repeated flag wins
    assert run([*command("simulate"), flag, value]) == 1
    _single_error(capsys, message)
    assert not list(tmp_path.glob("o*/*"))


@pytest.mark.parametrize("flag", ["--sigma", "--sigma2"])
def test_simulate_negative_zero_sigma_is_the_deterministic_recursion(tmp_path, capfd, command,
                                                                      flag):
    # -0.0 passes the sign checks, and numpy's normal refuses its sign bit
    argv = _without(command("simulate"), ["--sigma", "--out-dir"])
    assert run([*argv, "--sigma", "0", "--out-dir", str(tmp_path / "zero")]) == 0
    capfd.readouterr()
    assert run([*argv, flag, "-0.0", "--out-dir", str(tmp_path / "neg")]) == 0
    assert capfd.readouterr().err == ""
    panels = [read_wide_csv(tmp_path / d / "panel.csv").values for d in ("zero", "neg")]
    assert np.array_equal(*panels) and np.all(panels[0][:, 0] == 0.0)


def test_weekly_negative_tolerance_is_an_error(tmp_path, capsys, command):
    assert run([*command("data weekly"), "--tolerance", "-1"]) == 1
    _single_error(capsys, "tolerance must be a number >= 0, got -1.0")
    assert not list(tmp_path.glob("o*"))


def test_boxcox_without_a_finite_loglik_is_an_error(tmp_path, capsys):
    # lambda * log x collapses to one value: every log-likelihood is +inf
    values = np.random.default_rng(15).uniform(0.7, 1.5, 28).tolist()
    panel = tmp_path / "p.csv"
    panel.write_text("date,a\n" + "".join(f"2020-01-{d + 1:02d},{v!r}\n"
                                          for d, v in enumerate(values)))
    assert run(["data", "boxcox", "--panel", str(panel), "--grid-min", "5e-324",
                "--grid-max", "5e-324", "--grid-steps", "1", "--out", str(tmp_path / "o.csv")]) == 1
    _single_error(capsys, "no finite log-likelihood")
    assert not (tmp_path / "o.csv").exists()


def test_boxcox_overflowing_grid_is_an_error(tmp_path, sim_panel, capfd):
    # e^(lambda log x) overflows for lambda = 5e299 and 1e300: NaN log-likelihoods
    capfd.readouterr()
    assert run(["data", "boxcox", "--panel", sim_panel, "--grid-min=-1e300",
                "--grid-max=1e300", "--grid-steps", "5", "--out", str(tmp_path / "b.csv")]) == 1
    _, err = capfd.readouterr()
    assert err == ("error: the Box-Cox log-likelihood is not finite at lambda=5e+299; "
                   "narrow the grid\n")
    assert not (tmp_path / "b.csv").exists()


# ---------------------------------------------------------------------------
# an explosive simulation ends in one error line
# ---------------------------------------------------------------------------

def test_simulate_overflow_is_an_error(tmp_path, capsys, queen_json):
    out_dir = tmp_path / "sim"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--graph", queen_json, "--p", "1", "--s", "1",
                    "--alpha", "1.5", "--beta", "1.0", "--T", "2000", "--sigma", "1",
                    "--out-dir", str(out_dir)]) == 1
    _single_error(capsys, "overflows to +-inf at step 778 of 2000", "explosive")
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# every output parses strictly: RFC 4180 CSV, RFC 8259 JSON
# ---------------------------------------------------------------------------

ODD_LABELS = ["Bray, Co. Wicklow", 'The "Hub"', 'Naas, "Kildare"', "Athy",
              "Tullow", "Arklow", "Gorey", "Carlow"]
UMASK = 0o022

ROUND_TRIP = [
    # the README round trip
    "network build --kind edgelist --edges {edges} --points {towns} --out queen.json",
    "network build --kind knn --k 11 --points {towns} --out knn11.json",
    "network summarize --graph queen.json --brg-samples 100 --seed 7 --out summary.csv",
    "simulate --graph queen.json --p 2 --s 1,0 --alpha 0.4,-0.3 --beta 0.35; --T 300"
    " --sigma 0.25 --seed 1 --out-dir sim/",
    "select --panel sim/panel.csv --graph queen.json --scheme spl --pmax 3 --smax 2"
    " --out report",
    "fit --panel sim/panel.csv --graph queen.json --p 2 --s 1,0 --residuals-out resid.csv"
    " --out fit.json",
    "forecast --panel sim/panel.csv --graph queen.json --p 2 --s 1,0 --holdout 5"
    " --mode rolling --out-dir fc/",
    "diagnose moran --panel sim/panel.csv --graph queen.json --R 100 --seed 3 --out moran",
    "diagnose ks --panel resid.csv --out ks.json",
    "diagnose ljungbox --panel resid.csv --out lb.json",
    "baseline ar --panel sim/panel.csv --pmax 3 --holdout 5 --out-dir ar/",
    # labels holding ',' and '"'; skipped candidates; NaN p-values
    "network build --kind knn --k 2 --points {odd} --out odd/g.json",
    "network summarize --graph odd/g.json --brg-samples 10 --out odd/summary.csv",
    "simulate --graph odd/g.json --p 1 --s 1 --alpha 0.3 --beta 0.2 --T 40 --sigma 1"
    " --refit --out-dir odd/sim/",
    "select --panel odd/sim/panel.csv --graph odd/g.json --pmax 2 --smax 4 --out odd/report",
    "fit --panel odd/sim/panel.csv --graph odd/g.json --p 1 --s 1"
    " --residuals-out odd/resid.csv --out odd/fit.json",
    "forecast --panel odd/sim/panel.csv --graph odd/g.json --p 1 --s 1 --holdout 3"
    " --out-dir odd/fc/",
    "diagnose moran --panel odd/sim/panel.csv --graph odd/g.json --R 20 --out odd/moran",
    "diagnose ljungbox --panel odd/resid.csv --max-lag 60 --out odd/lb.json",
    "baseline ar --panel odd/sim/panel.csv --pmax 2 --holdout 3 --out-dir odd/ar/",
    "data ingest --csv {odd_long} --out odd/daily.csv",
    "data diff --panel odd/daily.csv --out odd/diff.csv",
    "data boxcox --panel odd/daily.csv --out odd/boxcox.csv",
]
OUTPUTS = [
    "queen.json", "knn11.json", "summary.csv", "sim/panel.csv", "sim/params.json",
    "report.csv", "report.json", "fit.json", "resid.csv", "fc/forecast.csv", "fc/mase.csv",
    "fc/mase_summary.json", "moran.csv", "moran.json", "ks.json", "lb.json", "ar/ar.json",
    "ar/ar_forecast.csv", "ar/ar_mase.json",
    "odd/g.json", "odd/summary.csv", "odd/sim/panel.csv", "odd/sim/params.json",
    "odd/sim/refit_table.csv", "odd/report.csv", "odd/report.json", "odd/fit.json",
    "odd/resid.csv", "odd/fc/forecast.csv", "odd/fc/mase.csv", "odd/fc/mase_summary.json",
    "odd/moran.csv", "odd/moran.json", "odd/lb.json", "odd/ar/ar.json",
    "odd/ar/ar_forecast.csv", "odd/ar/ar_mase.json", "odd/daily.csv", "odd/diff.csv",
    "odd/boxcox.csv",
    # the library's own writers
    "lib/graph.json", "lib/panel.csv",
]
HOLDS_NULL = {"odd/report.json", "odd/lb.json"}  # skipped candidates, NaN p-values


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    from gnarlib.geo_graph import read_graph_json, write_graph_json

    d = tmp_path_factory.mktemp("round_trip")
    rng = np.random.default_rng(4)
    with open(d / "odd_points.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["node", "lat", "lon"])
        out.writerows([lbl, 52.5 + rng.uniform(-1, 1), -7.5 + rng.uniform(-1, 1)]
                      for lbl in ODD_LABELS)
    with open(d / "odd_long.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["date", "node", "value"])
        out.writerows([f"2020-03-{day + 1:02d}", lbl, 1.0 + day * (k + 1)]
                      for day in range(12) for k, lbl in enumerate(ODD_LABELS[:3]))
    names = {"edges": irish_queen_edges_path(), "towns": irish_county_towns_path(),
             "odd": d / "odd_points.csv", "odd_long": d / "odd_long.csv"}
    old = os.umask(UMASK)
    cwd = os.getcwd()
    try:
        os.chdir(d)
        for command in ROUND_TRIP:
            assert run([token.format(**names) for token in command.split(" ")]) == 0, command
        g = read_graph_json("odd/g.json")
        os.mkdir("lib")
        write_graph_json(g, "lib/graph.json", meta={"note": "library writer"})
        write_wide_csv(read_wide_csv("odd/sim/panel.csv"), "lib/panel.csv", ["note=library"])
    finally:
        os.chdir(cwd)
        os.umask(old)
    return d


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs_parse_strictly(round_trip, name):
    path = round_trip / name
    data = path.read_bytes()
    assert b"\r" not in data
    if path.suffix == ".json":
        json.loads(data.decode(), parse_constant=_reject_constant)
        assert b"null" in data or name not in HOLDS_NULL
    else:
        lines = data.decode().splitlines(keepends=True)
        body = "".join(itertools.dropwhile(lambda line: line.startswith("# "), lines))
        header, *rows = csv.reader(io.StringIO(body, newline=""), strict=True)
        assert rows and all(len(row) == len(header) for row in rows)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~UMASK


def _crlf_rows(path, to):
    """``path`` in the earlier wide layout: LF after '#' lines, CRLF after rows."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    Path(to).write_bytes(b"".join(line if line.startswith(b"#") else line[:-1] + b"\r\n"
                                  for line in lines))


def test_panels_in_the_crlf_layout_still_read(tmp_path, monkeypatch, queen_json, sim_panel):
    from gnarlib.panel import TimeSeriesPanel

    values = np.arange(12.0).reshape(3, 4)
    values[1, 2] = np.nan
    dates = tuple(datetime.date(2020, 1, 6) + datetime.timedelta(days=7 * k) for k in range(4))
    panel = TimeSeriesPanel(labels=("a, b", 'c "d"', "e"), dates=dates, values=values)
    write_wide_csv(panel, tmp_path / "new.csv", ["note=1"])
    _crlf_rows(tmp_path / "new.csv", tmp_path / "old.csv")
    assert b"\r\n" in (tmp_path / "old.csv").read_bytes()
    new, old = read_wide_csv(tmp_path / "new.csv"), read_wide_csv(tmp_path / "old.csv")
    assert (old.labels, old.dates) == (new.labels, new.dates) == (panel.labels, panel.dates)
    assert np.array_equal(old.values, new.values, equal_nan=True)
    assert np.array_equal(old.values, panel.values, equal_nan=True)

    fits = {}
    for layout in ("new", "old"):
        (tmp_path / layout).mkdir()
        if layout == "new":
            (tmp_path / "new" / "panel.csv").write_bytes(Path(sim_panel).read_bytes())
        else:
            _crlf_rows(sim_panel, tmp_path / "old" / "panel.csv")
        monkeypatch.chdir(tmp_path / layout)
        assert run(["fit", "--panel", "panel.csv", "--graph", queen_json, "--p", "1",
                    "--s", "1", "--out", "fit.json"]) == 0
        fits[layout] = Path("fit.json").read_bytes()
    assert fits["old"] == fits["new"]
