"""Re-measure the rough single-run table of ROADMAP.md with the tracer.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/roadmap_rows.py

One run per row, in one process, each row traced so that the layer shares
can be set beside the table's "where the time goes" column.  Rows use the
table's sizes; panels and point clouds come from the benchmark's own
generators with seed 0.  Prints one line per row.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent


def points(n: int):
    rng = np.random.default_rng([0, 2])
    lat = rng.uniform(51.6, 55.2, n)
    lon = rng.uniform(-10.3, -6.1, n)
    return [W.gg.GeoPoint(f"p{i:04d}", float(a), float(o)) for i, (a, o) in enumerate(zip(lat, lon))]


def traced(label: str, fn) -> None:
    tracer = spans.Tracer(label)
    tracer.install()
    token = tracer.begin(label, "trace.other")
    try:
        fn()
    finally:
        tracer.end(token, label, "trace.other")
        tracer.uninstall()
    wall = tracer.spans[-1][4] - tracer.spans[-1][3]
    shares = sorted(spans.self_times(tracer.spans).items(), key=lambda kv: -kv[1])
    top = ", ".join(f"{k} {v / wall:.0%}" for k, v in shares[:3] if v / wall >= 0.01)
    counts = ", ".join(f"{k.split('.')[1]} {v}" for k, v in sorted(tracer.counts.items())
                       if k.startswith("selection."))
    print(f"{label:<46} {wall:7.3f} s  {top}" + (f" ({counts})" if counts else ""), flush=True)


def main() -> None:
    queen = W.ds.irish_queen_graph()
    rng = np.random.default_rng([0, 1])
    x = W.gnar_panel(rng, queen, W.PAPER_ALPHA, W.PAPER_BETA, 120, 1.0)
    panel = W.pn.TimeSeriesPanel(queen.labels, tuple(W.week(k) for k in range(120)), x)
    spl = W.gc.WeightScheme("spl")
    traced("select_model queen T=120 order_grid(7,5)",
           lambda: W.sel.select_model(panel, queen, spl, W.sel.order_grid(7, 5)))
    ring = W.gg.Graph(tuple(f"r{i}" for i in range(10)),
                      frozenset((min(i, (i + 1) % 10), max(i, (i + 1) % 10)) for i in range(10)))
    xr = W.gnar_panel(np.random.default_rng([0, 4]), ring, np.array([0.3, 0.1]),
                      [np.array([0.2]), np.array([])], 500, 1.0)
    ring_panel = W.pn.TimeSeriesPanel(ring.labels, tuple(W.week(k) for k in range(500)), xr)
    traced("select_model ring(10) T=500 order_grid(3,2)",
           lambda: W.sel.select_model(ring_panel, ring, spl, W.sel.order_grid(3, 2)))
    traced("moran_permutation_test queen T=120 R=100",
           lambda: W.dg.moran_permutation_test(panel, queen, R=100, seed=0))
    for n in (200, 800):
        pts = points(n)
        traced(f"derive_gabriel n={n}", lambda: W.gg.derive_gabriel(pts))
    traced("derive_relative n=800", lambda: W.gg.derive_relative(pts))
    traced("build_knn k=5 n=800", lambda: W.gg.build_knn(pts, 5))
    traced("distance_matrix n=800", lambda: W.gg.distance_matrix(pts))
    tri = W.gg.build_delaunay(pts)
    traced("shortest_path_lengths n=800 (Delaunay)", lambda: W.gg.shortest_path_lengths(tri))
    spec = W.gc.GnarSpec(W.gc.GnarOrder(2, (2, 1)), True, W.gc.WeightScheme("uniform"))
    sim = {}
    traced("simulate n=800 T=200 GNAR(2,[2,1])", lambda: sim.setdefault(
        "p", W.gc.simulate(spec, np.array([0.3, 0.1]), [np.array([0.2, 0.1]), np.array([0.1])],
                           tri, T=200, sigma=1.0, seed=0)))
    traced("fit n=800 T=200 GNAR(2,[2,1])", lambda: W.gc.fit(sim["p"], tri, spec))
    readme_cli()


class ReadmeRoundtrip(W.CliRoundtrip):
    """The benchmark's CLI command list at the README's sizes."""

    SIM_T = 300
    MORAN_R = 100


def readme_cli() -> None:
    """The README's 11-command round trip, one fresh interpreter each.

    These are the first 11 commands of the ``cli-roundtrip`` workload, with
    the README's simulation length, permutation count and seed.
    """
    import tempfile

    os.environ["PYTHONPATH"] = str(HERE.parent / "src")   # the commands run in a temp dir
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wl = ReadmeRoundtrip(1, Path(tmp))
        wl.commands = wl.commands[:11]
        ops = W.Ops()
        t0 = time.perf_counter()
        wl.run_pass(ops)
        wall = time.perf_counter() - t0
    if ops.failed():
        raise SystemExit(f"README round trip failed: {ops.failures}")
    imp = subprocess.run([sys.executable, "-c", "import time; t = time.perf_counter(); "
                          "import gnarlib.cli; print(time.perf_counter() - t)"],
                         capture_output=True, text=True, check=True).stdout.strip()
    print(f"{'README CLI round trip (11 commands)':<46} {wall:7.3f} s  "
          f"import gnarlib.cli {float(imp):.3f} s per command")

if __name__ == "__main__":
    main()
