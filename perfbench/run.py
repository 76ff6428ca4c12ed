"""gnarlib benchmark: one command per workload.

    python3 perfbench/run.py --workload paper-protocol --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; gnarlib is imported from its ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``), with ``--trace 1`` the per-layer metrics of
a separate traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The error rate
is ``failed / attempted``; each failed operation is named on the lines
before it.  The exit code is 1 when any output check failed.

``--record-reference`` runs the reference seed once and writes the
discrete results to ``perfbench/reference/<workload>.json``.

See perfbench/README.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
BLAS_THREADS = "1"
# the parent calibrates too (see speed.py): pin its BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0
SETUP_PROBES = 4          # fresh set-up-only processes besides the measuring one
WORKLOADS = ("paper-protocol", "spatial-scale", "cli-roundtrip")
TIME_LIMIT_S = 170.0

COUNT_METRICS = (
    "geo_graph.edges", "panel.rows_in", "gnar_core.design_calls", "gnar_core.design_rows",
    "gnar_core.solve_calls", "gnar_core.solve_cols", "gnar_core.simulate_steps",
    "selection.candidates", "selection.fitted", "selection.skipped_inadmissible",
    "selection.skipped_singular", "selection.skipped_insufficient",
    "diagnostics.moran_stats",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def spawn(args, mode: str, seed: int, work: Path, tag: str, deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its result and its set-up time.

    The set-up time runs from the start of the process until it is ready
    to time a pass, scaled to the reference speed by the mean of a
    calibration here just before the start and one in the worker just
    after set-up.
    """
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / tag), "--out", str(out)]
    cal_before = speed.settled()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} worker exceeded the time limit")
    if rc != 0 or not out.exists():
        raise RuntimeError(f"{mode} worker exited with code {rc}")
    res = json.loads(out.read_text())
    raw = res["ready_at"] - start
    return res, raw * speed.REF_CAL_S / ((cal_before + res["setup_cal"]) / 2)


def environment(versions: dict) -> dict:
    env = {"python": platform.python_version(), **versions,
           "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            key = "L" + (idx / "level").read_text().strip() + (idx / "type").read_text().strip()[0]
            caches[key] = (idx / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def compare(got, ref, prefix: str = "") -> list[tuple[str, str]]:
    """Keys whose discrete results differ from the reference."""
    bad = []
    for key in sorted(set(got or {}) | set(ref or {})):
        a, b = (got or {}).get(key), (ref or {}).get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            bad += compare(a, b, f"{prefix}{key}:")
        elif a != b:
            bad.append((f"reference:{prefix}{key}",
                        f"differs from the reference: {a!r} vs {b!r}"[:240]))
    return bad


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return f"n/a ({n} samples; needs more than 10)"
    pct = 100.0 * (n - 10) / n
    return f"p{int(pct)} = {statistics.quantiles(values, n=100, method='inclusive')[int(pct) - 1]:.4f} s"


def layer_metrics(main: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``.

    A layer this workload does not call, or a count it never adds to,
    reads 0 (the library workloads start no CLI process, and
    ``spatial-scale`` runs no selection).
    """
    passes = main["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = main["layers"]
    metrics = {}
    for layer in spans.SELF_LAYERS:
        name = "selection.self_s" if layer == "selection.select" else layer + "_s"
        metrics[name] = (statistics.fmean(lay.get(layer, 0.0) for lay in layers), "s")
    metrics["selection.select_s"] = (
        statistics.fmean(lay.get("selection.select_inclusive", 0.0) for lay in layers), "s")
    counts = main["counts"]
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    cand = counts.get("selection.candidates", 0)
    metrics["selection.fit_yield"] = (counts.get("selection.fitted", 0) / cand if cand else 0.0,
                                      "fraction")
    cli = traced[0] if traced and "commands" in traced[0] else {}
    metrics["cli.commands"] = (cli.get("commands", 0), "count")
    metrics["cli.files_written"] = (cli.get("files", 0), "count")
    metrics["cli.bytes_written"] = (cli.get("bytes_written", 0), "bytes")
    metrics["cli.warnings"] = (cli.get("warnings", 0), "count")
    metrics["process.cpu_s"] = (statistics.fmean(p["cpu"] for p in plain), "s")
    metrics["trace.wall_s"] = (statistics.fmean(p["wall"] for p in traced), "s")
    return metrics


def trace_overhead(main: dict) -> float:
    """(traced - untraced) / untraced median raw pass wall: context only.

    Raw times are not scaled to the reference speed, so on a machine whose
    speed drifts this is within noise and can be negative.
    """
    t_wall = statistics.median(p["wall"] for p in main["passes"] if p["traced"])
    u_wall = statistics.median(p["wall"] for p in main["passes"] if not p["traced"])
    return (t_wall - u_wall) / u_wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write perfbench/reference/<workload>.json from the reference seed")
    args = ap.parse_args()

    if not (ROOT / "src" / "gnarlib" / "__init__.py").is_file():
        print(f"error: no gnarlib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    base = ROOT / ".perfbench"
    work = base / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, work, base, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path, base: Path, deadline: float) -> int:
    ref_path = HERE / "reference" / f"{args.workload}.json"
    if args.record_reference:
        res, _ = spawn(args, "reference", REFERENCE_SEED, work, "reference", deadline)
        if res["failed"]:
            print(json.dumps(res["failures"], indent=1), file=sys.stderr)
            return 1
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"seed": REFERENCE_SEED, **res["reference"]},
                                       indent=1, sort_keys=True) + "\n")
        print(f"wrote {ref_path.relative_to(ROOT)}")
        return 0
    if not ref_path.is_file():
        print(f"error: missing reference {ref_path}", file=sys.stderr)
        return 2
    reference = json.loads(ref_path.read_text())

    setup_samples = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            setup_samples.append(spawn(args, "setup", args.seed, work, f"setup{k}", deadline)[1])
    main_res, main_setup = spawn(args, "run", args.seed, work, "run", deadline)
    setup_samples.append(main_setup)

    attempted, failures = main_res["attempted"], list(main_res["failures"])
    got = main_res["reference"] or {}
    bad = compare(got.get("fixed"), reference["fixed"])
    if reference["seeded"]:
        seeded = got.get("seeded")
        if args.seed != REFERENCE_SEED:
            probe, _ = spawn(args, "reference", REFERENCE_SEED, work, "reference", deadline)
            attempted += probe["attempted"]
            failures += [["reference-seed " + f[0], f[1], f[2]] for f in probe["failures"]]
            seeded = (probe["reference"] or {}).get("seeded")
        bad += compare(seeded, reference["seeded"])
    failures += [["reference", name, msg] for name, msg in bad]
    failed = len({(f[0], f[1]) for f in failures})

    plain_passes = [p for p in main_res["passes"] if not p["traced"]]
    plain = [p["wall"] for p in plain_passes]
    scaled = [p.get("scaled") for p in plain_passes]
    rss_kb = (main_res["children_rss_kb"] if args.workload == "cli-roundtrip"
              else main_res["self_rss_kb"])
    env = environment(main_res["versions"])
    if args.trace:
        metrics = layer_metrics(main_res)
    else:
        metrics = {"wall_ref_s": (statistics.median(scaled), "s"),
                   "setup_s": (statistics.median(setup_samples), "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MiB")}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"env: python {env['python']} numpy {env['numpy']} scipy {env.get('scipy')} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"cpu={env.get('cpu_model')} commit={env['git_commit']}")
    print(f"passes: {len(main_res['passes'])} ({len(plain)} untraced); untraced walls "
          + " ".join(f"{w:.4f}" for w in plain))
    if not args.trace:
        print(f"  {'wall_s':<34} {statistics.median(plain):>14.6g} s (raw median; tail "
              f"{tail_percentile(plain)})")
        print("scaled passes " + " ".join(f"{p['scaled']:.4f}" for p in plain_passes)
              + f" ({plain_passes[0]['segments']} calibrated segments in the first)"
              + "; setup samples " + " ".join(f"{x:.4f}" for x in setup_samples))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}" + ("" if value else "  (none in this workload)"))
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    for f in failures:
        print(f"  FAILED {f[0]} {f[1]}: {f[2]}")
    if args.trace:
        self_sum = sum(v for k, (v, _) in metrics.items()
                       if k.endswith("_s") and k not in ("selection.select_s", "trace.wall_s",
                                                         "process.cpu_s"))
        print(f"  layer self times sum to {self_sum:.4f} s; traced wall "
              f"{metrics['trace.wall_s'][0]:.4f} s")
        print(f"  trace.overhead_frac (context, raw times) {trace_overhead(main_res):+.4f}")

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "passes": main_res["passes"],
              "setup_samples": setup_samples, "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": {k: v for k, (v, _) in metrics.items()}}
    (base / "results").mkdir(parents=True, exist_ok=True)
    (base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
