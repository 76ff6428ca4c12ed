"""One benchmark process: set up a workload, then run and check its passes.

Started by ``run.py`` as a fresh interpreter, so that set-up time covers
the imports.  Modes:

  setup      set up, report when ready, exit
  run        set up, then run passes until ``--seconds`` have elapsed (at
             least two, so that pass-to-pass identity is checked).  With
             ``--trace 0`` passes are timed by a ``SpeedClock``; with
             ``--trace 1`` they alternate untraced / traced and are not
             calibrated
  reference  set up and run one pass, for the reference comparison

The result goes to ``--out`` as JSON; nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# How fully a pass is scaled to the reference speed (see speed.SpeedClock).
# A slow spell on a shared VM slows the calibration kernel more than it
# slows a pass, most of all a CLI pass, which is largely interpreter start,
# imports and file writes; full scaling over-corrects.  The values were
# chosen on the runs with seeds 1000-1019 and 2000-2019 and proved on
# held-out seeds; see README.md.
SPEED_EXPONENT = {"paper-protocol": 0.9, "spatial-scale": 0.9, "cli-roundtrip": 0.75}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _versions() -> dict:
    import gnarlib

    out = {"numpy": np.__version__, "gnarlib_file": gnarlib.__file__}
    try:
        import scipy

        out["scipy"] = scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (ImportError, KeyError, TypeError) as exc:
        out["blas"] = f"unavailable: {exc}"
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "reference"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import gnarlib

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(gnarlib.__file__).resolve().is_relative_to(src):
        print(f"error: gnarlib imported from {gnarlib.__file__}, not {src}", file=sys.stderr)
        return 3
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.Ops()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    ready_at = time.perf_counter()
    # the parent times set-up from its side and calibrates just before it;
    # this is the calibration just after it
    result = {"ready_at": ready_at, "setup_cal": speed.settled(), "passes": [],
              "reference": None}
    if args.mode != "setup":
        result.update(_run(args, wl, ops, ready_at))
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed()
    result["failures"] = ops.failures
    result["self_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["versions"] = _versions()
    Path(args.out).write_text(json.dumps(result))
    return 0


def _run(args, wl, ops, ready_at) -> dict:
    tracer = spans.Tracer(run_id=f"{args.workload}:{args.seed}")
    is_cli = isinstance(wl, workloads.CliRoundtrip)
    passes, traced_layers, traced_counts = [], [], []
    first_identity = reference = None
    deadline = ready_at + args.seconds
    clock = None if args.trace else speed.SpeedClock(SPEED_EXPONENT[args.workload])
    ops.on_op = clock.lap if clock else None
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        ops.label = f"pass{i}"
        out = None   # the previous pass's results must not count in this pass's peak RSS
        tracer.reset()
        if traced and not is_cli:
            tracer.install()
        cpu0 = _cpu()
        if clock:
            clock.restart()
        t0 = time.perf_counter()
        token = tracer.begin("pass", "trace.other") if traced else None
        try:
            out = wl.run_pass(ops, tracer) if (is_cli and traced) else wl.run_pass(ops)
        except workloads.OpFailed:
            out = None
        except Exception:
            ops.check(False, "pass", traceback.format_exc(limit=3))
            out = None
        finally:
            if token is not None:
                tracer.end(token, "pass", "trace.other")
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
            tracer.uninstall()
        rec = {"wall": wall, "cpu": cpu, "traced": traced}
        if clock:
            clock.lap(force=True)
            rec.update(wall=clock.wall(), scaled=clock.scaled(), cpu=None,
                       segments=len(clock.segments))
        if out is not None:
            if is_cli:
                rec.update(warnings=out["warnings"], files=len(out["files"]),
                           bytes_written=out["bytes_written"],
                           commands=len(wl.commands))
            try:
                if i == 0:
                    wl.check(out, ops)
                ref_part, identity = wl.digest(out)
            except Exception:
                ops.check(False, "check", traceback.format_exc(limit=3))
                ref_part, identity = None, None
            if reference is None:
                reference = ref_part
            if first_identity is None:
                first_identity = identity
            elif identity != first_identity:
                for key in identity:
                    ops.check(identity[key] == first_identity.get(key), f"identity:{key}",
                              "results differ from the first pass of this run")
        if traced:
            traced_layers.append(spans.self_times(tracer.spans))
            traced_layers[-1]["selection.select_inclusive"] = spans.inclusive_time(
                tracer.spans, "selection.select")
            traced_counts.append(dict(tracer.counts))
        passes.append(rec)
        i += 1
        if args.mode == "reference":
            break
        enough = i >= MIN_PASSES and (not args.trace or any(p["traced"] for p in passes))
        if enough and time.perf_counter() >= deadline:
            break
    for k, counts in enumerate(traced_counts[1:], start=1):
        ops.check(counts == traced_counts[0], "trace:counts",
                  f"traced pass {k} counted differently from the first traced pass")
    return {"passes": passes, "reference": reference, "layers": traced_layers,
            "counts": traced_counts[0] if traced_counts else {}}


if __name__ == "__main__":
    sys.exit(main())
