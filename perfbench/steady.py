"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py --workloads paper-protocol,cli-roundtrip --seed-base 100

Runs ``run.py`` ten times per workload in each of two sets, each run with
its own seed (set 1 uses seeds ``seed-base .. seed-base + 9``, set 2 the
next ten, so it is held out from set 1), interleaving workloads.  For every
end-to-end metric of ``BENCHMARK.json`` and every workload it reports each
set's median and quartiles, the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), whether that spread is below the
metric's bound (and below a third of it), and whether set 2's median is
within the bound of set 1's.  Pass times of all runs are pooled to give the
highest percentile with at least ten passes beyond it.

Writes the raw values to ``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10                 # runs per workload and set
SETS = ("set1", "set2")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    detail_path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    passes = []
    if detail_path.exists():
        passes = [p["wall"] for p in json.loads(detail_path.read_text())["passes"]
                  if not p["traced"]]
    return {"seed": seed, "rc": proc.returncode, "result": result, "passes": passes,
            "stderr": proc.stderr[-2000:]}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: {k: [] for k in SETS} for w in workloads}
    t_start = time.time()
    for si, k in enumerate(SETS):
        for r in range(RUNS):
            for w in workloads:
                seed = args.seed_base + si * RUNS + r
                res = run_once(w, seed, bench["run_seconds"])
                runs[w][k].append(res)
                status = "ok" if res["rc"] == 0 and res["result"] and res["result"]["correct"] \
                    else f"FAILED rc={res['rc']}"
                vals = {n: round(v["value"], 4)
                        for n, v in (res["result"] or {}).get("metrics", {}).items()
                        if n in metrics}
                print(f"[{time.time() - t_start:7.1f}s] {k} {w} seed {seed}: {status} {vals}",
                      flush=True)

    ok = True
    print()
    for w in workloads:
        pooled = [x for s in runs[w].values() for r in s for x in r["passes"]]
        print(f"{w}: pass wall tail {run.tail_percentile(pooled)} over {len(pooled)} passes")
        for name, spec in metrics.items():
            sets = {}
            for k, s in runs[w].items():
                vals = [r["result"]["metrics"][name]["value"] for r in s
                        if r["result"] and name in r["result"]["metrics"]]
                sets[k] = summary(vals) if len(vals) >= 2 else None
            if None in sets.values():
                print(f"  {name}: too few results")
                ok = False
                continue
            bound = spec["bound"]
            drift = (sets["set2"]["median"] - sets["set1"]["median"]) / sets["set1"]["median"]
            if spec["better"] == "higher":
                drift = -drift
            ok &= drift <= bound and all(s["spread"] <= bound for s in sets.values())
            line = [f"{k} median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                    f"spread {s['spread']:.3f} ({'<' if s['spread'] < bound / 3 else '>='}"
                    f" bound/3)" for k, s in sets.items()]
            print(f"  {name} (bound {bound}): " + "; ".join(line)
                  + f"; drift {drift:+.3f} {'ok' if drift <= bound else 'WORSE'}")
        bad = [r for s in runs[w].values() for r in s
               if r["rc"] != 0 or not r["result"] or not r["result"]["correct"]]
        for r in bad:
            ok = False
            print(f"  run with seed {r['seed']} failed: rc={r['rc']} {r['stderr'][-300:]}")
    out = ROOT / ".perfbench" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"\n{'agree' if ok else 'DO NOT agree'} within the bounds; raw values in "
          f"{out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
