"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload reduce-families --seeds 1-10 --seconds 45
    python3 perfbench/spread.py --workload reduce-families --json perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed (one run at a time) and prints,
for each end-to-end metric, the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.
With ``--json`` it also runs ``--trace 1`` on the first seed and records
the environment, every value, the spreads and every per-layer metric of
the workload in that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seconds: int) -> dict:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False).stdout.strip() or None
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    nproc = len(os.sched_getaffinity(0))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "SLOWVARY_THREADS": nproc,
            "cpu": cpu, "commit": commit, "run_seconds": seconds}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default="1-10")
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        t = time.perf_counter()
        res = _run(args.workload, seed, args.seconds, 0)
        print(f"seed {seed} ({time.perf_counter() - t:.1f} s): "
              f"correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    summary = {}
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                      "bound": bounds.get(k), "values": vals}
        print(f"{args.workload} {k}: median {med:.6g}, spread {(q3 - q1) / med:.4f} "
              f"(bound {bounds.get(k)})")
    if args.json:
        _run(args.workload, args.seeds[0], args.seconds, 1)
        layers = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seeds[0]}.layers.json"
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc["environment"] = environment(args.seconds)
        doc.setdefault("workloads", {})[args.workload] = {
            "seeds": args.seeds, "end_to_end": summary,
            "per_layer_seed": args.seeds[0],
            "per_layer": json.loads(layers.read_text()),
        }
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
