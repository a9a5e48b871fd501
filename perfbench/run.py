"""slowvary benchmark: one command per workload run.

    python3 perfbench/run.py --workload reduce-families --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout and imports ``slowvary`` from its
``src/``.  The work happens in ``worker.py`` processes started from here
with ``SLOWVARY_THREADS`` set to the number of usable cores:

* ``--trace 0``: four set-up probes and the measuring worker.  Each one
  counts as a set-up sample, timed from process launch to the worker's
  ``READY`` line (interpreter start, ``import slowvary``, input
  generation, one untimed warm-up op per part) and scaled to the
  reference host speed with ``hostspeed`` timed right before the launch;
  ``setup_s`` is their median.  The measuring worker then runs the
  workload's batch for ``--seconds`` and reports ``wall_s`` and
  ``peak_rss_mb`` (and prints ``op_p50_s``).
* ``--trace 1``: one worker alternating untraced and traced passes; it
  reports the per-layer metrics and writes every span under
  ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``src/slowvary`` in the checkout the command exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reduce-families", "grid-problems")
TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import_s": "s",
    "cli.main_s": "s",
    "cli.save_s": "s",
    "cli.bytes_out": "bytes",
    "crosssection.load_s": "s",
    "crosssection.load_entries": "count",
    "crosssection.split_s": "s",
    "crosssection.validate_s": "s",
    "models.family_s": "s",
    "models.family_bytes": "bytes",
    "slowreduce.construct_s": "s",
    "slowreduce.invariance_s": "s",
    "slowreduce.indices": "count",
    "taylorsystem.block_rows": "count",
    "taylorsystem.skipped": "count",
    "simulate.mode_samples": "count",
    "rational.calls": "count",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def _worker(args, mode: str, deadline: float) -> tuple[float, float, str]:
    """Start a worker.

    Returns (seconds until READY, reference seconds just before the
    launch, remaining stdout).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    env = dict(os.environ, SLOWVARY_THREADS=str(len(os.sched_getaffinity(0))))
    ref = hostspeed.reference()
    t = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        # past the deadline the worker is killed, which also ends the reads
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or line.strip() != "READY":
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return ready, ref, rest


def main() -> int:
    ap = argparse.ArgumentParser(description="slowvary benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "slowvary" / "__init__.py").is_file():
        print(f"run.py: no slowvary sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        hostspeed.reference()  # the first LAPACK call is slow once
        setups = []
        if not args.trace:
            for _ in range(4):
                setups.append(_worker(args, "probe", deadline)[:2])
        ready, ref, rest = _worker(args, "run", deadline)
        setups.append((ready, ref))
        res = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, IndexError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        layers = res["layers"]
        values = {name: layers.get(name, 0) for name in PER_LAYER}
        units = dict(PER_LAYER)
        state = ROOT / ".perfbench" / "traces"
        (state / f"{args.workload}-seed{args.seed}.layers.json").write_text(
            json.dumps(layers, indent=1, sort_keys=True) + "\n")
        print(f"per traced pass ({res['traced_passes']} traced, "
              f"{res['passes']} untraced passes, {res['attempted']} ops):")
        for name in sorted(layers):
            unit = units.get(name, "s" if name.endswith("_s") else "")
            print(f"  {name} = {layers[name]:.6g} {unit}")
    else:
        scaled = [hostspeed.scaled(ready, ref) for ready, ref in setups]
        values = {"setup_s": statistics.median(scaled), "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
        print(f"setup_s = {values['setup_s']:.6g} s at reference speed (median of "
              f"{', '.join(f'{s:.4f}' for s in scaled)}; as measured "
              f"{', '.join(f'{s:.4f}' for s, _ in setups)})")
        print(f"wall_s = {res['wall_s']:.6g} s, op_p50_s = {res['op_p50_s']:.6g} s at "
              f"reference speed (each op's median of up to {res['passes']} samples, "
              f"{res['batch']} ops; as measured, the sum of each op's fastest "
              f"sample is {res['raw_wall_s']:.6g} s)")
        print(f"peak_rss_mb = {res['peak_rss_mb']:.6g} MB")
    print(f"fail_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
