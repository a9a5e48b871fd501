"""Benchmark worker: one process that sets up a workload, runs it, reports.

Started by ``run.py``.  It imports ``slowvary`` from the checkout's
``src/``, writes the workload's inputs, runs one untimed warm-up op per
part and prints ``READY``; that line ends the set-up.  With ``--mode
probe`` it stops there.  Otherwise it runs the workload's batch of ops
over and over until ``--seconds`` have elapsed (no op starts after
that, even in the middle of a pass), checks every op's output with its
oracle after the op (untimed), and prints one JSON line.

With ``--trace 1`` whole passes alternate between untraced and traced;
the traced passes give the per-layer self times and counts (per pass),
the untraced ones the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

t0 = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import slowvary  # noqa: E402
from slowvary import cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def run_op(op, tracer=None) -> tuple[float, float, list]:
    """Run one op; returns (wall seconds, reference seconds, problems).

    Untimed before the op: a full garbage collection, so that every op
    starts from the same collector state whatever ran before it (an
    earlier op, an oracle), and the host-speed reference kernel.  The
    collections the op's own allocations set off are timed.
    """
    shutil.rmtree(op.out, ignore_errors=True)
    gc.collect()
    ref = hostspeed.reference()
    sink = io.StringIO()
    span = tracer.span("op") if tracer else contextlib.nullcontext()
    t = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(op.cli_argv())
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an exception is a failed op, not a failed benchmark
        rc = "exception: " + traceback.format_exc(limit=3)
    wall = time.perf_counter() - t
    try:
        problems = op.check(rc)
    except Exception:  # unreadable or missing output
        problems = [f"rc={rc!r}; check raised: " + traceback.format_exc(limit=3)]
    if problems:
        problems.append("cli output: " + sink.getvalue()[-2000:])
    return wall, ref, problems


def _pass_s(samples) -> float:
    """Seconds of one pass at the reference speed.

    ``samples`` holds, per op, its (wall, reference) samples; each op
    counts with the median of its scaled samples.
    """
    return sum(_op_s(s) for s in samples)


def _op_s(samples) -> float:
    return statistics.median(hostspeed.scaled(w, r) for w, r in samples)


def _layer_counts(ops, tracer) -> None:
    """Output sizes and skipped block checks, counted after each traced pass."""
    for op in ops:
        tracer.counts["cli.bytes_out"] += sum(
            p.stat().st_size for p in op.out.rglob("*") if p.is_file())
        report = op.out / "report.json"
        checks = oracles.read_json(report).get("checks", {}) if report.exists() else {}
        if checks.get("block_spectrum_distance") == "skipped":
            tracer.counts["taylorsystem.skipped"] += 1


def run(ops, seconds: float, traced: bool) -> dict:
    # traced? -> per op -> (wall, reference) samples
    op_times = {False: [[] for _ in ops], True: [[] for _ in ops]}
    tracer = Tracer()
    failures = []
    attempted = 0
    def passes(on):
        return len(op_times[on][0])

    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or not passes(False)
           or (traced and not passes(True))):
        on = traced and passes(False) > passes(True)
        if on:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if (not traced and op_times[False][-1]
                        and time.perf_counter() - start >= seconds):
                    break  # time is up and every op has a sample
                tracer.op = attempted
                wall, ref, problems = run_op(op, tracer if on else None)
                attempted += 1
                op_times[on][i].append((wall, ref))
                if problems:
                    failures.append((op.name, problems))
        finally:
            tracer.uninstall()
        if on:
            _layer_counts(ops, tracer)
    return {"op_times": op_times, "tracer": tracer, "failures": failures,
            "attempted": attempted}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("probe", "run"), default="run")
    args = ap.parse_args()

    if not Path(slowvary.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"slowvary imported from {slowvary.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = STATE / f"work-{os.getpid()}"
    try:
        ops, warmup = workloads.build(args.workload, args.seed, work)
        for op in warmup:
            run_op(op)
        print("READY", flush=True)
        if args.mode == "probe":
            return 0
        res = run(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, problems in res["failures"]:
        print(f"FAILED {name}: " + " | ".join(problems), file=sys.stderr)
    out = {"correct": not res["failures"], "attempted": res["attempted"],
           "failed": len(res["failures"]), "passes": len(res["op_times"][False][0]),
           "batch": len(ops)}
    if args.trace:
        tracer = res["tracer"]
        n = len(res["op_times"][True][0])
        layers = {f"{k}_s": v / n for k, v in tracer.self_times().items() if k != "op"}
        layers.update({k: v / n for k, v in tracer.counts.items()})
        layers["import_s"] = IMPORT_S
        layers["trace_overhead_frac"] = (_pass_s(res["op_times"][True])
                                         / _pass_s(res["op_times"][False]) - 1.0)
        out["layers"] = layers
        out["traced_passes"] = n
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        samples = res["op_times"][False]
        out["wall_s"] = _pass_s(samples)
        out["op_p50_s"] = statistics.median(map(_op_s, samples))
        out["raw_wall_s"] = sum(min(w for w, _ in s) for s in samples)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
