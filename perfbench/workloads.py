"""The benchmark's workloads: a fixed batch of CLI ops, each with its oracle.

An op is one in-process call of ``slowvary.cli.main`` with an output
directory of its own.  Its check runs after the timed call and returns
the list of problems found (empty when the output is correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracles

WHY = {
    "reduce-families": "reduce on seeded families from JSON: float (zero, Jordan, rotation "
                       "centres; split, Sylvester recursion, block checks) and exact "
                       "(rational solves, both construction routes)",
    "grid-problems": "grid-sized problems: 48x48 and 64x64 diffusion cells (dense assembly, "
                     "sparse split; memory-bound) and a 128x128 walker simulate plus "
                     "two order studies (RK4, FFT, frame output)",
}

# each workload runs the ops of two parts, one after the other; a part is
# one kind of problem with its own inputs (inputs.generate) and oracle
PARTS = {
    "reduce-families": ("reduce-random", "reduce-exact"),
    "grid-problems": ("cell-homogenise", "simulate-walker"),
}


@dataclass
class Op:
    name: str
    argv: list
    out: Path
    check: Callable[[int], list]  # exit code -> problems

    def cli_argv(self) -> list:
        return self.argv + ["--out", str(self.out)]


def _reduce_random(items, out: Path) -> list:
    from slowvary import OperatorFamily, construct_reduction, spectral_split

    ops = []
    for gap in items:
        argv = ["reduce", "--model", str(gap.path), "-N", str(gap.N)]
        if gap.centre == "jordan":
            argv += ["--alpha", "1e-6"]
        d = out / gap.path.stem
        memo = {}

        def check(rc, gap=gap, d=d, memo=memo):
            problems = oracles.report_problems(d, rc)
            A = oracles.coefficients(oracles.read_json(d / "model.json"))
            if gap.centre == "jordan":
                # Jordan eigenvalues are ill-conditioned: compare with the
                # generating construction route instead
                if "ref" not in memo:
                    fam = OperatorFamily(gap.ops)
                    split = spectral_split(fam, gap.N, alpha=1e-6)
                    memo["ref"] = construct_reduction(
                        fam, gap.N, split=split, method="generating")[0].A
                return problems + oracles.coefficient_problems(A, memo["ref"])
            if "ref" not in memo:
                memo["ref"] = oracles.SymbolBranch(gap.ops, gap.m, gap.N)
            return problems + memo["ref"].problems(A)

        ops.append(Op(f"{gap.path.stem}-d{gap.dimU}-m{gap.m}-N{gap.N}-{gap.centre}",
                      argv, d, check))
    return ops


def _cell(items, out: Path) -> list:
    ops = []
    for cell in items:
        d = out / cell.path.stem

        def check(rc, cell=cell, d=d):
            problems = oracles.report_problems(d, rc)
            A = oracles.coefficients(oracles.read_json(d / "model.json"))
            return problems + oracles.cell_problems(A, cell.expr, cell.n, cell.amplitude)

        ops.append(Op(f"{cell.expr}-n{cell.n}", ["reduce", "--model", str(cell.path)],
                      d, check))
    return ops


def _simulate(items, out: Path) -> list:
    from slowvary import OperatorFamily
    from slowvary.simulate import mode_evolution_oracle

    (walker,) = items
    family = OperatorFamily(walker.ops)

    def propagate(kappa, t, u0):
        return mode_evolution_oracle(family, kappa, t, u0=u0)

    d = out / "simulate"

    def check_sim(rc):
        return (oracles.report_problems(d, rc)
                + oracles.mode_problems(d / "frames.bin", propagate, 128.0))

    model = str(walker.path)
    ops = [Op("simulate-N2-128x128",
              ["simulate", "--model", model, "-N", "2", "--grid", "128,128",
               "--wavelengths", "128", "--T", "20"], d, check_sim)]
    for N in (2, 3):
        dN = out / f"converge{N}"

        def check(rc, N=N, dN=dN):
            return (oracles.report_problems(dN, rc)
                    + oracles.order_problems(oracles.read_json(dN / "report.json"), N))

        ops.append(Op(f"converge-N{N}", ["converge", "--model", model, "-N", str(N)],
                      dN, check))
    return ops


def _exact(items, out: Path) -> list:
    from slowvary.models import random_walker_modal, random_walker_physical

    walkers = {"walker-modal": random_walker_modal(exact=True).ops,
               "walker-physical": random_walker_physical(exact=True).ops}
    cases = [(name, name, N, walkers[name]) for name in walkers for N in (6, 8, 10)]
    cases += [(fam.path.stem, str(fam.path), 3, fam.ops) for fam in items]
    ops = []
    for label, model, N, fam_ops in cases:
        for method in ("vectors", "generating"):
            d = out / f"{label}-N{N}-{method}"
            seen = oracles.Verified()

            def check(rc, d=d, fam_ops=fam_ops, seen=seen, golden=label in walkers):
                problems = oracles.report_problems(d, rc)

                def verify():
                    A = oracles.coefficients(oracles.read_json(d / "model.json"), exact=True)
                    found = oracles.golden_problems(A) if golden else []
                    return found + oracles.invariance_problems(
                        fam_ops, A, oracles.read_json(d / "basis.json"))

                return problems + seen.check([d / "model.json", d / "basis.json"], verify)

            ops.append(Op(f"{label}-N{N}-{method}",
                          ["reduce", "--model", model, "-N", str(N), "--exact",
                           "--method", method], d, check))
    return ops


_BUILDERS = {
    "reduce-random": _reduce_random,
    "cell-homogenise": _cell,
    "simulate-walker": _simulate,
    "reduce-exact": _exact,
}

# per part, the op run once, untimed, before timing starts (the part's cheapest)
_WARMUP = {"reduce-random": 0, "reduce-exact": 0, "cell-homogenise": 1,
           "simulate-walker": 1}


def build(workload: str, seed: int, work: Path) -> tuple[list, list]:
    """Generate the workload's inputs under ``work``.

    Returns its ops and the warm-up ops among them.
    """
    ops, warmup = [], []
    for part in PARTS[workload]:
        items = inputs.generate(part, seed, work / "inputs" / part)
        part_ops = _BUILDERS[part](items, work / "out" / part)
        warmup.append(part_ops[_WARMUP[part]])
        ops += part_ops
    return ops, warmup
