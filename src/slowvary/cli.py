"""Command-line front end.

Subcommands::

    slowvary reduce   --model walker-modal --order 2 --out results/
    slowvary validate --model family.json
    slowvary simulate --model walker-modal --order 2 --T 26 --out run/
    slowvary converge --model walker-modal --order 2 --wavelengths 32,64,128
    slowvary demo walker

Built-in model names: ``walker-modal``, ``walker-physical``,
``homogenise-constant``, ``homogenise-layered``,
``homogenise-checkerboard``; anything else is read as a JSON file
holding either an operator family or a diffusivity cell problem.

Every subcommand runs one pipeline (``_run``): check the options, load
the model, split ``L_0`` once, construct the order-N closure once
(``--order``, ``--tol``, ``--method``; all but ``validate``), then run the
subcommand's own body.  The options are the argparse namespace itself.
The demos take the same options.  ``demo walker``
reduces the walker in exact arithmetic; the cell demos print ``A_(2,0)``
and ``A_(0,2)`` and so need ``--order`` of at least 2.

Exit codes: 0 all checks pass; 2 the model violates a structural
assumption or the config is invalid; 3 a numerical check failed.
``report.json`` is written in every case (``error.check`` naming the
failed check, ``"config"`` for options and model files) except two: when
``--out`` is not a directory, and when argparse refuses the command line
(exit 2, usage text on stderr, nothing written).  The parsed argv, wall
clock, environment, the model family's storage (``dense``, ``csr`` or
``exact``) and bytes, and the bytes and write time of each output file
go to ``run_meta.json`` so that ``report.json`` is byte-identical across
reruns of the same config.

The library functions are called as attributes of their modules
(``crosssection.spectral_split``, ``slowreduce.construct_reduction``, ...),
never bound here by name, so that a wrapper the benchmark's tracer puts on
the module is the function this module calls.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import _rational as rat, crosssection, models, simulate, slowreduce, taylorsystem
from .errors import ConfigError, FamilyValidationError, NumericalCheckError
from .multiindex import format_index, graded_key

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# built-in model names, in the order a config error lists them, with the
# expression of each built-in cell (None for the walkers)
BUILTIN_MODELS = {
    "walker-modal": None,
    "walker-physical": None,
    "homogenise-constant": "constant",
    "homogenise-layered": "layered_cos",
    "homogenise-checkerboard": "checkerboard_smooth",
}

# reduce runs the symbol-order check only up to this many block rows
# (retained indices times dimU) and reports it skipped above
_BLOCK_CHECK_LIMIT = 2000


def _parse_grid(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _parse_wavelengths(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slowvary",
        description="Slow-variable reduction of linear lattice and PDE systems.",
    )
    ap.set_defaults(amplitude=0.5)  # the demo's --a; the cells of the others use 0.5
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model_flag=True):
        if model_flag:
            p.add_argument("--model", required=True,
                           help="built-in name or JSON file path")
        p.add_argument("--order", "-N", dest="N", type=int, default=2,
                       help="truncation order of the closure (default 2)")
        p.add_argument("--alpha", type=float, default=None,
                       help="centre/stable split threshold override")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="residual tolerance for numerical checks")
        p.add_argument("--grid", type=_parse_grid, default=(32,),
                       help="grid points, comma separated per direction")
        p.add_argument("--T", type=float, default=26.0,
                       help="simulation span")
        p.add_argument("--wavelengths", type=_parse_wavelengths,
                       default=(16.0, 32.0, 64.0, 128.0),
                       help="comma separated box sizes")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory")
        p.add_argument("--exact", action="store_true",
                       help="rational arithmetic (built-in models, dimU <= 8)")
        p.add_argument("--method", choices=("vectors", "generating"),
                       default="vectors",
                       help="both values run the one recursion on the basis "
                            "vectors; kept until the benchmark drops it")

    common(sub.add_parser("reduce", help="construct the macroscale closure"))
    common(sub.add_parser("validate", help="check model assumptions"))
    common(sub.add_parser("simulate", help="integrate micro and macro side by side"))
    common(sub.add_parser("converge", help="plateau error against wavelength"))
    pd = sub.add_parser("demo", help="run a built-in walkthrough")
    pd.add_argument("model", metavar="name", help="one of %(choices)s",
                    choices=("walker", "homogenise-constant", "homogenise-layered"))
    pd.add_argument("--a", dest="amplitude", type=float, default=0.5,
                    help="layer amplitude for homogenise-layered")
    common(pd, model_flag=False)
    return ap


def _grid_text(cfg: argparse.Namespace) -> str:
    return ",".join(map(str, cfg.grid))


# -- model resolution ---------------------------------------------------------


def _load_model(cfg: argparse.Namespace):
    """Returns (family, cell) for the configured model source or demo name."""
    name, exact = cfg.model, cfg.exact
    if cfg.command == "demo":  # the walker demo is exact, the cell demos float
        name, exact = ("walker-modal", True) if name == "walker" else (name, False)
    cell = None
    if name == "walker-modal":
        family = models.random_walker_modal(exact=exact)
    elif name == "walker-physical":
        family = models.random_walker_physical(exact=exact)
    elif name in BUILTIN_MODELS:
        if len(cfg.grid) > 1:
            raise ConfigError(f"the built-in cells take one --grid entry "
                              f"(the cell's n), got {_grid_text(cfg)}")
        cell = models.CellProblem.from_expression(
            BUILTIN_MODELS[name], n=cfg.grid[0], amplitude=cfg.amplitude
        )
        family = models.homogenisation_cell(cell)
    else:
        path = Path(name)
        if not path.is_file():
            raise ConfigError(
                f"model {name!r} is neither a built-in "
                f"({', '.join(BUILTIN_MODELS)}) nor an existing file"
            )
        try:
            data = rat.load_json(path)
            if not isinstance(data, dict):
                raise ConfigError(f"model file {name} is not a JSON object")
            if "operators" in data:
                family = crosssection.OperatorFamily.from_json(data, exact=exact)
            elif "K" in data or "K_expr" in data:
                cell = models.CellProblem.from_json(data)
                family = models.homogenisation_cell(cell)  # a non-finite stencil is refused
            else:
                raise ConfigError(
                    f"{name} holds neither an operator family "
                    "(key 'operators') nor a cell problem (key 'K'/'K_expr')"
                )
        except ValueError as exc:
            raise ConfigError(f"model file {name}: {exc}") from None
    if exact:
        if name not in BUILTIN_MODELS and not family.is_exact:
            raise ConfigError("--exact requires a built-in model "
                              "or a rational-valued model file")
        if family.dimU > 8:
            raise ConfigError("--exact supports dimU <= 8, "
                              f"got dimU = {family.dimU}")
    return family, cell


# -- report plumbing ----------------------------------------------------------


def _sig(x, digits=12):
    """Round to a fixed number of significant digits for stable reports."""
    if isinstance(x, dict):
        return {k: _sig(v, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig(v, digits) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, complex):
        return [_sig(x.real, digits), _sig(x.imag, digits)]
    if isinstance(x, np.ndarray):
        return _sig(x.tolist(), digits)
    xf = float(x)
    if xf == 0 or not np.isfinite(xf):
        return 0.0 if xf == 0 else repr(xf)
    return float(f"{xf:.{digits}e}")


@contextlib.contextmanager
def _output(meta: dict, path: Path):
    """Yield ``path`` to the block that writes it, then record the file's
    bytes and the block's wall time under ``meta["outputs"]``."""
    start = time.perf_counter()
    yield path
    meta.setdefault("outputs", {})[path.name] = {
        "bytes": path.stat().st_size, "seconds": time.perf_counter() - start}


def _write_report(out: Path | None, report: dict, meta: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None or not out.is_dir():
        return
    meta = dict(meta)
    with _output(meta, out / "report.json") as path:
        path.write_text(text)
    meta["wallclock_unix"] = time.time()
    (out / "run_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def _coeff_table(model) -> dict:
    encode = rat.encode_matrix if model.is_exact else _sig
    return {format_index(n): encode(model.A[n]) for n in sorted(model.A, key=graded_key)}


# -- subcommands --------------------------------------------------------------
# A body gets the family, its cell problem (or None), the split and the
# constructed model and basis (None for ``validate``), fills ``report``
# (and ``meta``, the run_meta.json record) and returns the exit code;
# ``_run`` maps what it raises.


def _split_fields(family, split) -> dict:
    return {
        "dimU": family.dimU,
        "M": family.M,
        "m": split.m,
        "alpha": _sig(split.alpha),
        "beta": _sig(split.beta) if math.isfinite(split.beta) else None,
        "spectrum_complete": split.spectrum_complete,
    }


def _residual_failures(cfg: argparse.Namespace, famf, vrep) -> list:
    """The split residuals above ``--tol`` times ``max(1, max|L_k|)``, or NaN."""
    bound = cfg.tol * max(1.0, max(float(abs(op).max()) for op in famf.ops.values()))
    return [name for name, value in (("binorm_residual", vrep.binorm_residual),
                                     ("centre_invariance_residual", vrep.invariance_residual))
            if not value <= bound]


def _reduce(cfg: argparse.Namespace, family, cell, split, model, basis, report: dict,
            meta: dict) -> int:
    vrep = crosssection.validate_family(family, cfg.N, alpha=cfg.alpha, split=split)
    famf = family.to_float()
    residual_failures = _residual_failures(cfg, famf, vrep)

    inv, inv_scale = slowreduce.check_invariance(family, model, basis, with_scale=True)
    checks = {"invariance_residual": _sig(inv),
              "invariance_pass": bool(inv <= cfg.tol * inv_scale)}

    nblock = len(basis.vectors) * family.dimU
    if nblock <= _BLOCK_CHECK_LIMIT:
        start = time.perf_counter()
        order = taylorsystem.symbol_order_check(famf, split, model.to_float(), cfg.N)
        meta["symbol_order"] = {"rungs": order.rungs, "max_iterations": order.iterations,
                                "seconds": time.perf_counter() - start}
        # 3 digits: the fitted slope's trailing digits vary with BLAS threading
        checks["symbol_order_slope"] = None if order.slope is None else _sig(order.slope, 2)
        checks["symbol_order_pass"] = order.passed
        if not order.passed:
            print(f"slowvary: symbol_order_check: {order.message}", file=sys.stderr)
    else:
        checks["symbol_order_slope"] = "skipped"
        meta["symbol_order"] = {"skipped": f"{nblock} block rows exceed the "
                                           f"{_BLOCK_CHECK_LIMIT}-row limit of the "
                                           "symbol-order check"}

    report.update(_split_fields(family, split))
    report.update({
        "gap_margin": _sig(split.beta - cfg.N * split.alpha)
        if np.isfinite(split.beta) else None,
        "validation": {
            "binorm_residual": _sig(vrep.binorm_residual),
            "centre_invariance_residual": _sig(vrep.invariance_residual),
            "checks_passed": not residual_failures,
        },
        "coefficients": _coeff_table(model),
        "checks": checks,
    })
    failing = [k for k, v in checks.items() if k.endswith("_pass") and not v]
    failing += residual_failures
    report["pass"] = not failing

    if cfg.out is not None:
        with _output(meta, cfg.out / "model.json") as path:
            model.save(path)
        with _output(meta, cfg.out / "basis.json") as path:
            basis.save(path)

    if split.m == 1:
        print(model.equation_text())
    for idx, mat in report["coefficients"].items():
        print(f"A_({idx}) = {mat}")
    if failing:
        print(f"slowvary: FAIL {failing}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all checks passed")
    return EXIT_OK


def _validate(cfg: argparse.Namespace, family, cell, split, model, basis, report: dict,
              meta: dict) -> int:
    vrep = crosssection.validate_family(family, cfg.N, alpha=cfg.alpha, split=split)
    failing = _residual_failures(cfg, family.to_float(), vrep)
    report.update(_split_fields(family, split))
    report.update({
        "centre_eigenvalues": _sig(split.centre_eigenvalues()),
        "binorm_residual": _sig(vrep.binorm_residual),
        "centre_invariance_residual": _sig(vrep.invariance_residual),
        "pass": not failing,
    })
    if failing:
        print(f"slowvary: FAIL {failing} above --tol times max(1, max|L_k|)", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"model ok: m={split.m} centre mode(s), "
          f"gap beta={report['beta']}, alpha={report['alpha']}")
    return EXIT_OK


def _simulate(cfg: argparse.Namespace, family, cell, split, model, basis, report: dict,
              meta: dict) -> int:
    famf = family.to_float()
    modelf = model.to_float()

    L = float(cfg.wavelengths[0])
    lengths = (L,) * famf.M
    grid = tuple(cfg.grid) + (1,) * (famf.M - len(cfg.grid))
    profile = simulate.plane_wave(lengths, grid, split.m)
    values0 = np.einsum("...m,dm->...d", profile, np.asarray(split.V0, float))
    field0 = simulate.MicroField(lengths, values0)

    res = simulate.emergence_error(famf, modelf, split, field0, T=cfg.T, samples=200)
    closure = simulate.closure_residual(res.micro, modelf, split)

    report.update({
        "box": list(lengths),
        "grid": list(grid),
        "t_skip": _sig(res.t_skip),
        "plateau": _sig(res.plateau()),
        "closure_ratio": _sig(closure.ratio),
        "pass": True,
    })
    if cfg.out is not None:
        with _output(meta, cfg.out / "frames.bin") as path:
            simulate.write_frames(path, res.micro)
        with _output(meta, cfg.out / "emergence.csv") as path, open(path, "w") as fh:
            fh.write("t,relative_error\n")
            for t, e in zip(res.times, res.error):
                fh.write(f"{float(t)!r},{float(e)!r}\n")
    print(f"emergence plateau {report['plateau']:.3e}, "
          f"closure ratio {report['closure_ratio']:.3e} "
          f"(t_skip {report['t_skip']:.3g})")
    return EXIT_OK


def _converge(cfg: argparse.Namespace, family, cell, split, model, basis, report: dict,
              meta: dict) -> int:
    study = simulate.closure_order_study(
        family.to_float(), model.to_float(), split, cfg.wavelengths,
        grid_points=cfg.grid[0],
    )

    if cfg.out is not None:
        with _output(meta, cfg.out / "orders.csv") as path, open(path, "w") as fh:
            fh.write("wavelength,plateau\n")
            for L, p in zip(study.wavelengths, study.plateaus):
                fh.write(f"{float(L)!r},{float(p)!r}\n")

    report.update({
        "plateaus": _sig(study.plateaus),
        "degenerate": study.degenerate,
        "order": _sig(study.order) if study.order is not None else None,
        "expected_order": cfg.N + 1,
    })
    if study.degenerate:
        report["pass"] = True
        print("degenerate study: plateau at rounding floor, slope undefined")
        return EXIT_OK
    lo, hi = cfg.N + 0.5, cfg.N + 1.5
    ok = lo <= study.order <= hi
    report["pass"] = bool(ok)
    print(f"fitted closure order {study.order:.3f} "
          f"(expected {cfg.N + 1}, acceptable [{lo}, {hi}])")
    if not ok:
        print(f"slowvary: FAIL [closure_order] slope {study.order:.3f} "
              f"outside [{lo}, {hi}]", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _demo(cfg: argparse.Namespace, family, cell, split, model, basis, report: dict,
          meta: dict) -> int:
    if cell is None:
        inv = slowreduce.check_invariance(family, model, basis)
        print("three-velocity walker, modal coordinates")
        print(model.equation_text())
        for idx, mat in _coeff_table(model).items():
            print(f"  A_({idx}) = {mat}")
        print(f"  invariance residual: {inv!r}")
        report.update({"coefficients": _coeff_table(model),
                       "invariance_residual": _sig(inv), "pass": True})
        return EXIT_OK
    a20 = float(model.coefficient((2, 0))[0, 0])
    a02 = float(model.coefficient((0, 2))[0, 0])
    ratio = models.cell_gap_ratio(cell, split)
    print(f"diffusion cell problem: {cell.expr}, grid {cell.n}x{cell.n}")
    print(model.equation_text())
    if cell.expr == "layered_cos":
        a = cfg.amplitude
        print(f"  effective coefficients: harmonic mean "
              f"{np.sqrt(1 - a * a):.6f} along the layering, "
              f"arithmetic mean 1.0 across it")
    print(f"  A_(2,0) = {a20:.6f}, A_(0,2) = {a02:.6f}, "
          f"gap ratio {ratio:.3f}")
    report.update({"A20": _sig(a20), "A02": _sig(a02),
                   "gap_ratio": _sig(ratio), "pass": True})
    return EXIT_OK


# subcommand -> (body, options copied into the report header)
_COMMANDS = {
    "reduce": (_reduce, ("N", "exact", "method")),
    "validate": (_validate, ("N",)),
    "simulate": (_simulate, ("N",)),
    "converge": (_converge, ("N", "wavelengths")),
    "demo": (_demo, ()),
}


def _run(cfg: argparse.Namespace, argv: list) -> int:
    """Check, load, split and construct once, run the subcommand, write the report."""
    if cfg.out is not None:
        with contextlib.suppress(OSError):  # reported below as not a directory
            cfg.out.mkdir(parents=True, exist_ok=True)
    body, header = _COMMANDS[cfg.command]
    report: dict = {"command": cfg.command, "model": cfg.model}
    report.update({key: getattr(cfg, key) for key in header})
    meta = {"argv": argv, "command": cfg.command, "model": cfg.model,
            "python": sys.version.split()[0]}
    try:
        if cfg.out is not None and not cfg.out.is_dir():
            raise ConfigError(f"--out {cfg.out} is not a directory")
        if cfg.N < 1:
            raise ConfigError("--order must be at least 1")
        if cfg.alpha is not None and not 0 <= cfg.alpha < math.inf:
            raise ConfigError(f"--alpha must be non-negative and finite, "
                              f"got {cfg.alpha}")
        if min(cfg.grid) < 1:
            raise ConfigError("--grid entries must be at least 1")
        for flag, value in (("--T", cfg.T), ("--tol", cfg.tol),
                            *(("--wavelengths", L) for L in cfg.wavelengths)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{flag} must be positive and finite, "
                                  f"got {value}")
        if cfg.command in ("simulate", "converge") and any(g & (g - 1) for g in cfg.grid):
            raise ConfigError(f"--grid entries must be powers of two, "
                              f"got {_grid_text(cfg)}")
        if cfg.command in ("simulate", "converge") and cfg.grid[0] < 4:
            raise ConfigError(f"{cfg.command} needs at least 4 points along the first --grid "
                              f"axis, got {cfg.grid[0]}; on fewer the wave is zero to rounding")
        if cfg.command == "converge" and len(cfg.grid) > 1:
            raise ConfigError(f"converge takes one --grid entry (points along "
                              f"the first axis), got {_grid_text(cfg)}")
        if cfg.command == "converge" and len(set(cfg.wavelengths)) < 2:
            raise ConfigError("converge needs two distinct --wavelengths")
        if cfg.command == "demo" and cfg.model != "walker" and cfg.N < 2:
            raise ConfigError("the cell demos print A_(2,0) and A_(0,2), "
                              "--order must be at least 2")
        family, cell = _load_model(cfg)
        meta["family"] = {"storage": family.storage, "bytes": family.nbytes}
        if cfg.command == "simulate" and len(cfg.grid) > family.M:
            raise ConfigError(f"--grid has {len(cfg.grid)} entries, "
                              f"the model only {family.M} directions")
        split = crosssection.spectral_split(family, N=cfg.N, alpha=cfg.alpha)
        model = basis = None
        if cfg.command != "validate":
            model, basis = slowreduce.construct_reduction(
                family, cfg.N, split=split, tol=cfg.tol, method=cfg.method
            )
        code = body(cfg, family, cell, split, model, basis, report, meta)
    except (ConfigError, FamilyValidationError, NumericalCheckError) as exc:
        check = "config" if isinstance(exc, ConfigError) else type(exc).__name__
        code = EXIT_NUMERICAL if isinstance(exc, NumericalCheckError) else EXIT_INVALID
        report["pass"] = False
        report["error"] = {"check": check, "message": str(exc)}
        print(f"slowvary: FAIL [{check}] {exc}", file=sys.stderr)
    _write_report(cfg.out, report, meta)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    return _run(_build_parser().parse_args(argv), argv)


if __name__ == "__main__":
    raise SystemExit(main())
