"""Command-line front end: forward/inverse runs, studies, and operator dumps.

Each command takes only the flags it reads, each flag setting one
``StudyConfig`` field, and every command accepts a flat ``key = value``
config file; explicit flags override file values, which override a
command's default grid and the built-in defaults.  ``main`` builds each
run's ``StudyConfig`` once and hands it to the command.  All numeric output
goes to CSV files with 17-significant-digit floats, so reruns with the same
configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .forward import SOLVERS, make_step_operators, run_forward
from .inverse import DenominatorNearZero, NoiseSpec
from .manufactured import EXAMPLE_IDS, SOURCES, build_manufactured, manufactured_problem
from .riesz import SCHEMES, QuadratureConvergenceError, assemble, quadrature_oracle
from .solvers import SolverError
from .studies import (
    U_COLUMNS,
    StudyConfig,
    convergence_study_space,
    convergence_study_time,
    emit_outputs,
    exact_comparison,
    load_config,
    noise_study,
    rate_fit,
    run_inverse_case,
    write_csv,
)

# --example n names the benchmark id "example<n>"
_EXAMPLES = {ident.removeprefix("example"): ident for ident in EXAMPLE_IDS}

# flag -> (StudyConfig field it sets, its argparse keywords); --config names
# the file the fields are read from.  A field holding a tuple, such as
# n_values, is set to the 1-tuple of the flag's value.
_FLAGS = {
    "--example": ("example", dict(choices=_EXAMPLES, help="benchmark problem id")),
    "--s": ("s", dict(type=float, help="fractional order in (0, 1)")),
    "--N": ("n_values", dict(type=int, help="number of spatial subintervals")),
    "--M": ("m_values", dict(type=int, help="number of time steps")),
    "--l": ("l", dict(type=float, help="domain length (default 1)")),
    "--T": ("t_final", dict(type=float, help="final time (default 1)")),
    "--solver": ("solver", dict(
        choices=SOLVERS, help="solver route (default: chosen from N, M and the series marched)")),
    "--tol": ("tol", dict(type=float, help="iterative solver tolerance")),
    "--delta": ("deltas", dict(type=float, help="relative noise level")),
    "--seed": ("seeds", dict(type=int, help="noise RNG seed")),
    "--smooth-window": ("smooth_window", dict(type=int, help="odd moving-average window")),
    "--source": ("source", dict(choices=SOURCES)),
    "--scheme": ("scheme", dict(choices=SCHEMES, help="stiffness matrix scheme")),
    "--out": ("out", dict(help="output directory")),
    "--config": ("config", dict(help="key = value config file")),
}

# the flags of a run with noise and without, and of the operator alone; only
# operator-dump takes --l, as the benchmarks are defined on unit domain length
_NOISE_FLAGS = [flag for flag in _FLAGS if flag != "--l"]
_RUN_FLAGS = [flag for flag in _NOISE_FLAGS if flag not in ("--delta", "--seed", "--smooth-window")]
_OPERATOR_FLAGS = ["--s", "--N", "--scheme", "--out", "--config"]


def _build_config(args: argparse.Namespace, default_grid: Optional[dict] = None) -> StudyConfig:
    """defaults < the command's default grid < config file < explicit flags; the
    default grid is taken whole, and only when no config file and no flag sets
    one of its fields"""
    config = load_config(args.config) if args.config else StudyConfig()
    updates = {}
    for field in fields(StudyConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            updates[field.name] = (value,) if isinstance(field.default, tuple) else value
    if "example" in updates:
        updates["example"] = _EXAMPLES[updates["example"]]
    if default_grid and args.config is None and not updates.keys() & default_grid:
        updates.update(default_grid)
    return replace(config, **updates)


def _cmd_forward(config: StudyConfig, args: argparse.Namespace) -> int:
    grid = config.single_grid()
    op = assemble(grid, config.scheme)
    spec, data = build_manufactured(config.example, grid, source=config.source, op=op)
    ops = make_step_operators(grid, op=op, solver=config.solver, tol=config.tol)
    trajectory = run_forward(data, grid, ops=ops)

    outdir = Path(config.out)
    x = grid.interior_x()
    write_csv(outdir / "trajectory.csv", ("t", "x", "u"), trajectory.states,
              index=(grid.times(), x))
    u_table = exact_comparison(x, spec.u_exact(grid.T, x), trajectory.final)
    write_csv(outdir / "u_final.csv", U_COLUMNS, u_table)
    err = float(np.max(u_table[:, 3]))
    print(f"forward {config.example} N={grid.N} M={grid.M} s={grid.s}: "
          f"Linf error in u at T = {err:.6e}")
    return 0


def _cmd_inverse(config: StudyConfig, args: argparse.Namespace) -> int:
    # single-run noise comes from the explicit flags only; delta lists belong
    # to the noise study
    if args.seeds is not None and args.deltas is None:
        raise ValueError("--seed seeds the noise of --delta: give --delta too, or no --seed")
    grid = config.single_grid()
    noise = None if args.deltas is None else NoiseSpec(delta=args.deltas, seed=config.seeds[0])
    result = run_inverse_case(
        config.example,
        grid,
        source=config.source,
        solver=config.solver,
        tol=config.tol,
        noise=noise,
        smooth_window=config.smooth_window,
        scheme=config.scheme,
    )
    emit_outputs(result, Path(config.out))
    print(f"inverse {config.example} N={grid.N} M={grid.M} s={grid.s} "
          f"[{result.measurement_provenance}]: Linf error in r = {result.linf_r:.6e}, "
          f"in u at T = {result.linf_u:.6e}")
    return 0


def _cmd_convergence(study, config: StudyConfig, args: argparse.Namespace) -> int:
    """A refinement ``study``'s table, with its fitted orders under the command's name."""
    table = study(config)
    emit_outputs(table, Path(config.out))
    for row in table.rows:
        print(f"h={row.h:.6g} tau={row.tau:.6g} linf_u={row.linf_u:.4e} "
              f"l2_u={row.l2_u:.4e} linf_r={row.linf_r:.4e}")
    if len(table.rows) >= 2:
        print(f"{args.command}: fitted order u = {table.fitted_order_u():.3f}, "
              f"r = {table.fitted_order_r():.3f}")
    return 0


def _cmd_noise(config: StudyConfig, args: argparse.Namespace) -> int:
    study = noise_study(config)
    emit_outputs(study, Path(config.out))
    for delta, mean in study.mean_linf_r().items():
        print(f"delta={delta:g}: mean Linf error in r over seeds = {mean:.6e}")
    if not study.all_completed:
        failed = [(c.delta, c.seed) for c in study.cases if not c.completed]
        print(f"failed cases: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle_check(config: StudyConfig, args: argparse.Namespace) -> int:
    rows = []
    for n in (config.n_values[0], 2 * config.n_values[0]):
        grid = config.single_grid(n, 1)
        op = assemble(grid, config.scheme)
        mode = manufactured_problem(config.example, grid).modes[0]
        (image,) = quadrature_oracle((mode.shape,), grid, u_xx=(mode.shape_xx,))
        defect = op.apply(mode.shape(grid.interior_x())) - image
        norm = float(np.sqrt(grid.h * np.sum(defect * defect)))
        rows.append((grid.h, norm))
        print(f"N={n}: consistency defect (L2) = {norm:.6e}")
    hs, defects = zip(*rows)
    print(f"observed consistency order = {rate_fit(defects, hs):.3f}")
    write_csv(Path(config.out) / "oracle_defect.csv", ("h", "defect_l2"), rows)
    return 0


def _cmd_operator_dump(config: StudyConfig, args: argparse.Namespace) -> int:
    grid = config.single_grid()
    dense = assemble(grid, config.scheme).dense()
    header = tuple(f"col{j}" for j in range(dense.shape[1]))
    path = write_csv(Path(config.out) / "operator.csv", header, dense)
    print(f"wrote {dense.shape[0]}x{dense.shape[1]} operator to {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Fractional heat equation: forward solves and coefficient recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes the flags its _cmd_ function reads, and argparse
    # rejects the others; the last entry is the command's default grid
    commands = {
        "forward": ("solve the direct problem with the exact coefficient", _cmd_forward,
                    _RUN_FLAGS, None),
        "inverse": ("recover the coefficient from measured integrals", _cmd_inverse,
                    _NOISE_FLAGS, None),
        "convergence-time": ("error table under time refinement",
                             partial(_cmd_convergence, convergence_study_time), _RUN_FLAGS, None),
        "convergence-space": ("error table under space refinement with tau = h",
                              partial(_cmd_convergence, convergence_study_space),
                              [flag for flag in _RUN_FLAGS if flag != "--M"],
                              {"n_values": (100, 200, 400, 800)}),
        "noise": ("recovery from noisy measurements over a seed ensemble", _cmd_noise,
                  _NOISE_FLAGS, {"n_values": (100,), "m_values": (100,)}),
        "oracle-check": ("consistency defect of the stiffness matrix vs quadrature",
                         _cmd_oracle_check, ["--example", *_OPERATOR_FLAGS], None),
        "operator-dump": ("write the dense stiffness matrix to CSV", _cmd_operator_dump,
                          ["--l", *_OPERATOR_FLAGS], None),
    }
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word naming a command is the one argparse runs, as the top level
    # takes no option with a value: only its parser gets flags, and the others
    # exist for the command list of --help
    invoked = next((word for word in argv if word in commands), None)
    for name, (help_text, _, flags, _) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags if name == invoked else ():
            field, kwargs = _FLAGS[flag]
            p.add_argument(flag, dest=field, **kwargs)
    args = parser.parse_args(argv)
    _, command, _, default_grid = commands[args.command]
    try:
        return command(_build_config(args, default_grid), args)
    except (DenominatorNearZero, SolverError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
