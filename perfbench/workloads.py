"""The three benchmark workloads and the correctness gate on their outputs.

Each workload runs one ``fracheat`` command through ``fracheat.cli.main`` and
writes its CSV output into a fresh directory.  The CLI looks every fracheat
function up through a module binding at call time, so the tracer's wrappers
see each call.

Checks compare the outputs with values stored in ``reference.json`` and with
an independent solver route.  Their tolerance is derived from the solver
tolerance ``TOL``: a relative residual ``TOL`` per L-solve gives a state error
of at most ``cond(L) * TOL`` per step, accumulated over ``M`` steps, and the
recovery pairs a state error with A, which amplifies it by at most ``||A||``.
With the Gershgorin bound ``||A|| <= 2 max(diag A)`` and ``cond(L) <= 1 +
(tau/2) ||A||`` (``lambda_min(L) >= 1``)::

    u_rtol = SAFETY * (M * cond(L) * TOL + T * max|r| * QUAD_RTOL)
    r_rtol = u_rtol * max(1, ||A||)

``QUAD_RTOL`` enters only for the quadrature-sourced forcing, whose oracle
converges to that relative accuracy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import fracheat
import fracheat.cli

TOL = 1e-12  # StudyConfig.tol, the CLI default solver tolerance
QUAD_RTOL = 1e-8  # quadrature_oracle default rtol
SAFETY = 10.0
DELTAS = (0.01, 0.03, 0.05)
SEEDS_PER_RUN = 10
REFERENCE_SEEDS = range(16)  # workload seeds whose noise summaries reference.json stores

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Grid of each workload; "smoke" runs the same code path at tiny sizes (N = 32
# is the smallest power of two at which the quadrature oracle converges at s = 0.3).
SIZES = {
    "full": {
        "noise_ensemble": dict(example="example1", s=0.5, N=200, M=200, T=1.0),
        "cg_large": dict(example="example2", s=0.5, N=3072, M=10, T=0.1),
        "forward_quadrature": dict(example="example1", s=0.3, N=600, M=600, T=1.0,
                                   source="quadrature"),
    },
    "smoke": {
        "noise_ensemble": dict(example="example1", s=0.5, N=16, M=16, T=1.0),
        "cg_large": dict(example="example2", s=0.5, N=16, M=4, T=0.1, solver="cg"),
        "forward_quadrature": dict(example="example1", s=0.3, N=32, M=16, T=1.0,
                                   source="quadrature"),
    },
}
NAMES = tuple(SIZES["full"])

FRACHEAT_ERRORS = (
    fracheat.DenominatorNearZero,
    fracheat.SolverError,
    fracheat.QuadratureConvergenceError,
)


def noise_seeds(seed: int) -> Tuple[int, ...]:
    """Workload seed k selects noise seeds 10k .. 10k+9."""
    return tuple(range(SEEDS_PER_RUN * seed, SEEDS_PER_RUN * seed + SEEDS_PER_RUN))


def grid_of(size: dict) -> "fracheat.Grid":
    return fracheat.make_grid(1.0, size["T"], size["N"], size["M"], size["s"])


@dataclass
class Workload:
    """Inputs of one workload run, fixed before any timing starts."""

    name: str
    profile: str
    seed: int
    size: dict
    workdir: Path

    @property
    def cases(self) -> int:
        """Inverse or forward cases one repetition attempts."""
        if self.name == "noise_ensemble":
            return 2 * len(DELTAS) * SEEDS_PER_RUN
        return 1

    def prepare(self) -> None:
        """Write the generated inputs (the noise study's config file)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.name == "noise_ensemble":
            sz = self.size
            lines = [
                f"example = {sz['example']}",
                f"s = {sz['s']!r}",
                f"t_final = {sz['T']!r}",
                f"n_values = {sz['N']}",
                f"m_values = {sz['M']}",
                "deltas = " + ", ".join(repr(d) for d in DELTAS),
                "seeds = " + ", ".join(str(k) for k in noise_seeds(self.seed)),
                "smooth_window = 5",
            ]
            self.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @property
    def config_path(self) -> Path:
        return self.workdir / "noise.cfg"

    def argv(self, out: Path) -> List[str]:
        """The fracheat command line of one repetition, writing into ``out``."""
        sz = self.size
        if self.name == "noise_ensemble":
            return ["noise", "--config", str(self.config_path), "--out", str(out)]
        argv = ["inverse" if self.name == "cg_large" else "forward",
                "--example", sz["example"][-1], "--s", repr(sz["s"]), "--N", str(sz["N"]),
                "--M", str(sz["M"]), "--T", repr(sz["T"]), "--out", str(out)]
        for key in ("source", "solver"):
            if key in sz:
                argv += [f"--{key}", sz[key]]
        return argv

    def run(self, out: Path) -> Optional[object]:
        """One repetition; returns what the check needs beyond the CSV files.

        For ``forward_quadrature`` that is the ``stability_bounds`` report on
        the trajectory the CLI computed, as criterion 9 evaluates it.
        """
        argv = self.argv(out)
        forward_runs: list = []
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(), \
                _capture_run_forward(forward_runs):
            # the compatibility warning of run_inverse would flood stderr
            warnings.simplefilter("ignore", UserWarning)
            code = fracheat.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fracheat {' '.join(argv[:1])} exited with code {code}")
        if self.name != "forward_quadrature":
            return None
        if len(forward_runs) != 1 or forward_runs[0][2] is None:
            raise RuntimeError("fracheat forward did not call run_forward once with ops")
        problem, grid, ops, trajectory = forward_runs[0]
        return fracheat.stability_bounds(trajectory, problem.coefficient, problem.forcing,
                                         ops.op, grid)


@contextlib.contextmanager
def _capture_run_forward(calls: list):
    """Record (problem, grid, ops, trajectory) of each ``run_forward`` the CLI makes."""
    original = fracheat.cli.run_forward

    def capture(problem, grid, r=None, ops=None):
        trajectory = original(problem, grid, r=r, ops=ops)
        calls.append((problem, grid, ops, trajectory))
        return trajectory

    fracheat.cli.run_forward = capture
    try:
        yield
    finally:
        fracheat.cli.run_forward = original


# ---------------------------------------------------------------- checks


def tolerances(size: dict, quadrature: bool = False) -> Tuple[float, float, str]:
    """(u_rtol, r_rtol, the derivation as text) for one workload grid."""
    grid = grid_of(size)
    norm_a = 2.0 * float(np.max(fracheat.assemble(grid).diag))
    kappa = 1.0 + 0.5 * grid.tau * norm_a
    r_max = 1.0 + size["s"]  # both examples have 0 < r <= 1 + s
    quad = QUAD_RTOL if quadrature else 0.0
    u_rtol = SAFETY * (grid.M * kappa * TOL + grid.T * r_max * quad)
    r_rtol = u_rtol * max(1.0, norm_a)
    text = (f"u_rtol = {SAFETY:g}*(M={grid.M} * cond(L)<={kappa:.4g} * tol={TOL:g}"
            + (f" + T*max|r|={grid.T * r_max:g} * quad_rtol={quad:g}" if quad else "")
            + f") = {u_rtol:.3e}; r_rtol = u_rtol * ||A||<={norm_a:.4g} = {r_rtol:.3e}")
    return u_rtol, r_rtol, text


def read_csv(path: Path) -> Dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[j]) for r in body]) for j, name in enumerate(header)}


def _dev(actual: np.ndarray, expected, rtol: float) -> Tuple[bool, str]:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False, f"shape {actual.shape} != reference {expected.shape}"
    scale = max(1.0, float(np.max(np.abs(expected))))
    dev = float(np.max(np.abs(actual - expected))) / scale
    ok = bool(dev <= rtol)
    return ok, f"max rel dev {dev:.3e} {'<=' if ok else '>'} {rtol:.3e}"


class Checks:
    """Named results with one line of detail each: passed, failed or skipped (None)."""

    def __init__(self) -> None:
        self.items: List[Tuple[str, Optional[bool], str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def skip(self, name: str, detail: str) -> None:
        self.items.append((name, None, detail))

    def compare(self, name: str, actual, expected, rtol: float) -> None:
        ok, detail = _dev(actual, expected, rtol)
        self.add(name, ok, detail)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.items if ok is False)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_outputs(wl: Workload, out: Path, extra,
                  reference: dict) -> Tuple[Checks, Dict[str, float]]:
    """Correctness gate of one repetition; returns the checks and the errors."""
    checks = Checks()
    ref = reference.get(wl.profile, {}).get(wl.name, {})
    quadrature = wl.name == "forward_quadrature"
    u_rtol, r_rtol, text = tolerances(wl.size, quadrature)
    checks.add("tolerance", True, text)
    errors: Dict[str, float] = {}
    if wl.name == "noise_ensemble":
        _check_noise(wl, out, ref, checks, errors, u_rtol, r_rtol)
    elif wl.name == "cg_large":
        r = read_csv(out / "r_series.csv")
        u = read_csv(out / "u_final.csv")
        files = sorted(p.name for p in out.iterdir())
        checks.add("files", files == ["r_series.csv", "u_final.csv"], ", ".join(files))
        checks.compare("r_series vs Cholesky reference", r["r_recovered"], ref["r"], r_rtol)
        checks.compare("u_final vs Cholesky reference", u["u_num"], ref["u_final"], u_rtol)
        errors["err_u_linf"] = float(np.max(u["abs_error"]))
        errors["err_r_linf"] = float(np.max(r["abs_error"]))
    else:
        _check_forward(wl, out, extra, ref, checks, errors, u_rtol)
    return checks, errors


def _check_noise(wl, out, ref, checks, errors, u_rtol, r_rtol) -> None:
    seeds = noise_seeds(wl.seed)
    files = sorted(p.name for p in out.iterdir())
    expected = 2 * len(DELTAS) * len(seeds) + 1
    checks.add("files", len(files) == expected, f"{len(files)} written, {expected} expected")
    summary = read_csv(out / "noise_summary.csv")
    checks.add("all cases completed", bool(np.all(summary["completed"] == 1)),
               f"{int(np.sum(summary['completed']))} of {summary['completed'].size}")
    means = [float(np.mean(summary["linf_r"][summary["delta"] == d])) for d in DELTAS]
    checks.add("mean linf_r non-decreasing in delta", all(a <= b for a, b in zip(means, means[1:])),
               ", ".join(f"{m:.6g}" for m in means))
    stored = ref.get("summaries", {}).get(str(wl.seed))
    if stored is not None:
        for key in ("linf_r", "l2_r", "linf_r_smoothed"):
            checks.compare(f"noise summary {key} vs reference", summary[key], stored[key], r_rtol)
    else:
        checks.skip("noise summary vs reference",
                    f"reference.json stores summaries for seeds {REFERENCE_SEEDS.start}"
                    f"..{REFERENCE_SEEDS.stop - 1} only")

    # Independent route: one case again through Jacobi-CG instead of Cholesky.
    delta, seed = DELTAS[-1], seeds[wl.seed % len(seeds)]
    tag = f"delta{delta:g}_seed{seed}"
    case = fracheat.run_inverse_case(
        wl.size["example"], grid_of(wl.size), solver="cg", tol=TOL,
        noise=fracheat.NoiseSpec(delta=delta, seed=seed),
    )
    r = read_csv(out / f"r_recovered_{tag}.csv")
    u = read_csv(out / f"u_final_{tag}.csv")
    checks.compare(f"r {tag} vs CG route", r["r_recovered"], case.recovered.values, r_rtol)
    checks.compare(f"u_final {tag} vs CG route", u["u_num"], case.trajectory.final, u_rtol)

    u_err = r_err = 0.0
    for name in files:
        if name.startswith("u_final_"):
            u_err = max(u_err, float(np.max(read_csv(out / name)["abs_error"])))
        elif name.startswith("r_recovered_"):
            r_err = max(r_err, float(np.max(read_csv(out / name)["abs_error"])))
    errors["err_u_linf"] = u_err
    errors["err_r_linf"] = r_err


def _check_forward(wl, out, report, ref, checks, errors, u_rtol) -> None:
    grid = grid_of(wl.size)
    files = sorted(p.name for p in out.iterdir())
    checks.add("files", files == ["trajectory.csv", "u_final.csv"], ", ".join(files))
    u = read_csv(out / "u_final.csv")
    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = len(lines) - 1
    n = grid.interior_dim
    checks.add("trajectory rows", rows == (grid.M + 1) * n, f"{rows} rows")
    last = np.array([float(line.rpartition(",")[2]) for line in lines[-n:]])
    checks.add("trajectory ends in u_final", bool(np.array_equal(last, u["u_num"])))
    checks.compare("u_final vs reference", u["u_num"], ref["u_final"], u_rtol)
    checks.add("StabilityReport.holds()", report.holds())
    checks.compare("l2_slack vs reference", report.l2_slack, ref["l2_slack"], u_rtol)
    # the energy slack holds squared norms, so its relative error doubles
    checks.compare("energy_slack vs reference", report.energy_slack, ref["energy_slack"],
                   2 * u_rtol)
    errors["err_u_linf"] = float(np.max(u["abs_error"]))


def compute_reference(profile: str) -> dict:
    """Reference values from a solver route other than the benchmarked one."""
    sizes = SIZES[profile]
    out: dict = {}
    sz = sizes["cg_large"]
    case = fracheat.run_inverse_case(sz["example"], grid_of(sz), solver="cholesky", tol=TOL)
    out["cg_large"] = {"route": "cholesky", "r": case.recovered.values.tolist(),
                       "u_final": case.trajectory.final.tolist()}

    sz = sizes["forward_quadrature"]
    grid = grid_of(sz)
    op = fracheat.assemble(grid)
    spec, data = fracheat.build_manufactured(sz["example"], grid, source="quadrature", op=op)
    ops = fracheat.make_step_operators(grid, op=op, solver="cg", tol=TOL)
    trajectory = fracheat.run_forward(data, grid, ops=ops)
    report = fracheat.stability_bounds(trajectory, spec.r_exact, data.forcing, op, grid)
    out["forward_quadrature"] = {"route": "cg", "u_final": trajectory.final.tolist(),
                                 "l2_slack": report.l2_slack.tolist(),
                                 "energy_slack": report.energy_slack.tolist()}

    sz = sizes["noise_ensemble"]
    summaries = {}
    for k in REFERENCE_SEEDS:
        config = fracheat.StudyConfig(
            example=sz["example"], s=sz["s"], t_final=sz["T"], n_values=(sz["N"],),
            m_values=(sz["M"],), solver="cg", tol=TOL, deltas=DELTAS,
            seeds=noise_seeds(k), smooth_window=5,
        )
        study = fracheat.noise_study(config)
        summaries[str(k)] = {
            "linf_r": [c.linf_r for c in study.cases],
            "l2_r": [c.l2_r for c in study.cases],
            "linf_r_smoothed": [c.linf_r_smoothed for c in study.cases],
        }
    out["noise_ensemble"] = {"route": "cg", "summaries": summaries}
    return out
