"""The names and keywords the benchmark harness in ``perfbench/`` relies on.

``perfbench/tests`` runs the harness end to end but is slow and outside the
default test paths; these checks fail fast when a rename or a removed option
would break it.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import fracheat
import fracheat.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    assert len(tracing.FUNCTIONS) == 17
    for name, (modname, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(sys.modules[modname], attr, None)), name


def test_every_traced_method_resolves(tracing):
    assert len(tracing.METHODS) == 2
    for name, (modname, cls_name, attr) in tracing.METHODS.items():
        cls = getattr(sys.modules[modname], cls_name)
        assert callable(cls.__dict__.get(attr)), name


def test_inverse_case_keywords():
    grid = fracheat.make_grid(1.0, 0.1, 16, 4, 0.5)
    exact = fracheat.run_inverse_case("example1", grid, solver="cholesky", tol=1e-12)
    noisy = fracheat.run_inverse_case(
        "example1", grid, solver="cg", tol=1e-12,
        noise=fracheat.NoiseSpec(delta=0.05, seed=3),
    )
    for case in (exact, noisy):
        assert case.recovered.values.shape == (grid.M,)
        assert case.trajectory.final.shape == (grid.interior_dim,)
    assert not np.array_equal(exact.recovered.values, noisy.recovered.values)


def test_noise_study_config_keywords():
    config = fracheat.StudyConfig(
        example="example1", s=0.5, t_final=1.0, n_values=(16,), m_values=(16,),
        solver="cg", tol=1e-12, deltas=(0.01, 0.05), seeds=(0, 1), smooth_window=5,
    )
    study = fracheat.noise_study(config)
    assert len(study.cases) == 4
    for case in study.cases:
        assert np.isfinite([case.linf_r, case.l2_r, case.linf_r_smoothed]).all()


def test_forward_command_calls_run_forward_with_ops(tmp_path, monkeypatch):
    calls = []
    original = fracheat.cli.run_forward

    def capture(problem, grid, r=None, ops=None):
        calls.append(ops)
        return original(problem, grid, r=r, ops=ops)

    monkeypatch.setattr(fracheat.cli, "run_forward", capture)
    argv = ["forward", "--example", "1", "--s", "0.3", "--N", "16", "--M", "4",
            "--source", "quadrature", "--out", str(tmp_path)]
    assert fracheat.cli.main(argv) == 0
    assert len(calls) == 1 and isinstance(calls[0], fracheat.StepOperators)


@pytest.mark.filterwarnings("ignore:initial measurement incompatible")  # example 2 at N = 8
@pytest.mark.parametrize("argv", [
    ["forward", "--example", "1", "--source", "quadrature", "--s", "0.3", "--N", "8", "--M", "2"],
    ["inverse", "--example", "2", "--s", "0.5", "--N", "8", "--M", "2", "--T", "0.1",
     "--solver", "cg"],
])
def test_cli_takes_the_examples_and_source_the_workloads_pass(tmp_path, argv):
    assert fracheat.cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert any(tmp_path.glob("*.csv"))


def test_study_config_takes_exactly_manufactured_s_ids_and_sources():
    from fracheat.manufactured import EXAMPLE_IDS, SOURCES

    assert {"example1", "example2"} <= set(EXAMPLE_IDS) and "quadrature" in SOURCES
    for example in EXAMPLE_IDS:
        for source in SOURCES:
            config = fracheat.StudyConfig(example=example, source=source)
            assert (config.example, config.source) == (example, source)
    for bad in ({"example": "example0"}, {"example": "1"}, {"source": "Quadrature"},
                {"source": "midpoint"}):
        with pytest.raises(ValueError, match="expected one of"):
            fracheat.StudyConfig(**bad)
    with pytest.raises(SystemExit):
        fracheat.cli.main(["forward", "--example", "example1"])


def _package_reads(source):
    """Each dotted name ``fracheat.a.b...`` that a source reads, longest chains only."""
    tree = ast.parse(source)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "fracheat":
                yield tuple(reversed(chain))


def test_the_reader_sees_chains_of_the_package():
    source = (
        "import fracheat\n"
        "grid = fracheat.make_grid(1, 1, 4, 2, 0.5)\n"
        "fracheat.cli.run_forward = capture\n"
        "n = other.fracheat.Grid\n"
        "x = fracheat.studies.StudyConfig().tol\n"
    )
    assert sorted(_package_reads(source)) == [
        ("cli", "run_forward"), ("make_grid",), ("studies", "StudyConfig"),
    ]


def test_every_name_the_benchmark_reads_resolves():
    reads = {chain for path in sorted(PERFBENCH.glob("*.py"))
             for chain in _package_reads(path.read_text())}
    assert {("run_inverse_case",), ("StudyConfig",), ("cli", "main")} <= reads
    missing = []
    for chain in sorted(reads):
        owner = fracheat
        for attr in chain:
            owner = getattr(owner, attr, missing)
        if owner is missing:
            missing.append(".".join(("fracheat",) + chain))
    assert not missing, f"perfbench reads names fracheat lacks: {missing}"


# what ``fracheat`` exported when its __init__ listed the names by hand
FORMER_EXPORTS = (
    "CoefficientSeries", "ConvergenceTable", "DenominatorNearZero", "Grid",
    "ManufacturedProblem", "MeasurementSeries", "NoiseSpec", "NoiseStudyResult", "NotSpdError",
    "ProblemData", "QuadratureConvergenceError", "RieszOperator", "SeparatedForcing",
    "SolverError", "SpdFactorization", "SpectralDecomposition", "StabilityReport",
    "StepOperators", "StudyConfig", "Trajectory", "assemble", "build_manufactured", "cg_solve",
    "cholesky", "cn_step", "convergence_study_space", "convergence_study_time",
    "discrete_measurement", "eigendecompose", "emit_outputs", "exterior_tail", "load_config",
    "make_grid", "make_step_operators", "measurements_from_trajectory", "noise_study",
    "normalization_constant", "perturb_measurements", "quadrature_oracle", "rate_fit",
    "recover_r_step", "run_forward", "run_inverse", "run_inverse_batch", "run_inverse_case",
    "smooth_measurements", "spectral_duhamel_oracle", "stability_bounds",
)
MODULES = ("forward", "grid", "inverse", "manufactured", "riesz", "solvers", "studies")


def test_the_package_exports_each_module_s_public_names():
    package = Path(fracheat.__file__).parent
    # every module but the command line is re-exported
    assert {path.stem for path in package.glob("*.py")} == {"__init__", "cli", *MODULES}
    modules = [importlib.import_module(f"fracheat.{name}") for name in MODULES]
    assert fracheat.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(fracheat.__all__)) == len(fracheat.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(fracheat, name) is getattr(module, name), (module.__name__, name)
    assert len(FORMER_EXPORTS) == 48 and set(FORMER_EXPORTS) <= set(fracheat.__all__)
    assert {"SOLVERS", "SCHEMES", "EXAMPLE_IDS", "SOURCES", "InverseRunResult"} <= set(
        fracheat.__all__)
