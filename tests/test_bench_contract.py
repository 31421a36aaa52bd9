"""The names and keywords the benchmark harness in ``perfbench/`` relies on.

``perfbench/tests`` runs the harness end to end but is slow and outside the
default test paths; these checks fail fast when a rename or a removed option
would break it.
"""

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
