"""Smoke tests of the benchmark: tiny grids through the same code path.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fracheat  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(BENCH / "run.py")]
(ROOT / ".perfbench_out").mkdir(exist_ok=True)


def _run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_emits_every_metric(name, trace):
    done = _run("--workload", name, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "ops_failed_frac=0 " in done.stdout


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _bindings():
    """Every attribute of every fracheat module and of the two wrapped classes."""
    snap = {}
    for key, module in sys.modules.items():
        if key == "fracheat" or key.startswith("fracheat."):
            for attr, value in vars(module).items():
                snap[(key, attr)] = value
    for cls in (fracheat.RieszOperator, fracheat.SpdFactorization):
        for attr, value in vars(cls).items():
            snap[(cls.__name__, attr)] = value
    return snap


@pytest.mark.parametrize("name", workloads.NAMES)
def test_trace_restores_bindings_and_self_times_fit_wall(name):
    before = _bindings()
    out = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        wl = workloads.Workload(name=name, profile="smoke", seed=0,
                                size=workloads.SIZES["smoke"][name], workdir=out / "work")
        wl.prepare()
        tracer = tracing.Tracer()
        tracer.rep = 1
        with tracer:
            assert fracheat.studies.run_inverse is not before[("fracheat.studies", "run_inverse")]
            assert fracheat.inverse.run_inverse is not before[("fracheat.inverse", "run_inverse")]
            t0 = time.perf_counter()
            wl.run(out / "rep")
            wall = time.perf_counter() - t0
        assert _bindings() == before
        layers = tracer.layer_metrics()
    finally:
        shutil.rmtree(out)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= wall
    assert layers["riesz.assemble.calls"] >= 1
    assert layers["cli.main.self_s"] > 0.0  # every workload runs through the CLI


def test_restore_after_failed_run():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer:
            fracheat.make_grid(1.0, 1.0, 1, 1, 0.5)  # N < 2 raises
            raise ValueError("unreached")
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert _bindings() == before


def test_fails_without_program_sources():
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", work)
        shutil.copytree(BENCH, work / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cg_large", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(work)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_summary_needs_ten_beyond():
    import run

    assert "too few" in run.tail_summary([1.0] * 10)
    assert run.tail_summary([float(i) for i in range(20)]) == "n=20: p50 = 9.0000 s"


def test_layer_map_covers_every_per_layer_metric():
    mapping = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    patterns = [p for row in mapping["layer_map"] for p in row["layers"]]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert any(name == p or (p.endswith(".*") and name.startswith(p[:-1]))
                   for p in patterns), name
    assert set(mapping["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_gate_fails_on_wrong_reference():
    out = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        wl = workloads.Workload(name="cg_large", profile="smoke", seed=0,
                                size=workloads.SIZES["smoke"]["cg_large"], workdir=out / "work")
        wl.prepare()
        (out / "rep").mkdir()
        wl.run(out / "rep")
        reference = workloads.load_reference()
        checks, _ = workloads.check_outputs(wl, out / "rep", None, reference)
        assert checks.failed == 0
        ref = reference["smoke"]["cg_large"]
        ref["r"] = [v * (1.0 + 1e-6) for v in ref["r"]]
        checks, _ = workloads.check_outputs(wl, out / "rep", None, reference)
        assert checks.failed == 1
    finally:
        shutil.rmtree(out)


def test_summary_check_skipped_for_seed_without_reference():
    seed = workloads.REFERENCE_SEEDS.stop
    out = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        wl = workloads.Workload(name="noise_ensemble", profile="smoke", seed=seed,
                                size=workloads.SIZES["smoke"]["noise_ensemble"],
                                workdir=out / "work")
        wl.prepare()
        (out / "rep").mkdir()
        wl.run(out / "rep")
        checks, _ = workloads.check_outputs(wl, out / "rep", None, workloads.load_reference())
    finally:
        shutil.rmtree(out)
    assert checks.failed == 0
    skipped = [name for name, ok, _ in checks.items if ok is None]
    assert skipped == ["noise summary vs reference"]
