"""fracheat benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload noise_ensemble --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload cg_large --seed 0 --seconds 2 --trace 1 --smoke

One run: several cold set-up probes in fresh interpreters, one warm-up
repetition whose outputs the correctness gate checks, then repetitions until
``--seconds`` have passed, each compared byte for byte with the checked one.
The reference kernel of ``calibrate.py`` is timed before and after every
probe and repetition; ``wall_s`` and ``setup_s`` are medians of times each
scaled by ``calibrate.REFERENCE_S`` over the mean kernel time around it, so
the shared machine's drift in speed cancels (raw seconds are recorded too).
``--trace 0`` reports the end-to-end metrics from untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(machine, provenance, checks, samples) goes to ``.perfbench_out/``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import filecmp
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES = {"full": 7, "smoke": 1}


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (SRC / "fracheat" / "__init__.py").is_file():
        _fail(f"no fracheat sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import fracheat

    if Path(fracheat.__file__).resolve().parent != (SRC / "fracheat").resolve():
        _fail(f"imported fracheat from {fracheat.__file__}, not from {SRC}")
    return fracheat


def _blas_threads() -> dict:
    import numpy
    import scipy

    out = {}
    for pkg, symbols in ((numpy, ("scipy_openblas_get_num_threads64_",)),
                         (scipy, ("scipy_openblas_get_num_threads",))):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib_path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(lib_path)
            for symbol in symbols:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
    return out


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, profile: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "profile": profile,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "git_commit": commit,
        "src_sha256": _src_digest(),
    }


def setup_probes(size: dict, count: int) -> list:
    """Fresh-interpreter set-up probes, each with the kernel time around it."""
    import calibrate

    probe = HERE / "setup_probe.py"
    argv = [sys.executable, str(probe), str(SRC), str(size["N"]), str(size["M"]),
            repr(size["T"]), repr(size["s"])]
    samples = []
    kernel_before = calibrate.kernel_s()
    for _ in range(count):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        kernel_after = calibrate.kernel_s()
        sample["kernel_s"] = 0.5 * (kernel_before + kernel_after)
        kernel_before = kernel_after
        samples.append(sample)
    return samples


def normalised(samples: list) -> list:
    """(seconds, kernel seconds around them) pairs as seconds at the reference speed."""
    import calibrate

    return [calibrate.REFERENCE_S * t / k for t, k in samples]


def tail_summary(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it, with the count."""
    n = len(samples)
    if n < 11:
        return f"n={n}: too few samples for a tail percentile"
    pct = 100.0 * (n - 10) / n
    value = sorted(samples)[n - 11]
    return f"n={n}: p{pct:.0f} = {value:.4f} s"


def _same_outputs(a: Path, b: Path, extra_a, extra_b) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    if mismatch or errors:
        return False
    if extra_a is None:
        return extra_b is None
    import numpy as np

    return all(np.array_equal(getattr(extra_a, f), getattr(extra_b, f))
               for f in ("identity_residuals", "l2_slack", "energy_slack"))


def run_one(args) -> int:
    import calibrate
    import workloads as W
    from tracing import LAYER_METRICS, Tracer

    profile = "smoke" if args.smoke else "full"
    wl = W.Workload(name=args.workload, profile=profile, seed=args.seed,
                    size=W.SIZES[profile][args.workload],
                    workdir=OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    record = {"provenance": provenance(wl.name, wl.seed, profile)}
    print("machine: " + json.dumps(record["provenance"], sort_keys=True))
    wl.prepare()
    try:
        calibrate.kernel_s()  # warm-up: the first run pays one-off start-up costs
        probes = setup_probes(wl.size, PROBES[profile])
        setup = {k: statistics.median(p[k] for p in probes) for k in ("import_s", "first_call_s")}
        setup_pairs = [(p["import_s"] + p["first_call_s"], p["kernel_s"]) for p in probes]
        setup["setup_raw_s"] = statistics.median(t for t, _ in setup_pairs)
        setup["setup_s"] = statistics.median(normalised(setup_pairs))
        record["setup_probes"] = probes

        failed_cases = 0
        attempted = 0
        failure = None
        reference_dir = wl.workdir / "rep0"
        reference_dir.mkdir()
        attempted += wl.cases
        try:
            reference_extra = wl.run(reference_dir)
        except (W.FRACHEAT_ERRORS + (RuntimeError,)) as exc:
            failure = f"warm-up repetition: {type(exc).__name__}: {exc}"
            failed_cases += wl.cases
        # (wall seconds, mean kernel seconds before and after) per repetition
        untraced, traced, cpu = [], [], []
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        kernel_before = calibrate.kernel_s()
        rep = 0
        while failure is None:
            rep += 1
            use_trace = bool(args.trace) and rep % 2 == 0
            out = wl.workdir / f"rep{rep}"
            out.mkdir()
            gc.collect()
            attempted += wl.cases
            try:
                if use_trace:
                    tracer.rep = rep
                    with tracer:
                        t0 = time.perf_counter()
                        extra = wl.run(out)
                        dt = time.perf_counter() - t0
                    timed = traced
                else:
                    r0 = resource.getrusage(resource.RUSAGE_SELF)
                    t0 = time.perf_counter()
                    extra = wl.run(out)
                    dt = time.perf_counter() - t0
                    r1 = resource.getrusage(resource.RUSAGE_SELF)
                    timed = untraced
                    cpu.append(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)
                kernel_after = calibrate.kernel_s()
                timed.append((dt, 0.5 * (kernel_before + kernel_after)))
                kernel_before = kernel_after
            except (W.FRACHEAT_ERRORS + (RuntimeError,)) as exc:
                failure = f"repetition {rep}: {type(exc).__name__}: {exc}"
                failed_cases += wl.cases
                break
            if not _same_outputs(reference_dir, out, reference_extra, extra):
                failure = f"repetition {rep}: outputs differ from the checked repetition"
                failed_cases += wl.cases
            shutil.rmtree(out)
            enough = len(untraced) >= 2 and (len(traced) >= 2 or not args.trace)
            if time.perf_counter() >= deadline and enough:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = W.Checks()
        errors = {}
        if failure is None:
            checks, errors = W.check_outputs(wl, reference_dir, reference_extra, W.load_reference())
        else:
            checks.add("all repetitions ran", False, failure)
        failed = min(attempted, failed_cases + checks.failed)
        correct = failed == 0
        for name, ok, detail in checks.items:
            print(f"check {'skip' if ok is None else 'ok  ' if ok else 'FAIL'} {name}: {detail}")

        walls = normalised(untraced)
        wall = statistics.median(walls) if walls else float("nan")
        wall_raw = statistics.median(t for t, _ in untraced) if untraced else float("nan")
        kernel = statistics.median(k for _, k in untraced + traced) if untraced else float("nan")
        print(f"wall_s samples ({tail_summary(walls)}): " + " ".join(f"{t:.4f}" for t in walls))
        print("raw wall times: " + " ".join(f"{t:.4f}" for t, _ in untraced)
              + f"; median {wall_raw:.4f} s; calibration kernel median {kernel:.4f} s"
              f" (reference {calibrate.REFERENCE_S} s)")
        print(f"setup phases: import_s={setup['import_s']:.4f} s "
              f"first_call_s={setup['first_call_s']:.4f} s raw setup {setup['setup_raw_s']:.4f} s")
        summary = {"setup_s": setup["setup_s"], "wall_s": wall, "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        print(f"{wl.name}: " + " ".join(f"{k}={v:.6g} {units[k]}" for k, v in summary.items())
              + "".join(f" {k}={v:.6g}" for k, v in errors.items())
              + f" ops_failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
        if args.trace:
            layers = tracer.layer_metrics()
            layers["proc.cpu_s"] = statistics.median(cpu) if cpu else float("nan")
            layers["trace.overhead_frac"] = (statistics.median(normalised(traced)) / wall - 1.0
                                             if traced and untraced else float("nan"))
            layers["setup.import_s"] = setup["import_s"]
            layers["setup.first_call_s"] = setup["first_call_s"]
            layers["wall.raw_s"] = wall_raw
            layers["calib.kernel_s"] = kernel
            units = dict(LAYER_METRICS, **{"proc.cpu_s": "s", "trace.overhead_frac": "ratio",
                                           "setup.import_s": "s", "setup.first_call_s": "s",
                                           "wall.raw_s": "s", "calib.kernel_s": "s"})
            metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
            for k, m in metrics.items():
                print(f"layer {k} = {m['value']:.6g} {m['unit']}")
            tracer.write_spans(OUT / f"spans-{wl.name}.csv")
            record["traced_wall_kernel_s"] = traced
        else:
            metrics = {k: {"value": summary[k], "unit": u} for k, u in units.items()}
        record.update({
            "setup": setup, "wall_s_samples": walls, "wall_kernel_s": untraced,
            "cpu_s_samples": cpu, "wall_s_tail": tail_summary(walls), "errors": errors,
            "ops_failed_frac": failed / attempted,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.items],
        })
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT / f"result-{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    import workloads as W

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout[: done.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            _fail(f"workload {name} printed no result (exit {done.returncode})")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("noise_ensemble", "cg_large", "forward_quadrature", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = parser.parse_args()
    if args.seed < 0:
        _fail("--seed must be non-negative")
    # One BLAS thread: on a shared 2-vCPU machine a second OpenBLAS thread
    # spins through the small solves and ties the timings to the other vCPU's
    # load.  Set before NumPy loads; the probes and workload processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_program()
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
