"""Spans around the calls into each fracheat module, recorded from outside it.

``Tracer.install()`` replaces every public function named in ``FUNCTIONS`` at
each module attribute a caller looks it up through (``fracheat.studies.run_inverse``
as well as ``fracheat.inverse.run_inverse``), wraps the two hot methods on their
classes, and wraps the forcing closure that ``build_manufactured`` returns.
``Tracer.restore()`` puts every binding back.  Spans are kept in memory as
``[name, start, end, parent, rep]`` records and aggregated or written out once
the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List

# span name -> (module, attribute) of the defining binding
FUNCTIONS = {
    "riesz.assemble": ("fracheat.riesz", "assemble"),
    "riesz.quadrature_oracle": ("fracheat.riesz", "quadrature_oracle"),
    "solvers.cholesky": ("fracheat.solvers", "cholesky"),
    "solvers.cg_solve": ("fracheat.solvers", "cg_solve"),
    "forward.make_step_operators": ("fracheat.forward", "make_step_operators"),
    "forward.run_forward": ("fracheat.forward", "run_forward"),
    "forward.stability_bounds": ("fracheat.forward", "stability_bounds"),
    "inverse.run_inverse": ("fracheat.inverse", "run_inverse"),
    "inverse.recover_r_step": ("fracheat.inverse", "recover_r_step"),
    "inverse.perturb_measurements": ("fracheat.inverse", "perturb_measurements"),
    "inverse.smooth_measurements": ("fracheat.inverse", "smooth_measurements"),
    "manufactured.build_manufactured": ("fracheat.manufactured", "build_manufactured"),
    "studies.noise_study": ("fracheat.studies", "noise_study"),
    "studies.run_inverse_case": ("fracheat.studies", "run_inverse_case"),
    "studies.emit_outputs": ("fracheat.studies", "emit_outputs"),
    "studies.write_csv": ("fracheat.studies", "write_csv"),
    "cli.main": ("fracheat.cli", "main"),
}
# span name -> (module, class, method)
METHODS = {
    "riesz.apply": ("fracheat.riesz", "RieszOperator", "apply"),
    "solvers.spd_solve": ("fracheat.solvers", "SpdFactorization", "solve"),
}
FORCING = "manufactured.forcing"
ORCHESTRATION = ("studies.noise_study", "studies.run_inverse_case", "studies.emit_outputs")

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "riesz.assemble.calls": "count",
    "riesz.assemble.self_s": "s",
    "riesz.apply.calls": "count",
    "riesz.apply.self_s": "s",
    "riesz.quadrature_oracle.calls": "count",
    "riesz.quadrature_oracle.self_s": "s",
    "solvers.cholesky.calls": "count",
    "solvers.cholesky.self_s": "s",
    "solvers.spd_solve.calls": "count",
    "solvers.spd_solve.self_s": "s",
    "solvers.cg_solve.calls": "count",
    "solvers.cg_solve.self_s": "s",
    "solvers.cg_solve.iters_per_call": "count",
    "forward.make_step_operators.calls": "count",
    "forward.make_step_operators.self_s": "s",
    "forward.run_forward.self_s": "s",
    "forward.stability_bounds.self_s": "s",
    "inverse.run_inverse.calls": "count",
    "inverse.run_inverse.self_s": "s",
    "inverse.recover_r_step.calls": "count",
    "inverse.recover_r_step.self_s": "s",
    "inverse.perturb_measurements.self_s": "s",
    "inverse.smooth_measurements.self_s": "s",
    "manufactured.build_manufactured.self_s": "s",
    "manufactured.forcing.calls": "count",
    "manufactured.forcing.self_s": "s",
    "studies.orchestration.self_s": "s",
    "studies.write_csv.calls": "count",
    "studies.write_csv.self_s": "s",
    "studies.write_csv.bytes": "B",
    "cli.main.self_s": "s",
}


class Tracer:
    """Installs span wrappers on fracheat and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.bytes_written: Dict[int, int] = defaultdict(int)
        self.rep = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _special(self, name: str, fn):
        traced = self.wrap(name, fn)
        if name == "manufactured.build_manufactured":

            @functools.wraps(fn)
            def build(*args, **kwargs):
                spec, data = traced(*args, **kwargs)
                return spec, dataclasses.replace(data, forcing=self.wrap(FORCING, data.forcing))

            return build
        if name == "studies.write_csv":

            @functools.wraps(fn)
            def write(*args, **kwargs):
                path = traced(*args, **kwargs)
                self.bytes_written[self.rep] += os.path.getsize(path)
                return path

            return write
        return traced

    def install(self) -> None:
        """Wrap every binding; call ``restore`` (in a ``finally``) to undo."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "fracheat" or k.startswith("fracheat."))]
        try:
            for name, (modname, cls_name, attr) in METHODS.items():
                cls = getattr(sys.modules[modname], cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original))
            for name, (modname, attr) in FUNCTIONS.items():
                original = getattr(sys.modules[modname], attr)
                wrapper = self._special(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def layer_metrics(self) -> Dict[str, float]:
        """Per-repetition calls and self times (duration minus direct children)."""
        reps = sorted({s[4] for s in self.spans} | set(self.bytes_written))
        if not reps:
            return {metric: float("nan") for metric in LAYER_METRICS}
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        cg_applies = 0
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_s[s[0]] += (s[2] - s[1]) - child[i]
            if s[0] == "riesz.apply" and s[3] >= 0 and self.spans[s[3]][0] == "solvers.cg_solve":
                cg_applies += 1
        n = len(reps)
        self_s["studies.orchestration"] = sum(self_s.pop(k, 0.0) for k in ORCHESTRATION)
        out: Dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer] / n
            elif kind == "self_s":
                out[metric] = self_s[layer] / n
        cg_calls = calls["solvers.cg_solve"]
        out["solvers.cg_solve.iters_per_call"] = cg_applies / cg_calls if cg_calls else 0.0
        out["studies.write_csv.bytes"] = sum(self.bytes_written.values()) / n
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,rep\n")
            for name, start, end, parent, rep in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{rep}\n")
