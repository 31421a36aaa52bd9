"""Regenerate reference.json, the values the correctness gate compares with.

Run from the root of a source checkout:

    python3 perfbench/make_reference.py

Each reference comes from a solver route other than the one the workload
takes: Cholesky for ``cg_large`` (which routes to Jacobi-CG), Jacobi-CG for
``forward_quadrature`` and ``noise_ensemble`` (which route to Cholesky).
Noise summaries are stored for the workload seeds in
``workloads.REFERENCE_SEEDS``; for other seeds that check is skipped and the
independent route still checks one case.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    reference = {
        "smoke": workloads.compute_reference("smoke"),
        "full": workloads.compute_reference("full"),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
