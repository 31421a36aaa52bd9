"""Cold set-up cost of one CLI run, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR N M T s

Prints one JSON object: ``import_s`` (importing fracheat, with NumPy and
SciPy behind it) and ``first_call_s`` (the first assemble +
make_step_operators on the workload's grid, which starts BLAS).
"""

import json
import sys
import time

if __name__ == "__main__":
    src, n, m, t_final, s = sys.argv[1:6]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fracheat

    t1 = time.perf_counter()
    grid = fracheat.make_grid(1.0, float(t_final), int(n), int(m), float(s))
    fracheat.make_step_operators(grid, op=fracheat.assemble(grid))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}))
