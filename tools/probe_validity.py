"""Wall time and peak memory of the validity tests at many cells.

    python3 tools/probe_validity.py
    python3 tools/probe_validity.py --src OTHER_CHECKOUT/src

Run from the root of a checkout. For each --cells value, one fresh child
process draws a sample of --n rows in memory (y continuous, so the
outcome grid is the deciles; z and d binary; one covariate with that many
levels), builds its cell table, and runs bp_test, mw_test and
first_stage_nonneg_test with --reps draws. Each test runs twice: once
untraced for its wall seconds, then under tracemalloc for its peak above
the memory already held. --src picks the package the children import
(this checkout's src by default), so two checkouts can be compared on the
same inputs. The result is one JSON object on stdout. Every child runs
single-threaded BLAS. At n=10^6 and 10^4 cells, bp_test holds about
1.1 million moments, and one draw's temporaries take a few hundred MiB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys, time, tracemalloc
import numpy as np
import ivhet
n, cells, reps, seed = map(int, sys.argv[1:5])
rng = np.random.default_rng(seed)
cell = rng.integers(0, cells, size=n)
q = rng.uniform(0.3, 0.7, size=cells)
z = (rng.random(n) < q[cell]).astype(np.int64)
d = (rng.random(n) < 0.2 + 0.5 * z).astype(np.int64)
y = rng.normal(1.0, 0.5, size=cells)[cell] * d + rng.normal(size=n)
ds = ivhet.Dataset(y=y, d=d, z=z, x=cell.astype(float))
del cell, z, d, y
ct = ivhet.build_cells(ds)
calls = {"bp_test": lambda: ivhet.bp_test(ds, ct, reps=reps, seed=seed),
         "mw_test": lambda: ivhet.mw_test(ds, ct, reps=reps, seed=seed),
         "first_stage_nonneg_test":
             lambda: ivhet.first_stage_nonneg_test(ct, reps=reps, seed=seed)}
out = {"retained": int(ct.retained.sum())}
for name, call in calls.items():
    start = time.perf_counter()
    rep = call()
    wall = time.perf_counter() - start
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out[name] = {"s": wall, "tracemalloc_peak_mib": peak / 2**20,
                 "moments": rep.n_moments, "p_value": rep.p_value}
print(json.dumps(out))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--cells", type=int, nargs="+", default=[5_000, 10_000])
    ap.add_argument("--reps", type=int, default=99)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)

    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    result = {"n": args.n, "reps": args.reps, "seed": args.seed,
              "src": str(args.src), "cells": {}}
    for cells in args.cells:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(args.n),
                               str(cells), str(args.reps), str(args.seed)],
                              env=env, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"child at {cells} cells failed: {proc.stderr[-2000:]}")
        result["cells"][str(cells)] = json.loads(proc.stdout)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
