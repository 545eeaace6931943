"""Wall time and peak memory of the saturated layer at large n.

    python3 tools/probe_saturated_memory.py --workdir DIR
    python3 tools/probe_saturated_memory.py --workdir DIR --src OTHER_CHECKOUT/src

Run from the root of a checkout. The probe writes one seeded CSV of --n
rows (y, d, z and one covariate x1 with --cells levels) into --workdir,
then runs `python3 -m ivhet.cli CMD --saturated yes` for estimate,
weights and manyiv, one fresh child process each, and reports each
command's wall seconds and peak RSS (the child's ru_maxrss). Last, one
more child draws a sample of the same size with --estimator-cells cells
in memory, builds its cell table and reports, per saturated estimator,
the tracemalloc peak and the wall time of one call (hc1, no clusters).
--src picks the package the children import (this checkout's src by
default), so two checkouts can be compared on the same inputs. The
result is one JSON object on stdout. Every child runs single-threaded
BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("estimate", "weights", "manyiv")

ESTIMATOR_CHILD = """
import json, sys, time, tracemalloc
import numpy as np
import ivhet
n, cells, seed = map(int, sys.argv[1:4])
rng = np.random.default_rng(seed)
cell = rng.integers(0, cells, size=n)
z = rng.integers(0, 2, size=n)
d = (rng.random(n) < 0.2 + 0.5 * z).astype(np.int64)
ds = ivhet.Dataset(y=1.5 * d + rng.normal(size=n), d=d, z=z, x=cell.astype(float))
del cell, z, d
ct = ivhet.build_cells(ds, min_arm_size=2)
out = {}
for fn in (ivhet.estimate_beta_late_saturated, ivhet.estimate_beta_iv,
           ivhet.estimate_beta_ai, ivhet.many_tsls, ivhet.jive, ivhet.ujive):
    tracemalloc.start()
    start = time.perf_counter()
    fn(ct, se_type="hc1")
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out[fn.__name__] = {"s": wall, "tracemalloc_peak_mib": peak / 2**20}
print(json.dumps(out))
"""


def write_csv(path: Path, n: int, cells: int, seed: int) -> None:
    """y = tau_cell d + noise, z ~ Bernoulli(q_cell), d from a first stage
    that differs by cell; written in blocks of 2**18 rows."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.3, 0.7, size=cells)
    tau = rng.normal(1.0, 0.5, size=cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,d,z,x1\n")
        for start in range(0, n, 1 << 18):
            m = min(1 << 18, n - start)
            cell = rng.integers(0, cells, size=m)
            z = (rng.random(m) < q[cell]).astype(int)
            d = (rng.random(m) < 0.2 + 0.5 * z).astype(int)
            y = tau[cell] * d + rng.normal(size=m)
            fh.write("\n".join(f"{a:.6f},{b},{c},{e}" for a, b, c, e in
                               zip(y.tolist(), d.tolist(), z.tolist(), cell.tolist())))
            fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=4_000_000)
    ap.add_argument("--cells", type=int, default=100)
    ap.add_argument("--estimator-cells", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)

    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    args.workdir.mkdir(parents=True, exist_ok=True)
    csv = args.workdir / f"saturated-{args.n}-{args.cells}-{args.seed}.csv"
    if not csv.exists():
        write_csv(csv, args.n, args.cells, args.seed)

    result = {"n": args.n, "cells": args.cells, "src": str(args.src), "cli": {}}
    data = ["--input", str(csv), "-y", "y", "-d", "d", "-z", "z", "-x", "x1",
            "--saturated", "yes", "--json", "--output", os.devnull]
    err = args.workdir / "stderr.txt"
    for cmd in COMMANDS:
        with open(err, "w", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "ivhet.cli", cmd, *data],
                                    env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=fh)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status):
            raise SystemExit(f"{cmd} failed: {err.read_text()[-2000:]}")
        result["cli"][cmd] = {"s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0}

    proc = subprocess.run([sys.executable, "-c", ESTIMATOR_CHILD, str(args.n),
                           str(args.estimator_cells), str(args.seed)],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"estimator child failed: {proc.stderr[-2000:]}")
    result["estimators"] = {"cells": args.estimator_cells,
                            **json.loads(proc.stdout)}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
