"""Timing probes that run checkouts of ivhet in fresh child processes.

    python3 tools/probe.py cli-steps --src PARENT_CHECKOUT/src --src src
    python3 tools/probe.py ipw-bootstrap --src A/src --src B/src --pairs 10 --seed 4
    python3 tools/probe.py saturated --workdir DIR [--src OTHER_CHECKOUT/src]
    python3 tools/probe.py validity [--src OTHER_CHECKOUT/src]

Run from the root of a checkout; `python3 tools/probe.py COMMAND --help`
says what each subcommand measures. Each --src is byte-compiled first, as
perfbench/run.py does. Every child imports the package from its --src and
runs single-threaded BLAS (OPENBLAS_, OMP_ and MKL_NUM_THREADS) unless its
subcommand says otherwise, and each is timed with os.wait4 for its wall
seconds and its peak RSS (ru_maxrss).

The probe itself imports only the standard library; it builds every input
in a child. Linux counts the RSS of the process that starts a child into
the child's ru_maxrss until the child execs, so a child's peak here is its
own, where the steps perfbench/run.py starts cannot read below run.py's.

cli-steps and ipw-bootstrap take --src twice or more. Their inputs come
from perfbench/workloads.py, imported as it is, and for --pairs rounds the
checkouts take turns at going first from one round to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("many_cells", "few_cells_large_n", "linear_controls")
REPS = 50   # resamples per ipw-bootstrap call
CALLS = 3   # timed ipw-bootstrap calls per process
SATURATED_COMMANDS = ("estimate", "weights", "manyiv")

WORKLOAD_CHILD = r"""
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import workloads
name, seed = sys.argv[2], int(sys.argv[3])
inputs = workloads.make_inputs(name, seed, Path(sys.argv[4]))
print(json.dumps({"csv": str(inputs.csv), "columns": inputs.columns,
                  "steps": workloads.cli_script(inputs, seed)}))
"""

BOOTSTRAP_CHILD = r"""
import json, sys, time
import ivhet
csv, columns, calls, reps = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
ds = ivhet.load_dataset(csv, ivhet.ColumnMap(**columns))
pf = ivhet.fit_binary_index(ds.z, ds.x, link="probit")
walls = []
for _ in range(calls):
    start = time.perf_counter()
    rep = ivhet.ipw_late(ds, pf, se="bootstrap", reps=reps, seed=0)
    walls.append(time.perf_counter() - start)
print(json.dumps({"walls": walls, "completed": rep.metadata["bootstrap"]["completed"]}))
"""

# y = tau_cell d + noise, z ~ Bernoulli(q_cell), d from a first stage that
# differs by cell; written in blocks of 2**18 rows
SATURATED_CSV_CHILD = r"""
import sys
import numpy as np
path, n, cells, seed = sys.argv[1], *map(int, sys.argv[2:5])
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
"""

ESTIMATOR_CHILD = r"""
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

VALIDITY_CHILD = r"""
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


def child(argv: list, src: str | None, what: str, threads: str = "1"):
    """One fresh `python3 ARGV` importing the package from src, with that
    many BLAS threads: (wall seconds, peak RSS in MiB, stdout). A child that
    exits non-zero stops the probe with the end of its stderr."""
    env = dict(os.environ, **{var: threads for var in THREAD_VARS})
    if src is not None:
        env["PYTHONPATH"] = src
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode:
            raise SystemExit(f"{what} exited {proc.returncode}:\n"
                             f"{err.read().decode()[-2000:]}")
        return wall, usage.ru_maxrss / 1024.0, out.read().decode()


def workload(name: str, seed: int, workdir: Path) -> dict:
    """The benchmark workload's inputs, written into workdir: its CSV, its
    column roles and its CLI script as (step, argv) pairs."""
    argv = ["-c", WORKLOAD_CHILD, str(ROOT / "perfbench"), name, str(seed), str(workdir)]
    return json.loads(child(argv, None, f"building {name}")[2])


def rounds(srcs: list, pairs: int) -> list:
    """The order of the checkouts in each round: each goes first in turn."""
    return [srcs[r % len(srcs):] + srcs[:r % len(srcs)] for r in range(pairs)]


def cli_steps(args, srcs: list) -> None:
    """Wall time and peak RSS of each benchmark CLI step, for two checkouts.

    For each workload (--workload, or every one in turn), a child builds the
    benchmark's inputs from --seed into a temporary directory. Then, for
    --pairs rounds, each step of the workload's CLI script runs as `python3
    -m ivhet.cli ... --json --output FILE` in a fresh process, once per
    --src. The output gives, per checkout, each step's median wall seconds
    and its largest peak RSS over the rounds, then the sum of the step
    medians (run.py's cli_script_s), and last one JSON object with every
    sample. A step that exits non-zero stops the probe.
    """
    result = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        samples = result[name] = {src: {} for src in srcs}
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "out.json")
            steps = workload(name, args.seed, Path(tmp))["steps"]
            for order in rounds(srcs, args.pairs):
                for step, argv in steps:
                    for src in order:
                        wall, rss, _ = child(
                            ["-m", "ivhet.cli", *argv, "--json", "--output", out],
                            src, f"{src}: `ivhet {' '.join(argv)}`")
                        samples[src].setdefault(step, []).append((wall, rss))
        print(f"workload {name} seed {args.seed}")
        for src, by_step in samples.items():
            print(f"  {src}")
            total = 0.0
            for step, got in by_step.items():
                wall = statistics.median(w for w, _ in got)
                total += wall
                print(f"    {step:<18} {wall:.3f} s  {max(r for _, r in got):6.1f} MiB"
                      f"  ({len(got)} runs)")
            print(f"    {'sum of medians':<18} {total:.3f} s")
    print(json.dumps({"seed": args.seed, "samples": result}))


def ipw_bootstrap(args, srcs: list) -> None:
    """Wall time of the linear_controls IPW bootstrap, for two checkouts.

    A child builds the linear_controls CSV from --seed into a temporary
    directory. Then, for --pairs rounds and in each of two modes, one fresh
    process per --src loads the CSV, fits the probit propensity and times
    three runs (CALLS) of `ipw_late(ds, pf, se="bootstrap", reps=50,
    seed=0)`, the benchmark pass's bootstrap. The modes are:

      one-block  OPENBLAS_NUM_THREADS (and OMP_/MKL_) set to the CPU count,
                 so propensity._worker_count gives one block: every refit
                 runs in the timed process, one after another.
      forked     single-threaded BLAS: one block per CPU, all but the first
                 in forked children, as perfbench/run.py runs it.

    The number isolates the bootstrap layer from the rest of the benchmark
    pass, whose pass_s also moves with the load of the host. The output
    gives, per mode and checkout, the median call over every round and the
    rounds in which each checkout's median call was the faster, then one
    JSON object with every sample.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    modes = {"one-block": str(cpus), "forked": "1"}
    samples = {mode: {src: [] for src in srcs} for mode in modes}
    with tempfile.TemporaryDirectory() as tmp:
        inp = workload("linear_controls", args.seed, Path(tmp))
        argv = ["-c", BOOTSTRAP_CHILD, inp["csv"], json.dumps(inp["columns"]),
                str(CALLS), str(REPS)]
        for order in rounds(srcs, args.pairs):
            for mode, threads in modes.items():
                for src in order:
                    got = json.loads(child(argv, src, f"{src} ({mode})", threads)[2])
                    if got["completed"] != REPS:
                        raise SystemExit(f"{src} ({mode}): {got['completed']} of "
                                         f"{REPS} resamples completed")
                    samples[mode][src].append(got["walls"])
    for mode, by_src in samples.items():
        wins = {src: 0 for src in srcs}
        for r in range(args.pairs):
            wins[min(srcs, key=lambda s: statistics.median(by_src[s][r]))] += 1
        print(f"mode {mode} (BLAS threads {modes[mode]})")
        for src in srcs:
            walls = [w for rnd in by_src[src] for w in rnd]
            print(f"  {src}\n    median {statistics.median(walls):.3f} s over "
                  f"{len(walls)} calls, faster in {wins[src]} of {args.pairs} rounds")
    print(json.dumps({"seed": args.seed, "reps": REPS, "calls": CALLS,
                      "samples": samples}))


def saturated(args, srcs: list) -> None:
    """Wall time and peak memory of the saturated layer at large n.

    A child writes one seeded CSV of --n rows (y, d, z and one covariate x1
    with --cells levels) into --workdir, unless it is there already; then
    `python3 -m ivhet.cli CMD --saturated yes` runs for estimate, weights
    and manyiv, one fresh child each, for each command's wall seconds and
    peak RSS. Last, one more child draws a sample of the same size with
    --estimator-cells cells in memory, builds its cell table and reports,
    per saturated estimator, the tracemalloc peak and the wall time of one
    call (hc1, no clusters). --src picks the package the children import
    (this checkout's src by default), so two checkouts can be compared on
    the same inputs. The result is one JSON object on stdout.
    """
    args.workdir.mkdir(parents=True, exist_ok=True)
    csv = args.workdir / f"saturated-{args.n}-{args.cells}-{args.seed}.csv"
    if not csv.exists():
        child(["-c", SATURATED_CSV_CHILD, str(csv), str(args.n), str(args.cells),
               str(args.seed)], None, "writing the CSV")
    result = {"n": args.n, "cells": args.cells, "src": str(args.src), "cli": {}}
    data = ["--input", str(csv), "-y", "y", "-d", "d", "-z", "z", "-x", "x1",
            "--saturated", "yes", "--json", "--output", os.devnull]
    for cmd in SATURATED_COMMANDS:
        wall, rss, _ = child(["-m", "ivhet.cli", cmd, *data], srcs[0], cmd)
        result["cli"][cmd] = {"s": wall, "peak_rss_mib": rss}
    out = child(["-c", ESTIMATOR_CHILD, str(args.n), str(args.estimator_cells),
                 str(args.seed)], srcs[0], "the estimator child")[2]
    result["estimators"] = {"cells": args.estimator_cells, **json.loads(out)}
    print(json.dumps(result, indent=2))


def validity(args, srcs: list) -> None:
    """Wall time and peak memory of the validity tests at many cells.

    For each --cells value, one fresh child draws a sample of --n rows in
    memory (y continuous, so the outcome grid is the deciles; z and d
    binary; one covariate with that many levels), builds its cell table,
    and runs bp_test, mw_test and first_stage_nonneg_test with --reps
    draws. Each test runs twice: once untraced for its wall seconds, then
    under tracemalloc for its peak above the memory already held. --src
    picks the package the children import (this checkout's src by
    default), so two checkouts can be compared on the same inputs. The
    result is one JSON object on stdout. At n=10^6 and 10^4 cells, bp_test
    holds about 1.1 million moments, and one draw's temporaries take a few
    hundred MiB.
    """
    result = {"n": args.n, "reps": args.reps, "seed": args.seed,
              "src": str(args.src), "cells": {}}
    for cells in args.cells:
        out = child(["-c", VALIDITY_CHILD, str(args.n), str(cells), str(args.reps),
                     str(args.seed)], srcs[0], f"the child at {cells} cells")[2]
        result["cells"][str(cells)] = json.loads(out)
    print(json.dumps(result, indent=2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = ap.add_subparsers(dest="command", required=True)

    def command(name, run, seed, pairs_help=None):
        p = commands.add_parser(name, help=run.__doc__.splitlines()[0],
                                description=run.__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
        if pairs_help:
            p.add_argument("--src", action="append", required=True,
                           help="a checkout's src directory; give it twice")
            p.add_argument("--pairs", type=int, default=8, help=pairs_help)
        else:
            p.add_argument("--src", type=Path, default=ROOT / "src")
        p.add_argument("--seed", type=int, default=seed)
        p.set_defaults(run=run)
        return p

    command("cli-steps", cli_steps, 1, "rounds per workload").add_argument(
        "--workload", choices=WORKLOADS, help="default: every workload, one after another")
    command("ipw-bootstrap", ipw_bootstrap, 1, "rounds per mode")
    p = command("saturated", saturated, 0)
    p.add_argument("--n", type=int, default=4_000_000)
    p.add_argument("--cells", type=int, default=100)
    p.add_argument("--estimator-cells", type=int, default=10_000)
    p.add_argument("--workdir", type=Path, required=True)
    p = command("validity", validity, 0)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--cells", type=int, nargs="+", default=[5_000, 10_000])
    p.add_argument("--reps", type=int, default=99)
    args = ap.parse_args(argv)
    if getattr(args, "pairs", 1) < 1:
        ap.error("--pairs must be at least 1")
    given = args.src if isinstance(args.src, list) else [args.src]
    srcs = [str(Path(s).resolve()) for s in given]
    for src in srcs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", f"{src}/ivhet"],
                       check=True)
    args.run(args, srcs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
