"""Wall time of the linear_controls IPW bootstrap, for two checkouts.

    python3 tools/probe_ipw_bootstrap.py --src PARENT_CHECKOUT/src --src src
    python3 tools/probe_ipw_bootstrap.py --src A/src --src B/src --pairs 10 --seed 4

Run from the root of a checkout. A child process builds the linear_controls
CSV from --seed with perfbench/workloads.py, imported as it is, into a
temporary directory, and exits. Then, for --pairs rounds and in each of two
modes, one fresh process per --src loads the CSV, fits the probit
propensity and times three runs (CALLS) of
`ipw_late(ds, pf, se="bootstrap", reps=50, seed=0)`, the benchmark pass's
bootstrap; the checkouts take turns at going first from one round to the
next. The modes are:

  one-block  OPENBLAS_NUM_THREADS (and OMP_/MKL_) set to the CPU count, so
             propensity._worker_count gives one block: every refit runs in
             the timed process, one after another.
  forked     single-threaded BLAS: one block per CPU, all but the first in
             forked children, as perfbench/run.py runs it.

The number isolates the bootstrap layer from the rest of the benchmark pass,
whose pass_s also moves with the load of the host. The output gives, per
mode and checkout, the median call over every round and the rounds in which
each checkout's median call was the faster, then one JSON object with every
sample. The probe itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPS = 50
CALLS = 3   # timed bootstrap calls per process

BUILD_CHILD = r"""
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import workloads
inputs = workloads.make_inputs("linear_controls", int(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps({"csv": str(inputs.csv), "columns": inputs.columns}))
"""

TIME_CHILD = r"""
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


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


MODES = {"one-block": str(_cpus()), "forked": "1"}


def _env(threads: str, src: str | None = None) -> dict:
    env = dict(os.environ, **{var: threads for var in THREAD_VARS})
    if src is not None:
        env["PYTHONPATH"] = src
    return env


def build_input(seed: int, workdir: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", BUILD_CHILD, str(ROOT / "perfbench"),
                          str(seed), str(workdir)],
                         env=_env("1"), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def time_calls(src: str, mode: str, inp: dict) -> list:
    """One fresh process: the wall seconds of each bootstrap call."""
    proc = subprocess.run([sys.executable, "-c", TIME_CHILD, inp["csv"],
                           json.dumps(inp["columns"]), str(CALLS), str(REPS)],
                          cwd=ROOT, env=_env(MODES[mode], src),
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{src} ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    got = json.loads(proc.stdout)
    if got["completed"] != REPS:
        raise SystemExit(f"{src} ({mode}): {got['completed']} of {REPS} resamples completed")
    return got["walls"]


def report(samples: dict) -> None:
    for mode, by_src in samples.items():
        srcs = list(by_src)
        rounds = len(by_src[srcs[0]])
        wins = {src: 0 for src in srcs}
        for r in range(rounds):
            best = min(srcs, key=lambda s: statistics.median(by_src[s][r]))
            wins[best] += 1
        print(f"mode {mode} (BLAS threads {MODES[mode]})")
        for src in srcs:
            walls = [w for rnd in by_src[src] for w in rnd]
            print(f"  {src}\n    median {statistics.median(walls):.3f} s over "
                  f"{len(walls)} calls, faster in {wins[src]} of {rounds} rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a checkout's src directory; give it twice")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=8, help="rounds per mode")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    srcs = [str(Path(s).resolve()) for s in args.src]
    for src in srcs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", f"{src}/ivhet"],
                       check=True)
    samples = {mode: {src: [] for src in srcs} for mode in MODES}
    with tempfile.TemporaryDirectory() as tmp:
        inp = build_input(args.seed, Path(tmp))
        for r in range(args.pairs):
            order = srcs[r % len(srcs):] + srcs[:r % len(srcs)]
            for mode in MODES:
                for src in order:
                    samples[mode][src].append(time_calls(src, mode, inp))
    report(samples)
    print(json.dumps({"seed": args.seed, "reps": REPS, "calls": CALLS,
                      "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
