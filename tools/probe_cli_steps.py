"""Wall time and peak RSS of each benchmark CLI step, for two checkouts.

    python3 tools/probe_cli_steps.py --src PARENT_CHECKOUT/src --src src
    python3 tools/probe_cli_steps.py --src A/src --src B/src --workload linear_controls --pairs 8

Run from the root of a checkout. For each workload (--workload, or every
one in turn), a child process builds the benchmark's inputs from --seed
with perfbench/workloads.py, imported as it is, into a temporary
directory, and exits. Then, for --pairs rounds, each step of the
workload's CLI script runs as `python3 -m ivhet.cli ... --json --output
FILE` in a fresh process, once per --src, with the checkouts taking turns
at going first from one round to the next. Each --src is byte-compiled
first, as perfbench/run.py does.

The probe imports only the standard library, so a step's ru_maxrss is its
own peak. Linux counts the RSS of the process that starts a child into the
child's ru_maxrss until the child execs, and run.py holds the workload's
arrays, so the steps it starts cannot read below run.py's own peak.

The output gives, per checkout, each step's median wall seconds and its
largest peak RSS over the rounds, then the sum of the step medians (run.py's
cli_script_s), and last one JSON object with every sample. A step that
exits non-zero stops the probe. Every child runs single-threaded BLAS.
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
WORKLOADS = ("many_cells", "few_cells_large_n", "linear_controls")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BUILD_CHILD = r"""
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import workloads
name, seed, workdir = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
print(json.dumps(workloads.cli_script(workloads.make_inputs(name, seed, workdir), seed)))
"""


def _env(src: str | None = None) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    if src is not None:
        env["PYTHONPATH"] = src
    return env


def build_steps(name: str, seed: int, workdir: Path) -> list:
    """The workload's (step, argv) pairs, its inputs written into workdir."""
    out = subprocess.run([sys.executable, "-c", BUILD_CHILD, str(ROOT / "perfbench"),
                          name, str(seed), str(workdir)],
                         env=_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_step(src: str, argv: list, out: Path) -> tuple[float, float]:
    """One fresh CLI process: (wall seconds, peak RSS in MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ivhet.cli", *argv, "--json",
                             "--output", str(out)], cwd=ROOT, env=_env(src),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{src}: `ivhet {' '.join(argv)}` exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def probe(name: str, srcs: list, seed: int, pairs: int) -> dict:
    """samples[src][step] = [(wall, rss), ...] over the rounds."""
    samples = {src: {} for src in srcs}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        steps = build_steps(name, seed, workdir)
        for r in range(pairs):
            order = srcs[r % len(srcs):] + srcs[:r % len(srcs)]
            for step, argv in steps:
                for src in order:
                    got = run_step(src, argv, workdir / "out.json")
                    samples[src].setdefault(step, []).append(got)
    return samples


def report(name: str, seed: int, samples: dict) -> None:
    print(f"workload {name} seed {seed}")
    for src, steps in samples.items():
        print(f"  {src}")
        total = 0.0
        for step, got in steps.items():
            wall = statistics.median(w for w, _ in got)
            total += wall
            print(f"    {step:<18} {wall:.3f} s  {max(r for _, r in got):6.1f} MiB"
                  f"  ({len(got)} runs)")
        print(f"    {'sum of medians':<18} {total:.3f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a checkout's src directory; give it twice")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="default: every workload, one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=8, help="rounds per workload")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    srcs = [str(Path(s).resolve()) for s in args.src]
    for src in srcs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", f"{src}/ivhet"],
                       check=True)
    result = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        result[name] = probe(name, srcs, args.seed, args.pairs)
        report(name, args.seed, result[name])
    print(json.dumps({"seed": args.seed, "samples": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
