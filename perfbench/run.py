"""Benchmark harness for ivhet: seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload many_cells --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. One run drives one workload as a closed
loop: this harness is the single client, and at most one child works at a
time. It first writes the workload's CSV from --seed with its own numpy
code (workloads.py), so the inputs never depend on the package, and
byte-compiles the package, as an installed copy would be. Then, for
--seconds, it measures three kinds of activity, interleaved:

1. a set-up probe: a fresh process imports ivhet, then loads and
   validates the CSV (probe_setup.py). setup_s is the median wall time;
2. one analysis pass in the session worker (session.py), which loaded the
   CSV once and waits, idle, between passes. pass_s is the median;
3. one step of the workload's CLI script, in a fresh
   `python3 -m ivhet.cli` process. cli_script_s is the sum over the
   script's steps of each step's median wall time.

Each kind gets a fixed share of the measured time (SHARES), most of it
to the CLI steps, whose samples are the longest; the next activity comes
from the kind furthest below its share, so every metric samples the whole
run and slow phases of a shared machine touch all metrics alike. An
activity starts only while its median duration so far still fits before
the end, so a run stops on time; every pass kind and CLI step runs at
least once. The probe's share buys two or three probes on
few_cells_large_n and three to five on the other workloads, and leaves
most of the time to the longer passes and CLI steps. peak_rss_mb is the
largest ru_maxrss of any child. Each public call, probe and CLI step is
one operation; it fails if it raises, exits non-zero or fails a check
(checks.py), and error_rate is failed over attempted.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
it holds the per-layer metrics: per call, the median time in passes with
spans, the median tracemalloc peak and the failures; the work counts the
reports return; the CLI steps; and the tracing overhead. The spans go to
.perfbench_work/spans/. A per-layer metric of a call that the workload
does not make reads 0. error_rate, sample counts, input hashes and the
environment are printed above the last line.
"""

from __future__ import annotations

import os

# Every process this benchmark starts runs single-threaded BLAS: on small
# shared machines threaded OpenBLAS makes these dense solves slower and
# far noisier. Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0          # every run must end within 180 s
TRACE_KINDS = ("untraced", "spans", "memory")
PERTURB = {"many_cells": "estimators.estimate_beta_iv",
           "few_cells_large_n": "estimators.estimate_beta_iv",
           "linear_controls": "regression.tsls"}

CALLS = (
    "data_model.load_dataset", "data_model.validate", "dgp.generate",
    "cells.build_cells", "estimators.decompose_weights",
    "estimators.estimate_beta_late_saturated", "estimators.estimate_beta_iv",
    "estimators.estimate_beta_ai", "many_iv.many_tsls", "many_iv.jive",
    "many_iv.ujive", "validity.bp_test", "validity.mw_test",
    "validity.first_stage_nonneg_test", "regression.tsls",
    "propensity.fit_binary_index.logit", "propensity.fit_binary_index.probit",
    "propensity.ipw_late.delta_logit", "propensity.ipw_late.delta_probit",
    "propensity.ipw_late.bootstrap", "spec_tests.reset_linear",
    "spec_tests.reset_binary_index",
)
# Shares of the measured time. "pass" comes first, so the first pass (whose
# summaries the CLI checks compare against) runs before the first CLI step.
SHARES = {"pass": 0.3, "probe": 0.12, "cli": 0.58}
CLI_STEPS = ("estimate", "weights", "manyiv", "simulate", "validity", "reset",
             "reset.assignment")
VALIDITY_TESTS = ("bp_test", "mw_test", "first_stage_nonneg_test")


class Run:
    """One benchmark run: its children, samples, operations and failures."""

    def __init__(self, inputs, workdir: Path, trace: int):
        self.inputs = inputs
        self.workdir = workdir
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.pass_s = {kind: [] for kind in TRACE_KINDS}
        self.first_pass: dict | None = None
        self.cli: dict = {}          # step -> list of (wall, peak RSS)

    def start(self, argv: list[str], **kwargs) -> subprocess.Popen:
        """Start a child, to be killed if it outlives the run's deadline."""
        kwargs.setdefault("stdin", subprocess.DEVNULL)
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                **kwargs)
        proc.watchdog = threading.Timer(
            max(self.deadline - time.monotonic(), 1.0), proc.kill)
        proc.watchdog.daemon = True
        proc.watchdog.start()
        return proc

    def reap(self, proc: subprocess.Popen) -> tuple[int, float]:
        """Wait for a child; returns (exit code, its peak RSS in MiB)."""
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return proc.returncode, rss

    def child(self, argv: list[str]) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, peak RSS)."""
        start = time.perf_counter()
        proc = self.start(argv, stdout=subprocess.DEVNULL)
        code, rss = self.reap(proc)
        return time.perf_counter() - start, code, rss

    def op(self, name: str, why: list) -> None:
        self.attempted += 1
        if why:
            self.failures.append(f"{name}: {'; '.join(str(w) for w in why)}")

    def probe(self) -> None:
        out = self.workdir / "probe.json"
        out.unlink(missing_ok=True)
        wall, code, _ = self.child([str(HERE / "probe_setup.py"),
                                    str(self.inputs.csv),
                                    json.dumps(self.inputs.columns), str(out)])
        why = [f"exit {code}"] if code else []
        if not code:
            rep = _read_json(out)
            if rep["rows"] != self.inputs.n or rep["dropped"] or not rep["passed"]:
                why.append(f"loaded {rep}")
            self.setup_s.append(wall)
            self.import_s.append(rep["import_s"])
        self.op("setup probe", why)

    def cli_step(self, step: str, argv: list[str]) -> None:
        out = self.workdir / f"cli-{step}.json"
        out.unlink(missing_ok=True)
        wall, code, rss = self.child(["-m", "ivhet.cli", *argv, "--json",
                                      "--output", str(out)])
        self.cli.setdefault(step, []).append((wall, rss))
        summaries = {name: c["summary"] for name, c in self.first_pass.items()
                     if c["summary"]}
        why = [f"exit {code}"] if code else \
            checks.cli_failures(step, argv, out, self.inputs, summaries)
        self.op(f"cli {step}", why)


class Session:
    """The session worker: loads the CSV once, then runs passes on request."""

    def __init__(self, run: Run, perturb: str | None):
        inputs = run.inputs
        self.run = run
        self.spans_out = run.workdir / "spans.json"
        argv = [str(HERE / "session.py"), "--workload", inputs.name,
                "--csv", str(inputs.csv), "--columns", json.dumps(inputs.columns),
                "--trace", str(run.trace), "--out", str(self.spans_out)]
        if perturb:
            argv += ["--perturb", perturb]
        if run.trace and inputs.simulate_spec:
            argv += ["--simulate-spec", str(inputs.simulate_spec),
                     "--simulate-n", str(inputs.n)]
        self.proc = run.start(argv, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
        try:
            self.ready = self._read()
        except BaseException:
            self.proc.kill()
            run.reap(self.proc)
            raise
        errors = self.ready.get("setup_errors", {})
        for name, err in errors.items():
            run.op(name, [err])
        if errors:
            self.proc.stdin.close()
            run.reap(self.proc)
            raise RuntimeError(f"session worker could not load the data: {errors}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("session worker ended early")
        return json.loads(line)

    def run_pass(self, kind: str) -> None:
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        rep = self._read()
        run = self.run
        run.pass_s[kind].append(rep["elapsed"])
        if run.first_pass is None:
            run.first_pass = rep["calls"]
        fails = checks.pass_failures(run.inputs, rep["calls"], run.first_pass)
        for name, why in fails.items():
            run.op(name, why)

    def close(self) -> list:
        """End the worker; returns its spans."""
        self.proc.stdin.close()
        code, _ = self.run.reap(self.proc)
        self.proc.stdout.close()
        if code:
            raise RuntimeError(f"session worker exited {code}")
        return _read_json(self.spans_out)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int, inputs) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "seed": seed,
        "workload": inputs.name, "n": inputs.n, "J": inputs.n_cells,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(run: Run) -> dict:
    cli_s = sum(_median([wall for wall, _ in s]) for s in run.cli.values())
    return {
        "setup_s": (_median(run.setup_s), "s"),
        "pass_s": (_median(run.pass_s["untraced"]), "s"),
        "cli_script_s": (cli_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


def per_layer(run: Run, loaded: dict, spans: list) -> dict:
    m = {}
    for name in CALLS:
        mine = [s for s in spans if s["name"] == name]
        m[f"{name}.s"] = (_median([s["end"] - s["start"] for s in mine
                                   if s["peak_mb"] is None]), "s")
        m[f"{name}.peak_mb"] = (_median([s["peak_mb"] for s in mine
                                         if s["peak_mb"] is not None]), "MiB")
        m[f"{name}.failed"] = (sum(s["failed"] for s in mine), "count")
    first = {k: c["summary"] or {} for k, c in run.first_pass.items()}
    cells = first.get("cells.build_cells", {})
    m["import.ivhet.s"] = (_median(run.import_s), "s")
    m["data_model.load_dataset.rows"] = (loaded["rows"], "count")
    m["data_model.load_dataset.dropped"] = (loaded["dropped"], "count")
    m["cells.build_cells.retained"] = (cells.get("retained", 0), "count")
    m["cells.build_cells.degenerate"] = (cells.get("degenerate", 0), "count")
    for test in VALIDITY_TESTS:
        summ = first.get(f"validity.{test}", {})
        m[f"validity.{test}.moments"] = (summ.get("n_moments", 0), "count")
        m[f"validity.{test}.skipped"] = (summ.get("n_skipped", 0), "count")
    for link in ("logit", "probit"):
        summ = first.get(f"propensity.fit_binary_index.{link}", {})
        m[f"propensity.fit_binary_index.{link}.iterations"] = \
            (summ.get("iterations", 0), "count")
    boot = first.get("propensity.ipw_late.bootstrap", {})
    m["propensity.ipw_late.bootstrap.completed_ratio"] = \
        (boot.get("completed_ratio", 0.0), "ratio")
    for step in CLI_STEPS:
        samples = run.cli.get(step, [])
        m[f"cli.{step}.s"] = (_median([wall for wall, _ in samples]), "s")
        m[f"cli.{step}.peak_rss_mb"] = (max((r for _, r in samples), default=0.0),
                                        "MiB")
    times = {kind: _median(t) for kind, t in run.pass_s.items()}
    m["trace.overhead_s"] = (times["spans"] - times["untraced"], "s")
    m["trace.tracemalloc_overhead_s"] = (times["memory"] - times["untraced"], "s")
    return m


def measure(run: Run, session: Session, steps: list, kinds: tuple,
            seconds: float) -> int:
    """Fill --seconds with probes, passes and CLI steps; returns how many ran.

    Within a kind, the least-sampled pass kind or CLI step that fits goes
    next, the longest first, since the longest steps weigh most in
    cli_script_s.
    """
    members = {"pass": [("pass", k) for k in kinds], "probe": [("probe",)],
               "cli": [("cli", i) for i in range(len(steps))]}
    took = {key: [] for keys in members.values() for key in keys}
    spent = dict.fromkeys(SHARES, 0.0)
    end = time.perf_counter() + seconds
    done = 0
    while True:
        now = time.perf_counter()
        todo = None
        for kind in sorted(SHARES, key=lambda k: spent[k] / SHARES[k]):
            for key in sorted(members[kind],
                              key=lambda k: (len(took[k]), -_median(took[k]))):
                if not took[key] or now + _median(took[key]) <= end:
                    todo = kind, key
                    break
            if todo:
                break
        if todo is None:
            return done
        kind, key = todo
        start = time.perf_counter()
        if kind == "probe":
            run.probe()
        elif kind == "pass":
            session.run_pass(key[1])
        else:
            run.cli_step(*steps[key[1]])
        wall = time.perf_counter() - start
        took[key].append(wall)
        spent[kind] += wall
        done += 1


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, perturb: str | None = None) -> dict:
    """One benchmark run; returns the result object and a text report."""
    workdir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.make_inputs(name, seed, workdir, smoke=smoke)
        run = Run(inputs, workdir, trace)
        steps = workloads.cli_script(inputs, seed)
        kinds = TRACE_KINDS if trace else ("untraced",)
        if run.child(["-m", "compileall", "-q", str(ROOT / "src" / "ivhet")])[1]:
            raise RuntimeError("could not byte-compile src/ivhet")
        session = Session(run, perturb)
        try:
            activities = measure(run, session, steps, kinds, seconds)
        finally:
            spans = session.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(seed, inputs)
    metrics = per_layer(run, session.ready, spans) if trace else end_to_end(run)
    failed = len(run.failures)
    lines = [
        f"workload {name} seed {seed} trace {trace} n {inputs.n} J {inputs.n_cells}",
        f"input {inputs.csv.name} sha256 {inputs.sha256}",
        f"environment {json.dumps(env, sort_keys=True)}",
        f"activities {activities}; pass samples "
        + ", ".join(f"{len(t)} {k}" for k, t in run.pass_s.items() if t)
        + f"; setup samples {len(run.setup_s)}; cli samples per step "
        + ", ".join(f"{step} {len(s)}" for step, s in run.cli.items()),
        f"error_rate {failed / run.attempted:.6g} ratio "
        f"({failed} failed of {run.attempted} operations)",
    ]
    lines += [f"  {k} = {v!r} {u}" for k, (v, u) in metrics.items()]
    lines += [f"FAILED {f}" for f in run.failures[:20]]
    if trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{name}-seed{seed}.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "input_sha256": inputs.sha256,
                       "spans": spans}, fh)
        lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return {"result": result, "report": "\n".join(lines)}


def selfcheck() -> int:
    """Smoke-size runs of every workload through the same code and checks.

    Each workload must pass clean, emit exactly the metrics BENCHMARK.json
    lists, and fail once one estimate is perturbed by 1e-6.
    """
    spec = _read_json(ROOT / "BENCHMARK.json")
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.SIZES:
        for trace in (0, 1):
            out = run_workload(name, 0, 1.0, trace, smoke=True)
            res = out["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"]:
                problems.append(f"{name} trace {trace}: failed clean run\n"
                                + out["report"])
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
        res = run_workload(name, 0, 1.0, 0, smoke=True,
                           perturb=PERTURB[name])["result"]
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{name}: perturbing {PERTURB[name]} by 1e-6 "
                            "was not caught")
        print(f"selfcheck {name}: done", flush=True)
    for p in problems:
        print(p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.SIZES),
                    help="default: every workload, one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="smoke-size runs of every workload, plus a check "
                         "that a perturbed estimate is caught")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ivhet" / "__init__.py").is_file():
        print(f"error: no ivhet sources under {ROOT / 'src'}; run from the "
              "root of an ivhet checkout", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    for name in [args.workload] if args.workload else workloads.SIZES:
        out = run_workload(name, args.seed, args.seconds, args.trace)
        print(out["report"])
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
