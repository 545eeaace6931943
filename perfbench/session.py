"""Session worker: load one workload's CSV once, then run passes on request.

run.py starts it and drives it over a line protocol, so passes interleave
with the set-up probes and CLI steps of the same run. After loading it
writes one JSON line; then each line it reads names a pass kind, and it
answers with one JSON line holding the pass's wall time and a summary (or
the error) of every public call. At end of input it writes the spans to
--out and exits.

Pass kinds: "untraced" times only the whole pass; "spans" adds a span per
public call; "memory" adds the tracemalloc peak during each call. Call
times come from "spans" passes, because tracemalloc slows Python-heavy
calls several times over. When tracing, the set-up calls run once each
way too. Nothing is checked here; run.py checks the summaries.

    python3 perfbench/session.py --workload W --csv F --columns JSON \
        --trace 0|1 --out SPANS.json [--perturb CALL]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import tracemalloc

import numpy as np

import ivhet

MIB = 2.0 ** 20
VALIDITY_REPS = 199
VALIDITY_SEED = 0        # the CLI's default --seed, so both sides match
IPW_BOOT_REPS = 50


class Recorder:
    """Runs the public calls of one pass; keeps results, errors and spans.

    With a span list, each call becomes a span whose parent is the pass
    (or the set-up) span. While tracemalloc runs, the span also records the
    peak above the memory already traced when the call started.
    """

    def __init__(self, parent: str, pass_id: int, spans: list | None,
                 clock0: float):
        self.parent = parent
        self.pass_id = pass_id
        self.spans = spans
        self.clock0 = clock0
        self.results: dict = {}
        self.errors: dict = {}

    def span(self, name, start, end, parent, peak_mb=None, failed=False):
        self.spans.append({
            "name": name, "start": start - self.clock0, "end": end - self.clock0,
            "parent": parent, "pass_id": self.pass_id, "peak_mb": peak_mb,
            "failed": failed,
        })

    def __call__(self, name, fn, *args, **kwargs):
        memory = self.spans is not None and tracemalloc.is_tracing()
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, not fatal
            out = None
            self.errors[name] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if self.spans is not None:
            peak = (tracemalloc.get_traced_memory()[1] - base) / MIB if memory else None
            self.span(name, start, end, self.parent, peak, name in self.errors)
        self.results[name] = out
        return out


def _estimators(call, ct):
    for fn in (ivhet.estimate_beta_late_saturated, ivhet.estimate_beta_iv,
               ivhet.estimate_beta_ai):
        call(f"estimators.{fn.__name__}", fn, ct)


def _first_stage(call, ct):
    call("validity.first_stage_nonneg_test", ivhet.first_stage_nonneg_test, ct,
         reps=VALIDITY_REPS, seed=VALIDITY_SEED)


def _many_cells_pass(call, ds):
    ct = call("cells.build_cells", ivhet.build_cells, ds)
    call("estimators.decompose_weights", ivhet.decompose_weights, ct)
    _estimators(call, ct)
    for fn in (ivhet.many_tsls, ivhet.jive, ivhet.ujive):
        call(f"many_iv.{fn.__name__}", fn, ct)
    _first_stage(call, ct)


def _few_cells_pass(call, ds):
    ct = call("cells.build_cells", ivhet.build_cells, ds)
    _estimators(call, ct)
    call("estimators.decompose_weights", ivhet.decompose_weights, ct)
    for fn in (ivhet.bp_test, ivhet.mw_test):
        call(f"validity.{fn.__name__}", fn, ds, ct,
             reps=VALIDITY_REPS, seed=VALIDITY_SEED)
    _first_stage(call, ct)


def _linear_pass(call, ds):
    X = np.column_stack([np.ones(ds.n), ds.x])
    call("regression.tsls", ivhet.tsls, ds.y, X, ds.d.astype(float),
         ds.z.astype(float), se_type="cluster", cluster=ds.cluster)
    fits = {link: call(f"propensity.fit_binary_index.{link}",
                       ivhet.fit_binary_index, ds.z, ds.x, link=link)
            for link in ("logit", "probit")}
    for link, pf in fits.items():
        call(f"propensity.ipw_late.delta_{link}", ivhet.ipw_late, ds, pf)
    call("propensity.ipw_late.bootstrap", ivhet.ipw_late, ds, fits["probit"],
         se="bootstrap", reps=IPW_BOOT_REPS, seed=0)
    call("spec_tests.reset_linear", ivhet.reset_linear, ds.y, X,
         se_type="cluster", cluster=ds.cluster)
    call("spec_tests.reset_binary_index", ivhet.reset_binary_index, ds.z, ds.x,
         link="probit")


PASSES = {
    "many_cells": _many_cells_pass,
    "few_cells_large_n": _few_cells_pass,
    "linear_controls": _linear_pass,
}


def summarize(obj) -> dict:
    """The numbers the harness checks, from any report this pass returns."""
    if isinstance(obj, ivhet.CellTable):
        return {"n_cells": obj.n_cells, "retained": int(obj.retained.sum()),
                "degenerate": int(obj.degenerate.sum())}
    if isinstance(obj, ivhet.WeightTable):
        return {f: obj.dot(f) for f in ("late", "iv", "ai")}
    if isinstance(obj, ivhet.ValidityReport):
        return {"statistic": obj.statistic, "p_value": obj.p_value,
                "n_moments": obj.n_moments, "n_skipped": obj.n_skipped,
                "n_cuts": len(obj.method.get("cut_points", ()))}
    if isinstance(obj, ivhet.PropensityFit):
        return {"converged": bool(obj.converged), "iterations": obj.iterations}
    if isinstance(obj, ivhet.RegressionFit):
        i = obj.endog_index
        return {"estimate": float(obj.coefficients[i]),
                "se": math.sqrt(obj.vcov[i, i])}
    if isinstance(obj, ivhet.TestReport):
        return {"statistic": obj.statistic, "p_value": obj.p_value}
    out = {"estimate": obj.estimate, "se": obj.se}
    boot = getattr(obj, "metadata", {}).get("bootstrap")
    if boot:
        out["completed_ratio"] = boot["completed"] / boot["reps"]
    return out


def run_pass(workload, ds, pass_id, spans, clock0):
    """One pass; returns its wall time and a summary or error per call."""
    rec = Recorder(f"pass-{pass_id}", pass_id, spans, clock0)
    start = time.perf_counter()
    PASSES[workload](rec, ds)
    end = time.perf_counter()
    if spans is not None:
        rec.span(f"pass-{pass_id}", start, end, None)
    calls = {}
    for name, obj in rec.results.items():
        err = rec.errors.get(name)
        calls[name] = {"error": err, "summary": None if err else summarize(obj)}
    return end - start, calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--csv", required=True)
    ap.add_argument("--columns", required=True, help="ColumnMap fields as JSON")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--perturb", help="add 1e-6 to this call's estimate, to "
                                      "prove that the checks catch it")
    ap.add_argument("--simulate-spec", help="when tracing, also time "
                                            "ivhet.generate on this spec")
    ap.add_argument("--simulate-n", type=int, default=0)
    args = ap.parse_args(argv)
    traced = bool(args.trace)
    clock0 = time.perf_counter()
    spans: list = []

    def set_up(rec):
        cmap = ivhet.ColumnMap(**json.loads(args.columns))
        ds = rec("data_model.load_dataset", ivhet.load_dataset, args.csv, cmap)
        report = rec("data_model.validate", ivhet.validate, ds)
        if traced and args.simulate_spec:
            spec = ivhet.DGPSpec.from_json(args.simulate_spec)
            rec("dgp.generate", ivhet.generate, spec, args.simulate_n, seed=0)
        return ds, report

    setup = Recorder("setup", 0, spans if traced else None, clock0)
    ds, report = set_up(setup)
    if traced:
        tracemalloc.start()
        set_up(Recorder("setup", 0, spans, clock0))
        tracemalloc.stop()
    if report is not None and not report.passed:
        setup.errors["data_model.validate"] = "; ".join(report.errors)
    ready = {"setup_errors": setup.errors}
    if ds is not None:
        ready.update(rows=ds.n, dropped=ds.dropped)
    print(json.dumps(ready), flush=True)
    if setup.errors:
        return 1

    for pass_id, line in enumerate(sys.stdin, start=1):
        kind = line.strip()
        if kind == "memory":
            tracemalloc.start()
        elapsed, calls = run_pass(args.workload, ds, pass_id,
                                  None if kind == "untraced" else spans, clock0)
        tracemalloc.stop()
        if args.perturb in calls and calls[args.perturb]["summary"]:
            calls[args.perturb]["summary"]["estimate"] += 1e-6
        print(json.dumps({"kind": kind, "elapsed": elapsed, "calls": calls}),
              flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
