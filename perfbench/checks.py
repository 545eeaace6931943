"""Output checks. A failed check marks its operation as failed.

They run in the harness, outside every timed region, on the plain numbers
the session worker and the CLI children report. The expected values come
from workloads.py, which computes them from the raw arrays with numpy
alone.
"""

from __future__ import annotations

import json
import math
from math import comb

IDENTITY_TOL = 1e-8      # |sum of w * tau - estimate|, as the package's tests allow
CLOSED_FORM_RTOL = 1e-9  # package estimate against the numpy closed form
CLI_RTOL = 1e-12         # CLI child against the in-process call on the same file

ESTIMATORS = {"late": "estimators.estimate_beta_late_saturated",
              "iv": "estimators.estimate_beta_iv",
              "ai": "estimators.estimate_beta_ai"}
CLI_ESTIMANDS = {"beta_late_saturated": "late", "beta_iv": "iv", "beta_ai": "ai"}


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(a, b, rtol) -> bool:
    return _finite(a, b) and abs(a - b) <= rtol * abs(b)


def pass_failures(inputs, calls: dict, first: dict | None) -> dict:
    """Failure reasons per call of one pass; an empty list means it passed.

    first is the first pass of the run, against which the validity tests
    must repeat exactly (same data, same seed).
    """
    fails = {name: [c["error"]] if c["error"] else [] for name, c in calls.items()}
    s = {name: c["summary"] for name, c in calls.items() if c["summary"]}
    exp = inputs.expected

    def need(name, ok, why):
        if name in s and not ok:
            fails[name].append(why)

    if "cells.build_cells" in s:
        cells = s["cells.build_cells"]
        need("cells.build_cells", cells["retained"] == inputs.n_cells
             and cells["degenerate"] == 0, f"cells {cells}")
    for fam, name in ESTIMATORS.items():
        if name in s:
            est = s[name]
            need(name, _close(est["estimate"], exp[fam], CLOSED_FORM_RTOL),
                 f"estimate {est['estimate']!r} != closed form {exp[fam]!r}")
            need(name, _finite(est["se"]), "se is not finite")
            dots = s.get("estimators.decompose_weights")
            need("estimators.decompose_weights", dots is None or _finite(dots[fam])
                 and abs(dots[fam] - est["estimate"]) <= IDENTITY_TOL,
                 f"weights {fam}: {dots and dots[fam]!r} vs {est['estimate']!r}")
    if "many_iv.many_tsls" in s:
        est = s["many_iv.many_tsls"]["estimate"]
        need("many_iv.many_tsls", _close(est, exp["ai"], CLOSED_FORM_RTOL),
             f"estimate {est!r} != closed form {exp['ai']!r}")
    if "regression.tsls" in s:
        est = s["regression.tsls"]["estimate"]
        need("regression.tsls", _close(est, exp["tsls"], CLOSED_FORM_RTOL),
             f"estimate {est!r} != closed form {exp['tsls']!r}")
    for name, summ in s.items():
        if "estimate" in summ:
            need(name, _finite(summ["estimate"], summ["se"]),
                 "estimate or se is not finite")
        if name.startswith("propensity.fit_binary_index"):
            need(name, summ["converged"], "fit did not converge")
        if name.startswith("spec_tests."):
            p = summ["p_value"]
            need(name, _finite(p) and 0.0 <= p <= 1.0, f"p-value {p!r}")
        if name.startswith("validity."):
            _check_validity(name, summ, s, exp, need)
            if first is not None and first is not calls:
                again = first[name]["summary"]
                need(name, summ == again, f"same seed, different result: "
                                          f"{summ} vs {again}")
    return fails


def _check_validity(name, summ, s, exp, need):
    p = summ["p_value"]
    need(name, _finite(p) and 0.0 < p <= 1.0, f"p-value {p!r}")
    retained = s.get("cells.build_cells", {}).get("retained", -1)
    pairs = comb(exp["n_cuts"], 2)
    implied = {"validity.bp_test": 2 * retained * pairs,
               "validity.mw_test": retained * pairs,
               "validity.first_stage_nonneg_test": retained}[name]
    need(name, summ["n_moments"] == implied and summ["n_skipped"] == 0,
         f"{summ['n_moments']} moments, {summ['n_skipped']} skipped; "
         f"expected {implied}")
    if name != "validity.first_stage_nonneg_test":
        need(name, summ["n_cuts"] == exp["n_cuts"],
             f"{summ['n_cuts']} cut points, expected {exp['n_cuts']}")


def cli_failures(step: str, argv: list, out_path, inputs, s: dict) -> list:
    """Failure reasons for one CLI step, against the first pass's summaries s."""
    if step == "simulate":
        with open(argv[argv.index("--data") + 1], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        return [] if rows == inputs.n else [f"simulate wrote {rows} rows"]
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)["results"]
    why = []

    def same(got, name, key="estimate"):
        want = s.get(name, {}).get(key)
        if not _close(got, want, CLI_RTOL):
            why.append(f"{step}: {name}.{key} CLI {got!r} != in-process {want!r}")

    if step in ("estimate", "weights"):
        for rep in res["estimates"]:
            if rep["estimand"] == "beta_late_ipw":
                name = "propensity.ipw_late.delta_probit"
            elif inputs.n_cells:
                name = ESTIMATORS[CLI_ESTIMANDS[rep["estimand"]]]
            else:
                name = "regression.tsls"
            same(rep["estimate"], name)
            same(rep["se"], name, "se")
    if step == "estimate":
        mode = "saturated" if inputs.n_cells else "linear"
        if res.get("mode") != mode:
            why.append(f"estimate ran in mode {res.get('mode')!r}, not {mode!r}")
        if not inputs.n_cells and len(res["estimates"]) != 2:
            why.append("linear estimate did not report 2SLS and IPW")
    if step == "weights":
        for rep in res["estimates"]:
            fam = CLI_ESTIMANDS[rep["estimand"]]
            got = res["weight_sums"][fam]
            if not (_finite(got) and abs(got - rep["estimate"]) <= IDENTITY_TOL):
                why.append(f"weights: weight sum {fam} {got!r} != "
                           f"estimate {rep['estimate']!r}")
    if step == "manyiv":
        if res["errors"]:
            why.append(f"manyiv errors {res['errors']}")
        for fit in res["estimates"]:
            name = f"many_iv.{'many_tsls' if fit['estimator'] == 'tsls' else fit['estimator']}"
            same(fit["estimate"], name)
            same(fit["se"], name, "se")
    if step == "validity":
        for test in res["tests"]:
            name = f"validity.{test['test']}"
            same(test["statistic"], name, "statistic")
            same(test["p_value"], name, "p_value")
            if test["n_moments"] != s.get(name, {}).get("n_moments"):
                why.append(f"validity: {name} moments differ")
    if step.startswith("reset"):
        name = ("spec_tests.reset_binary_index" if step == "reset.assignment"
                else "spec_tests.reset_linear")
        same(res["test"]["statistic"], name, "statistic")
        same(res["test"]["p_value"], name, "p_value")
    return why
