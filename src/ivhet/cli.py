"""Command line interface.

Subcommands mirror the library: estimate, weights, reset, validity,
manyiv, simulate. Every subcommand can emit either a human-readable text
block or, with --json, a machine-readable payload with full-precision
numbers. Exit code 2 flags configuration problems (bad flags, bad column
maps), exit code 1 flags data problems (unreadable values, degenerate
designs), and 0 is success.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .cells import (
    DEFAULT_MIN_ARM_SIZE,
    DEFAULT_MIN_CELL_SIZE,
    CellTable,
    _cell_keys,
    _table,
    cell_stats_table,
)
from .data_model import ColumnMap, Dataset, load_dataset, validate
from .dgp import DGPSpec, brute_force_late, brute_force_weights, generate
from .errors import ConfigError, DataError, DomainError, LeverageError
from .estimators import (
    EstimateReport,
    decompose_weights,
    estimate_beta_ai,
    estimate_beta_iv,
    estimate_beta_late_saturated,
)
from .many_iv import jive, many_tsls, ujive
from .propensity import fit_binary_index, fit_cell_propensity, ipw_late
from .regression import _resolve_se, tsls
from .spec_tests import _check_powers, reset_binary_index, reset_linear
from .tables import fmt3, fmtp, format_table, json_safe, write_columns
from .validity import OutcomeSetPartition, validity_family

_MAX_LEVELS = 20
_DEFAULT_TRIM = "0.01,0.99"
_ROLES = ("outcome", "treatment", "instrument", "covariates", "cluster")


def _add_data_args(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="CSV file with the sample")
    p.add_argument("--config", help="JSON file mapping column roles to names")
    p.add_argument("--outcome", "-y", help="outcome column")
    p.add_argument("--treatment", "-d", help="treatment column (0/1)")
    p.add_argument("--instrument", "-z", help="instrument column (0/1)")
    p.add_argument("--covariates", "-x",
                   help="comma separated covariate columns")
    p.add_argument("--cluster", help="cluster label column")


def _add_cell_args(p: argparse.ArgumentParser):
    p.add_argument("--min-arm", type=int, default=DEFAULT_MIN_ARM_SIZE,
                   help="smallest instrument arm a usable cell may have "
                        f"(default {DEFAULT_MIN_ARM_SIZE})")
    p.add_argument("--min-cell", type=int, default=DEFAULT_MIN_CELL_SIZE,
                   help="smallest usable cell "
                        f"(default {DEFAULT_MIN_CELL_SIZE})")
    p.add_argument("--saturated", choices=("auto", "yes", "no"),
                   default="auto",
                   help="treat covariates as discrete cells (default: auto)")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--output", help="write the report to this file")


def _column_map(args) -> ColumnMap:
    base = {}
    if args.config:
        cmap = ColumnMap.from_json(args.config)
        base = {role: getattr(cmap, role) for role in _ROLES}
    for role in ("outcome", "treatment", "instrument", "cluster"):
        if getattr(args, role):
            base[role] = getattr(args, role)
    if args.covariates is not None:
        base["covariates"] = tuple(
            c.strip() for c in args.covariates.split(",") if c.strip()
        )
    missing = [k for k in ("outcome", "treatment", "instrument")
               if not base.get(k)]
    if missing:
        raise ConfigError(
            f"missing column roles: {', '.join(missing)}; pass them as flags "
            "or in a --config file"
        )
    return ColumnMap(**base)


def _load(args):
    cmap = _column_map(args)
    ds = load_dataset(args.input, cmap)
    report = validate(ds)
    if report.errors:
        raise DataError("; ".join(report.errors))
    return ds, cmap, list(report.warnings)


def _cells(args, ds: Dataset, command: str, warnings: list) -> CellTable | None:
    """The cell table, or None when the covariates are not taken as cells.

    --saturated auto takes them as cells when every column is integral and
    has at most _MAX_LEVELS levels, and the rows form at most max(1, n // 4)
    cells. weights and manyiv refuse to run without cells.
    """
    keyed = None
    if args.saturated == "yes":
        keyed = _cell_keys(ds.x)
    elif args.saturated == "auto" and all(
            np.allclose(col, np.round(col), atol=1e-9) for col in ds.x.T):
        keyed = _cell_keys(ds.x)
        if (max(keyed.levels, default=0) > _MAX_LEVELS
                or len(keyed.keys) > max(1, ds.n // 4)):
            keyed = None
    if keyed is None:
        if command not in ("weights", "manyiv"):
            return None
        if args.saturated == "no":
            raise ConfigError(
                f"{command} needs discrete covariate cells; "
                "rerun with --saturated yes if the covariates are discrete"
            )
        raise ConfigError(
            f"{command} needs discrete covariate cells, but the covariates "
            "do not look discrete; rerun with --saturated yes to override"
        )
    ct = _table(ds, keyed, args.min_cell, args.min_arm)
    warnings.extend(ct.warnings)
    return ct


def _design_with_intercept(ds: Dataset) -> np.ndarray:
    return np.column_stack([np.ones(ds.n), ds.x]) if ds.k else np.ones((ds.n, 1))


def _parse_trim(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--trim expects two comma separated numbers")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--trim could not parse '{text}'") from exc
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError("--trim bounds must satisfy 0 <= lo < hi <= 1")
    return lo, hi


def _parse_powers(text: str) -> tuple[int, ...]:
    try:
        return _check_powers(int(p) for p in text.split(",") if p.strip())
    except DomainError as exc:
        raise ConfigError(f"--powers: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"--powers could not parse '{text}'") from exc


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        out = json.dumps(json_safe(payload), indent=2, sort_keys=True)
    else:
        out = "\n".join([text, *(f"note: {w}" for w in payload["warnings"])])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _payload(command: str, args, cmap: ColumnMap, warnings, results) -> dict:
    return {
        "command": command,
        "config_echo": {
            "input": args.input,
            "columns": {role: getattr(cmap, role) for role in _ROLES},
        },
        "results": results,
        "warnings": list(warnings),
        "version": __version__,
    }


def _estimate_rows(reports) -> str:
    headers = ["estimand", "estimate", "se", "se_type", "n", "cells"]
    rows = []
    for rep in reports:
        d = rep.to_dict()
        rows.append([
            d["estimand"], fmt3(d["estimate"]), fmt3(d["se"]),
            str(d["se_type"]), str(d.get("n_used", "")),
            str(d.get("cells_used", d.get("n_trimmed", ""))),
        ])
    return format_table(headers, rows)


def _saturated_reports(ct: CellTable, se_type) -> list[EstimateReport]:
    return [estimate(ct, se_type=se_type) for estimate in (
        estimate_beta_late_saturated, estimate_beta_iv, estimate_beta_ai)]


def _ipw_late(args, ds, pf, trim):
    """The IPW LATE, with a cluster SE only when --se resolves to cluster."""
    if ds.cluster is not None and _resolve_se(args.se, ds.cluster) != "cluster":
        ds = replace(ds, cluster=None)
    return ipw_late(ds, pf, trim=trim)


def _cmd_estimate(args) -> int:
    # a bad window is a flag error, on every run, before the data is read
    trim = _parse_trim(args.trim)
    ds, cmap, warnings = _load(args)
    ct = _cells(args, ds, "estimate", warnings)
    if ct is not None:
        reports = _saturated_reports(ct, args.se)
        pf = fit_cell_propensity(ct, args.link) if args.link else None
        if pf is None and trim != _parse_trim(_DEFAULT_TRIM):
            warnings.append("--trim has no effect in saturated mode without "
                            "--link, which adds the reweighted estimate")
    else:
        X = _design_with_intercept(ds)
        fit = tsls(ds.y, X, ds.d.astype(float), ds.z.astype(float),
                   se_type=_resolve_se(args.se, ds.cluster), cluster=ds.cluster)
        idx = fit.endog_index
        reports = [EstimateReport(
            estimand="beta_iv", estimate=float(fit.coefficients[idx]),
            se=float(np.sqrt(fit.vcov[idx, idx])), se_type=fit.se_type,
            n_used=ds.n, cells_used=0,
            metadata={"estimator": "2sls_linear"},
        )]
        pf = fit_binary_index(ds.z, ds.x, link=args.link or "logit")
    if pf is not None:
        reports.append(_ipw_late(args, ds, pf, trim))
    results = {"mode": "saturated" if ct is not None else "linear",
               "estimates": [rep.to_dict() for rep in reports]}
    _emit(args, _payload("estimate", args, cmap, warnings, results),
          _estimate_rows(reports))
    return 0


def _cmd_weights(args) -> int:
    ds, cmap, warnings = _load(args)
    ct = _cells(args, ds, "weights", warnings)
    wt = decompose_weights(ct)
    stats = cell_stats_table(ct, weights=wt)
    reports = _saturated_reports(ct, args.se)
    results = {
        "cells": list(stats.records),
        "estimates": [rep.to_dict() for rep in reports],
        "weight_sums": {
            "late": wt.dot("late"), "iv": wt.dot("iv"), "ai": wt.dot("ai"),
        },
    }
    text = stats.to_text() + "\n\n" + _estimate_rows(reports)
    _emit(args, _payload("weights", args, cmap, warnings, results), text)
    return 0


def _cmd_reset(args) -> int:
    powers = _parse_powers(args.powers)
    ds, cmap, warnings = _load(args)
    equation = args.equation
    if equation is None:
        equation = "assignment" if args.link else "outcome"
    if equation == "outcome":
        X = _design_with_intercept(ds)
        rep = reset_linear(ds.y, X, powers=powers,
                           se_type=_resolve_se(args.se, ds.cluster),
                           cluster=ds.cluster)
    else:
        link = args.link or "logit"
        rep = reset_binary_index(ds.z, ds.x if ds.k else np.ones((ds.n, 1)),
                                 link=link, powers=powers)
    d = rep.to_dict()
    text = format_table(
        ["test", "statistic", "df", "p"],
        [[d["test"], fmt3(d["statistic"]),
          "x".join(str(v) for v in d["df"]), fmtp(d["p_value"])]],
    )
    if "note" in d:
        text += f"\nnote: {d['note']}"
    if "error" in d:
        text += f"\nerror: {d['error']}"
    _emit(args, _payload("reset", args, cmap, warnings, {"test": d}), text)
    return 0


def _parse_cuts(text: str, y: np.ndarray) -> OutcomeSetPartition | None:
    if text == "auto":
        return None
    if text == "deciles":
        return OutcomeSetPartition.from_deciles(y)
    if text == "support":
        return OutcomeSetPartition.from_support(y)
    try:
        cuts = tuple(float(c) for c in text.split(",") if c.strip())
    except ValueError as exc:
        raise ConfigError(f"--cuts could not parse '{text}'") from exc
    return OutcomeSetPartition(cuts)


def _cmd_validity(args) -> int:
    ds, cmap, warnings = _load(args)
    partition = _parse_cuts(args.cuts, ds.y)
    ct = _cells(args, ds, "validity", warnings)
    reports = validity_family(ds, ct, partition, reps=args.reps,
                              seed=args.seed)
    if ct is None:
        warnings.append(
            "first stage nonnegativity runs per cell; skipped because the "
            "covariates are not treated as discrete cells"
        )
    results = {"tests": [r.to_dict() for r in reports]}
    rows = [[r.test, fmt3(r.statistic), fmtp(r.p_value), r.worst_set,
             str(r.n_moments), str(r.n_skipped)] for r in reports]
    text = format_table(
        ["test", "statistic", "p", "worst set", "moments", "skipped"], rows)
    _emit(args, _payload("validity", args, cmap, warnings, results), text)
    return 0


def _cmd_manyiv(args) -> int:
    ds, cmap, warnings = _load(args)
    ct = _cells(args, ds, "manyiv", warnings)
    fits = []
    errors = {}
    fits.append(many_tsls(ct, se_type=args.se))
    for fn in (jive, ujive):
        try:
            fits.append(fn(ct, se_type=args.se))
        except LeverageError as exc:
            errors[fn.__name__] = str(exc)
    results = {"estimates": [f.to_dict() for f in fits], "errors": errors}
    rows = [[f.estimator, fmt3(f.estimate), fmt3(f.se), str(f.n_instruments),
             fmt3(f.leverage_max)] for f in fits]
    text = format_table(
        ["estimator", "estimate", "se", "instruments", "max leverage"], rows)
    for name, msg in errors.items():
        text += f"\n{name}: {msg}"
    _emit(args, _payload("manyiv", args, cmap, warnings, results), text)
    return 0


def _cmd_simulate(args) -> int:
    spec = DGPSpec.from_json(args.spec)
    ds, lt = generate(spec, args.n, seed=args.seed)
    write_columns(args.data, ("y", "d", "z", "cell"),
                  (ds.y, ds.d, ds.z, ds.x[:, 0]))
    messages = [f"wrote {ds.n} rows to {args.data}"]
    if args.latent:
        lt.to_csv(args.latent)
        messages.append(f"wrote latent table to {args.latent}")
    oracle = None
    if args.oracle:
        wt = brute_force_weights(lt)
        try:
            late = brute_force_late(lt)
        except DomainError:
            late = None
        oracle = {
            "late": late,
            "cells": wt.to_records(),
            "n": ds.n,
            "seed": args.seed if args.seed is not None else spec.seed,
        }
        with open(args.oracle, "w", encoding="utf-8") as fh:
            json.dump(json_safe(oracle), fh, indent=2, sort_keys=True)
        messages.append(f"wrote oracle to {args.oracle}")
    payload = {
        "command": "simulate",
        "config_echo": {"spec": args.spec, "n": args.n, "seed": args.seed},
        "results": {"messages": messages, "oracle": oracle},
        "warnings": [],
        "version": __version__,
    }
    _emit(args, payload, "\n".join(messages))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhet",
        description="Instrumental variables with heterogeneous effects: "
                    "estimates, weight decompositions, and diagnostics.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="point estimates of the three "
                                            "IV estimands")
    _add_data_args(p_est)
    _add_cell_args(p_est)
    p_est.add_argument("--se", choices=("hc1", "cluster"), default=None)
    p_est.add_argument("--link", choices=("logit", "probit", "linear"),
                       default=None,
                       help="also report the propensity reweighted estimate")
    p_est.add_argument("--trim", default=_DEFAULT_TRIM,
                       help=f"propensity trimming window (default {_DEFAULT_TRIM})")
    _add_output_args(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_w = sub.add_parser("weights", help="per-cell decomposition weights")
    _add_data_args(p_w)
    _add_cell_args(p_w)
    p_w.add_argument("--se", choices=("hc1", "cluster"), default=None)
    _add_output_args(p_w)
    p_w.set_defaults(func=_cmd_weights)

    p_r = sub.add_parser("reset", help="functional form checks")
    _add_data_args(p_r)
    p_r.add_argument("--equation", choices=("outcome", "assignment"),
                     default=None,
                     help="which equation to check (default: assignment "
                          "when --link is given, outcome otherwise)")
    p_r.add_argument("--link", choices=("logit", "probit"), default=None)
    p_r.add_argument("--powers", default="2,3",
                     help="comma separated powers (default 2,3)")
    p_r.add_argument("--se", choices=("hc1", "cluster"), default=None)
    _add_output_args(p_r)
    p_r.set_defaults(func=_cmd_reset)

    p_v = sub.add_parser("validity", help="testable implications of "
                                          "instrument validity")
    _add_data_args(p_v)
    _add_cell_args(p_v)
    p_v.add_argument("--cuts", default="auto",
                     help="auto, deciles, support, or comma separated cut "
                          "points (default auto)")
    p_v.add_argument("--reps", type=int, default=999)
    p_v.add_argument("--seed", type=int, default=0)
    _add_output_args(p_v)
    p_v.set_defaults(func=_cmd_validity)

    p_m = sub.add_parser("manyiv", help="interacted 2SLS and jackknife IV")
    _add_data_args(p_m)
    _add_cell_args(p_m)
    p_m.add_argument("--se", choices=("hc0", "hc1", "cluster"), default=None)
    _add_output_args(p_m)
    p_m.set_defaults(func=_cmd_manyiv)

    p_s = sub.add_parser("simulate", help="draw a sample from a latent-type "
                                          "population spec")
    p_s.add_argument("--spec", required=True, help="JSON population spec")
    p_s.add_argument("--n", type=int, required=True)
    p_s.add_argument("--seed", type=int, default=None,
                     help="override the seed in the spec file")
    p_s.add_argument("--data", required=True, help="output CSV path")
    p_s.add_argument("--oracle", help="write ground truth JSON here")
    p_s.add_argument("--latent", help="write the latent table CSV here")
    _add_output_args(p_s)
    p_s.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
