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
from .errors import ConfigError, DataError, DomainError, LeverageError
from .estimators import (
    EstimateReport,
    decompose_weights,
    estimate_beta_ai,
    estimate_beta_iv,
    estimate_beta_late_saturated,
)
from .regression import DEFAULT_TRIM, _resolve_se, tsls
from .tables import fmt3, fmtp, format_table, json_safe, write_columns

# dgp, many_iv, propensity, spec_tests and validity are imported by the
# subcommands that run them, so a process loads only what it uses
_MAX_LEVELS = 20
_ROLES = ("outcome", "treatment", "instrument", "covariates", "cluster")


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


def _cells(args, ds: Dataset, warnings: list) -> CellTable | None:
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
        if args.command not in ("weights", "manyiv"):
            return None
        if args.saturated == "no":
            raise ConfigError(
                f"{args.command} needs discrete covariate cells; "
                "rerun with --saturated yes if the covariates are discrete"
            )
        raise ConfigError(
            f"{args.command} needs discrete covariate cells, but the covariates "
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
    from .spec_tests import _check_powers
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


def _cmd_estimate(args, ds, ct, warnings):
    if ct is not None:
        reports = _saturated_reports(ct, args.se)
        if not args.link and args.trim != DEFAULT_TRIM:
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
    if ct is None or args.link:
        from .propensity import fit_binary_index, fit_cell_propensity, ipw_late
        pf = (fit_cell_propensity(ct, args.link) if ct is not None
              else fit_binary_index(ds.z, ds.x, link=args.link or "logit"))
        # a cluster SE only when --se resolves to cluster
        if ds.cluster is not None and _resolve_se(args.se, ds.cluster) != "cluster":
            ds = replace(ds, cluster=None)
        reports.append(ipw_late(ds, pf, trim=args.trim))
    results = {"mode": "saturated" if ct is not None else "linear",
               "estimates": [rep.to_dict() for rep in reports]}
    return results, _estimate_rows(reports)


def _cmd_weights(args, ds, ct, warnings):
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
    return results, stats.to_text() + "\n\n" + _estimate_rows(reports)


def _cmd_reset(args, ds, ct, warnings):
    from .spec_tests import reset_binary_index, reset_linear
    equation = args.equation
    if equation is None:
        equation = "assignment" if args.link else "outcome"
    if equation == "outcome":
        X = _design_with_intercept(ds)
        rep = reset_linear(ds.y, X, powers=args.powers,
                           se_type=_resolve_se(args.se, ds.cluster),
                           cluster=ds.cluster)
    else:
        link = args.link or "logit"
        rep = reset_binary_index(ds.z, ds.x if ds.k else np.ones((ds.n, 1)),
                                 link=link, powers=args.powers)
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
    return {"test": d}, text


def _parse_cuts(text: str, y: np.ndarray):
    from .validity import OutcomeSetPartition
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


def _cmd_validity(args, ds, ct, warnings):
    from .validity import validity_family
    reports = validity_family(ds, ct, args.cuts, reps=args.reps, seed=args.seed)
    if ct is None:
        warnings.append(
            "first stage nonnegativity runs per cell; skipped because the "
            "covariates are not treated as discrete cells"
        )
    results = {"tests": [r.to_dict() for r in reports]}
    rows = [[r.test, fmt3(r.statistic), fmtp(r.p_value), r.worst_set,
             str(r.n_moments), str(r.n_skipped)] for r in reports]
    return results, format_table(
        ["test", "statistic", "p", "worst set", "moments", "skipped"], rows)


def _cmd_manyiv(args, ds, ct, warnings):
    from .many_iv import jive, many_tsls, ujive
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
    return results, text


def _cmd_simulate(args, ds, ct, warnings):
    from .dgp import DGPSpec, brute_force_late, brute_force_weights, generate
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
    return {"messages": messages, "oracle": oracle}, "\n".join(messages)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhet",
        description="Instrumental variables with heterogeneous effects: "
                    "estimates, weight decompositions, and diagnostics.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about, data=True, cells=True, se=("hc1", "cluster")):
        """Subcommand name, run by func, with --json and --output and, unless
        data is false, the data flags, the cell flags when cells is true and
        --se with the choices se when given."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--output", help="write the report to this file")
        if not data:
            return p
        p.add_argument("--input", required=True, help="CSV file with the sample")
        p.add_argument("--config", help="JSON file mapping column roles to names")
        p.add_argument("--outcome", "-y", help="outcome column")
        p.add_argument("--treatment", "-d", help="treatment column (0/1)")
        p.add_argument("--instrument", "-z", help="instrument column (0/1)")
        p.add_argument("--covariates", "-x",
                       help="comma separated covariate columns")
        p.add_argument("--cluster", help="cluster label column")
        if cells:
            p.add_argument("--min-arm", type=int, default=DEFAULT_MIN_ARM_SIZE,
                           help="smallest instrument arm a usable cell may have "
                                f"(default {DEFAULT_MIN_ARM_SIZE})")
            p.add_argument("--min-cell", type=int, default=DEFAULT_MIN_CELL_SIZE,
                           help="smallest usable cell "
                                f"(default {DEFAULT_MIN_CELL_SIZE})")
            p.add_argument("--saturated", choices=("auto", "yes", "no"),
                           default="auto",
                           help="treat covariates as discrete cells (default: auto)")
        if se:
            p.add_argument("--se", choices=se, default=None)
        return p

    p = command("estimate", _cmd_estimate,
                "point estimates of the three IV estimands")
    p.add_argument("--link", choices=("logit", "probit", "linear"), default=None,
                   help="also report the propensity reweighted estimate")
    trim = ",".join(map(str, DEFAULT_TRIM))
    p.add_argument("--trim", default=trim,
                   help=f"propensity trimming window (default {trim})")

    command("weights", _cmd_weights, "per-cell decomposition weights")

    p = command("reset", _cmd_reset, "functional form checks", cells=False)
    p.add_argument("--equation", choices=("outcome", "assignment"), default=None,
                   help="which equation to check (default: assignment "
                        "when --link is given, outcome otherwise)")
    p.add_argument("--link", choices=("logit", "probit"), default=None)
    p.add_argument("--powers", default="2,3",
                   help="comma separated powers (default 2,3)")

    p = command("validity", _cmd_validity,
                "testable implications of instrument validity", se=None)
    p.add_argument("--cuts", default="auto",
                   help="auto, deciles, support, or comma separated cut "
                        "points (default auto)")
    p.add_argument("--reps", type=int, default=999)
    p.add_argument("--seed", type=int, default=0)

    command("manyiv", _cmd_manyiv, "interacted 2SLS and jackknife IV",
            se=("hc0", "hc1", "cluster"))

    p = command("simulate", _cmd_simulate,
                "draw a sample from a latent-type population spec", data=False)
    p.add_argument("--spec", required=True, help="JSON population spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed in the spec file")
    p.add_argument("--data", required=True, help="output CSV path")
    p.add_argument("--oracle", help="write ground truth JSON here")
    p.add_argument("--latent", help="write the latent table CSV here")
    return parser


def main(argv=None) -> int:
    """Parse the flags, load and validate the data and key the cells when
    the subcommand takes them, run it, and emit its envelope. --trim and
    --powers are read before the data is loaded, and --cuts after it but
    before the cells are keyed."""
    args = build_parser().parse_args(argv)
    try:
        if "trim" in args:
            args.trim = _parse_trim(args.trim)
        if "powers" in args:
            args.powers = _parse_powers(args.powers)
        ds = ct = None
        warnings = []
        if args.command == "simulate":
            echo = {"spec": args.spec, "n": args.n, "seed": args.seed}
        else:
            cmap = _column_map(args)
            ds = load_dataset(args.input, cmap)
            report = validate(ds)
            if report.errors:
                raise DataError("; ".join(report.errors))
            warnings = list(report.warnings)
            echo = {"input": args.input,
                    "columns": {role: getattr(cmap, role) for role in _ROLES}}
            if "cuts" in args:
                args.cuts = _parse_cuts(args.cuts, ds.y)
            if "saturated" in args:
                ct = _cells(args, ds, warnings)
        results, text = args.func(args, ds, ct, warnings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, {"command": args.command, "config_echo": echo, "results": results,
                 "warnings": warnings, "version": __version__}, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
