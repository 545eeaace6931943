"""Instrumental variables under heterogeneous treatment effects.

The package estimates three one-number summaries of a binary-instrument,
binary-treatment design with discrete covariates, exposes the exact
decomposition of each as a weighted average of within-cell effect ratios,
and ships the diagnostics that go with them: functional form checks for
the assignment and outcome equations, bounds-based tests of instrument
validity, jackknife estimators for designs with many interacted
instruments, and a fully observable synthetic population for validating
all of the above against brute force ground truth.

The namespace is lazy: ``import ivhet`` loads no submodule (not even
numpy), and a public name imports its module on first access.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "cells": "CellStatsReport CellTable build_cells cell_stats_table",
    "data_model": "ColumnMap Dataset ValidationReport load_dataset validate",
    "dgp": "CTYPES CellSpec DGPSpec LatentTable brute_force_late "
           "brute_force_weights generate reference_population reference_trial",
    "errors": "ConfigError ConvergenceError DataError DomainError EmptyDataError "
              "IdentificationError IvhetError LeverageError RankError "
              "SeparationError TrimError UndefinedTestError",
    "estimators": "EstimateReport WeightTable decompose_weights estimate_beta_ai "
                  "estimate_beta_iv estimate_beta_late_saturated",
    "many_iv": "ManyIVFit jive many_tsls ujive",
    "propensity": "IPWReport PropensityFit fit_binary_index fit_cell_propensity "
                  "ipw_late",
    "regression": "RegressionFit hat_diagonals ols tsls",
    "spec_tests": "TestReport reset_binary_index reset_linear",
    "validity": "OutcomeSetPartition ValidityReport bp_test "
                "first_stage_nonneg_test mw_test",
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names.split()}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
