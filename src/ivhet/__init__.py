"""Instrumental variables under heterogeneous treatment effects.

The package estimates three one-number summaries of a binary-instrument,
binary-treatment design with discrete covariates, exposes the exact
decomposition of each as a weighted average of within-cell effect ratios,
and ships the diagnostics that go with them: functional form checks for
the assignment and outcome equations, bounds-based tests of instrument
validity, jackknife estimators for designs with many interacted
instruments, and a fully observable synthetic population for validating
all of the above against brute force ground truth.
"""

from .cells import (
    CellStatsReport,
    CellTable,
    build_cells,
    cell_stats_table,
)
from .data_model import ColumnMap, Dataset, ValidationReport, load_dataset, validate
from .dgp import (
    CTYPES,
    CellSpec,
    DGPSpec,
    LatentTable,
    brute_force_late,
    brute_force_weights,
    generate,
    reference_population,
    reference_trial,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    EmptyDataError,
    IdentificationError,
    IvhetError,
    LeverageError,
    RankError,
    SeparationError,
    UndefinedTestError,
    TrimError,
)
from .estimators import (
    EstimateReport,
    WeightTable,
    decompose_weights,
    estimate_beta_ai,
    estimate_beta_iv,
    estimate_beta_late_saturated,
)
from .many_iv import ManyIVFit, jive, many_tsls, ujive
from .propensity import (IPWReport, PropensityFit, fit_binary_index,
                         fit_cell_propensity, ipw_late)
from .regression import RegressionFit, hat_diagonals, ols, tsls
from .spec_tests import TestReport, reset_binary_index, reset_linear
from .special import normal_cdf, normal_log_cdf
from .validity import (
    OutcomeSetPartition,
    ValidityReport,
    bp_test,
    first_stage_nonneg_test,
    mw_test,
)

__version__ = "0.1.0"

__all__ = [
    "CTYPES",
    "CellSpec",
    "CellStatsReport",
    "CellTable",
    "ColumnMap",
    "ConfigError",
    "ConvergenceError",
    "DGPSpec",
    "DataError",
    "Dataset",
    "DomainError",
    "EmptyDataError",
    "EstimateReport",
    "IPWReport",
    "IdentificationError",
    "IvhetError",
    "LatentTable",
    "LeverageError",
    "ManyIVFit",
    "OutcomeSetPartition",
    "PropensityFit",
    "RankError",
    "RegressionFit",
    "SeparationError",
    "TestReport",
    "TrimError",
    "UndefinedTestError",
    "ValidationReport",
    "ValidityReport",
    "WeightTable",
    "__version__",
    "bp_test",
    "brute_force_late",
    "brute_force_weights",
    "build_cells",
    "cell_stats_table",
    "decompose_weights",
    "estimate_beta_ai",
    "estimate_beta_iv",
    "estimate_beta_late_saturated",
    "first_stage_nonneg_test",
    "fit_binary_index",
    "fit_cell_propensity",
    "generate",
    "hat_diagonals",
    "ipw_late",
    "jive",
    "load_dataset",
    "many_tsls",
    "mw_test",
    "normal_cdf",
    "normal_log_cdf",
    "ols",
    "reference_population",
    "reference_trial",
    "reset_binary_index",
    "reset_linear",
    "tsls",
    "ujive",
    "validate",
]
