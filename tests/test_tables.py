"""The records the report types give the CLI envelope, and the text
helpers of ivhet.tables."""

import math

import numpy as np
import pytest

import ivhet    # ivhet.TestReport, which pytest would try to collect if imported
from ivhet import EstimateReport, IPWReport, ManyIVFit, ValidityReport
from ivhet.tables import fmt3, fmtp, record, rows

NAN = float("nan")

# (report, its to_dict(), compared by repr: key order, list against tuple
# and nan against None all show)
_RECORDS = {
    "estimate": (
        EstimateReport("beta_iv", 1.5, NAN, "hc1", 40, 3,
                       {"estimator": "2sls", "residual": NAN, "excluded": (2, 5)}),
        {"estimand": "beta_iv", "estimate": 1.5, "se": None, "se_type": "hc1",
         "n_used": 40, "cells_used": 3,
         "metadata": {"estimator": "2sls", "residual": None, "excluded": [2, 5]}},
    ),
    "manyiv": (
        ManyIVFit("jive", NAN, 0.25, "hc0", 6, 6, 0.125, 300,
                  {"first_stage": "leave_one_out", "pair": (1, 2)}),
        {"estimator": "jive", "estimate": NAN, "se": 0.25, "se_type": "hc0",
         "n_instruments": 6, "n_controls": 6, "leverage_max": 0.125,
         "n_used": 300, "first_stage": "leave_one_out", "pair": (1, 2)},
    ),
    "ipw": (
        IPWReport(0.75, NAN, "delta", 90, 10, "probit", (0.01, 0.99),
                  {"arm_means": {"y_z1": 1.0, "y_z0": NAN}}),
        {"estimand": "beta_late_ipw", "estimate": 0.75, "se": NAN,
         "se_type": "delta", "n_used": 90, "n_trimmed": 10, "link": "probit",
         "trim": [0.01, 0.99], "arm_means": {"y_z1": 1.0, "y_z0": NAN}},
    ),
    "validity": (
        ValidityReport("mw_test", NAN, 0.5, "[0, 1) | (2)", 99, 7, 12, 3,
                       {"cut_points": [0.0, 1.0], "conditioning": "cells"}),
        {"test": "mw_test", "statistic": NAN, "p_value": 0.5,
         "worst_set": "[0, 1) | (2)", "bootstrap_reps": 99, "seed": 7,
         "n_moments": 12, "n_skipped": 3, "cut_points": [0.0, 1.0],
         "conditioning": "cells"},
    ),
    "test": (
        ivhet.TestReport("reset_linear", NAN, (2, 97), None,
                   {"powers": [2, 3], "se_type": "hc1", "n": 100}),
        {"test": "reset_linear", "statistic": NAN, "df": [2, 97],
         "p_value": None, "powers": [2, 3], "se_type": "hc1", "n": 100},
    ),
}


@pytest.mark.parametrize("kind", sorted(_RECORDS))
def test_report_records_keep_their_shape(kind):
    """Fields in declaration order with tuples as lists; metadata nested only
    in EstimateReport, the only record whose NaNs become None; the other
    reports spread their metadata or method dict last, as given."""
    report, want = _RECORDS[kind]
    got = report.to_dict()
    assert list(got) == list(want)
    assert repr(got) == repr(want)


def test_record_spread_overrides_a_field_in_its_place():
    rep = ivhet.TestReport("t", 1.0, (1,), 0.5, {"n": 3, "p_value": 0.25})
    assert repr(record(rep, "method")) == repr(
        {"test": "t", "statistic": 1.0, "df": [1], "p_value": 0.25, "n": 3})
    assert record(rep) == {"test": "t", "statistic": 1.0, "df": [1],
                           "p_value": 0.5, "method": {"n": 3, "p_value": 0.25}}


@pytest.mark.parametrize("value, three, p", [
    (0.12345, "0.123", "0.123"),
    (-2.0, "-2.000", "-2"),
    (3, "3.000", "3"),
    (NAN, ".", "."),
    (math.inf, ".", "."),
    (None, ".", "."),
])
def test_fmt3_and_fmtp(value, three, p):
    assert fmt3(value) == three
    assert fmtp(value) == p


def test_rows_give_python_scalars_in_column_order():
    """One dict per position, keyed in argument order: int64 becomes int,
    float64 (NaN included) float, bool_ bool, and a range gives ints."""
    out = rows(cell=range(3), n=np.array([4, 5, 6], dtype=np.int64),
               w=np.array([0.5, NAN, 2.0]), degenerate=np.array([False, True, False]))
    assert len(out) == 3
    assert [list(rec) for rec in out] == [["cell", "n", "w", "degenerate"]] * 3
    for rec in out:
        assert [type(v) for v in rec.values()] == [int, int, float, bool]
    assert out[0] == {"cell": 0, "n": 4, "w": 0.5, "degenerate": False}
    assert out[2] == {"cell": 2, "n": 6, "w": 2.0, "degenerate": False}
    assert math.isnan(out[1]["w"]) and out[1]["degenerate"] is True
