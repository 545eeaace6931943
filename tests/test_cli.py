import argparse
import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from ivhet import (
    ColumnMap,
    Dataset,
    DGPSpec,
    EstimateReport,
    OutcomeSetPartition,
    bp_test,
    build_cells,
    first_stage_nonneg_test,
    fit_binary_index,
    generate,
    ipw_late,
    load_dataset,
    mw_test,
    reference_trial,
    reset_binary_index,
    reset_linear,
    tables,
    tsls,
    validity,
)
from ivhet.cli import build_parser, main
from ivhet.tables import json_safe

from conftest import (cell_ipw_design, child_env, fail_augmented_reset_fit,
                      two_cell_dataset, write_csv)
from oracles import row_write_csv

TRIAL_ARGS = ["-y", "y", "-d", "d", "-z", "z", "-x", "stratum"]


@pytest.fixture
def trial_csv(tmp_path):
    return write_csv(tmp_path / "trial.csv", reference_trial(),
                     names=("y", "d", "z"))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_estimate_trial_values(trial_csv, capsys):
    payload = run_json(capsys, [
        "estimate", "--input", str(trial_csv), *TRIAL_ARGS,
        "--min-arm", "1", "--json",
    ])
    assert payload["command"] == "estimate"
    assert payload["results"]["mode"] == "saturated"
    got = {e["estimand"]: e["estimate"] for e in payload["results"]["estimates"]}
    assert abs(got["beta_late_saturated"] - 4.022) < 5e-4
    assert abs(got["beta_iv"] - 2.790) < 5e-4
    assert abs(got["beta_ai"] - 2.268) < 5e-4


def test_estimate_trial_ipw_identity(trial_csv, capsys):
    # reweighting by the cell shares q_j reproduces the share-weighted
    # estimator to rounding when no cell is trimmed or thin, for every link
    for link in ("logit", "probit", "linear"):
        payload = run_json(capsys, [
            "estimate", "--input", str(trial_csv), *TRIAL_ARGS,
            "--min-arm", "1", "--link", link, "--json",
        ])
        got = {e["estimand"]: e["estimate"]
               for e in payload["results"]["estimates"]}
        gap = abs(got["beta_late_ipw"] - got["beta_late_saturated"])
        assert gap < 1e-12, (link, gap)


def test_weights_trial_values(trial_csv, capsys):
    payload = run_json(capsys, [
        "weights", "--input", str(trial_csv), *TRIAL_ARGS,
        "--min-arm", "1", "--json",
    ])
    cells = payload["results"]["cells"]
    assert [round(c["w_late"], 3) for c in cells] == [0.351, 0.401, 0.248]
    assert [round(c["w_iv"], 3) for c in cells] == [0.600, 0.151, 0.249]
    assert [round(c["w_ai"], 3) for c in cells] == [0.723, 0.112, 0.165]
    assert [round(c["pi"], 3) for c in cells] == [0.455, 0.280, 0.250]
    sums = payload["results"]["weight_sums"]
    got = {e["estimand"]: e["estimate"] for e in payload["results"]["estimates"]}
    assert abs(sums["late"] - got["beta_late_saturated"]) < 1e-8
    assert abs(sums["iv"] - got["beta_iv"]) < 1e-8
    assert abs(sums["ai"] - got["beta_ai"]) < 1e-8


def test_weights_text_table(trial_csv, capsys):
    code = main(["weights", "--input", str(trial_csv), *TRIAL_ARGS,
                 "--min-arm", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(1)" in out and "w_late" in out
    assert "beta_late" in out


def test_estimate_linear_mode(tmp_path, capsys):
    rng = np.random.default_rng(0)
    n = 300
    x = rng.normal(size=n)
    z = (rng.random(n) < 0.5).astype(int)
    d = (rng.random(n) < 0.25 + 0.5 * z).astype(int)
    y = 1.5 * d + x + rng.normal(size=n)
    path = tmp_path / "cont.csv"
    with open(path, "w") as fh:
        fh.write("y,d,z,x\n")
        for i in range(n):
            fh.write(f"{float(y[i])!r},{d[i]},{z[i]},{float(x[i])!r}\n")
    payload = run_json(capsys, [
        "estimate", "--input", str(path), "-y", "y", "-d", "d", "-z", "z",
        "-x", "x", "--json",
    ])
    assert payload["results"]["mode"] == "linear"
    got = {e["estimand"]: e for e in payload["results"]["estimates"]}
    assert abs(got["beta_iv"]["estimate"] - 1.5) < 0.5
    assert got["beta_late_ipw"]["estimate"] is not None


def test_commands_without_covariates_fit_the_ones_design(tmp_path, capsys):
    """Without -x the design is the intercept alone: the assignment reset,
    the outcome reset and a linear-mode estimate report what the library
    reports on an explicit column of ones."""
    rng = np.random.default_rng(12)
    n = 300
    z = (rng.random(n) < 0.4).astype(int)
    d = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    ds = Dataset(y=1.5 * d + rng.normal(size=n), d=d, z=z, x=rng.normal(size=n),
                 covariate_names=("x",))
    path = write_csv(tmp_path / "nox.csv", ds)
    ds = load_dataset(str(path), ColumnMap(outcome="y", treatment="d",
                                           instrument="z"))
    assert ds.x.shape == (n, 0)
    ones = np.ones((n, 1))
    fit = tsls(ds.y, ones, ds.d.astype(float), ds.z.astype(float), se_type="hc1")
    beta_iv = EstimateReport(
        estimand="beta_iv", estimate=float(fit.coefficients[fit.endog_index]),
        se=float(np.sqrt(fit.vcov[fit.endog_index, fit.endog_index])),
        se_type=fit.se_type, n_used=n, cells_used=0,
        metadata={"estimator": "2sls_linear"})
    ipw = ipw_late(ds, fit_binary_index(ds.z, ones, link="logit"))
    want = {
        ("reset", "--equation", "assignment", "--link", "probit"): {
            "test": reset_binary_index(ds.z, ones, link="probit").to_dict()},
        ("reset", "--equation", "outcome"): {
            "test": reset_linear(ds.y, ones, se_type="hc1").to_dict()},
        ("estimate", "--saturated", "no", "--link", "logit"): {
            "mode": "linear", "estimates": [beta_iv.to_dict(), ipw.to_dict()]},
    }
    for (command, *flags), results in want.items():
        payload = run_json(capsys, [command, "--input", str(path), "-y", "y",
                                    "-d", "d", "-z", "z", *flags, "--json"])
        assert payload["results"] == json.loads(json.dumps(json_safe(results)))


def test_missing_roles_exit_2(trial_csv, capsys):
    assert main(["estimate", "--input", str(trial_csv), "-y", "y"]) == 2
    assert "missing column roles" in capsys.readouterr().err


def test_unknown_column_exit_2(trial_csv, capsys):
    code = main(["estimate", "--input", str(trial_csv), "-y", "y",
                 "-d", "d", "-z", "nope"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_bad_binary_rows_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,d,z\n1.0,2,1\n2.0,3,0\n")
    code = main(["estimate", "--input", str(path),
                 "-y", "y", "-d", "d", "-z", "z"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_input_exit_codes(tmp_path, capsys):
    roles = ["-y", "y", "-d", "d", "-z", "z"]
    bad_bytes = tmp_path / "latin1.csv"
    bad_bytes.write_bytes(b"y,d,z\n1,0,1\n\xff,1,0\n")
    twice = tmp_path / "twice.csv"
    twice.write_text("y,d,z,d\n1,0,1,1\n2,1,0,0\n")
    cases = [
        (["--input", str(tmp_path / "absent.csv")], 2, "No such file"),
        (["--input", str(tmp_path)], 2, "Is a directory"),
        (["--input", str(twice)], 2, "column 'd' appears 2 times"),
        (["--input", str(twice), "--config", str(tmp_path / "absent.json")], 2,
         "No such file"),
        (["--input", str(bad_bytes)], 1, "byte 0xff at offset 12"),
    ]
    for argv, code, message in cases:
        assert main(["estimate", *argv, *roles]) == code
        assert message in capsys.readouterr().err


def test_no_variation_exit_1(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = "".join(f"{float(i)!r},1,{i % 2}\n" for i in range(10))
    path.write_text("y,d,z\n" + rows)
    code = main(["estimate", "--input", str(path),
                 "-y", "y", "-d", "d", "-z", "z"])
    assert code == 1


def test_weights_refuses_non_saturated(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "cont.csv"
    with open(path, "w") as fh:
        fh.write("y,d,z,x\n")
        for i in range(60):
            z = i % 2
            fh.write(f"{float(rng.normal())!r},{z},{z},"
                     f"{float(rng.normal())!r}\n")
    code = main(["weights", "--input", str(path), "-y", "y", "-d", "d",
                 "-z", "z", "-x", "x"])
    assert code == 2
    assert "discrete" in capsys.readouterr().err
    code = main(["weights", "--input", str(path), "-y", "y", "-d", "d",
                 "-z", "z", "-x", "x", "--saturated", "no"])
    assert code == 2


def test_config_file_column_map(tmp_path, capsys):
    ds = two_cell_dataset()
    csv_path = write_csv(tmp_path / "named.csv", ds, names=("out", "tr", "inst"))
    cfg = tmp_path / "cols.json"
    cfg.write_text(json.dumps({
        "outcome": "out", "treatment": "tr", "instrument": "inst",
        "covariates": ["g"],
    }))
    payload = run_json(capsys, [
        "estimate", "--input", str(csv_path), "--config", str(cfg), "--json",
    ])
    assert payload["config_echo"]["columns"]["outcome"] == "out"
    got = {e["estimand"]: e["estimate"] for e in payload["results"]["estimates"]}
    assert abs(got["beta_late_saturated"] - 5.0) < 1e-9
    assert abs(got["beta_ai"] - 4.2) < 1e-9


def test_flags_override_config(tmp_path, capsys):
    ds = two_cell_dataset()
    csv_path = write_csv(tmp_path / "named.csv", ds, names=("y", "d", "z"))
    cfg = tmp_path / "cols.json"
    cfg.write_text(json.dumps({
        "outcome": "wrong", "treatment": "d", "instrument": "z",
        "covariates": ["g"],
    }))
    payload = run_json(capsys, [
        "estimate", "--input", str(csv_path), "--config", str(cfg),
        "-y", "y", "--json",
    ])
    assert payload["config_echo"]["columns"]["outcome"] == "y"


# subcommand -> its flags after the data flags (None: simulate)
_OUTPUT_RUNS = {"estimate": ["--min-arm", "1", "--link", "logit"],
                "weights": ["--min-arm", "1"], "reset": [],
                "validity": ["--min-arm", "1", "--reps", "19"],
                "manyiv": ["--min-arm", "1"], "simulate": None}


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(_OUTPUT_RUNS))
def test_output_flag_writes_file(command, fmt, trial_csv, tmp_path, capsys):
    """--output prints nothing and writes exactly the bytes that the same
    run prints to stdout without it."""
    if command == "simulate":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        argv = ["simulate", "--spec", str(spec), "--n", "50",
                "--data", str(tmp_path / "draw.csv"), "--oracle",
                str(tmp_path / "truth.json"), *fmt]
    else:
        argv = [command, "--input", str(trial_csv), *TRIAL_ARGS,
                *_OUTPUT_RUNS[command], *fmt]
    assert main(argv) == 0
    want = capsys.readouterr().out
    dest = tmp_path / "report.out"
    code = main([*argv, "--output", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert dest.read_bytes() == want.encode()
    if fmt:
        assert json.loads(dest.read_text())["command"] == command


def test_reset_outcome_json(trial_csv, capsys):
    payload = run_json(capsys, [
        "reset", "--input", str(trial_csv), *TRIAL_ARGS, "--json",
    ])
    t = payload["results"]["test"]
    assert t["test"] == "reset_linear"
    assert t["p_value"] is None or 0.0 <= t["p_value"] <= 1.0


def test_reset_assignment_defaults_with_link(trial_csv, capsys):
    payload = run_json(capsys, [
        "reset", "--input", str(trial_csv), *TRIAL_ARGS,
        "--link", "logit", "--json",
    ])
    t = payload["results"]["test"]
    assert t["test"] == "reset_binary_index"
    assert t["p_value"] is None or 0.0 <= t["p_value"] <= 1.0


def test_reset_assignment_prints_fit_error(trial_csv, capsys, monkeypatch):
    """When the augmented fit fails, reset exits 0 with a null p-value and
    the failure on an error: line (an error key in JSON)."""
    fail_augmented_reset_fit(monkeypatch)
    argv = ["reset", "--input", str(trial_csv), *TRIAL_ARGS,
            "--equation", "assignment"]
    t = run_json(capsys, [*argv, "--json"])["results"]["test"]
    assert t["p_value"] is None and t["error"] == "augmented fit separated"
    assert main(argv) == 0
    assert "error: augmented fit separated" in capsys.readouterr().out.split("\n")


@pytest.mark.parametrize("equation", ["outcome", "assignment"])
def test_reset_text_prints_validation_notes(tmp_path, capsys, equation):
    """The text report ends with the load warnings as note: lines, after the
    test's own note, as in the JSON envelope and the other commands."""
    rng = np.random.default_rng(4)
    n = 40
    z = np.arange(n) % 2
    d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    ds = Dataset(y=rng.normal(size=n) + d, d=d, z=z, x=np.ones(n),
                 covariate_names=("x",))
    path = write_csv(tmp_path / "const.csv", ds)
    argv = ["reset", "--input", str(path), "-y", "y", "-d", "d", "-z", "z",
            "-x", "x", "--equation", equation]
    payload = run_json(capsys, [*argv, "--json"])
    assert "covariate 'x' is constant" in payload["warnings"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert lines[-1] == "note: covariate 'x' is constant"
    assert "note" in payload["results"]["test"]
    assert lines[-2] == f"note: {payload['results']['test']['note']}"


def test_validity_saturated_runs_three_tests(trial_csv, capsys):
    payload = run_json(capsys, [
        "validity", "--input", str(trial_csv), *TRIAL_ARGS,
        "--min-arm", "1", "--reps", "99", "--json",
    ])
    names = [t["test"] for t in payload["results"]["tests"]]
    assert names == ["bp_test", "mw_test", "first_stage_nonneg_test"]
    for t in payload["results"]["tests"]:
        assert 0.0 < t["p_value"] <= 1.0


def test_validity_unconditional_skips_first_stage(trial_csv, capsys):
    payload = run_json(capsys, [
        "validity", "--input", str(trial_csv), *TRIAL_ARGS,
        "--saturated", "no", "--reps", "99", "--json",
    ])
    names = [t["test"] for t in payload["results"]["tests"]]
    assert names == ["bp_test", "mw_test"]
    assert any("first stage" in w for w in payload["warnings"])


def test_validity_explicit_cuts(trial_csv, capsys):
    payload = run_json(capsys, [
        "validity", "--input", str(trial_csv), *TRIAL_ARGS,
        "--min-arm", "1", "--cuts", "0,2,4,7", "--reps", "99", "--json",
    ])
    assert len(payload["results"]["tests"]) == 3


@pytest.mark.parametrize("saturated", ["yes", "no"])
def test_validity_draws_one_multiplier_stream(trial_csv, capsys, monkeypatch,
                                              saturated):
    """The CLI draws the per-bin multiplier sums once for bp and mw, which
    share their bins, and once more for the first-stage test on its coarse
    bins; it reports what the separate public calls, which draw once each,
    report."""
    draws = []
    real = validity._multipliers

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(validity, "_multipliers", counted)
    payload = run_json(capsys, [
        "validity", "--input", str(trial_csv), *TRIAL_ARGS, "--min-arm", "1",
        "--saturated", saturated, "--reps", "99", "--seed", "3", "--json",
    ])
    assert len(draws) == (2 if saturated == "yes" else 1)
    cli_draws = len(draws)
    ds = load_dataset(str(trial_csv), ColumnMap(
        outcome="y", treatment="d", instrument="z", covariates=["stratum"]))
    ct = build_cells(ds, min_arm_size=1) if saturated == "yes" else None
    separate = [bp_test(ds, ct, reps=99, seed=3), mw_test(ds, ct, reps=99, seed=3)]
    if ct is not None:
        separate.append(first_stage_nonneg_test(ct, reps=99, seed=3))
    assert len(draws) == cli_draws + len(separate)
    assert payload["results"]["tests"] == json.loads(
        json.dumps(json_safe([r.to_dict() for r in separate])))


@pytest.mark.parametrize("cuts", ["deciles", "support"])
def test_validity_named_cuts(trial_csv, capsys, cuts):
    """--cuts deciles and --cuts support report what validity_family reports
    on the partition of the same name."""
    payload = run_json(capsys, [
        "validity", "--input", str(trial_csv), *TRIAL_ARGS, "--min-arm", "1",
        "--cuts", cuts, "--reps", "99", "--seed", "3", "--json",
    ])
    ds = load_dataset(str(trial_csv), ColumnMap(
        outcome="y", treatment="d", instrument="z", covariates=["stratum"]))
    make = {"deciles": OutcomeSetPartition.from_deciles,
            "support": OutcomeSetPartition.from_support}[cuts]
    want = validity.validity_family(ds, build_cells(ds, min_arm_size=1),
                                    make(ds.y), reps=99, seed=3)
    assert payload["results"]["tests"] == json.loads(
        json.dumps(json_safe([r.to_dict() for r in want])))


def test_validity_unparsable_cuts_exit_2(trial_csv, capsys):
    code = main(["validity", "--input", str(trial_csv), *TRIAL_ARGS,
                 "--cuts", "1,x"])
    assert code == 2
    assert "--cuts could not parse '1,x'" in capsys.readouterr().err


def test_validity_support_cuts_of_a_continuous_outcome_exit_2(tmp_path, capsys):
    """--cuts support on 2,000 distinct outcomes would make about 2·10^6
    candidate sets per cell; it exits 2 before binning, naming the count
    and the decile grid."""
    rng = np.random.default_rng(0)
    n = 2000
    z = rng.integers(0, 2, size=n)
    d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    path = tmp_path / "continuous.csv"
    row_write_csv(path, ("y", "d", "z", "cell"),
                  (rng.normal(size=n), d, z, rng.integers(0, 4, size=n)))
    start = time.perf_counter()
    code = main(["validity", "--input", str(path), "-y", "y", "-d", "d",
                 "-z", "z", "-x", "cell", "--cuts", "support"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "2,001,000 candidate outcome sets" in err and "--cuts deciles" in err


def test_validity_bad_reps_or_seed_exit_2(trial_csv, capsys):
    for flag, value, message in (("--reps", "0", "reps must be at least 1"),
                                 ("--reps", "-1", "reps must be at least 1"),
                                 ("--seed", "-1", "seed must be nonnegative")):
        code = main(["validity", "--input", str(trial_csv), *TRIAL_ARGS,
                     "--min-arm", "1", flag, value])
        assert code == 2
        assert message in capsys.readouterr().err


def test_bad_trim_or_powers_exit_2(tmp_path, capsys):
    """Bad --trim and --powers values are flag errors, caught before the CSV
    is loaded: on a sample whose instrument has no variation they exit 2
    with the flag's message, not 1 with the data error."""
    ds = two_cell_dataset()
    path = write_csv(tmp_path / "flat_z.csv",
                     Dataset(y=ds.y, d=ds.d, z=np.zeros(ds.n, dtype=int), x=ds.x,
                             covariate_names=ds.covariate_names))
    data = ["--input", str(path), "-y", "y", "-d", "d", "-z", "z", "-x", "g"]
    assert main(["estimate", *data, "--link", "logit"]) == 1
    assert "instrument has no variation" in capsys.readouterr().err
    for argv, message in (
            (["estimate", "--link", "logit", "--trim", "0.9,0.1"], "--trim bounds"),
            (["estimate", "--link", "probit", "--trim", "nan,0.5"], "--trim bounds"),
            (["estimate", "--link", "logit", "--trim", "0.1"],
             "--trim expects two comma separated numbers"),
            (["estimate", "--link", "logit", "--trim", "a,b"],
             "--trim could not parse 'a,b'"),
            (["reset", "--powers", "2,x"], "--powers could not parse '2,x'"),
            (["reset", "--powers", "5"], "powers must be drawn from"),
            (["reset", "--powers", ""], "at least one power is required")):
        code = main([argv[0], *data, *argv[1:]])
        assert code == 2, argv
        assert message in capsys.readouterr().err


def test_flag_errors_keep_their_precedence(tmp_path, capsys):
    """--trim and --powers are read after argparse's own checks, and --cuts
    after the data is loaded but before the cells are keyed."""
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "-y", "y", "-d", "d", "-z", "z", "--trim", "a,b"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --input" in err
    assert "--trim" not in err.split("error:")[-1]
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--trim", "a,b", "--help"])
    assert exc.value.code == 0
    assert "propensity trimming window" in capsys.readouterr().out
    # every cell is degenerate at --min-arm 1000, yet the bad --cuts is named
    path = write_csv(tmp_path / "cells.csv", two_cell_dataset())
    data = ["--input", str(path), "-y", "y", "-d", "d", "-z", "z", "-x", "g"]
    assert main(["validity", *data, "--min-arm", "1000", "--reps", "9"]) == 1
    assert "degenerate" in capsys.readouterr().err
    assert main(["validity", *data, "--min-arm", "1000", "--cuts", "a,b"]) == 2
    assert "--cuts could not parse 'a,b'" in capsys.readouterr().err


def test_trim_checked_without_link_in_saturated_mode(trial_csv, capsys):
    """--trim is checked on every estimate run: a bad window exits 2 even
    where no reweighted estimate is made, and a valid window other than the
    default that has no effect there is named in the warnings."""
    data = ["estimate", "--input", str(trial_csv), *TRIAL_ARGS, "--min-arm", "1"]
    assert main([*data, "--trim", "0.9,0.1"]) == 2
    assert "--trim bounds" in capsys.readouterr().err
    noted = "--trim has no effect in saturated mode without --link"
    for trim, warned in (("0.05,0.95", True), ("0.01,0.99", False),
                         ("0.010,0.990", False)):
        payload = run_json(capsys, [*data, "--trim", trim, "--json"])
        assert payload["results"]["mode"] == "saturated"
        assert any(noted in w for w in payload["warnings"]) == warned, trim
    payload = run_json(capsys, [*data, "--trim", "0.05,0.95", "--link", "logit",
                                "--json"])
    assert not any(noted in w for w in payload["warnings"])
    assert payload["results"]["estimates"][-1]["trim"] == [0.05, 0.95]


def test_saturated_commands_do_not_load_scipy(trial_csv):
    data = ["--input", str(trial_csv), *TRIAL_ARGS, "--json"]
    runs = [["weights", *data, "--min-arm", "1"],
            ["estimate", *data, "--min-arm", "1"],
            ["estimate", *data, "--min-arm", "1", "--saturated", "yes",
             "--link", "probit"],
            ["manyiv", *data],
            ["validity", *data, "--min-arm", "1", "--reps", "99"]]
    code = (f"import sys\nfrom ivhet.cli import main\n"
            f"for argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"command"') == len(runs)


def _modules_after(runs):
    """The ivhet and scipy modules a fresh process holds after running the
    CLI on each argv of runs in turn (none: after `import ivhet` alone)."""
    code = ("import json, sys\nimport ivhet\n"
            + (f"from ivhet.cli import main\nfor argv in {runs!r}:\n"
               "    assert main(argv) == 0, argv\n" if runs else "")
            + "print(json.dumps(sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] in ('ivhet', 'scipy'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_process_imports_only_what_its_subcommand_runs(tmp_path, trial_csv):
    """The import budget of a CLI process: `import ivhet` loads no submodule,
    no subcommand any scipy module or ivhet.special, a saturated estimate
    neither dgp nor validity, the outcome reset neither propensity nor
    validity, and a linear estimate and the assignment reset no validity."""
    assert _modules_after([]) == {"ivhet"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    simulate = ["simulate", "--spec", str(spec), "--n", "50",
                "--data", str(tmp_path / "sim.csv"), "--oracle",
                str(tmp_path / "oracle.json"), "--json"]
    loaded = _modules_after([simulate])
    assert not {m for m in loaded if m.startswith("scipy")}, loaded
    data = ["--input", str(trial_csv), *TRIAL_ARGS, "--json"]
    cells = [*data, "--min-arm", "1"]
    loaded = _modules_after([["estimate", *cells]])
    assert not loaded & {"ivhet.dgp", "ivhet.validity"}, loaded
    loaded = _modules_after([["estimate", *cells, "--link", "probit"]])
    assert not {m for m in loaded if m.startswith("scipy")}, loaded
    assert "ivhet.propensity" in loaded and "ivhet.dgp" not in loaded, loaded
    loaded = _modules_after([["reset", *data]])
    assert not {m for m in loaded if m.startswith("scipy")}, loaded
    assert not loaded & {"ivhet.propensity", "ivhet.validity"}, loaded
    loaded = _modules_after([["estimate", *cells, "--saturated", "no", "--link", "probit"],
                             ["reset", *data, "--link", "probit"]])
    assert not {m for m in loaded if m.startswith("scipy")}, loaded
    assert "ivhet.validity" not in loaded, loaded
    runs = [["estimate", *cells, "--link", "probit"],
            ["estimate", *cells, "--saturated", "no", "--link", "probit"],
            ["weights", *cells], ["manyiv", *cells], ["validity", *cells, "--reps", "9"],
            ["reset", *data], ["reset", *data, "--link", "probit"], simulate]
    loaded = _modules_after(runs)
    assert not {m for m in loaded if m.startswith("scipy")}, loaded
    assert "ivhet.special" not in loaded, loaded


def test_probit_fit_and_bootstrap_load_no_scipy():
    """A probit fit_binary_index and a bootstrap ipw_late, which refits the
    probit in every resample, load no scipy module in a fresh process; the
    probit CLI steps are checked in the import-budget test above."""
    code = ("import sys\nimport numpy as np\nimport ivhet\n"
            "rng = np.random.default_rng(8)\n"
            "x = np.column_stack([rng.normal(size=400), rng.uniform(-1, 1, 400)])\n"
            "z = (rng.random(400) < 1 / (1 + np.exp(-0.4 - 0.8 * x[:, 0] + x[:, 1]))).astype(int)\n"
            "d = (rng.random(400) < 0.2 + 0.5 * z).astype(int)\n"
            "ds = ivhet.Dataset(y=d + 0.5 * x[:, 0] + rng.normal(size=400), d=d, z=z, x=x)\n"
            "pf = ivhet.fit_binary_index(ds.z, ds.x, link='probit')\n"
            "ivhet.ipw_late(ds, pf, se='bootstrap', reps=5, seed=1)\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_manyiv_reports_leverage_errors(trial_csv, capsys):
    payload = run_json(capsys, [
        "manyiv", "--input", str(trial_csv), *TRIAL_ARGS,
        "--min-arm", "1", "--json",
    ])
    names = [e["estimator"] for e in payload["results"]["estimates"]]
    assert names == ["tsls"]
    assert set(payload["results"]["errors"]) == {"jive", "ujive"}


def test_manyiv_default_arm_floor_runs_all(trial_csv, capsys):
    payload = run_json(capsys, [
        "manyiv", "--input", str(trial_csv), *TRIAL_ARGS, "--json",
    ])
    names = [e["estimator"] for e in payload["results"]["estimates"]]
    assert names == ["tsls", "jive", "ujive"]
    assert payload["results"]["errors"] == {}


SPEC = {
    "seed": 11,
    "cells": [
        {"share": 0.5, "q": 0.5,
         "types": {"complier": 0.6, "never": 0.4},
         "y0": 1.0, "y1": {"complier": 3.0, "always": 3.0, "never": 1.0,
                           "defier": 1.0},
         "noise": 0.5},
        {"share": 0.5, "q": 0.4,
         "types": {"complier": 0.3, "always": 0.3, "never": 0.4},
         "y0": 0.0, "y1": 2.0, "noise": 0.5},
    ],
}


def test_simulate_roundtrip(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    data = tmp_path / "draw.csv"
    oracle = tmp_path / "truth.json"
    latent = tmp_path / "latent.csv"
    code = main(["simulate", "--spec", str(spec), "--n", "400",
                 "--data", str(data), "--oracle", str(oracle),
                 "--latent", str(latent)])
    capsys.readouterr()
    assert code == 0
    truth = json.loads(oracle.read_text())
    assert truth["n"] == 400 and truth["seed"] == 11
    assert truth["late"] is not None
    assert len(truth["cells"]) == 2
    assert latent.read_text().startswith("cell,ctype,")

    payload = run_json(capsys, [
        "estimate", "--input", str(data), "-y", "y", "-d", "d", "-z", "z",
        "-x", "cell", "--json",
    ])
    got = {e["estimand"]: e["estimate"] for e in payload["results"]["estimates"]}
    assert abs(got["beta_late_saturated"] - truth["late"]) < 0.5


def test_simulate_reproducible_bytes(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    a, b, c = (tmp_path / f"{k}.csv" for k in "abc")
    for dest in (a, b):
        assert main(["simulate", "--spec", str(spec), "--n", "250",
                     "--data", str(dest)]) == 0
    assert main(["simulate", "--spec", str(spec), "--n", "250",
                 "--seed", "99", "--data", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_bytes_match_row_writer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tables, "_CSV_ROWS", 7)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    data, latent = tmp_path / "draw.csv", tmp_path / "latent.csv"
    assert main(["simulate", "--spec", str(spec), "--n", "300", "--seed", "5",
                 "--data", str(data), "--latent", str(latent)]) == 0
    capsys.readouterr()
    ds, lt = generate(DGPSpec.from_json(str(spec)), 300, seed=5)
    want = tmp_path / "want.csv"
    row_write_csv(want, ("y", "d", "z", "cell"), (ds.y, ds.d, ds.z, ds.x[:, 0]))
    assert data.read_bytes() == want.read_bytes()
    row_write_csv(want, ("cell", "ctype", "y1", "y0", "d1", "d0", "z"),
                  (lt.cell, lt.ctype_names(), lt.y1, lt.y0, lt.d1, lt.d0, lt.z))
    assert latent.read_bytes() == want.read_bytes()


def test_simulate_unreadable_spec_exit_2(tmp_path, capsys):
    not_json = tmp_path / "spec.txt"
    not_json.write_text("cells: []\n")
    cases = [(tmp_path / "absent.json", "No such file"),
             (not_json, "is not JSON")]
    for spec, message in cases:
        assert main(["simulate", "--spec", str(spec), "--n", "10",
                     "--data", str(tmp_path / "draw.csv")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "draw.csv").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ivhet.cli", "--version"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "ivhet" in proc.stdout


def _cluster_csvs(tmp_path):
    """One discrete-cell sample written three ways: without a cluster
    column, with ten cluster labels, and with a single label."""
    rng = np.random.default_rng(23)
    n = 240
    cell = rng.integers(0, 3, size=n)
    z = (rng.random(n) < 0.5).astype(int)
    d = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    y = 1.5 * d + 0.3 * cell + rng.normal(size=n)
    labels = {"none": None, "several": np.arange(n) % 10,
              "one": np.zeros(n, dtype=int)}
    return {kind: write_csv(tmp_path / f"{kind}.csv",
                            Dataset(y=y, d=d, z=z, x=cell.astype(float),
                                    covariate_names=("cell",), cluster=cl))
            for kind, cl in labels.items()}


def _se_choices(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._option_string_actions["--se"].choices


def test_saturated_cluster_se_without_labels_exit_1(tmp_path):
    """A cluster se on data without labels is a typed error, not a crash."""
    csv = _cluster_csvs(tmp_path)["none"]
    roles = ["--input", str(csv), "-y", "y", "-d", "d", "-z", "z", "-x", "cell"]
    for argv in (["estimate", *roles, "--saturated", "yes", "--se", "cluster"],
                 ["weights", *roles, "--se", "cluster"]):
        proc = subprocess.run([sys.executable, "-m", "ivhet.cli", *argv],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(
            "error: cluster se requested but no cluster labels given"), proc.stderr
        assert "Traceback" not in proc.stderr


# (argv after the data flags, estimand -> se_type it reports for se, labels)
_SE_RUNS = {
    "estimate_saturated": (["estimate", "--saturated", "yes"], lambda se, cl: {
        "beta_late_saturated": "cluster" if se == "cluster" else "influence",
        "beta_iv": se, "beta_ai": se}),
    "estimate_saturated_ipw": (
        ["estimate", "--saturated", "yes", "--link", "logit"], lambda se, cl: {
            "beta_late_saturated": "cluster" if se == "cluster" else "influence",
            "beta_iv": se, "beta_ai": se,
            "beta_late_ipw": "cluster" if se == "cluster" else "delta"}),
    "estimate_linear": (["estimate", "--saturated", "no"], lambda se, cl: {
        "beta_iv": se,
        "beta_late_ipw": "cluster" if se == "cluster" else "delta"}),
    "weights": (["weights"], lambda se, cl: {
        "beta_late_saturated": "cluster" if se == "cluster" else "influence",
        "beta_iv": se, "beta_ai": se}),
    "manyiv": (["manyiv"], lambda se, cl: {"tsls": se, "jive": se, "ujive": se}),
    "reset": (["reset"], lambda se, cl: {"reset_linear": se}),
}


@pytest.mark.parametrize("run", sorted(_SE_RUNS))
def test_se_flag_contract(run, tmp_path, capsys):
    """Every --se choice, and the default, on data without a cluster
    column, with several clusters and with one: exit 0 reporting the
    requested se type, or exit 1 with a typed error. main never raises."""
    head, expected = _SE_RUNS[run]
    for kind, csv in _cluster_csvs(tmp_path).items():
        cols = ["-y", "y", "-d", "d", "-z", "z", "-x", "cell"]
        if kind != "none":
            cols += ["--cluster", "cl"]
        for choice in (None, *_se_choices(head[0])):
            argv = [head[0], "--input", str(csv), *cols, *head[1:], "--json"]
            if choice is not None:
                argv += ["--se", choice]
            se = choice or ("hc1" if kind == "none" else "cluster")
            want = expected(se, kind != "none")
            if se == "cluster" and kind == "none":
                error = "cluster se requested but no cluster labels given"
            elif kind == "one" and se == "cluster":
                error = "cluster se needs at least 2 clusters"
            else:
                error = None
            code = main(argv)
            out, err = capsys.readouterr()
            if error is not None:
                assert (code, err) == (1, f"error: {error}\n"), argv
                continue
            assert code == 0, (argv, err)
            results = json.loads(out)["results"]
            if head[0] == "reset":
                got = {results["test"]["test"]: results["test"]["se_type"]}
            else:
                got = {e.get("estimand", e.get("estimator")): e["se_type"]
                       for e in results["estimates"]}
            assert got == want, argv


def test_ipw_se_follows_se_flag_with_one_label(tmp_path, capsys):
    """--se hc1 with a single cluster label: the IPW LATE takes the plain
    delta SE instead of failing on the one-cluster cluster SE."""
    csv = _cluster_csvs(tmp_path)["one"]
    argv = ["estimate", "--input", str(csv), "-y", "y", "-d", "d", "-z", "z",
            "-x", "cell", "--cluster", "cl", "--se", "hc1", "--link", "logit",
            "--json"]
    assert main(argv) == 0
    estimates = json.loads(capsys.readouterr().out)["results"]["estimates"]
    ipw = next(e for e in estimates if e["estimand"] == "beta_late_ipw")
    assert ipw["se_type"] == "delta"


def _rule_csv(path, x):
    """A sample on covariates x in which each cell alternates its rows
    between the arms, starting on opposite arms in successive cells, and
    d = z."""
    first, seen = {}, {}
    z = np.empty(x.shape[0], dtype=int)
    for i, key in enumerate(map(tuple, x + 0.0)):
        start = first.setdefault(key, len(first))
        z[i] = (start + seen.get(key, 0)) % 2
        seen[key] = seen.get(key, 0) + 1
    rng = np.random.default_rng(x.shape[0])
    names = tuple(f"x{j}" for j in range(x.shape[1]))
    return write_csv(path, Dataset(y=rng.normal(size=z.size), d=z, z=z, x=x,
                                   covariate_names=names))


def _col(values):
    return np.asarray(values, dtype=float)[:, None]


_i = np.arange(210)
# name -> (covariates, whether --saturated auto treats them as cells)
_AUTO_RULE = {
    "no_covariates": (np.empty((40, 0)), True),
    "non_integral": (np.random.default_rng(5).normal(size=(40, 1)), False),
    # off by 0.5, inside allclose's default rtol of 1e-5 at 1e6
    "within_rtol": (_col(1e6 + 0.5 + _i[:40] % 2), True),
    "levels_20": (_col(_i[:200] % 20), True),
    "levels_21": (_col(_i % 21), False),
    # 6 x 6 = 36 cells of 6-level columns on 120 rows: past 120 // 4 = 30
    "cells_past_limit": (np.column_stack([_i[:120] % 6, _i[:120] // 6 % 6])
                         .astype(float), False),
    # 10 and 11 cells on 42 rows, where 42 // 4 = 10
    "cells_at_limit": (np.column_stack([_i[:42] % 10 // 2, _i[:42] % 2])
                       .astype(float), True),
    "cells_over_limit": (np.column_stack([_i[:42] % 11 // 2, _i[:42] % 11 % 2])
                         .astype(float), False),
    # below 8 rows n // 4 is 0 or 1, and the limit is max(1, n // 4)
    "three_rows_one_cell": (_col([1.0, 1.0, 1.0]), True),
    "six_rows_two_cells": (_col([0, 0, 0, 1, 1, 1]), False),
    # 20 levels, counting -0.0 and 0.0 as one
    "signed_zero": (_col(np.where(_i[:200] % 40 == 20, -0.0, _i[:200] % 20)),
                    True),
}


@pytest.mark.parametrize("case", sorted(_AUTO_RULE))
def test_saturated_auto_rule(case, tmp_path, capsys):
    """--saturated auto: integral covariates, at most 20 levels per column
    and at most max(1, n // 4) cells. estimate falls back to linear
    controls otherwise; weights and manyiv refuse with exit 2."""
    x, saturated = _AUTO_RULE[case]
    path = _rule_csv(tmp_path / "rule.csv", x)
    names = ",".join(f"x{j}" for j in range(x.shape[1]))
    data = ["--input", str(path), "-y", "y", "-d", "d", "-z", "z",
            "--min-arm", "1", *(["-x", names] if names else [])]
    payload = run_json(capsys, ["estimate", *data, "--json"])
    assert payload["results"]["mode"] == ("saturated" if saturated else "linear")
    for command in ("weights", "manyiv"):
        code = main([command, *data, "--json"])
        out, err = capsys.readouterr()
        if saturated:
            assert code == 0, err
            assert json.loads(out)["command"] == command
        else:
            assert (code, out) == (2, "")
            assert err == (
                f"error: {command} needs discrete covariate cells, but the "
                "covariates do not look discrete; rerun with --saturated yes "
                "to override\n")
        assert main([command, *data, "--saturated", "no"]) == 2
        assert capsys.readouterr().err == (
            f"error: {command} needs discrete covariate cells; rerun with "
            "--saturated yes if the covariates are discrete\n")


@pytest.mark.parametrize("command", ["estimate", "weights", "validity", "manyiv"])
def test_cells_keyed_once_per_run(command, trial_csv, tmp_path, capsys,
                                  monkeypatch):
    """Each saturated run keys the covariate cells once; an auto run on a
    non-integral column keys none."""
    from ivhet import cells, cli

    calls = []
    real = cells._cell_keys

    def counted(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(cells, "_cell_keys", counted)
    monkeypatch.setattr(cli, "_cell_keys", counted, raising=False)
    extra = ["--reps", "9"] if command == "validity" else []
    for mode in ("auto", "yes"):
        calls.clear()
        code = main([command, "--input", str(trial_csv), *TRIAL_ARGS,
                     "--min-arm", "1", "--saturated", mode, "--json", *extra])
        capsys.readouterr()
        assert (code, len(calls)) == (0, 1), mode
    calls.clear()
    path = _rule_csv(tmp_path / "cont.csv", _AUTO_RULE["non_integral"][0])
    code = main([command, "--input", str(path), "-y", "y", "-d", "d", "-z", "z",
                 "-x", "x0", "--json", *extra])
    capsys.readouterr()
    assert code == (2 if command in ("weights", "manyiv") else 0)
    assert calls == []


# (design, extra CLI flags)
_IPW_RUNS = [("thin", []), ("clustered", ["--se", "cluster"]),
             ("clustered", ["--se", "hc1"]), ("single", []),
             ("separated", []), ("separated", ["--trim", "0,1"])]


@pytest.mark.parametrize("link", ["logit", "probit", "linear"])
@pytest.mark.parametrize("design, extra", _IPW_RUNS)
def test_saturated_ipw_matches_dense_dummy_fit(design, extra, link, tmp_path,
                                               capsys):
    """The saturated --link estimate agrees with ipw_late on the IRLS fit
    to the n x J cell dummies: the same rows trimmed, and the estimate, SE
    and arm means within 1e-7 relative (the dense fit's tolerance)."""
    ds = cell_ipw_design(design)
    path = write_csv(tmp_path / "ipw.csv", ds)
    cmap = ColumnMap("y", "d", "z", ds.covariate_names,
                     None if ds.cluster is None else "cl")
    argv = ["estimate", "--input", str(path), "-y", "y", "-d", "d", "-z", "z",
            "--saturated", "yes", "--link", link, "--json", *extra]
    if ds.k:
        argv += ["-x", ",".join(ds.covariate_names)]
    if ds.cluster is not None:
        argv += ["--cluster", "cl"]
    payload = run_json(capsys, argv)
    got = next(e for e in payload["results"]["estimates"]
               if e["estimand"] == "beta_late_ipw")

    ds = load_dataset(str(path), cmap)
    ct = build_cells(ds)
    a = ct.assignments
    dummies = (a[:, None] == np.arange(a.max() + 1)[None, :]).astype(float)
    if "hc1" in extra:
        ds = Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x,
                     covariate_names=ds.covariate_names)
    trim = (0.0, 1.0) if "0,1" in extra else (0.01, 0.99)
    want = ipw_late(ds, fit_binary_index(ds.z, dummies, link=link),
                    trim=trim).to_dict()
    for key in ("se_type", "n_used", "n_trimmed", "link", "trim"):
        assert got[key] == want[key], key
    if design == "separated":
        sep = (ct.q_j == 0.0) | (ct.q_j == 1.0)
        assert sep.sum() == 2
        assert want["n_trimmed"] == (0 if trim == (0.0, 1.0)
                                     else ct.n_j[sep].sum())
    pairs = [(got["estimate"], want["estimate"]), (got["se"], want["se"]),
             *((got["arm_means"][k], v) for k, v in want["arm_means"].items())]
    for g, w in pairs:
        assert abs(g - w) <= 1e-7 * abs(w), (g, w)


@pytest.mark.parametrize("command", ["estimate", "weights", "reset", "validity",
                                     "manyiv"])
def test_text_output_ends_with_load_warnings(command, tmp_path, capsys):
    """Every command that loads data ends its text report with one
    'note: <warning>' line per entry of the JSON envelope's warnings, in
    order, after the command's own lines."""
    rng = np.random.default_rng(8)
    n = 60
    z = np.arange(n) % 2
    d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    ds = Dataset(y=rng.normal(size=n) + d, d=d, z=z, x=np.ones(n),
                 covariate_names=("x",))
    path = write_csv(tmp_path / "const.csv", ds)
    argv = [command, "--input", str(path), "-y", "y", "-d", "d", "-z", "z",
            "-x", "x"]
    argv += {"validity": ["--reps", "19"], "reset": ["--equation", "outcome"],
             "estimate": ["--link", "logit"]}.get(command, [])
    warnings = run_json(capsys, [*argv, "--json"])["warnings"]
    assert "covariate 'x' is constant" in warnings
    assert main(argv) == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    notes = [f"note: {w}" for w in warnings]
    assert lines[-len(notes):] == notes
    assert not any(line in notes for line in lines[:-len(notes)])


def test_saturated_ipw_memory_bounded(tmp_path, capsys):
    """estimate --link on 20,000 rows in 200 cells: the traced peak stays
    well below the 32 MB a dense n x J dummy design would take alone."""
    rng = np.random.default_rng(9)
    n, n_cells = 20_000, 200
    cell = np.arange(n) % n_cells
    z = (rng.random(n) < rng.uniform(0.3, 0.7, size=n_cells)[cell]).astype(int)
    d = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    ds = Dataset(y=d + rng.normal(size=n), d=d, z=z, x=cell.astype(float),
                 covariate_names=("cell",))
    path = write_csv(tmp_path / "cells.csv", ds)
    tracemalloc.start()
    try:
        code = main(["estimate", "--input", str(path), "-y", "y", "-d", "d",
                     "-z", "z", "-x", "cell", "--saturated", "yes", "--link",
                     "logit", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 16 * 2**20, peak / 2**20


def test_simulate_oracle_without_compliers_has_null_late(tmp_path, capsys):
    """A population with no compliers has no LATE: the oracle file and the
    JSON payload both say null, and the run still succeeds."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cells": [
        {"share": 1.0, "q": 0.5, "types": {"always": 0.5, "never": 0.5}, "y1": 1.0}]}))
    oracle = tmp_path / "truth.json"
    payload = run_json(capsys, ["simulate", "--spec", str(spec), "--n", "60",
                                "--data", str(tmp_path / "draw.csv"),
                                "--oracle", str(oracle), "--json"])
    truth = json.loads(oracle.read_text())
    assert truth["late"] is None and payload["results"]["oracle"]["late"] is None
    assert truth["cells"][0]["degenerate"] is True
    assert truth["n"] == 60


def test_estimate_help_names_the_library_trim_default(capsys):
    from ivhet.propensity import DEFAULT_TRIM
    with pytest.raises(SystemExit):
        main(["estimate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert DEFAULT_TRIM == (0.01, 0.99)
    assert "propensity trimming window (default 0.01,0.99)" in text
