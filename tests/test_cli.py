import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from ivhet import (
    ColumnMap,
    Dataset,
    bp_test,
    build_cells,
    first_stage_nonneg_test,
    load_dataset,
    mw_test,
    reference_trial,
    validity,
)
from ivhet.cli import build_parser, main
from ivhet.tables import json_safe

from conftest import child_env, two_cell_dataset, write_csv

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
    payload = run_json(capsys, [
        "estimate", "--input", str(trial_csv), *TRIAL_ARGS,
        "--min-arm", "1", "--link", "linear", "--json",
    ])
    got = {e["estimand"]: e["estimate"] for e in payload["results"]["estimates"]}
    # reweighting on saturated cell dummies reproduces the share-weighted
    # estimator exactly
    assert abs(got["beta_late_ipw"] - got["beta_late_saturated"]) < 1e-8


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


def test_output_flag_writes_file(trial_csv, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["estimate", "--input", str(trial_csv), *TRIAL_ARGS,
                 "--min-arm", "1", "--json", "--output", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(dest.read_text())
    assert payload["command"] == "estimate"


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
    """The CLI draws the multipliers once for all its tests, and reports
    what the separate public calls, which draw once each, report."""
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
    assert len(draws) == 1
    ds = load_dataset(str(trial_csv), ColumnMap(
        outcome="y", treatment="d", instrument="z", covariates=["stratum"]))
    ct = build_cells(ds, min_arm_size=1) if saturated == "yes" else None
    separate = [bp_test(ds, ct, reps=99, seed=3), mw_test(ds, ct, reps=99, seed=3)]
    if ct is not None:
        separate.append(first_stage_nonneg_test(ct, reps=99, seed=3))
    assert len(draws) == 1 + len(separate)
    assert payload["results"]["tests"] == json.loads(
        json.dumps(json_safe([r.to_dict() for r in separate])))


def test_validity_bad_reps_or_seed_exit_2(trial_csv, capsys):
    for flag, value, message in (("--reps", "0", "reps must be at least 1"),
                                 ("--reps", "-1", "reps must be at least 1"),
                                 ("--seed", "-1", "seed must be nonnegative")):
        code = main(["validity", "--input", str(trial_csv), *TRIAL_ARGS,
                     "--min-arm", "1", flag, value])
        assert code == 2
        assert message in capsys.readouterr().err


def test_saturated_commands_do_not_load_scipy(trial_csv):
    data = ["--input", str(trial_csv), *TRIAL_ARGS, "--json"]
    runs = [["weights", *data, "--min-arm", "1"],
            ["estimate", *data, "--min-arm", "1"],
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
