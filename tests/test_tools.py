"""tools/probe.py: every subcommand parses its flags, and the two that need
no benchmark workload run end to end at a tiny size and print their
documented JSON keys."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "probe", Path(__file__).resolve().parent.parent / "tools" / "probe.py")
probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probe)

TIMED = {"s", "tracemalloc_peak_mib"}


@pytest.mark.parametrize("command", ["cli-steps", "ipw-bootstrap", "saturated",
                                     "validity"])
def test_probe_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as stop:
        probe.main([command, "--help"])
    assert stop.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_validity_probe_at_a_tiny_size(capsys):
    assert probe.main(["validity", "--n", "2000", "--cells", "4", "--reps", "9"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"n", "reps", "seed", "src", "cells"}
    assert (got["n"], got["reps"], got["seed"]) == (2000, 9, 0)
    tests = got["cells"]["4"]
    assert set(tests) == {"retained", "bp_test", "mw_test", "first_stage_nonneg_test"}
    assert tests["retained"] == 4
    for name in ("bp_test", "mw_test", "first_stage_nonneg_test"):
        assert set(tests[name]) == TIMED | {"moments", "p_value"}
        assert 0.0 <= tests[name]["p_value"] <= 1.0


def test_saturated_probe_at_a_tiny_size(tmp_path, capsys):
    assert probe.main(["saturated", "--n", "2000", "--cells", "4",
                       "--estimator-cells", "4", "--workdir", str(tmp_path)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"n", "cells", "src", "cli", "estimators"}
    assert set(got["cli"]) == {"estimate", "weights", "manyiv"}
    for step in got["cli"].values():
        assert set(step) == {"s", "peak_rss_mib"} and step["peak_rss_mib"] > 0
    estimators = got["estimators"]
    assert estimators.pop("cells") == 4
    assert set(estimators) == {"estimate_beta_late_saturated", "estimate_beta_iv",
                               "estimate_beta_ai", "many_tsls", "jive", "ujive"}
    assert all(set(v) == TIMED for v in estimators.values())
    assert (tmp_path / "saturated-2000-4-0.csv").exists()
