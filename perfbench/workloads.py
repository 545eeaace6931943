"""Seeded workload inputs, built with the benchmark's own numpy code.

Nothing here imports ivhet: the inputs of every layer depend only on the
seed, never on the package's simulator. Each workload also carries the
expected results that follow from the raw arrays in closed form, so the
harness can check the package's answers without trusting the package.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Full-size (n, J); the smoke mode shrinks n and keeps J.
SIZES = {
    "many_cells": (20_000, 40),
    "few_cells_large_n": (200_000, 2),
    "linear_controls": (50_000, 0),
}
SMOKE_N = {"many_cells": 2_000, "few_cells_large_n": 4_000, "linear_controls": 3_000}
N_CLUSTERS = 500

# Two-cell latent-type population for `ivhet simulate` in few_cells_large_n.
SIMULATE_SPEC = {
    "cells": [
        {"share": 0.5, "q": 0.5, "types": [0.5, 0.2, 0.3, 0.0],
         "y0": [0.0, 0.5, -0.5, 0.0], "y1": [1.5, 1.0, 0.0, 0.0], "noise": 1.0},
        {"share": 0.5, "q": 0.6, "types": [0.3, 0.3, 0.4, 0.0],
         "y0": [0.2, 0.4, -0.2, 0.0], "y1": [1.0, 1.2, 0.0, 0.0], "noise": 1.0},
    ],
}


@dataclass
class Inputs:
    """One workload's generated sample, written as a CSV."""

    name: str
    n: int
    n_cells: int
    csv: Path
    sha256: str
    columns: dict
    cli_data_args: list[str]
    expected: dict = field(default_factory=dict)
    simulate_spec: Path | None = None


def _latent_sample(rng, n: int, prob_z, comp, always, tau, level):
    """Draw z, compliance type, d and y for per-row parameter arrays."""
    z = (rng.random(n) < prob_z).astype(np.int64)
    u = rng.random(n)
    is_complier = u < comp
    is_always = ~is_complier & (u < comp + always)
    d = np.where(is_complier, z, is_always).astype(np.int64)
    y = level + 0.5 * is_always - 0.3 * (~is_complier & ~is_always) \
        + tau * d + rng.standard_normal(n)
    return z, d, y


def _saturated(rng, n: int, n_cells: int):
    shares = rng.uniform(1.0, 2.0, n_cells)
    cell = rng.choice(n_cells, size=n, p=shares / shares.sum())
    q = rng.uniform(0.3, 0.7, n_cells)
    comp = rng.uniform(0.3, 0.6, n_cells)
    always = rng.uniform(0.05, 0.2, n_cells)
    # cells overlap in outcome, so every decile interval holds rows of
    # every cell and arm, and no validity moment is skipped
    tau = rng.uniform(0.5, 2.0, n_cells)
    level = rng.uniform(-0.5, 0.5, n_cells)
    z, d, y = _latent_sample(rng, n, q[cell], comp[cell], always[cell],
                             tau[cell], level[cell])
    return {"y": y, "d": d, "z": z, "cell": cell}


def _linear(rng, n: int):
    age = rng.uniform(18.0, 65.0, n)
    inc = rng.lognormal(1.0, 0.4, n)
    a = (age - 41.5) / 13.6
    b = (np.log(inc) - 1.0) / 0.4
    labels = np.array([f"site-{k:03d}" for k in rng.permutation(N_CLUSTERS)])
    g = rng.integers(0, N_CLUSTERS, n)
    prob_z = 1.0 / (1.0 + np.exp(-(0.2 + 0.5 * a - 0.3 * b)))
    comp = np.clip(0.45 + 0.1 * a, 0.2, 0.7)
    tau = 1.0 + 0.5 * a
    level = 1.0 + 0.3 * a + 0.2 * b + rng.normal(0.0, 0.3, N_CLUSTERS)[g]
    z, d, y = _latent_sample(rng, n, prob_z, comp, 0.15, tau, level)
    return {"y": y, "d": d, "z": z, "age": age, "inc": inc, "g": labels[g]}


def _write_csv(path: Path, cols: dict) -> str:
    """Write columns as CSV, floats as repr; return the file's sha256."""
    names = list(cols)
    series = [cols[c].tolist() for c in names]
    fmt = [repr if isinstance(s[0], float) else str for s in series]
    lines = [",".join(names)]
    lines += [",".join(f(v) for f, v in zip(fmt, row)) for row in zip(*series)]
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _saturated_closed_forms(y, d, z, cell, n_cells: int) -> dict:
    """The three estimates as weighted sums over cells, from raw arrays."""
    n_j = np.bincount(cell, minlength=n_cells)
    n1_j = np.bincount(cell, weights=z, minlength=n_cells)
    n0_j = n_j - n1_j

    def arm_diff(v):
        s1 = np.bincount(cell, weights=v * z, minlength=n_cells)
        s0 = np.bincount(cell, weights=v * (1 - z), minlength=n_cells)
        return s1 / n1_j - s0 / n0_j

    p = n_j / y.size
    dy, pi = arm_diff(y), arm_diff(d)
    g = z - (n1_j / n_j)[cell]
    g_ai = pi[cell] * g
    return {
        "late": float(np.sum(p * dy) / np.sum(p * pi)),
        "iv": float(np.sum(g * y) / np.sum(g * d)),
        "ai": float(np.sum(g_ai * y) / np.sum(g_ai * d)),
    }


def _linear_iv_closed_form(cols: dict) -> float:
    """Just-identified IV of y on (1, age, inc, d) with z for d."""
    one = np.ones(cols["y"].size)
    X = np.column_stack([one, cols["age"], cols["inc"], cols["d"]])
    Z = np.column_stack([one, cols["age"], cols["inc"], cols["z"]])
    return float(np.linalg.solve(Z.T @ X, Z.T @ cols["y"])[-1])


def make_inputs(name: str, seed: int, workdir: Path, smoke: bool = False) -> Inputs:
    """Generate, write and describe the inputs of one workload."""
    n, n_cells = SIZES[name]
    if smoke:
        n = SMOKE_N[name]
    rng = np.random.default_rng([seed, list(SIZES).index(name)])
    csv = workdir / f"{name}.csv"
    if name == "linear_controls":
        cols = _linear(rng, n)
        columns = {"outcome": "y", "treatment": "d", "instrument": "z",
                   "covariates": ["age", "inc"], "cluster": "g"}
        expected = {"tsls": _linear_iv_closed_form(cols)}
        n_cells = 0
    else:
        cols = _saturated(rng, n, n_cells)
        columns = {"outcome": "y", "treatment": "d", "instrument": "z",
                   "covariates": ["cell"]}
        expected = _saturated_closed_forms(cols["y"], cols["d"], cols["z"],
                                           cols["cell"], n_cells)
        # validity tests cut the outcome at its distinct deciles
        deciles = np.quantile(cols["y"], np.linspace(0.0, 1.0, 11))
        expected["n_cuts"] = int(np.unique(deciles).size)
    sha = _write_csv(csv, cols)
    data_args = ["--input", str(csv), "-y", "y", "-d", "d", "-z", "z",
                 "-x", ",".join(columns["covariates"])]
    if "cluster" in columns:
        data_args += ["--cluster", columns["cluster"]]
    inputs = Inputs(name, n, n_cells, csv, sha, columns, data_args, expected)
    if name == "few_cells_large_n":
        inputs.simulate_spec = workdir / "simulate_spec.json"
        inputs.simulate_spec.write_text(json.dumps(SIMULATE_SPEC))
    return inputs


def cli_script(inputs: Inputs, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's CLI subcommands as (step name, argv) pairs."""
    data = inputs.cli_data_args
    if inputs.name == "many_cells":
        sat = ["--saturated", "yes"]
        return [("estimate", ["estimate", *data, *sat]),
                ("weights", ["weights", *data, *sat]),
                ("manyiv", ["manyiv", *data, *sat])]
    if inputs.name == "few_cells_large_n":
        return [("simulate", ["simulate", "--spec", str(inputs.simulate_spec),
                              "--n", str(inputs.n),
                              "--seed", str(seed),
                              "--data", str(inputs.csv.with_name("simulated.csv"))]),
                ("estimate", ["estimate", *data]),
                ("validity", ["validity", *data, "--reps", "199"])]
    return [("estimate", ["estimate", *data, "--link", "probit"]),
            ("reset", ["reset", *data]),
            ("reset.assignment", ["reset", *data, "--equation", "assignment",
                                  "--link", "probit"])]
