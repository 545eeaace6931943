"""Check that two checkouts give the same reports, byte for byte.

    python3 tools/compare_reports.py --src PARENT_CHECKOUT/src --src src

The tool writes seeded CSV samples and DGP spec files into a temporary
directory with its own numpy code,
then runs one child process per --src that imports the package from there
and prints one line per result:

* the repr of every validity report: bp_test, mw_test and
  first_stage_nonneg_test called separately and through validity_family,
  with auto and decile cuts, with and without a cell table;
* repr(to_dict()) of the six saturated estimators (the three estimands,
  many_tsls, jive and ujive) under hc0, hc1, classical and cluster;
* repr(to_dict()) of ipw_late for the three links (fitted on the
  covariates and on the cells, delta and bootstrap SEs), of both reset
  tests, and the cell statistics table as text and JSON;
* the repr of fit_cell_propensity's coefficients, as a list of floats,
  and its loglik, for the three links;
* the per-resample output of the IPW bootstrap, _bootstrap_estimates: the
  estimates as a list of floats and the failures by class in first-failure
  order, for the three links, with and without clusters, on designs whose
  resamples trim, separate and lose rank;
* the probit kernel on a grid: _probit_parts' loglik, score and weight
  (as lists of floats) over [-40, 40] and its branch edges for z = 1, 0
  and alternating, and the phat of probit fits whose index runs past
  +-sqrt(2) and +-8 sqrt(2);
* the repr of every RegressionFit field (arrays as lists of floats) of
  ols and tsls under the four SE types, on a design with a zero column,
  one with a collinear pair, a 1-D design and an all-zero design, and of
  tsls on a design that raises each of its two IdentificationErrors;
* DGPSpec.from_json on good and bad spec files;
* the stdout, stderr and exit code of `ivhet` run in process for every
  subcommand, in text and with --json, and of each --help; the data
  subcommands also with --config and with --output, with a bad --trim or
  --powers on a missing --input, and with a bad flag value next to
  another error (no --input, --help, all cells degenerate); after each
  run, the bytes of every file it was asked to write (--output, and
  simulate's --data, --oracle and --latent), which are then removed.

An error a call raises is printed in place of its result. The two dumps
are then compared line by line: the tool prints `identical` and exits 0,
or prints every line that differs, from both sides, and exits 1. It then
adds one summary line: how many lines differ, how many of them differ in
anything besides their numbers (non-numeric), and the largest relative
difference between numbers at the same positions of the other pairs.
Every child runs single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHILD = r"""
import contextlib, io, os, sys
import numpy as np
import ivhet
from ivhet import cli
from ivhet.validity import validity_family

workdir = sys.argv[1]

def show(tag, call):
    try:
        out = repr(call())
    except ivhet.IvhetError as exc:
        out = f"raises {type(exc).__name__}: {exc}"
    print(tag, out)

def design(seed, n, cells, discrete_y):
    rng = np.random.default_rng(seed)
    cell = rng.integers(0, cells, size=n)
    q = rng.uniform(0.25, 0.75, size=cells)
    z = (rng.random(n) < q[cell]).astype(np.int64)
    d = (rng.random(n) < 0.15 + rng.uniform(0.1, 0.6, size=cells)[cell] * z)
    y = rng.normal(1.0, 1.0, size=cells)[cell] * d + rng.normal(size=n)
    if discrete_y:
        y = np.floor(np.clip(y, -2, 2))
    return ivhet.Dataset(y=y, d=d.astype(np.int64), z=z, x=cell.astype(float),
                         cluster=rng.integers(0, 30, size=n))

SE = ("hc0", "hc1", "classical", "cluster")
SATURATED = (ivhet.estimate_beta_late_saturated, ivhet.estimate_beta_iv,
             ivhet.estimate_beta_ai, ivhet.many_tsls, ivhet.jive, ivhet.ujive)
for seed, n, cells, discrete_y in [(1, 400, 3, True), (2, 1500, 8, False),
                                   (3, 3000, 25, False), (4, 900, 5, True),
                                   (5, 12000, 2, False), (6, 200, 1, False)]:
    ds = design(seed, n, cells, discrete_y)
    tag = f"design{seed}"
    show(f"{tag} validate", lambda: ivhet.validate(ds))
    ct = ivhet.build_cells(ds)
    show(f"{tag} cell text", lambda: ivhet.cell_stats_table(
        ct, ivhet.decompose_weights(ct)).to_text())
    show(f"{tag} cell json", lambda: ivhet.cell_stats_table(ct).to_json())
    for fn in SATURATED:
        for se in SE:
            show(f"{tag} {fn.__name__} {se}",
                 lambda: fn(ct, se_type=se).to_dict())
    for cuts in ("auto", "deciles"):
        part = None if cuts == "auto" else ivhet.OutcomeSetPartition.from_deciles(ds.y)
        for cname, table in (("cells", ct), ("nocells", None)):
            t = f"{tag} {cuts} {cname}"
            show(f"{t} bp", lambda: ivhet.bp_test(ds, table, part, reps=49, seed=seed))
            show(f"{t} mw", lambda: ivhet.mw_test(ds, table, part, reps=49, seed=seed))
            show(f"{t} family", lambda: validity_family(ds, table, part, reps=49,
                                                        seed=seed))
    show(f"{tag} first stage",
         lambda: ivhet.first_stage_nonneg_test(ct, reps=99, seed=seed))
    X = np.column_stack([np.ones(ds.n), ds.x, ds.y])
    show(f"{tag} reset_linear", lambda: ivhet.reset_linear(ds.y, X).to_dict())
    show(f"{tag} reset_linear cluster", lambda: ivhet.reset_linear(
        ds.y, X, powers=(2, 3, 4), se_type="cluster", cluster=ds.cluster).to_dict())
    for link in ("logit", "probit"):
        show(f"{tag} reset_binary_index {link}",
             lambda: ivhet.reset_binary_index(ds.z, ds.x, link=link).to_dict())
    cont = np.column_stack([ds.x[:, 0], np.sin(np.arange(ds.n))])
    for link in ("logit", "probit", "linear"):
        show(f"{tag} ipw {link}", lambda: ivhet.ipw_late(
            ds, ivhet.fit_binary_index(ds.z, cont, link=link)).to_dict())
        show(f"{tag} ipw cells {link}", lambda: ivhet.ipw_late(
            ds, ivhet.fit_cell_propensity(ct, link), trim=(0.05, 0.95)).to_dict())
        show(f"{tag} cell fit {link}", lambda: (
            lambda pf: (pf.coefficients.tolist(), pf.loglik))(
                ivhet.fit_cell_propensity(ct, link)))
    show(f"{tag} ipw bootstrap", lambda: ivhet.ipw_late(
        ds, ivhet.fit_binary_index(ds.z, cont), se="bootstrap", reps=8,
        seed=seed).to_dict())

from ivhet.propensity import _probit_parts
r2 = np.sqrt(2.0)
grid = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-0.0, 1e3, -1e3],
                       *([e, -e, np.nextafter(e, 0.0), -np.nextafter(e, 0.0)]
                         for e in (1.0, r2, 8.0 * r2, 37.0))])
for zname, zg in (("ones", np.ones(grid.size)), ("zeros", np.zeros(grid.size)),
                  ("alternating", (np.arange(grid.size) % 2).astype(float))):
    show(f"probit parts {zname}", lambda: (lambda ll, u, w: (ll, u.tolist(), w.tolist()))(
        *_probit_parts(grid, zg)))
for seed, slope in ((1, 0.5), (2, 2.0), (3, 6.0)):
    rng = np.random.default_rng(seed)
    xp = rng.normal(size=(800, 2))
    zp = (0.3 + slope * xp[:, 0] - 0.5 * xp[:, 1] + rng.normal(size=800) > 0).astype(float)
    show(f"probit phat slope {slope}", lambda: ivhet.fit_binary_index(
        zp, xp, link="probit").phat.tolist())

from ivhet.propensity import _bootstrap_estimates

def boot_design(seed, n, kind, clustered):
    # "overlap": z follows a logistic index in x; "separated": z = (x > 0)
    # but for the four rows nearest 0. A binary covariate that is 1 on two
    # rows makes resamples without them lose rank.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    if kind == "overlap":
        z = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.2 + 1.5 * x)))).astype(int)
    else:
        z = (x > 0).astype(int)
        near = np.argsort(np.abs(x))[:4]
        z[near] = 1 - z[near]
    rare = np.zeros(n)
    rare[rng.choice(n, 2, replace=False)] = 1.0
    d = (rng.random(n) < 0.2 + 0.6 * z).astype(int)
    return ivhet.Dataset(y=1.0 + 2.0 * d + x + rng.normal(size=n), d=d, z=z,
                         x=np.column_stack([x, rare]),
                         cluster=rng.permutation(n) % (n // 3) if clustered else None)

def boot(ds, link, window, reps, seed):
    pf = ivhet.fit_binary_index(ds.z, ds.x, link=link)
    if window == "narrow":
        lo, hi = np.sort(pf.phat)[ds.n // 2 - 1: ds.n // 2 + 1] + [-1e-9, 1e-9]
    else:
        lo, hi = window
    ests, failed_by = _bootstrap_estimates(ds, pf, lo, hi, reps, seed)
    return ests, list(failed_by.items())

for seed, n, kind in [(1, 120, "overlap"), (2, 60, "separated"), (3, 3001, "overlap")]:
    for clustered in (False, True):
        ds = boot_design(seed, n, kind, clustered)
        for link in ("logit", "probit", "linear"):
            for window in ((0.05, 0.95), (0.0, 1.0), "narrow"):
                show(f"bootstrap {kind} n={n} {'cluster' if clustered else 'plain'} "
                     f"{link} {window}", lambda: boot(ds, link, window, 30, seed))

def fields(fit):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(fit).items()}

rng = np.random.default_rng(11)
n = 60
a, b = rng.normal(size=n), rng.normal(size=n)
zi = np.repeat([0.0, 1.0], n // 2)
d = (0.8 * zi + rng.normal(size=n) > 0.5).astype(float)
y = 1.0 + 0.5 * a + 2.0 * d + rng.normal(size=n)
ones, cl = np.ones(n), np.arange(n) % 7
DENSE = {"zero column": (np.column_stack([ones, np.zeros(n), a]), d, zi),
         "collinear pair": (np.column_stack([ones, a, 2 * a, b]), d, zi),
         "one-d": (a, d, zi),
         "all zero": (np.zeros((n, 2)), d, zi),
         "no instrument": (np.column_stack([ones, a]), d, 3 * a),
         "zero first stage": (ones, np.tile([0.0, 1.0], n // 2), zi)}
for name, (X, dd, zz) in DENSE.items():
    for se in SE:
        show(f"ols {name} {se}", lambda: fields(ivhet.ols(y, X, se_type=se, cluster=cl)))
        show(f"tsls {name} {se}", lambda: fields(
            ivhet.tsls(y, X, dd, zz, se_type=se, cluster=cl)))

for name in sorted(p for p in os.listdir(workdir) if p.endswith(".json")):
    show(f"spec {name}", lambda: ivhet.DGPSpec.from_json(f"{workdir}/{name}"))

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code

def written(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data

ROLES = ["-y", "y", "-d", "d", "-z", "z"]
FILES = ("--output", "--data", "--oracle", "--latent")
for line in open(f"{workdir}/commands.txt"):
    argv = line.split()
    if argv[1:2] == ["--input"]:
        argv[2] = f"{workdir}/{argv[2]}"
        if "--config" not in argv:
            argv[3:3] = ROLES
    paths = [argv[i + 1] for i, a in enumerate(argv) if a in FILES]
    for extra in ([], ["--json"]) if "--help" not in argv else ([],):
        result = run(argv + extra)
        print("cli", line.strip(), *extra, repr(result),
              repr([written(path) for path in paths]))
"""

# each line: a subcommand and its flags; a data subcommand's --input comes
# first, a CSV under the workdir, and gets -y/-d/-z unless --config is given
COMMANDS = """
estimate --input cells.csv -x x1
estimate --input cells.csv -x x1 --cluster g
estimate --input cells.csv -x x1 --cluster g --se hc1
estimate --input cells.csv -x x1 --link logit
estimate --input cells.csv -x x1 --link probit --trim 0.05,0.95
estimate --input cells.csv -x x1 --link linear --cluster g
estimate --input cells.csv -x x1 --trim 0.02,0.98
estimate --input cells.csv -x x1 --trim 0.9,0.1
estimate --input cells.csv -x x1 --trim 0.01,0.99
estimate --input linear.csv -x x1,x2
estimate --input linear.csv -x x1,x2 --cluster g --link probit
estimate --input linear.csv -x x1,x2 --cluster g --se hc1 --link linear
estimate --input thin.csv -x x1 --min-arm 5
estimate --input bad.csv -x x1
estimate --input missing.csv -x x1
estimate --input missing.csv -x x1 --trim a,b
estimate -x x1 --trim a,b
estimate --input cells.csv --config columns.cfg
estimate --input cells.csv --config columns.cfg -x x1 --se hc1 --link logit
estimate --input cells.csv -x x1 --output report.out
estimate --input bad.csv -x x1 --output report.out
weights --input cells.csv -x x1
weights --input cells.csv -x x1 --se cluster --cluster g
weights --input thin.csv -x x1 --min-arm 5
weights --input linear.csv -x x1,x2
weights --input cells.csv -x x1 --saturated no
weights --input cells.csv --config columns.cfg
weights --input cells.csv -x x1 --output report.out
reset --input cells.csv -x x1
reset --input cells.csv -x x1 --link logit
reset --input linear.csv -x x1,x2 --link probit --powers 2,3,4
reset --input linear.csv -x x1,x2 --equation outcome --cluster g
reset --input linear.csv -x x1,x2 --powers 5
reset --input linear.csv
reset --input missing.csv --powers=
reset --input cells.csv --config columns.cfg
reset --input linear.csv -x x1,x2 --link logit --output report.out
validity --input cells.csv -x x1 --reps 99 --seed 3
validity --input cells.csv -x x1 --reps 49 --cuts deciles
validity --input discrete.csv -x x1 --reps 49 --cuts support
validity --input discrete.csv -x x1 --reps 49 --cuts=-1,0,1,2
validity --input discrete.csv -x x1 --reps 49 --saturated no
validity --input linear.csv -x x1,x2 --reps 49
validity --input thin.csv -x x1 --min-arm 5 --reps 49
validity --input cells.csv -x x1 --cuts a,b
validity --input thin.csv -x x1 --min-arm 1000 --cuts a,b
validity --input cells.csv --config columns.cfg --reps 49
validity --input discrete.csv -x x1 --reps 49 --cuts support --output report.out
manyiv --input cells.csv -x x1
manyiv --input cells.csv -x x1 --se hc0
manyiv --input cells.csv -x x1 --se cluster --cluster g
manyiv --input thin.csv -x x1 --min-arm 1
manyiv --input linear.csv -x x1,x2
manyiv --input cells.csv --config columns.cfg
manyiv --input cells.csv -x x1 --output report.out
simulate --spec good.json --n 40 --data sim.csv
simulate --spec good.json --n 40 --seed 5 --data sim.csv --oracle oracle.out --latent latent.out
simulate --spec defiers.json --n 30 --data sim.csv --oracle oracle.out --output report.out
simulate --spec bad_type.json --n 30 --data sim.csv --oracle oracle.out
simulate --spec absent.json --n 30 --data sim.csv
--help
estimate --help
estimate --trim a,b --help
weights --help
reset --help
validity --help
manyiv --help
simulate --help
"""

SPECS = {
    "good.json": {"cells": [
        {"share": 0.4, "q": 0.5, "types": {"complier": 0.6, "always": 0.2,
                                          "never": 0.2}, "y1": 1.0, "noise": 1},
        {"share": 0.6, "q": 0.3, "types": [0.5, 0.1, 0.4, 0.0],
         "y0": {"never": -1.0}, "y1": [2, 1, 0, 0], "noise1": 0.5, "value": 7}],
        "exclusion_shift": 0.25, "seed": 9},
    "defiers.json": {"cells": [{"share": 1, "q": 0.5, "types": [0.5, 0.2, 0.2, 0.1]}],
                     "allow_defiers": True},
    "bad_type.json": {"cells": [{"share": 1, "q": 0.5, "types": {"saint": 1}}]},
    "bad_len.json": {"cells": [{"share": 1, "q": 0.5, "types": [0.5, 0.5]}]},
    "bad_noise.json": {"cells": [{"share": 1, "q": 0.5, "types": 0.25,
                                  "noise0": {"complier": -1}}]},
    "bad_y1.json": {"cells": [{"share": 1, "q": 0.5, "types": [1, 0, 0, 0],
                               "y1": [1, 2, 3]}]},
    "missing.json": {"cells": [{"share": 1, "types": [1, 0, 0, 0]}]},
    "no_cells.json": {"cells": []},
    "not_object.json": [1, 2],
}


def _write_csv(path: Path, columns: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(map(str, row)) + "\n")


def write_inputs(workdir: Path) -> None:
    """The seeded CSV samples, spec files and command list the children read."""
    rng = np.random.default_rng(20240601)
    n = 2400
    x1 = rng.integers(0, 6, size=n)
    g = rng.integers(0, 40, size=n)
    z = (rng.random(n) < 0.3 + 0.08 * x1).astype(int)
    d = (rng.random(n) < 0.1 + (0.3 + 0.05 * x1) * z).astype(int)
    y = (1.0 + 0.3 * x1) * d + 0.2 * x1 + rng.normal(size=n)
    _write_csv(workdir / "cells.csv", {"y": y.round(6).tolist(), "d": d.tolist(),
                                       "z": z.tolist(), "x1": x1.tolist(),
                                       "g": g.tolist()})
    _write_csv(workdir / "discrete.csv", {"y": np.floor(np.clip(y, -1, 2)).tolist(),
                                          "d": d.tolist(), "z": z.tolist(),
                                          "x1": x1.tolist()})
    c1, c2 = rng.normal(size=n), rng.uniform(-1, 1, size=n)
    zl = (rng.random(n) < 1 / (1 + np.exp(-0.5 * c1 - c2))).astype(int)
    dl = (rng.random(n) < 0.2 + 0.5 * zl).astype(int)
    _write_csv(workdir / "linear.csv", {"y": (dl + 0.5 * c1 + rng.normal(size=n)).tolist(),
                                        "d": dl.tolist(), "z": zl.tolist(),
                                        "x1": c1.tolist(), "x2": c2.tolist(),
                                        "g": g.tolist()})
    # cells 3 and 4 have a thin z = 1 arm, cell 5 no treated rows at all
    k = 300
    xt = np.repeat(np.arange(6), k // 6)
    zt = (rng.random(k) < np.where(xt >= 3, 0.04, 0.5)).astype(int)
    dt = np.where(xt == 5, 0, (rng.random(k) < 0.2 + 0.6 * zt)).astype(int)
    _write_csv(workdir / "thin.csv", {"y": (dt + rng.normal(size=k)).tolist(),
                                      "d": dt.tolist(), "z": zt.tolist(),
                                      "x1": xt.tolist()})
    _write_csv(workdir / "bad.csv", {"y": [0.5, 1.5, 2.0], "d": [0, 2, 1],
                                     "z": [0, 1, 1], "x1": [0, 0, 1]})
    (workdir / "columns.cfg").write_text(json.dumps({
        "outcome": "y", "treatment": "d", "instrument": "z", "covariates": ["x1"],
        "cluster": "g"}), encoding="utf-8")
    for name, spec in SPECS.items():
        (workdir / name).write_text(json.dumps(spec), encoding="utf-8")
    (workdir / "commands.txt").write_text(COMMANDS.strip() + "\n", encoding="utf-8")


def dump(src: Path, workdir: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(workdir)], env=env,
                          cwd=workdir, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"the child for {src} failed: {proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_difference(la: str, lb: str) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers at the same
    positions of two lines, or None when they differ in anything else."""
    if NUMBER.split(la) != NUMBER.split(lb):
        return None
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(la)), map(float, NUMBER.findall(lb))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, action="append", required=True,
                    help="a package source directory; give it twice")
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp).resolve()
        write_inputs(workdir)
        a, b = (dump(src, workdir) for src in args.src)
    differing, non_numeric, worst = 0, 0, 0.0
    for i, (la, lb) in enumerate(zip(a, b), start=1):
        if la != lb:
            differing += 1
            rel = numeric_difference(la, lb)
            non_numeric += rel is None
            worst = max(worst, rel or 0.0)
            kind = " (non-numeric)" if rel is None else ""
            print(f"line {i} differs{kind}:\n{args.src[0]}: {la}\n{args.src[1]}: {lb}")
    if len(a) != len(b):
        differing, non_numeric = differing + 1, non_numeric + 1
        print(f"line {min(len(a), len(b)) + 1} differs (non-numeric): {args.src[0]} "
              f"has {len(a)} lines, {args.src[1]} {len(b)}")
    if differing:
        print(f"{differing} lines differ, {non_numeric} non-numeric; largest relative "
              f"difference between numbers at the same positions: {worst:.2g}")
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
