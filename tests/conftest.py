import os
from pathlib import Path

import numpy as np
import pytest

import ivhet
from ivhet import Dataset, SeparationError, build_cells, propensity, reference_trial


def child_env():
    """Environment in which a child python imports this checkout's ivhet."""
    src = str(Path(ivhet.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.fixture
def trial_ds():
    return reference_trial()


@pytest.fixture
def trial_ct(trial_ds):
    # the benchmark trial has control arms of 3, 1 and 2 rows
    return build_cells(trial_ds, min_arm_size=1)


def two_cell_dataset():
    """Tiny hand-checkable dataset.

    Cell A: z=1 arm d=(1,1,0) y=(5,3,1); z=0 arm d=(0,0,0) y=(1,2,0)
            so pi = 2/3, dy = 2, tau = 3.
    Cell B: z=1 arm d=(1,0,1) y=(4,2,6); z=0 arm d=(0,1,0) y=(2,1,0)
            so pi = 1/3, dy = 3, tau = 9.
    Equal sizes and q = 1/2 everywhere, hence w_late = w_iv = (2/3, 1/3),
    w_ai = (4/5, 1/5), beta_late = beta_iv = 5 and beta_ai = 4.2.
    """
    y = np.array([5.0, 3, 1, 1, 2, 0, 4, 2, 6, 2, 1, 0])
    d = np.array([1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0])
    z = np.array([1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    x = np.array([0.0] * 6 + [1.0] * 6)
    return Dataset(y=y, d=d, z=z, x=x, covariate_names=("g",))


@pytest.fixture
def hand_ds():
    return two_cell_dataset()


@pytest.fixture
def hand_ct(hand_ds):
    return build_cells(hand_ds)


def write_csv(path, ds, names=("y", "d", "z")):
    """Serialize a Dataset the way the CLI tests need it on disk."""
    cov = list(ds.covariate_names)
    with open(path, "w", encoding="utf-8") as fh:
        header = [names[0], names[1], names[2], *cov]
        if ds.cluster is not None:
            header.append("cl")
        fh.write(",".join(header) + "\n")
        for i in range(ds.n):
            row = [repr(float(ds.y[i])), str(int(ds.d[i])), str(int(ds.z[i]))]
            row += [repr(float(v)) for v in ds.x[i]]
            if ds.cluster is not None:
                row.append(str(int(ds.cluster[i])))
            fh.write(",".join(row) + "\n")
    return path


def gapped_cluster_subset(ds, n_groups, rng, share=0.8):
    """A random subset of ds whose cluster codes have gaps.

    The full sample is labelled 0..2G-1; the kept rows carry the G even
    codes, each at least once, and the dropped rows the odd ones, the way a
    subset of loaded data leaves holes in its codes. n_groups=None gives
    every kept row its own label.
    """
    keep = rng.random(ds.n) < share
    m = int(keep.sum())
    g = m if n_groups is None else n_groups
    codes = np.empty(ds.n, dtype=np.int64)
    codes[keep] = 2 * rng.permutation(np.arange(m) % g)
    codes[~keep] = 2 * rng.integers(0, g, size=ds.n - m) + 1
    full = Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x,
                   covariate_names=ds.covariate_names, cluster=codes)
    return full.subset(keep)


def label_loop_cluster_se(infl, labels):
    """sqrt(G/(G-1) * sum over labels of (label sum of infl)^2) / n, label
    by label in Python."""
    groups = sorted(set(labels.tolist()))
    total = sum(float(infl[labels == lab].sum()) ** 2 for lab in groups)
    g = len(groups)
    return np.sqrt(g / (g - 1) * total) / len(infl)


def cell_ipw_design(kind):
    """Discrete-cell samples for the saturated IPW checks: "thin" has cells
    of 2 to 4 rows among larger ones, "clustered" carries 20 cluster labels,
    "single" has no covariates, and "separated" has one cell with no z = 1
    row and one with no z = 0 row."""
    rng = np.random.default_rng({"thin": 31, "clustered": 32, "single": 33,
                                 "separated": 34}[kind])
    n, n_cells = {"thin": (500, 12), "clustered": (400, 4), "single": (300, 1),
                  "separated": (2000, 5)}[kind]
    size = np.full(n_cells, 1.0)
    if kind == "thin":
        size[-4:] = 0.0
    cell = rng.choice(n_cells, size=n, p=size / size.sum())
    if kind == "thin":
        cell[:12] = np.repeat(np.arange(n_cells - 4, n_cells), 3)[:12]
        cell[12:14] = n_cells - 1
    q = rng.uniform(0.25, 0.75, size=n_cells)
    if kind == "separated":
        q[1], q[3] = 0.0, 1.0
    z = (rng.random(n) < q[cell]).astype(int)
    d = (rng.random(n) < 0.15 + 0.5 * z + 0.02 * cell).astype(int)
    y = (1.0 + 0.2 * cell) * d + 0.3 * cell + rng.normal(size=n)
    x = (np.column_stack([cell // 4, cell % 4]).astype(float) if n_cells > 1
         else np.empty((n, 0)))
    cluster = rng.integers(0, 20, size=n) if kind == "clustered" else None
    names = ("x0", "x1")[:x.shape[1]]
    return Dataset(y=y, d=d, z=z, x=x, covariate_names=names, cluster=cluster)


def fail_augmented_reset_fit(monkeypatch, message="augmented fit separated"):
    """Make reset_binary_index's warm-started augmented fit raise
    SeparationError(message); the base fit runs as usual. reset_binary_index
    imports fit_binary_index from propensity when called, so it is patched
    there."""
    real = propensity.fit_binary_index

    def fit(z, X, link="logit", start=None):
        if start is not None:
            raise SeparationError(message)
        return real(z, X, link=link)

    monkeypatch.setattr(propensity, "fit_binary_index", fit)
