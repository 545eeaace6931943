"""Synthetic data with fully observed latent compliance types.

Each unit carries both potential treatments (d1, d0) and both potential
outcomes (y1, y0), so ground truth is computable by brute force: the
population LATE is a plain mean over compliers and the cell weights come
straight from latent shares. Violations are injected only through two
explicit switches, a direct outcome shift for never-takers assigned z = 1
(breaking exclusion) and permission for defiers (breaking monotonicity).

Randomness comes from a counter-based Philox stream keyed by the seed.
Every unit consumes a fixed block of five uniforms, so unit i's draws are
a pure function of (seed, i): generating 100 units and then 200 units from
the same seed agree on the first 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, _read_json
from .errors import ConfigError, DomainError
from .estimators import WeightTable, _weight_table
from .propensity import normal_quantile
from .tables import write_columns

CTYPES = ("complier", "always", "never", "defier")
_D1 = {"complier": 1, "always": 1, "never": 0, "defier": 0}
_D0 = {"complier": 0, "always": 1, "never": 0, "defier": 1}


def _as_type_vector(value, name: str, default=0.0) -> tuple[float, float, float, float]:
    """Accept a scalar or a {ctype: value} mapping; return a 4-tuple."""
    if value is None:
        value = default
    if isinstance(value, (int, float)):
        return tuple(float(value) for _ in CTYPES)
    if isinstance(value, dict):
        extra = set(value) - set(CTYPES)
        if extra:
            raise ConfigError(f"unknown compliance types in {name}: {sorted(extra)}")
        return tuple(float(value.get(t, default)) for t in CTYPES)
    seq = tuple(float(v) for v in value)
    if len(seq) != 4:
        raise ConfigError(f"{name} must have one entry per compliance type")
    return seq


@dataclass(frozen=True)
class CellSpec:
    """One covariate cell of the population."""

    share: float
    q: float
    types: tuple[float, float, float, float]      # complier, always, never, defier
    y0: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    y1: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    noise0: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    noise1: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    value: float | None = None                    # covariate value; cell index if None

    def __post_init__(self):
        for name in ("types", "y0", "y1", "noise0", "noise1"):
            object.__setattr__(self, name, _as_type_vector(getattr(self, name), name))
        if self.share <= 0:
            raise ConfigError("cell share must be positive")
        if not 0.0 < self.q < 1.0:
            raise ConfigError("assignment probability q must lie strictly in (0, 1)")
        if any(t < 0 for t in self.types):
            raise ConfigError("type shares must be nonnegative")
        if abs(sum(self.types) - 1.0) > 1e-9:
            raise ConfigError("type shares must sum to 1 within each cell")
        if any(s < 0 for s in self.noise0 + self.noise1):
            raise ConfigError("noise scales must be nonnegative")


@dataclass(frozen=True)
class DGPSpec:
    """A complete latent-type population."""

    cells: tuple[CellSpec, ...]
    exclusion_shift: float = 0.0
    allow_defiers: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ConfigError("a DGP spec needs at least one cell")
        total = sum(c.share for c in self.cells)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"cell shares sum to {total:g}, expected 1")
        defier_ix = CTYPES.index("defier")
        if not self.allow_defiers:
            for i, c in enumerate(self.cells):
                if c.types[defier_ix] > 0:
                    raise ConfigError(
                        f"cell {i} has defiers but allow_defiers is false; "
                        "monotonicity violations must be switched on explicitly"
                    )

    @classmethod
    def from_json(cls, path: str) -> "DGPSpec":
        raw = _read_json(path, "DGP spec file")
        if not isinstance(raw, dict) or "cells" not in raw:
            raise ConfigError("DGP spec file must be a JSON object with a 'cells' list")
        cells = []
        for i, c in enumerate(raw["cells"]):
            try:
                cells.append(CellSpec(
                    share=float(c["share"]),
                    q=float(c["q"]),
                    types=c["types"],
                    y0=c.get("y0"),
                    y1=c.get("y1"),
                    noise0=c.get("noise0", c.get("noise")),
                    noise1=c.get("noise1", c.get("noise")),
                    value=c.get("value"),
                ))
            except KeyError as exc:
                raise ConfigError(f"cell {i} is missing key {exc}") from exc
        return cls(
            cells=tuple(cells),
            exclusion_shift=float(raw.get("exclusion_shift", 0.0)),
            allow_defiers=bool(raw.get("allow_defiers", False)),
            seed=int(raw.get("seed", 0)),
        )


@dataclass(frozen=True)
class LatentTable:
    """Unit-level latent state, aligned with the generated Dataset."""

    cell: np.ndarray     # int (n,)
    ctype: np.ndarray    # int codes into CTYPES
    y1: np.ndarray
    y0: np.ndarray
    d1: np.ndarray
    d0: np.ndarray
    z: np.ndarray

    @property
    def n(self) -> int:
        return self.cell.shape[0]

    def ctype_names(self) -> np.ndarray:
        return np.array(CTYPES)[self.ctype]

    def to_csv(self, path: str) -> None:
        write_columns(path, ("cell", "ctype", "y1", "y0", "d1", "d0", "z"),
                      (self.cell, self.ctype_names(), self.y1, self.y0,
                       self.d1, self.d0, self.z))


def generate(spec: DGPSpec, n: int, seed: int | None = None) -> tuple[Dataset, LatentTable]:
    """Draw n units from the spec. seed defaults to spec.seed."""
    if n < 2:
        raise ConfigError("n must be at least 2")
    if seed is None:
        seed = spec.seed
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    u = rng.random((n, 5))
    u = np.clip(u, 1e-15, 1.0 - 1e-15)

    shares = np.array([c.share for c in spec.cells])
    cum_share = np.cumsum(shares)
    cell = np.searchsorted(cum_share, u[:, 0], side="right")
    cell = np.minimum(cell, len(spec.cells) - 1)

    type_cum = np.cumsum(np.array([c.types for c in spec.cells]), axis=1)
    ctype = (u[:, 1, None] > type_cum[cell]).sum(axis=1)
    ctype = np.minimum(ctype, 3)

    q = np.array([c.q for c in spec.cells])[cell]
    z = (u[:, 2] < q).astype(np.int64)

    m0 = np.array([c.y0 for c in spec.cells])
    m1 = np.array([c.y1 for c in spec.cells])
    s0 = np.array([c.noise0 for c in spec.cells])
    s1 = np.array([c.noise1 for c in spec.cells])
    e0, e1 = normal_quantile(u[:, 3]), normal_quantile(u[:, 4])
    y0 = m0[cell, ctype] + s0[cell, ctype] * e0
    y1 = m1[cell, ctype] + s1[cell, ctype] * e1

    d1 = np.array([_D1[t] for t in CTYPES])[ctype]
    d0 = np.array([_D0[t] for t in CTYPES])[ctype]
    d = np.where(z == 1, d1, d0)
    y = np.where(d == 1, y1, y0)
    if spec.exclusion_shift != 0.0:
        never = ctype == CTYPES.index("never")
        y = y + spec.exclusion_shift * never * z

    values = np.array([
        c.value if c.value is not None else float(i)
        for i, c in enumerate(spec.cells)
    ])
    ds = Dataset(y=y, d=d, z=z, x=values[cell], covariate_names=("cell",))
    lt = LatentTable(cell=cell, ctype=ctype, y1=y1, y0=y0, d1=d1, d0=d0, z=z)
    return ds, lt


def brute_force_late(lt: LatentTable) -> float:
    """Mean of y1 - y0 over compliers in the latent table."""
    compliers = lt.ctype == CTYPES.index("complier")
    if not compliers.any():
        raise DomainError("latent table has no compliers; the LATE is undefined")
    return float(np.mean(lt.y1[compliers] - lt.y0[compliers]))


def brute_force_weights(lt: LatentTable) -> WeightTable:
    """Exact weight families from latent shares.

    p_j and q_j are realized shares, pi_j is the net complier-minus-defier
    share, and tau_j is the mean complier effect within the cell. Cells
    with pi_j = 0 carry NaN weights, mirroring the sample-side exclusion of
    degenerate cells.
    """
    cells = np.unique(lt.cell)
    j_n = len(cells)
    n = lt.n
    p = np.empty(j_n)
    q = np.empty(j_n)
    pi = np.empty(j_n)
    tau = np.full(j_n, np.nan)
    complier_ix = CTYPES.index("complier")
    defier_ix = CTYPES.index("defier")
    for idx, c in enumerate(cells):
        mask = lt.cell == c
        nj = mask.sum()
        p[idx] = nj / n
        q[idx] = lt.z[mask].mean()
        compliers = mask & (lt.ctype == complier_ix)
        defiers = mask & (lt.ctype == defier_ix)
        pi[idx] = (compliers.sum() - defiers.sum()) / nj
        if compliers.any():
            tau[idx] = np.mean(lt.y1[compliers] - lt.y0[compliers])
    return _weight_table(p, q * (1.0 - q), pi, tau, pi == 0.0)


# ---------------------------------------------------------------------------
# Reference fixtures
#
# A small stratified trial with three strata, built from integer counts so
# that every display-rounded cell statistic hits a fixed target triple of
# decimals: shares (0.241, 0.448, 0.310), instrument variances
# (0.168, 0.037, 0.099), first stages (0.455, 0.280, 0.250) and effects
# (1.067, 6.000, 5.000). It is the cross-module benchmark for the
# estimator and weight identities.
# ---------------------------------------------------------------------------

_TRIAL_CELLS = (
    # (z1 arm: d list, y list), (z0 arm: d list, y list)
    (
        ([1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0], [3, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0]),
        ([0, 0, 0], [1, 0, 0]),
    ),
    (
        ([1] * 7 + [0] * 18,
         [6, 5, 4, 3, 2, 2, 2] + [3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        ([0], [0]),
    ),
    (
        ([1, 1, 1, 1] + [0] * 12,
         [4, 3, 3, 2] + [2, 2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        ([0, 0], [0, 0]),
    ),
)


def reference_trial() -> Dataset:
    """The 58-unit three-stratum benchmark trial."""
    ys, ds_, zs, xs = [], [], [], []
    for j, ((d1, y1), (d0, y0)) in enumerate(_TRIAL_CELLS):
        for d, y in zip(d1, y1):
            ds_.append(d); ys.append(float(y)); zs.append(1); xs.append(float(j + 1))
        for d, y in zip(d0, y0):
            ds_.append(d); ys.append(float(y)); zs.append(0); xs.append(float(j + 1))
    return Dataset(y=np.array(ys), d=np.array(ds_), z=np.array(zs),
                   x=np.array(xs), covariate_names=("stratum",))


def reference_population() -> LatentTable:
    """A deterministic latent population matching the benchmark trial.

    Cell sizes are scaled up (m = 550 copies of the 58-unit layout) so the
    complier shares equal the benchmark first stages exactly: 5/11, 7/25
    and 1/4 admit integer complier counts at n_j = (7700, 14300, 9900).
    Compliers get a constant effect per cell equal to the benchmark tau.
    """
    m = 550
    sizes = (14 * m, 26 * m, 18 * m)
    compliers = (3500, 4004, 2475)
    z_ones = (6050, 13750, 8800)
    taus = (16.0 / 15.0, 6.0, 5.0)

    cell_list, ctype_list, y1_list, y0_list, z_list = [], [], [], [], []
    complier_ix = CTYPES.index("complier")
    never_ix = CTYPES.index("never")
    for j, (nj, cj, z1j, tau) in enumerate(zip(sizes, compliers, z_ones, taus)):
        cell_list.append(np.full(nj, j))
        ct = np.full(nj, never_ix)
        ct[:cj] = complier_ix
        ctype_list.append(ct)
        y0 = np.zeros(nj)
        y1 = np.where(ct == complier_ix, tau, 0.0)
        y0_list.append(y0)
        y1_list.append(y1)
        z = np.zeros(nj, dtype=np.int64)
        z[-z1j:] = 1
        z_list.append(z)

    cell = np.concatenate(cell_list)
    ctype = np.concatenate(ctype_list)
    d1 = np.array([_D1[t] for t in CTYPES])[ctype]
    d0 = np.array([_D0[t] for t in CTYPES])[ctype]
    return LatentTable(
        cell=cell, ctype=ctype,
        y1=np.concatenate(y1_list), y0=np.concatenate(y0_list),
        d1=d1, d0=d0, z=np.concatenate(z_list),
    )
