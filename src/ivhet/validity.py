"""Testable implications of instrument validity.

Every test here has the same shape: a family of moments that must all be
nonnegative when the instrument is randomly assigned, excluded from the
outcome equation, and weakly encouraging for everyone. Each moment is a
difference of two arm means. The statistic is the largest studentized
violation, and its null distribution is simulated with a Rademacher
multiplier bootstrap of the recentered moment estimates, so the p-value
accounts for max-over-many-moments selection.

Three families are provided:

* bp_test: for each candidate outcome interval A, the arrival rates
  P(Y in A, D = 1) and P(Y in A, D = 0) can only move one way when the
  instrument switches on. Works with or without covariate cells.
* mw_test: within rows whose outcome falls in A (and within a cell), the
  treated share must not fall when the instrument switches on.
* first_stage_nonneg_test: the cell-level first stage cannot be negative.

How the bootstrap is computed. Every moment averages a 0/1 indicator that
is constant on bins: one bin per retained cell (or the whole sample), z,
d and elementary outcome interval [c_t, c_t+1) of the partition. Each row
gets one bin code. Arm sizes, means and variances follow from the bin
counts. For one multiplier draw s, a moment's bootstrap value is a linear
function of the per-bin sums of s, and the sums over any candidate
interval are differences of prefix sums over t. The (reps, n) draws come
from one random stream in chunks of a few MiB; each draw is reduced to its
bin sums with a bincount. Memory is O(n + bins + moments), with no
(n x moments) or (reps x n) array. The statistic and the p-value are those
of the dense computation, the same (reps, n) multiplier matrix times the
(n x moments) matrix of row contributions, which tests/oracles.py keeps as
the reference; only the floating-point summation order differs, which
can matter only where moments or draws tie exactly.

One multiplier stream serves the whole family. validity_family, which
`ivhet validity` calls, draws and bins each chunk once and evaluates every
test on the same per-bin sums; the first-stage test reads the bins summed
over the outcome intervals. Those sums are integers, exact in float64, so
each report is identical to the one its separate call gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cells import CellTable
from .data_model import Dataset
from .errors import ConfigError, DomainError, UndefinedTestError

_SIGMA_FLOOR = 1e-6
_MAX_SUPPORT = 12
_CHUNK_BYTES = 4 << 20      # cap on one chunk of bootstrap draws


@dataclass(frozen=True)
class OutcomeSetPartition:
    """Candidate outcome sets built from cut points.

    cut_points must be strictly increasing with at least two entries; the
    candidate sets are the half-open intervals [c_a, c_b) over all pairs
    a < b. The widest candidate therefore spans the whole grid.
    """

    cut_points: tuple[float, ...]

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cut_points)
        if len(cuts) < 2:
            raise ConfigError("an outcome partition needs at least two cut points")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ConfigError("cut points must be strictly increasing")
        object.__setattr__(self, "cut_points", cuts)

    @property
    def n_candidates(self) -> int:
        m = len(self.cut_points)
        return m * (m - 1) // 2

    def candidates(self):
        cuts = self.cut_points
        for a in range(len(cuts) - 1):
            for b in range(a + 1, len(cuts)):
                yield cuts[a], cuts[b], f"[{cuts[a]:g}, {cuts[b]:g})"

    def ensure_covers(self, y: np.ndarray) -> "OutcomeSetPartition":
        """Extend the grid so the widest candidate contains every outcome."""
        cuts = list(self.cut_points)
        ymin, ymax = float(np.min(y)), float(np.max(y))
        if ymin < cuts[0]:
            cuts.insert(0, ymin)
        if ymax >= cuts[-1]:
            cuts.append(np.nextafter(ymax, np.inf))
        return OutcomeSetPartition(tuple(cuts))

    @classmethod
    def from_support(cls, y: np.ndarray) -> "OutcomeSetPartition":
        vals = np.unique(np.asarray(y, dtype=np.float64))
        if vals.size < 1:
            raise DomainError("no outcome values to partition")
        cuts = list(vals) + [np.nextafter(float(vals[-1]), np.inf)]
        if len(cuts) < 2:
            cuts.append(np.nextafter(cuts[-1], np.inf))
        return cls(tuple(cuts))

    @classmethod
    def from_deciles(cls, y: np.ndarray) -> "OutcomeSetPartition":
        y = np.asarray(y, dtype=np.float64)
        qs = np.quantile(y, np.linspace(0.0, 1.0, 11))
        cuts = list(np.unique(qs))
        cuts[-1] = np.nextafter(float(np.max(y)), np.inf)
        if len(cuts) < 2:
            cuts = [float(np.min(y)), np.nextafter(float(np.max(y)), np.inf)]
        return cls(tuple(cuts))

    @classmethod
    def auto(cls, y: np.ndarray) -> "OutcomeSetPartition":
        if np.unique(y).size <= _MAX_SUPPORT:
            return cls.from_support(y)
        return cls.from_deciles(y)


@dataclass(frozen=True)
class ValidityReport:
    """One test's result.

    statistic is the largest studentized violation over the kept moments
    (those with both arms nonempty). worst_set is the first kept moment,
    in label order, that attains it: moments tied exactly, as in two
    bit-identical cells, go to the one listed first. The p-value is
    (1 + #{draws with maximum >= statistic}) / (reps + 1): a draw whose
    maximum equals the statistic counts as at least as extreme.
    """

    test: str
    statistic: float
    p_value: float
    worst_set: str
    bootstrap_reps: int
    seed: int
    n_moments: int
    n_skipped: int
    method: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "worst_set": self.worst_set,
            "bootstrap_reps": self.bootstrap_reps,
            "seed": self.seed,
            "n_moments": self.n_moments,
            "n_skipped": self.n_skipped,
            **self.method,
        }


def _check_bootstrap(reps: int, seed: int) -> None:
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


class _Moments(NamedTuple):
    """The moments every group carries, as index arrays (interval ranges
    count elementary outcome intervals).

    Moment k compares the share of rows with D = d[k] and an outcome in
    elementary intervals [value_lo[k], value_hi[k]) among the rows with
    Z = z[k] and an outcome in [lo[k], hi[k]) (arm a) with the same share
    among the rows with Z = 1 - z[k] (arm b); the null is a >= b.
    """

    z: np.ndarray
    d: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    value_lo: np.ndarray
    value_hi: np.ndarray


def _prefix(x: np.ndarray) -> np.ndarray:
    """Prefix sums over the last (interval) axis, starting from 0."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def _arm_sums(prefix, mom: _Moments, z):
    """Per group and moment: the arm's sum over all its bins, and over the
    bins where the moment's indicator is one. prefix is (..., groups, z, d,
    intervals + 1); the result is (..., groups, moments)."""
    def span(d, lo, hi):
        return prefix[..., z, d, hi] - prefix[..., z, d, lo]
    return (span(0, mom.lo, mom.hi) + span(1, mom.lo, mom.hi),
            span(mom.d, mom.value_lo, mom.value_hi))


def _arm_stats(prefix, mom: _Moments, z):
    """Size, mean and ddof=1 variance of every moment's 0/1 indicator over
    one of its arms, in every group, from prefix sums of the bin counts."""
    n, ones = _arm_sums(prefix, mom, z)
    mean = ones / np.maximum(n, 1)
    var = ones * (n - ones) / (np.maximum(n, 1) * np.maximum(n - 1, 1))
    return n, mean, var


class _Test(NamedTuple):
    """One test on the shared bins: the moments every group carries, the
    labels of all of them, group-major, and the report's method record."""

    name: str
    mom: _Moments
    labels: list
    method: dict


class _Bins(NamedTuple):
    """Each row's bin ((g*2 + z)*2 + d)*n_intervals + t for group g and
    elementary outcome interval t, or -1 for rows outside every group, and
    the group labels."""

    codes: np.ndarray
    n_intervals: int
    groups: list


class _Observed(NamedTuple):
    """A test's kept moments, its statistic and worst moment, and what each
    draw's recentered, studentized moments need."""

    mom: _Moments
    kept: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    scale_a: np.ndarray
    scale_b: np.ndarray
    statistic: float
    worst: int


def _observe(pre, test: _Test) -> _Observed:
    mom = _Moments(*np.broadcast_arrays(*map(np.atleast_1d, test.mom)))
    n_a, mean_a, var_a = _arm_stats(pre, mom, mom.z)
    n_b, mean_b, var_b = _arm_stats(pre, mom, 1 - mom.z)
    kept = (n_a > 0) & (n_b > 0)
    if not kept.any():
        raise UndefinedTestError(
            f"{test.name}: every moment had an empty arm; nothing to test"
        )
    n_a, n_b = np.maximum(n_a, 1), np.maximum(n_b, 1)
    sigma = np.maximum(np.sqrt(var_a / n_a + var_b / n_b), _SIGMA_FLOOR)
    mhat = ((mean_a - mean_b) / sigma)[kept]
    return _Observed(mom, kept, mean_a, mean_b, n_a * sigma, n_b * sigma,
                     float(np.max(-mhat)),
                     int(np.flatnonzero(kept)[np.argmax(-mhat)]))


def _multipliers(seed: int, reps: int, n: int, rows: int):
    """The (reps, n) Rademacher draws as 0/1 bits from one stream, in
    chunks of at most rows draws."""
    rng = np.random.default_rng(seed)
    for start in range(0, reps, rows):
        yield rng.integers(0, 2, size=(min(rows, reps - start), n))


def _max_violation_tests(bins: _Bins, tests, reps: int, seed: int):
    """Shared engine: the reports of tests, in order, all on bins and on one
    multiplier stream.

    Moments whose arms are empty are skipped and counted; the first test
    left with nothing raises, before any draw is made.
    """
    _check_bootstrap(reps, seed)
    shape = (len(bins.groups), 2, 2, bins.n_intervals)
    width = int(np.prod(shape)) + 1
    shifted = bins.codes + 1
    counts = np.bincount(shifted, minlength=width)[1:]
    pre = _prefix(counts.reshape(shape))
    obs = [_observe(pre, test) for test in tests]

    # Each chunk of draws is binned once; a draw reduces to its per-bin
    # sums, then to each test's recentered, studentized moments. The
    # arithmetic is per draw, so a draw's maximum depends neither on the
    # chunk it falls in nor on the other tests of the call.
    n = bins.codes.size
    rows = max(1, _CHUNK_BYTES // (8 * max(n, width, *(o.kept.size for o in obs))))
    t_star = np.empty((len(tests), reps))
    start = 0
    for bits in _multipliers(seed, reps, n, rows):
        ones = np.stack([np.bincount(shifted, weights=draw, minlength=width)[1:]
                         for draw in bits])
        pre = _prefix((2.0 * ones - counts).reshape(-1, *shape))
        for o, out in zip(obs, t_star):
            tot_a, hit_a = _arm_sums(pre, o.mom, o.mom.z)
            tot_b, hit_b = _arm_sums(pre, o.mom, 1 - o.mom.z)
            sims = ((hit_a - o.mean_a * tot_a) / o.scale_a
                    - (hit_b - o.mean_b * tot_b) / o.scale_b)
            out[start:start + len(bits)] = np.max(-sims[:, o.kept], axis=1)
        start += len(bits)

    return [ValidityReport(
        test=test.name, statistic=o.statistic,
        p_value=float((1 + np.sum(t >= o.statistic)) / (reps + 1)),
        worst_set=test.labels[o.worst], bootstrap_reps=reps, seed=seed,
        n_moments=int(o.kept.sum()), n_skipped=int(o.kept.size - o.kept.sum()),
        method=dict(test.method),
    ) for test, o, t in zip(tests, obs, t_star)]


def _groups(ds: Dataset, ct: CellTable | None):
    """Each row's group and the group labels: the retained cells in order,
    with -1 for rows of excluded cells, or one group "all"."""
    if ct is None:
        return np.zeros(ds.n, dtype=np.int64), ["all"]
    retained = np.flatnonzero(~ct.degenerate)
    index = np.full(ct.n_cells, -1, dtype=np.int64)
    index[retained] = np.arange(retained.size)
    return index[ct.assignments], [ct.key_label(j) for j in retained]


def _bins(ds: Dataset, ct: CellTable | None, interval=0,
          n_intervals: int = 1) -> _Bins:
    group, labels = _groups(ds, ct)
    code = ((group * 2 + ds.z) * 2 + ds.d) * n_intervals + interval
    return _Bins(np.where(group >= 0, code, -1), n_intervals, labels)


def _candidate_tests(ds: Dataset, ct: CellTable | None,
                     partition: OutcomeSetPartition | None):
    """Rows binned over the elementary intervals [c_t, c_t+1) of the
    partition (auto when None), extended to cover every outcome, and the
    bp and mw tests over its candidate sets [c_a, c_b)."""
    if partition is None:
        partition = OutcomeSetPartition.auto(ds.y)
    partition = partition.ensure_covers(ds.y)
    cuts = np.asarray(partition.cut_points)
    bins = _bins(ds, ct, np.searchsorted(cuts, ds.y, side="right") - 1,
                 cuts.size - 1)
    lo, hi = np.triu_indices(cuts.size, 1)
    sets = [label for _, _, label in partition.candidates()]
    tags = [s if g == "all" else f"{s} | {g}" for g in bins.groups for s in sets]
    method = {"cut_points": list(partition.cut_points),
              "conditioning": "cells" if ct is not None else "none"}
    # bp, per candidate set: the treated moment (Z = 1 arm, D = 1 rows), then
    # the untreated one (Z = 0 arm, D = 0 rows), each over whole arms
    side = np.tile([1, 0], lo.size)
    bp = _Test("bp_test",
               _Moments(side, side, 0, bins.n_intervals, np.repeat(lo, 2),
                        np.repeat(hi, 2)),
               [f"{tag}, {kind}" for tag in tags
                for kind in ("treated", "untreated")], method)
    mw = _Test("mw_test", _Moments(1, 1, lo, hi, lo, hi), tags, method)
    return bins, bp, mw


def _first_stage(bins: _Bins) -> _Test:
    """Per group, the treated share of the Z = 1 arm against that of the
    Z = 0 arm, each over every outcome interval. Bin sums are integers, so
    the report does not depend on how many intervals the bins have."""
    t = bins.n_intervals
    return _Test("first_stage_nonneg_test", _Moments(1, 1, 0, t, 0, t),
                 bins.groups, {"conditioning": "cells"})


def bp_test(
    ds: Dataset,
    ct: CellTable | None = None,
    partition: OutcomeSetPartition | None = None,
    reps: int = 999,
    seed: int = 0,
) -> ValidityReport:
    """Joint density inequalities over candidate outcome sets.

    For each candidate set A (and each retained cell, when a cell table is
    given) the tested moments are

        P(Y in A, D = 1 | Z = 1) - P(Y in A, D = 1 | Z = 0) >= 0
        P(Y in A, D = 0 | Z = 0) - P(Y in A, D = 0 | Z = 1) >= 0
    """
    bins, bp, _ = _candidate_tests(ds, ct, partition)
    return _max_violation_tests(bins, [bp], reps, seed)[0]


def mw_test(
    ds: Dataset,
    ct: CellTable | None = None,
    partition: OutcomeSetPartition | None = None,
    reps: int = 999,
    seed: int = 0,
) -> ValidityReport:
    """Treated-share monotonicity within outcome sets.

    Conditional on the outcome landing in a candidate set A (and on the
    cell), switching the instrument on cannot lower the share of treated
    rows. Candidate sets that are empty in one arm are skipped.
    """
    bins, _, mw = _candidate_tests(ds, ct, partition)
    return _max_violation_tests(bins, [mw], reps, seed)[0]


def first_stage_nonneg_test(
    ct: CellTable,
    reps: int = 999,
    seed: int = 0,
) -> ValidityReport:
    """Cell-level first stages must be nonnegative under monotonicity."""
    bins = _bins(ct.source, ct)
    return _max_violation_tests(bins, [_first_stage(bins)], reps, seed)[0]


def validity_family(
    ds: Dataset,
    ct: CellTable | None = None,
    partition: OutcomeSetPartition | None = None,
    reps: int = 999,
    seed: int = 0,
) -> list[ValidityReport]:
    """bp_test, mw_test and, given a cell table, first_stage_nonneg_test,
    on one set of multiplier draws.

    With ct built from ds, the reports equal those of the separate calls
    with the same arguments, and an undefined test raises the error its own
    call would, bp first.
    """
    bins, bp, mw = _candidate_tests(ds, ct, partition)
    tests = [bp, mw] if ct is None else [bp, mw, _first_stage(bins)]
    return _max_violation_tests(bins, tests, reps, seed)
