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
d and elementary outcome interval [c_t, c_t+1) of the partition. Arm
sizes, means and variances follow from the bin counts, and a multiplier
draw enters a moment only through its per-bin sums, whose sums over any
candidate interval are differences of prefix sums over t. The sum of a
bin's count fair 0/1 bits is Binomial(count, 1/2), and each draw makes
it directly, in chunks of a few MiB: a bin of at most 512 rows as the
popcount of count raw random bits (ceil(count / 64) words, the last
masked), a larger bin as one rng.binomial draw, which costs about as
much as the popcount of 12 words. After one bincount of the
rows' bin codes no row is touched again: the bootstrap costs O(reps x
(bins + words + moments)) and holds no (n x moments) or (reps x n)
array. The law of the bootstrap is that of the dense computation, a
(reps, n) Rademacher matrix times the (n x moments) matrix of row
contributions, which tests/oracles.py keeps as the reference; a seed's
realisation is not that of per-row draws, so its p-values differ from
those of versions that drew every row, and from those of versions that
drew every bin as a Binomial wherever a bin has at most 512 rows.

bp_test and mw_test share their bins, so validity_family, which `ivhet
validity` calls, evaluates both on one draw; the first-stage test makes
its own draw on the cell table's coarse (cell, z, d) bins, as its
separate call does. Each report is identical to the one its separate
call gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .cells import CellTable
from .data_model import Dataset
from .errors import ConfigError, DomainError, UndefinedTestError
from .regression import _check_bootstrap
from .tables import record

_SIGMA_FLOOR = 1e-6
_MAX_SUPPORT = 12
_MAX_CANDIDATES = 10**6     # candidate outcome sets one partition may make
_CHUNK_BYTES = 4 << 20      # cap on draws x max(bins, words, moments) 8-byte values
_POPCOUNT_ROWS = 512        # bins of up to this many rows draw popcounts


@dataclass(frozen=True)
class OutcomeSetPartition:
    """Candidate outcome sets built from cut points.

    cut_points must be strictly increasing with at least two entries; the
    candidate sets are the half-open intervals [c_a, c_b) over all pairs
    a < b. The widest candidate therefore spans the whole grid. A grid of
    more than _MAX_CANDIDATES sets (about 1,400 cut points), as the
    support of a continuous outcome gives, is a ConfigError.
    """

    cut_points: tuple[float, ...]

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cut_points)
        if len(cuts) < 2:
            raise ConfigError("an outcome partition needs at least two cut points")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ConfigError("cut points must be strictly increasing")
        object.__setattr__(self, "cut_points", cuts)
        if self.n_candidates > _MAX_CANDIDATES:
            raise ConfigError(
                f"{len(cuts):,} cut points make {self.n_candidates:,} candidate "
                f"outcome sets, more than {_MAX_CANDIDATES:,}; use fewer cut "
                "points, such as the deciles (--cuts deciles)")

    @property
    def n_candidates(self) -> int:
        m = len(self.cut_points)
        return m * (m - 1) // 2

    def _text(self, i: int) -> str:
        """Cut i with the fewest significant digits, at least 6, at which it
        reads unlike each neighbouring cut and not as the float just below
        it (a top cut nextafter(max y) must not read as max y, left out)."""
        c = self.cut_points
        near = [c[k] for k in (i - 1, i + 1) if 0 <= k < len(c)]
        for p in range(6, 18):    # 17 digits tell any two floats apart
            text = f"{c[i]:.{p}g}"
            if float(text) != np.nextafter(c[i], -np.inf) and all(
                    f"{v:.{p}g}" != text for v in near):
                return text

    def _label(self, a: int, b: int) -> str:
        return f"[{self._text(a)}, {self._text(b)})"

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
        return cls(tuple(vals) + (np.nextafter(float(vals[-1]), np.inf),))

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
        # one sort gives both the number of distinct values and the deciles
        s = np.sort(np.asarray(y, dtype=np.float64))
        if np.count_nonzero(s[1:] != s[:-1]) < _MAX_SUPPORT:
            return cls.from_support(y)
        return cls.from_deciles(s)


@dataclass(frozen=True)
class ValidityReport:
    """One test's result.

    statistic is the largest studentized violation over the kept moments
    (those with both arms nonempty). worst_set is the first kept moment,
    in label order, that attains it: moments tied exactly, as in two
    bit-identical cells, go to the one listed first. The p-value is
    (1 + #{draws with maximum >= statistic}) / (reps + 1): a draw whose
    maximum equals the statistic counts as at least as extreme. The draws
    are per-bin Binomial(count, 1/2) sums of fair bits, popcounts of raw
    random words in bins of at most 512 rows and rng.binomial draws in
    larger ones: the law of a Rademacher multiplier bootstrap over rows,
    not its realisation, so a seed gives other p-values than row-by-row
    draws.
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
        return record(self, "method")


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
    if mom.lo.any() or (mom.hi != prefix.shape[-1] - 1).any():
        total = span(0, mom.lo, mom.hi) + span(1, mom.lo, mom.hi)
    else:
        # whole arms: one total per group and arm (prefix[..., 0] is 0)
        ends = prefix[..., -1]
        total = (ends[..., 0] + ends[..., 1])[..., z]
    return total, span(mom.d, mom.value_lo, mom.value_hi)


def _arm_stats(prefix, mom: _Moments, z):
    """Size, mean and ddof=1 variance of every moment's 0/1 indicator over
    one of its arms, in every group, from prefix sums of the bin counts."""
    n, ones = _arm_sums(prefix, mom, z)
    mean = ones / np.maximum(n, 1)
    var = ones * (n - ones) / (np.maximum(n, 1) * np.maximum(n - 1, 1))
    return n, mean, var


class _Test(NamedTuple):
    """One test on the shared bins: the moments every group carries, the
    label of moment k of all of them, group-major, and the report's method."""

    name: str
    mom: _Moments
    label: Callable[[int], str]
    method: dict


class _Bins(NamedTuple):
    """The row count of each bin ((g*2 + z)*2 + d)*n_intervals + t, for
    group g and elementary outcome interval t, and the group labels."""

    counts: np.ndarray
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


def _popcount_words(counts: np.ndarray) -> np.ndarray:
    """The 64-bit words each bin draws per draw: ceil(count / 64) for the
    bins of 1 to _POPCOUNT_ROWS rows, none for empty and larger bins."""
    return np.where(counts <= _POPCOUNT_ROWS, -(-counts // 64), 0)


def _multipliers(seed: int, reps: int, counts: np.ndarray, rows: int):
    """Per-bin sums of reps Rademacher draws as 0/1 bits, in chunks of at
    most rows draws. The sum of counts[b] fair bits is Binomial(counts[b],
    1/2): a bin of more than _POPCOUNT_ROWS rows draws it with
    rng.binomial from default_rng(seed), any other bin as the popcount of
    counts[b] raw bits, in whole words from a stream spawned from that
    generator, its last word masked to its remaining bits. Both streams
    are read draw by draw, so the chunks change no draw."""
    rng = np.random.default_rng(seed)
    raw = rng.spawn(1)[0].bit_generator
    large = counts > _POPCOUNT_ROWS
    small = np.flatnonzero(_popcount_words(counts))
    words = _popcount_words(counts[small])
    first = np.cumsum(words) - words        # each small bin's first word
    mask = np.full(words.sum(), np.iinfo(np.uint64).max, dtype=np.uint64)
    mask[first + words - 1] >>= (-counts[small] % 64).astype(np.uint64)
    for start in range(0, reps, rows):
        n_draws = min(rows, reps - start)
        ones = np.zeros((n_draws, counts.size), dtype=np.int64)
        ones[:, large] = rng.binomial(counts[large], 0.5,
                                      size=(n_draws, np.count_nonzero(large)))
        if small.size:
            bits = np.bitwise_count(raw.random_raw((n_draws, mask.size)) & mask)
            ones[:, small] = np.add.reduceat(bits, first, axis=1, dtype=np.int64)
        yield ones


def _bootstrap_maxima(counts, shape, obs, reps: int, seed: int) -> np.ndarray:
    """Each test's maximum recentered, studentized violation in every draw,
    (tests, reps). The arithmetic is per draw, so a draw's maximum depends
    neither on the chunk it falls in nor on the other tests of the call."""
    size = max(counts.size, int(_popcount_words(counts).sum()),
               *(o.kept.size for o in obs))
    rows = max(1, _CHUNK_BYTES // (8 * size))
    t_star = np.empty((len(obs), reps))
    start = 0
    for ones in _multipliers(seed, reps, counts, rows):
        pre = _prefix((2.0 * ones - counts).reshape(-1, *shape))
        for o, out in zip(obs, t_star):
            tot_a, hit_a = _arm_sums(pre, o.mom, o.mom.z)
            tot_b, hit_b = _arm_sums(pre, o.mom, 1 - o.mom.z)
            sims = ((hit_a - o.mean_a * tot_a) / o.scale_a
                    - (hit_b - o.mean_b * tot_b) / o.scale_b)
            sims = sims.reshape(len(ones), -1) if o.kept.all() else sims[:, o.kept]
            out[start:start + len(ones)] = -np.min(sims, axis=1)
        start += len(ones)
    return t_star


def _max_violation_tests(bins: _Bins, tests, reps: int, seed: int):
    """Shared engine: the reports of tests, in order, all on bins and on one
    draw of per-bin multiplier sums.

    Moments whose arms are empty are skipped and counted; the first test
    left with nothing raises, before any draw is made.
    """
    _check_bootstrap(reps, seed)
    shape = (len(bins.groups), 2, 2, bins.n_intervals)
    obs = [_observe(_prefix(bins.counts.reshape(shape)), test) for test in tests]
    t_star = _bootstrap_maxima(bins.counts, shape, obs, reps, seed)
    return [ValidityReport(
        test=test.name, statistic=o.statistic,
        p_value=float((1 + np.sum(t >= o.statistic)) / (reps + 1)),
        worst_set=test.label(o.worst), bootstrap_reps=reps, seed=seed,
        n_moments=int(o.kept.sum()), n_skipped=int(o.kept.size - o.kept.sum()),
        method=dict(test.method),
    ) for test, o, t in zip(tests, obs, t_star)]


def _bins(ds: Dataset, ct: CellTable | None, interval, n_intervals: int) -> _Bins:
    """Rows binned by (cell, z, d, interval) over every cell, then the
    retained cells' bins in order; without a cell table, one group "all"."""
    if ct is None:
        group, keep, labels = 0, np.ones(1, dtype=bool), ["all"]
    else:
        if ct.source is not ds:
            raise ConfigError("cell table was built from a different dataset; "
                              "build it from the one being tested")
        group, keep = ct.assignments, ct.retained
        labels = [ct.key_label(j) for j in np.flatnonzero(keep)]
    code = ((group * 2 + ds.z) * 2 + ds.d) * n_intervals + interval
    counts = np.bincount(code, minlength=keep.size * 4 * n_intervals)
    return _Bins(counts.reshape(keep.size, -1)[keep].ravel(), n_intervals, labels)


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

    def tag(k):     # candidate set k % lo.size, in group k // lo.size
        g, s = divmod(k, lo.size)
        where = "" if bins.groups[g] == "all" else f" | {bins.groups[g]}"
        return partition._label(lo[s], hi[s]) + where
    method = {"cut_points": list(partition.cut_points),
              "conditioning": "cells" if ct is not None else "none"}
    # bp, per candidate set: the treated moment (Z = 1 arm, D = 1 rows), then
    # the untreated one (Z = 0 arm, D = 0 rows), each over whole arms
    side = np.tile([1, 0], lo.size)
    bp = _Test("bp_test",
               _Moments(side, side, 0, bins.n_intervals, np.repeat(lo, 2),
                        np.repeat(hi, 2)),
               lambda k: f"{tag(k // 2)}, {('treated', 'untreated')[k % 2]}",
               method)
    mw = _Test("mw_test", _Moments(1, 1, lo, hi, lo, hi), tag, method)
    return bins, bp, mw


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
    retained = ct.retained
    bins = _Bins(ct.n_b[:, retained].transpose(1, 0, 2).ravel(), 1,
                 [ct.key_label(j) for j in np.flatnonzero(retained)])
    test = _Test("first_stage_nonneg_test", _Moments(1, 1, 0, 1, 0, 1),
                 bins.groups.__getitem__, {"conditioning": "cells"})
    return _max_violation_tests(bins, [test], reps, seed)[0]


def validity_family(
    ds: Dataset,
    ct: CellTable | None = None,
    partition: OutcomeSetPartition | None = None,
    reps: int = 999,
    seed: int = 0,
) -> list[ValidityReport]:
    """bp_test and mw_test on one draw of per-bin multiplier sums and,
    given a cell table, first_stage_nonneg_test on its own coarse bins.

    The reports equal those of the separate calls with the same arguments,
    and an undefined test raises the error its own call would, bp first.
    The cost is O(n) for binning plus O(reps x (bins + moments)).
    """
    bins, bp, mw = _candidate_tests(ds, ct, partition)
    reports = _max_violation_tests(bins, [bp, mw], reps, seed)
    if ct is not None:
        reports.append(first_stage_nonneg_test(ct, reps, seed))
    return reports
