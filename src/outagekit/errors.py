"""Exact missed-detection probabilities for scalar Gaussian hypothesis tests.

Each local detector reduces to picking among Gaussians N(mu_k, sigma2_k) from
one scalar observation. Decision boundaries are roots of pairwise
log-likelihood equalities (quadratics, linear when variances match), so
acceptance regions are finite interval unions and error probabilities come
out in closed form through the Gaussian CDF. No quadrature is involved; the
Monte Carlo cross-check, ``monte_carlo_error``, is a test oracle in
``tests/helpers.py``.

The winner partition is found by one left-to-right sweep along the upper
envelope of the log-densities: each piece scans the other entries once for
the nearest root at which one overtakes the current winner. Two parabolas
cross at most twice, so a set of H hypotheses has at most 2H - 1 pieces, and
the sweep costs O(pieces * H) time and O(H) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .detector import Area, hypothesis_stats
from .hypotheses import Hypothesis, _check_rho, pattern_groups
from .network import CumulativeStats

__all__ = [
    "IndistinguishableHypothesesError",
    "ScalarHypothesisSet",
    "missed_detection",
    "all_missed_detection",
    "pattern_hypothesis_sets",
    "area_errors",
    "area_max_error",
]

_SQRT2 = math.sqrt(2.0)
_MERGE_TOL = 1e-12


class IndistinguishableHypothesesError(ValueError):
    """Two hypotheses share (mu, sigma2, prior): the detector cannot separate them."""


@dataclass(frozen=True)
class ScalarHypothesisSet:
    """Hypotheses of one local scalar test: N(means[k], variances[k]) + log prior."""

    hypotheses: tuple[Hypothesis, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    log_priors: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.hypotheses)
        if n == 0:
            raise ValueError("hypothesis set must not be empty")
        if not (len(self.means) == len(self.variances) == len(self.log_priors) == n):
            raise ValueError("field lengths differ")
        for k, v in enumerate(self.variances):
            if not (v > 0.0):
                raise ValueError(f"sigma2 must be positive, got {v} for entry {k}")
        seen: dict[tuple[float, float, float], int] = {}
        for k, key in enumerate(zip(self.means, self.variances, self.log_priors)):
            if key in seen:
                raise IndistinguishableHypothesesError(
                    f"entries {seen[key]} and {k} share (mu, sigma2, prior) = {key}"
                )
            seen[key] = k

    def __len__(self) -> int:
        return len(self.hypotheses)

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[tuple[Hypothesis, float, float]],
        *,
        rho: float | None = None,
    ) -> "ScalarHypothesisSet":
        """Build from (hypothesis, mu, sigma2) rows.

        With ``rho`` set, each hypothesis gets the MAP log-prior offset
        ``|H| * ln(rho)``; otherwise priors are flat.
        """
        _check_rho(rho)
        hyps: list[Hypothesis] = []
        mus: list[float] = []
        vs: list[float] = []
        ws: list[float] = []
        for h, mu, v in entries:
            hyps.append(frozenset(h))
            mus.append(float(mu))
            vs.append(float(v))
            ws.append(0.0 if rho is None else len(h) * math.log(rho))
        return cls(tuple(hyps), tuple(mus), tuple(vs), tuple(ws))


def _winner_partition(hset: ScalarHypothesisSet) -> list[tuple[float, float, int]]:
    """(lo, hi, winner index) pieces tiling the real line, left to right.

    At -inf the widest parabola wins: largest variance, then lowest slope,
    then highest constant, then lowest index. From each cut the winner holds
    up to the nearest root beyond it at which another entry overtakes it.
    Every entry overtaking within 1e-12 (in scale units) of that root is a
    candidate, and the next winner is the candidate on top at the end of
    that window, read from the candidates' own pairwise roots: of entries
    meeting at one point the steepest there, then the widest; of entries
    crossing a hair apart, the one that stays above. A piece no wider than
    the window collapses into the cut before it, and neighbours with one
    winner merge, as when pairwise roots closer than the window collapse to
    one cut.
    """
    mu = hset.means
    var = hset.variances
    w = hset.log_priors
    n = len(mu)
    scale = max(1.0, max(abs(m) for m in mu), math.sqrt(max(var)))
    tol = _MERGE_TOL * scale
    # log-density of entry k: const_k + slope_k * x - half_prec_k * x^2
    half_prec = [0.5 / v for v in var]
    slope = [m / v for m, v in zip(mu, var)]
    sq = [m * m / (2.0 * v) for m, v in zip(mu, var)]
    log = math.log
    sqrt = math.sqrt
    nan = math.nan

    def crossings(i: int, k: int) -> tuple[float, float]:
        """For i < k, where ll_i - ll_k = a x^2 + b x + c falls through zero
        (k overtakes i) and where it rises through zero; nan where it never
        does. A double root is a touch, not a crossing."""
        a = half_prec[k] - half_prec[i]
        b = slope[i] - slope[k]
        c = (w[i] - w[k]) - 0.5 * log(var[i] / var[k]) - sq[i] + sq[k]
        if a != 0.0:
            disc = b * b - 4.0 * a * c
            if not disc > 0.0:
                return nan, nan
            d = sqrt(disc)
            return (-b - d) / (2.0 * a), (-b + d) / (2.0 * a)
        if b < 0.0:
            return -c / b, nan
        if b > 0.0:
            return nan, -c / b
        return nan, nan

    def minus_inf_order(k: int) -> tuple[float, float, float, int]:
        # equal variance and slope mean equal means, so the constants
        # differ by prior minus sq alone
        return (-var[k], slope[k], sq[k] - w[k], k)

    def on_top(j: int, k: int, x: float) -> int:
        """Which of j and k has the higher log-density just past x."""
        i, m = (j, k) if j < k else (k, j)
        fall, rise = crossings(i, m)
        # m is on top after a fall, i after a rise: the last crossing at or
        # before x decides, else the first one after it, else the order at -inf
        past = [(r, top) for r, top in ((fall, m), (rise, i)) if r <= x]
        if past:
            return max(past)[1]
        ahead = [(r, top) for r, top in ((fall, i), (rise, m)) if r > x]
        if ahead:
            return min(ahead)[1]
        return min(i, m, key=minus_inf_order)

    cur = min(range(n), key=minus_inf_order)
    pieces: list[tuple[float, float, int]] = []
    lo = cut = -math.inf
    while True:
        hits = []
        for j in range(n):
            if j < cur:
                r = crossings(j, cur)[1]
            elif j > cur:
                r = crossings(cur, j)[0]
            else:
                continue
            if r > cut:
                hits.append((r, j))
        if not hits:
            break
        hits.sort()
        near = hits[0][0]
        end = near + tol
        nxt = hits[0][1]
        for r, j in hits[1:]:
            if r > end:
                break
            nxt = on_top(nxt, j, end)
        if near - cut > tol:
            if pieces and pieces[-1][2] == cur:
                lo = pieces.pop()[0]
            pieces.append((lo, near, cur))
            lo = near
        cut = near
        cur = nxt
    if pieces and pieces[-1][2] == cur:
        lo = pieces.pop()[0]
    pieces.append((lo, math.inf, cur))
    return pieces


def _upper_tail(x: float) -> float:
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    return 0.5 * math.erfc(x / _SQRT2)


def _gauss_mass(lo: float, hi: float, mu: float, sd: float) -> float:
    """N(mu, sd^2) probability of (lo, hi), stable in both tails."""
    a = -math.inf if math.isinf(lo) else (lo - mu) / sd
    b = math.inf if math.isinf(hi) else (hi - mu) / sd
    if a >= 0.0:
        return max(0.0, _upper_tail(a) - _upper_tail(b))
    if b <= 0.0:
        return max(0.0, _upper_tail(-b) - _upper_tail(-a))
    # interval straddles the mean: both halves are O(1), erf is safe
    return 0.5 * math.erf(-a / _SQRT2) + 0.5 * math.erf(b / _SQRT2)


def missed_detection(hset: ScalarHypothesisSet, k: int) -> float:
    """P(detector picks some other hypothesis | entry k is true).

    Summed over the losing intervals directly, so tiny probabilities keep
    their relative accuracy.
    """
    mu = hset.means[k]
    sd = math.sqrt(hset.variances[k])
    return sum(
        _gauss_mass(lo, hi, mu, sd)
        for lo, hi, win in _winner_partition(hset)
        if win != k
    )


def all_missed_detection(hset: ScalarHypothesisSet) -> tuple[float, ...]:
    """Missed detection of every hypothesis from a single winner partition.

    Computed as one minus the winning mass, which costs one CDF pair per
    partition piece instead of one per (piece, hypothesis) pair; absolute
    accuracy is machine epsilon, ample for probabilities of interest.
    """
    correct = [0.0] * len(hset)
    for lo, hi, win in _winner_partition(hset):
        correct[win] += _gauss_mass(lo, hi, hset.means[win], math.sqrt(hset.variances[win]))
    return tuple(max(0.0, 1.0 - c) for c in correct)


def pattern_hypothesis_sets(
    area: Area,
    stats: CumulativeStats,
    *,
    max_outages: int | None,
    cap: int,
    rho: float | None,
) -> list[tuple[dict, ScalarHypothesisSet]]:
    """One scalar hypothesis set per satisfiable child-sensor sign pattern.

    Groups come from :func:`~outagekit.hypotheses.pattern_groups`, the same
    route :func:`~outagekit.detector.detect` takes from a sign pattern to its
    hypotheses; ``cap`` bounds the area's whole enumeration.
    """
    sensors = sorted(area.child_sensors)
    groups = pattern_groups(area.graph, sensors, max_outages=max_outages, cap=cap)

    out: list[tuple[dict, ScalarHypothesisSet]] = []
    for key in sorted(groups):
        pattern = dict(zip(sensors, key))
        entries = [(h, *hypothesis_stats(area, h, pattern, stats)) for h in groups[key]]
        out.append((pattern, ScalarHypothesisSet.from_entries(entries, rho=rho)))
    return out


def area_errors(
    area: Area,
    stats: CumulativeStats,
    *,
    max_outages: int | None,
    cap: int,
    rho: float | None,
) -> tuple[float, ...]:
    """Missed detection of every hypothesis of every satisfiable sign pattern.

    Values follow :func:`pattern_hypothesis_sets` order, patterns first and
    each pattern's hypotheses within it. A pattern with a single hypothesis
    contributes zero error.
    """
    out: list[float] = []
    for _, hset in pattern_hypothesis_sets(area, stats, max_outages=max_outages, cap=cap, rho=rho):
        if len(hset) == 1:
            out.append(0.0)
        else:
            out.extend(all_missed_detection(hset))
    return tuple(out)


def area_max_error(
    area: Area,
    stats: CumulativeStats,
    *,
    max_outages: int | None = 2,
    cap: int = 1_000_000,
    rho: float | None = None,
) -> float:
    """Worst missed-detection probability over all sign patterns and hypotheses.

    Patterns with no consistent hypothesis are skipped; a pattern with a
    single hypothesis contributes zero error.
    """
    return max(area_errors(area, stats, max_outages=max_outages, cap=cap, rho=rho), default=0.0)
