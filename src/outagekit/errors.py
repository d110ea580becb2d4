"""Exact missed-detection probabilities for scalar Gaussian hypothesis tests.

Each local detector reduces to picking among Gaussians N(mu_k, sigma2_k) from
one scalar observation. Decision boundaries are roots of pairwise
log-likelihood equalities (quadratics, linear when variances match), so
acceptance regions are finite interval unions and error probabilities come
out in closed form through the Gaussian CDF. No quadrature is involved; the
Monte Carlo cross-check, ``monte_carlo_error``, is a test oracle in
``tests/helpers.py``.

Boundary collection and winner assignment are vectorized: hypothesis sets
grow quadratically in edge count and the placement search evaluates many
thousands of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from .detector import Area, hypothesis_stats
from .hypotheses import Hypothesis, pattern_groups
from .network import CumulativeStats

__all__ = [
    "IndistinguishableHypothesesError",
    "ScalarHypothesisSet",
    "AcceptanceRegion",
    "acceptance_regions",
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

    def with_variance_shift(self, delta: float) -> "ScalarHypothesisSet":
        """Same test with ``delta`` added to every variance."""
        return ScalarHypothesisSet(
            self.hypotheses,
            self.means,
            tuple(v + delta for v in self.variances),
            self.log_priors,
        )


@dataclass(frozen=True)
class AcceptanceRegion:
    """Interval union on which one hypothesis wins the likelihood comparison."""

    hypothesis: Hypothesis
    intervals: tuple[tuple[float, float], ...]


# index pairs are kept for sets up to this size, about 6 MB in all; a larger
# set's partition costs far more than building its pairs afresh
PAIR_CACHE_MAX = 128


@cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, k=1)``. Set sizes repeat, and for a small
    set building the pairs costs as much as the rest of its partition."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _winner_partition(hset: ScalarHypothesisSet) -> list[tuple[float, float, int]]:
    """(lo, hi, winner index) pieces tiling the real line.

    Boundary candidates are all real roots of pairwise log-density
    equalities; roots closer than 1e-12 (in scale units) collapse to one
    cut, and adjacent intervals with equal argmax merge.
    """
    n = len(hset)
    if n == 1:
        return [(-math.inf, math.inf, 0)]
    mu = np.asarray(hset.means)
    var = np.asarray(hset.variances)
    w = np.asarray(hset.log_priors)

    i, j = _pair_indices(n) if n <= PAIR_CACHE_MAX else np.triu_indices(n, k=1)
    a = 0.5 / var[j] - 0.5 / var[i]
    b = mu[i] / var[i] - mu[j] / var[j]
    c = (
        (w[i] - w[j])
        - 0.5 * np.log(var[i] / var[j])
        - mu[i] ** 2 / (2.0 * var[i])
        + mu[j] ** 2 / (2.0 * var[j])
    )
    roots: list[np.ndarray] = []
    quad = a != 0.0
    if np.any(quad):
        disc = b[quad] ** 2 - 4.0 * a[quad] * c[quad]
        ok = disc >= 0.0
        if np.any(ok):
            aq = a[quad][ok]
            bq = b[quad][ok]
            sq = np.sqrt(disc[ok])
            roots.append((-bq - sq) / (2.0 * aq))
            roots.append((-bq + sq) / (2.0 * aq))
    lin = (~quad) & (b != 0.0)
    if np.any(lin):
        roots.append(-c[lin] / b[lin])

    scale = max(1.0, float(np.max(np.abs(mu))), float(np.max(np.sqrt(var))))
    if roots:
        allr = np.sort(np.concatenate(roots))
        keep = np.concatenate(([True], np.diff(allr) > _MERGE_TOL * scale))
        cuts = allr[keep]
    else:
        cuts = np.empty(0)

    span = 10.0 * float(np.max(np.sqrt(var))) + scale
    if cuts.size == 0:
        probes = np.array([float(np.mean(mu))])
    else:
        probes = np.concatenate(
            ([cuts[0] - span], 0.5 * (cuts[:-1] + cuts[1:]), [cuts[-1] + span])
        )
    ll = (
        w[:, None]
        - 0.5 * np.log(2.0 * np.pi * var)[:, None]
        - (probes[None, :] - mu[:, None]) ** 2 / (2.0 * var[:, None])
    )
    winners = np.argmax(ll, axis=0)

    bounds = np.concatenate(([-math.inf], cuts, [math.inf]))
    pieces: list[tuple[float, float, int]] = []
    start = 0
    for t in range(1, len(winners) + 1):
        if t == len(winners) or winners[t] != winners[start]:
            pieces.append((float(bounds[start]), float(bounds[t]), int(winners[start])))
            start = t
    return pieces


def acceptance_regions(hset: ScalarHypothesisSet) -> tuple[AcceptanceRegion, ...]:
    """Per-hypothesis winning intervals; together they tile the real line."""
    by_hyp: dict[int, list[tuple[float, float]]] = {k: [] for k in range(len(hset))}
    for lo, hi, win in _winner_partition(hset):
        by_hyp[win].append((lo, hi))
    return tuple(
        AcceptanceRegion(hset.hypotheses[k], tuple(by_hyp[k])) for k in range(len(hset))
    )


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
