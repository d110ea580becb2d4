"""Closed-form missed-detection probabilities for scalar Gaussian tests."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from helpers import (
    TRAP_PARENTS,
    TRAP_VARS,
    ScalarHypothesisSet,
    acceptance_regions,
    area_max_error_oracle,
    local_hypotheses,
    monte_carlo_error,
    tree_from,
    winner_partition_oracle,
)
from outagekit.detector import build_areas
from outagekit.errors import (
    _MERGE_TOL,
    IndistinguishableHypothesesError,
    _gauss_mass,
    _winner_partition,
    all_missed_detection,
    area_errors,
    area_max_error,
    missed_detection,
    pattern_hypothesis_sets,
)
from outagekit.network import cumulative_stats
from outagekit.placement import PlacementConfig
from outagekit.sim import ForecastModel, random_tree


def make_set(rows, rho=None):
    entries = [(frozenset({f"h{i}"}), mu, var) for i, (mu, var) in enumerate(rows)]
    return ScalarHypothesisSet.from_entries(entries, rho=rho)


def numeric_missed_detection(hset, k, span=12.0, n=400_001):
    """Quadrature oracle: integrate the densities directly, no boundary math.

    The winner indicator is discontinuous at region boundaries, so accuracy
    is limited to about one grid cell of density mass there.
    """
    sds = [math.sqrt(v) for v in hset.variances]
    lo = min(m - span * s for m, s in zip(hset.means, sds))
    hi = max(m + span * s for m, s in zip(hset.means, sds))
    xs = np.linspace(lo, hi, n)
    logd = np.empty((len(hset), n))
    for j in range(len(hset)):
        logd[j] = (
            hset.log_priors[j]
            - 0.5 * math.log(2 * math.pi * hset.variances[j])
            - (xs - hset.means[j]) ** 2 / (2 * hset.variances[j])
        )
    wins = logd.argmax(axis=0) == k
    fk = np.exp(logd[k] - hset.log_priors[k])
    return 1.0 - float(np.trapezoid(np.where(wins, fk, 0.0), xs))


def test_equal_variance_pair():
    hset = make_set([(0.0, 1.0), (2.0, 1.0)])
    # a unit gap to the shared boundary on each side
    expected = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    assert missed_detection(hset, 0) == pytest.approx(expected, abs=1e-12)
    assert missed_detection(hset, 1) == pytest.approx(expected, abs=1e-12)
    regions = acceptance_regions(hset)
    assert regions[0].intervals == ((-math.inf, 1.0),)
    assert regions[1].intervals == ((1.0, math.inf),)


def test_equal_mean_unequal_variance_pair():
    hset = make_set([(0.0, 1.0), (0.0, 4.0)])
    # the tight density wins a symmetric interval, the broad one both tails
    r = math.sqrt(1.0 * 4.0 * math.log(4.0) / 3.0)
    regions = acceptance_regions(hset)
    (lo, hi), = regions[0].intervals
    assert lo == pytest.approx(-r)
    assert hi == pytest.approx(r)
    assert len(regions[1].intervals) == 2
    assert missed_detection(hset, 0) == pytest.approx(math.erfc(r / math.sqrt(2.0)))
    assert missed_detection(hset, 1) == pytest.approx(
        math.erf(r / (2.0 * math.sqrt(2.0)))
    )


def test_single_hypothesis_never_misses():
    hset = make_set([(3.0, 0.5)])
    assert missed_detection(hset, 0) == 0.0
    assert acceptance_regions(hset)[0].intervals == ((-math.inf, math.inf),)


def test_region_masses_tile_to_one():
    rng = random.Random(2)
    for _ in range(30):
        k_count = rng.randint(2, 7)
        hset = make_set(
            [(rng.uniform(0, 5), rng.uniform(0.05, 3)) for _ in range(k_count)],
            rho=rng.choice([None, 0.3]),
        )
        regions = acceptance_regions(hset)
        for k in range(k_count):
            total = 0.0
            sd = math.sqrt(hset.variances[k])
            for reg in regions:
                for lo, hi in reg.intervals:
                    a = 0.5 * math.erfc((lo - hset.means[k]) / (sd * math.sqrt(2)))
                    b = 0.5 * math.erfc((hi - hset.means[k]) / (sd * math.sqrt(2)))
                    total += a - b
            assert total == pytest.approx(1.0, abs=1e-10)


def test_bulk_errors_match_single_and_quadrature():
    rng = random.Random(3)
    for _ in range(12):
        k_count = rng.randint(2, 6)
        hset = make_set(
            [(rng.uniform(0, 4), rng.uniform(0.05, 2)) for _ in range(k_count)]
        )
        bulk = all_missed_detection(hset)
        assert len(bulk) == k_count
        for k in range(k_count):
            assert bulk[k] == pytest.approx(missed_detection(hset, k), abs=1e-12)
            assert bulk[k] == pytest.approx(numeric_missed_detection(hset, k), abs=1e-4)


def test_monte_carlo_agrees_with_closed_form():
    rng = random.Random(4)
    for i in range(8):
        k_count = rng.randint(2, 5)
        hset = make_set(
            [(rng.uniform(0, 4), rng.uniform(0.05, 2)) for _ in range(k_count)]
        )
        k = rng.randrange(k_count)
        analytic = missed_detection(hset, k)
        p, se = monte_carlo_error(hset, k, 200_000, seed=100 + i)
        assert se > 0.0
        assert abs(p - analytic) <= 3.0 * se + 1e-9
    p1, se1 = monte_carlo_error(hset, 0, 10_000, seed=9)
    p2, _ = monte_carlo_error(hset, 0, 10_000, seed=9)
    assert p1 == p2


def test_dominated_hypothesis_never_wins():
    # same distribution, strictly lower prior: zero acceptance everywhere
    entries = [
        (frozenset({"a"}), 2.0, 0.5),
        (frozenset({"b", "c"}), 2.0, 0.5),
    ]
    hset = ScalarHypothesisSet.from_entries(entries, rho=0.3)
    errs = all_missed_detection(hset)
    assert errs[0] == pytest.approx(0.0, abs=1e-12)
    assert errs[1] == pytest.approx(1.0, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError, match="empty"):
        ScalarHypothesisSet((), (), (), ())
    with pytest.raises(ValueError, match="lengths"):
        ScalarHypothesisSet((frozenset(),), (0.0, 1.0), (1.0,), (0.0,))
    with pytest.raises(ValueError, match="positive"):
        make_set([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(IndistinguishableHypothesesError):
        make_set([(1.0, 0.5), (1.0, 0.5)])


def test_priors_and_shift():
    hset = make_set([(0.0, 1.0), (2.0, 1.0)], rho=0.5)
    assert hset.log_priors == (math.log(0.5), math.log(0.5))
    entries = [(frozenset(), 0.0, 1.0), (frozenset({"x", "y"}), 2.0, 1.0)]
    hs2 = ScalarHypothesisSet.from_entries(entries, rho=0.5)
    assert hs2.log_priors == (0.0, 2.0 * math.log(0.5))
    shifted = hset.with_variance_shift(0.25)
    assert shifted.variances == (1.25, 1.25)
    assert shifted.means == hset.means
    assert shifted.log_priors == hset.log_priors


def test_variance_shift_monotone_on_load_shaped_sets():
    # distinct integer means with variance proportional to the mean, the
    # shape subtree sums with a shared noise ratio take
    rng = random.Random(42)
    for _ in range(500):
        k_count = rng.randint(2, 8)
        total = rng.randint(k_count, 40)
        means = rng.sample(range(1, total + 1), k_count)
        kappa = rng.uniform(0.05, 0.6)
        hset = make_set([(float(m), kappa**2 * m) for m in means])
        base = all_missed_detection(hset)
        for delta in (0.01, 0.1, 1.0):
            shifted = all_missed_detection(hset.with_variance_shift(delta))
            for a, b in zip(base, shifted):
                assert b >= a - 1e-10


def test_pattern_sets_match_per_pattern_enumeration():
    rng = random.Random(88)
    model = ForecastModel("fixed_kappa", kappa=0.2)
    checked = 0
    while checked < 60:
        tree = model.apply(random_tree(rng.randint(5, 14), seed=rng.randrange(10**6)))
        stats = cumulative_stats(tree)
        edges = list(tree.edges)
        root_edge = tree.children[tree.root][0]
        extra = rng.sample(edges, k=min(len(edges), rng.randint(0, 3)))
        for area in build_areas(tree, {root_edge, *extra}):
            if not area.edges:
                continue
            checked += 1
            got = {
                tuple(sorted(p.items())): set(h.hypotheses)
                for p, h in pattern_hypothesis_sets(
                    area, stats, max_outages=2, cap=10**6, rho=None
                )
            }
            sensors = sorted(area.child_sensors)
            for mask in range(2 ** len(sensors)):
                pattern = {s: bool(mask >> i & 1) for i, s in enumerate(sensors)}
                want = set(
                    local_hypotheses(area.graph, pattern, max_outages=2, cap=10**6)
                )
                key = tuple(sorted(pattern.items()))
                assert got.get(key, set()) == want


def test_area_errors_list_every_pattern_hypothesis():
    rng = random.Random(41)
    model = ForecastModel("fixed_kappa", kappa=0.25)
    singletons = 0
    for _ in range(40):
        tree = model.apply(random_tree(rng.randint(4, 14), seed=rng.randrange(10**6)))
        stats = cumulative_stats(tree)
        root_edge = tree.children[tree.root][0]
        extra = rng.sample(list(tree.edges), k=min(len(tree.edges), rng.randint(0, 4)))
        rho = rng.choice([None, 0.05])
        for area in build_areas(tree, {root_edge, *extra}):
            kw = dict(max_outages=rng.choice([1, 2]), cap=10**6, rho=rho)
            errors = area_errors(area, stats, **kw)
            want: list[float] = []
            for _, hset in pattern_hypothesis_sets(area, stats, **kw):
                if len(hset) == 1:
                    singletons += 1
                want.extend(all_missed_detection(hset))
            assert errors == tuple(want)
            worst = max(errors, default=0.0)
            assert worst == area_max_error(area, stats, **kw)
            assert worst == area_max_error_oracle(area, stats, **kw)
    assert singletons > 0


def test_trap_area_values(trap_tree):
    stats = cumulative_stats(trap_tree)
    areas = {a.root_sensor: a for a in build_areas(trap_tree, ("e1", "e2", "e3"))}
    sets = pattern_hypothesis_sets(
        areas["e2"], stats, max_outages=2, cap=10**6, rho=None
    )
    # both sign patterns carry the same three moment pairs
    for _, hset in sets:
        rows = sorted(zip(hset.means, hset.variances))
        assert rows == [
            (pytest.approx(1.0), pytest.approx(0.0125)),
            (pytest.approx(2.0), pytest.approx(0.1031)),
            (pytest.approx(3.0), pytest.approx(0.1638)),
        ]
    err = area_max_error(areas["e2"], stats, max_outages=2, cap=10**6, rho=None)
    assert err == pytest.approx(0.096125, abs=1e-5)


def test_fully_separated_area_has_zero_error(trap_tree):
    stats = cumulative_stats(trap_tree)
    areas = {a.root_sensor: a for a in build_areas(trap_tree, ("e1", "e2", "e5"))}
    # every sign pattern of this area pins a single hypothesis
    err = area_max_error(areas["e1"], stats, max_outages=2, cap=10**6, rho=None)
    assert err == 0.0


def test_nested_area_error_grows(trap_tree):
    from outagekit.placement import evaluate_areas

    small = max(e for _, e in evaluate_areas(trap_tree, ("e1", "e2", "e3")))
    merged = max(e for _, e in evaluate_areas(trap_tree, ("e1", "e3")))
    assert merged >= small - 1e-12


def random_partition_set(rng, kind):
    """One seeded set of 2-60 entries of the given kind (0-4)."""
    n = rng.randint(2, 60)
    if kind == 4:
        # near-ties: up to three entries whose log-densities meet at x0
        x0 = rng.uniform(-2.0, 2.0)
        meet = rng.randint(2, 3)
        means, variances, priors = [], [], []
        for k in range(n):
            mu, var = rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0)
            if k < meet:
                at_x0 = -0.5 * math.log(2.0 * math.pi * var) - (x0 - mu) ** 2 / (2.0 * var)
                prior = rng.choice([0.0, 1e-15, -1e-15]) - at_x0
            else:
                prior = rng.uniform(-3.0, 0.0)
            means.append(mu)
            variances.append(var)
            priors.append(prior)
        hyps = tuple(frozenset({f"h{k}"}) for k in range(n))
        return ScalarHypothesisSet(hyps, tuple(means), tuple(variances), tuple(priors))
    entries = []
    for k in range(n):
        if kind == 0:
            mu, var = rng.uniform(0.0, 10.0), rng.uniform(0.01, 4.0)
        elif kind == 1:  # equal variances
            mu, var = rng.uniform(0.0, 10.0), 0.5
        elif kind == 2:  # equal means
            mu, var = float(rng.randint(0, 3)), rng.uniform(0.01, 4.0)
        else:  # load-shaped: integer means, variance proportional to the mean
            m = rng.randint(1, 80)
            mu, var = float(m), 0.09 * m
        edges = frozenset(f"e{x}" for x in range(rng.randint(0, 3))) | {f"h{k}"}
        entries.append((edges, mu, var))
    return ScalarHypothesisSet.from_entries(entries, rho=rng.choice([None, 0.01, 0.3, 0.9]))


def test_sweep_partition_matches_all_pairs_oracle():
    """1,000 seeded sets: random, equal variances, equal means, load-shaped
    and near-ties, flat and rho priors. Same winners in the same order, cuts
    within the merge tolerance, missed detections within 1e-13 beyond what
    those cut differences move.

    Where three entries meet, the oracle cuts at the first root of the
    merged cluster, which may be the crossing of two entries below the
    winner; the sweep cuts where the winner is overtaken. Each such shift
    moves a hypothesis's mass by at most its width times the density peak.
    """
    rng = random.Random(1515)
    checked = 0
    while checked < 1000:
        try:
            hset = random_partition_set(rng, checked % 5)
        except IndistinguishableHypothesesError:
            continue
        checked += 1
        got = _winner_partition(hset)
        want = winner_partition_oracle(hset)
        assert [p[2] for p in got] == [p[2] for p in want]
        scale = max(1.0, max(abs(m) for m in hset.means), math.sqrt(max(hset.variances)))
        shift = 0.0
        for (lo, _, _), (lo_want, _, _) in zip(got[1:], want[1:]):
            assert abs(lo - lo_want) <= _MERGE_TOL * scale
            shift += abs(lo - lo_want)
        correct = [0.0] * len(hset)
        for lo, hi, win in want:
            correct[win] += _gauss_mass(lo, hi, hset.means[win], math.sqrt(hset.variances[win]))
        for err, c, var in zip(all_missed_detection(hset), correct, hset.variances):
            moved = shift / math.sqrt(2.0 * math.pi * var)
            assert err == pytest.approx(max(0.0, 1.0 - c), abs=1e-13 + moved)


def test_entries_crossing_a_hair_apart_go_to_the_one_on_top():
    # b and c overtake a within the merge tolerance of x = 0.5, c the
    # steeper; b stays on top until the b|c midpoint, x = 1
    hset = make_set([(0.0, 1.0), (1.0, 1.0), (1.0 + 2.0**-40, 1.0)])
    tail = 0.5 * math.erfc(0.5 / math.sqrt(2.0))
    assert [win for _, _, win in _winner_partition(hset)] == [0, 1, 2]
    errs = all_missed_detection(hset)
    assert errs[0] == pytest.approx(tail, abs=1e-12)
    assert errs[1] == pytest.approx(tail + 0.5, abs=1e-12)
    assert errs[2] == pytest.approx(0.5, abs=1e-12)


def test_far_cut_keeps_the_near_winner():
    # c is b shifted by 1e-9 with a lower prior, so it overtakes b only near
    # x = 1e9, where log-densities are too large to tell the priors apart;
    # b wins everything above the a|b midpoint up to there
    hset = ScalarHypothesisSet(
        (frozenset({"a"}), frozenset({"c"}), frozenset({"b"})),
        (0.0, 1.0 + 1e-9, 1.0),
        (1.0, 1.0, 1.0),
        (0.0, -1.0, 0.0),
    )
    tail = 0.5 * math.erfc(0.5 / math.sqrt(2.0))
    assert [win for _, _, win in _winner_partition(hset)] == [0, 2, 1]
    assert all_missed_detection(hset) == pytest.approx((tail, 1.0, tail), abs=1e-12)


@pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1.0])
def test_rho_must_be_finite_and_positive(rho):
    with pytest.raises(ValueError, match="rho"):
        make_set([(0.0, 1.0), (2.0, 1.0)], rho=rho)
    with pytest.raises(ValueError, match="rho"):
        PlacementConfig(rho=rho)
