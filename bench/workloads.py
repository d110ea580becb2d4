"""The three benchmark workloads: what one pass does and how its outputs are checked.

Every workload runs closed-loop with a single caller: the next library call
starts when the previous one has returned. A pass is a fixed unit of work;
the runner repeats passes until its time is up. The end-to-end metrics come
from two kinds of samples a pass records:

* ``call`` -- one request-sized library call: an optimal placement of one
  feeder (plan_grid) or one ``detect`` on one observation (detect_*);
* ``batch`` -- one bulk library call: a whole-grid ``sim.sweep`` (plan_grid)
  or one ``sim.empirical_detection_rate`` run (detect_*).

A pass only calls the library and keeps its outputs; ``check`` runs after
the passes, outside any trace, so checking adds nothing to the layer counts.
Library functions are looked up through their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from outagekit import cli, detector, errors, network, placement, sim

import inputs

# a placement meets its target within the library's own feasibility slack,
# and a flow reads zero at or below the detector's share of the total load
FEAS_SLACK = placement.FEAS_SLACK
FLOW_EPS_FRACTION = detector.FLOW_EPS_FRACTION
# allowed distance of the Monte Carlo rate from the closed form, in standard errors
MC_Z = 4.0


@dataclass
class Record:
    """Samples, outputs and failures of the passes of one run."""

    call_s: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _op(tracer, label: str):
    return tracer.operation(label) if tracer is not None else contextlib.nullcontext()


def _timed(rec: Record, samples: list, label: str, fn, *args, **kwargs):
    """Run one library operation; count it, time it, and record a raise as a failure."""
    rec.attempted += 1
    start = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted and the run goes on
        rec.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None
    samples.append(perf_counter() - start)
    return result


def _max_error(area_errors) -> float:
    return max((e for _, e in area_errors), default=0.0)


class PlanGrid:
    """The planner's path: a density/error sweep and optimal placements."""

    name = "plan_grid"

    def __init__(self, gen: inputs.Generator):
        self.gen = gen
        self.config = placement.PlacementConfig(max_outages=inputs.MAX_OUTAGES)

    def setup_files(self) -> tuple[list[str], str | None]:
        return self.gen.plan_pass(0)[1], None

    def prepare(self, tracer=None) -> None:
        """Nothing to load ahead: every pass reads fresh inputs."""

    def run_pass(self, p: int, rec: Record, tracer=None) -> None:
        cfg_path, feeder_paths = self.gen.plan_pass(p)
        with open(cfg_path) as fh:
            raw = json.load(fh)
        cfg = sim.SweepConfig(
            **{**raw, "kappas": tuple(raw["kappas"]), "targets": tuple(raw["targets"])}
        )
        with _op(tracer, "sweep"):
            result = _timed(rec, rec.batch_s, f"sweep {cfg_path}", sim.sweep, cfg)
        rec.outputs.append(("sweep", p, cfg, None if result is None else result.rows))

        for path in feeder_paths:
            with _op(tracer, "optimal"):
                tree, _ = network.load_feeder(path)
                found = _timed(
                    rec,
                    rec.call_s,
                    f"optimal {path}",
                    placement.solve_feasibility,
                    tree,
                    inputs.TARGET,
                    mode="optimal",
                    config=self.config,
                )
            rec.outputs.append(("optimal", path, None if found is None else found.sensors))

    def check(self, rec: Record) -> dict:
        first_sweep = True
        for out in rec.outputs:
            if out[0] == "sweep" and out[3] is not None:
                self._check_sweep(out[2], out[3], rec, rederive=first_sweep)
                first_sweep = False
            elif out[0] == "optimal" and out[2] is not None:
                self._check_optimal(out[1], out[2], rec)
        return {}

    def _check_sweep(self, cfg, rows, rec: Record, *, rederive: bool) -> None:
        """Every grid point meets its target.

        ``SweepResult`` keeps each grid point's error list, not its sensor
        set, so each row is checked through its worst analytic error. For
        the run's first sweep the placements are also derived again and
        re-evaluated with ``placement.evaluate_areas``.
        """
        bad = [r for r in rows if not (r.max_err <= r.target + FEAS_SLACK)]
        if rederive:
            base = sim.random_tree(cfg.n_vertices, seed=cfg.seed)
            for row in rows:
                tree = sim.ForecastModel(mode="fixed_kappa", kappa=row.kappa).apply(base)
                again = placement.solve_feasibility(tree, row.target, config=self.config)
                worst = _max_error(placement.evaluate_areas(tree, again.sensors, config=self.config))
                if len(again.sensors) != row.n_sensors or not (worst <= row.target + FEAS_SLACK):
                    bad.append(row)
        if bad:
            rec.fail(f"sweep seed {cfg.seed}: grid point {bad[0]} misses its target")

    def _check_optimal(self, path: str, sensors, rec: Record) -> None:
        """The re-evaluated placement meets the target and uses no more sensors than greedy."""
        tree, _ = network.load_feeder(path)
        worst = _max_error(placement.evaluate_areas(tree, sensors, config=self.config))
        greedy = placement.solve_feasibility(tree, inputs.TARGET, config=self.config)
        if not (worst <= inputs.TARGET + FEAS_SLACK) or len(sensors) > len(greedy.sensors):
            rec.fail(
                f"optimal {path}: re-evaluated error {worst}, {len(sensors)} sensors "
                f"against greedy's {len(greedy.sensors)}"
            )


class DetectStream:
    """The operator's path: observations sent one at a time to ``detect``.

    Every observation carries forecasts equal to the feeder's own means, so
    an observation sent again must get the same decision.
    """

    name = "detect_stream"
    repeats_identical = True

    def __init__(self, gen: inputs.Generator):
        self.sizes = gen.sizes
        self.paths = gen.detect_inputs()
        with open(self.paths["observations"]) as fh:
            self.data = json.load(fh)
        self.mc_outage = frozenset(self.data["mc_outage"])
        self.cli_obs = os.path.join(gen.dir, f"{self.name}-cli-obs.json")
        self.cli_out = os.path.join(gen.dir, f"{self.name}-cli-out.json")
        with open(self.cli_obs, "w") as fh:
            json.dump(self.observation(0), fh)

    def observation(self, i: int) -> dict:
        """JSON of the ``i``-th observation sent to ``detect``."""
        base = self.data["base"][i % len(self.data["base"])]
        return {"flows": base["flows"], "forecasts": self.data["forecasts"]}

    def setup_files(self) -> tuple[list[str], str | None]:
        return [self.paths["feeder"]], self.cli_obs

    def prepare(self, tracer=None) -> None:
        """Load the feeder and make one warm-up ``detect`` call."""
        with _op(tracer, "load"):
            self.tree, self.sensors = network.load_feeder(self.paths["feeder"])
            warm = detector.observation_from_json(self.observation(0))
            detector.detect(self.tree, self.sensors, warm, max_outages=inputs.MAX_OUTAGES)

    def run_pass(self, p: int, rec: Record, tracer=None) -> None:
        per = self.sizes.detect_per_pass
        for i in range(p * per, (p + 1) * per):
            obs = detector.observation_from_json(self.observation(i))
            with _op(tracer, "detect"):
                found = _timed(
                    rec,
                    rec.call_s,
                    f"detect observation {i}",
                    detector.detect,
                    self.tree,
                    self.sensors,
                    obs,
                    max_outages=inputs.MAX_OUTAGES,
                )
            rec.outputs.append(("detect", i, None if found is None else tuple(sorted(found.hypothesis))))

        if p == 0:
            self._run_cli(rec, tracer)

        with _op(tracer, "mc"):
            found = _timed(
                rec,
                rec.batch_s,
                f"monte carlo pass {p}",
                sim.empirical_detection_rate,
                self.tree,
                self.sensors,
                self.mc_outage,
                self.sizes.mc_trials,
                seed=inputs.derive(self.data["mc_seed"], "pass", p),
                max_outages=inputs.MAX_OUTAGES,
            )
        rec.outputs.append(("mc", p, found))

    def _run_cli(self, rec: Record, tracer) -> None:
        """One in-process ``outagekit detect`` on the first observation."""
        rec.attempted += 1
        with _op(tracer, "cli"):
            code = cli.main(
                ["detect", "--feeder", self.paths["feeder"], "--obs", self.cli_obs, "--out", self.cli_out]
            )
        shown = None
        if code == 0:
            with open(self.cli_out) as fh:
                shown = json.load(fh)["global"]
        rec.outputs.append(("cli", code, shown))

    def check(self, rec: Record) -> dict:
        """Per-call sign checks and the CLI's answer; then the whole-run checks.

        The input placement must meet its target under
        ``placement.evaluate_areas``, and the Monte Carlo rate must agree with
        the closed form within ``MC_Z`` standard errors.
        """
        eps = FLOW_EPS_FRACTION * sum(self.tree.mean[v] for v in self.tree.edges)
        library = sorted(
            detector.detect(
                self.tree,
                self.sensors,
                detector.observation_from_json(self.observation(0)),
                max_outages=inputs.MAX_OUTAGES,
            ).hypothesis
        )
        below: dict[str, frozenset] = {}
        first: dict[int, tuple] = {}
        wrong = 0.0
        trials = 0
        for out in rec.outputs:
            if out[0] == "detect" and out[2] is not None:
                i, decided = out[1], out[2]
                if self._check_signs(i, decided, eps, below, rec) and self.repeats_identical:
                    seen = first.setdefault(i % len(self.data["base"]), decided)
                    if seen != decided:
                        rec.fail(f"detect observation {i}: {list(decided)} after {list(seen)}")
            elif out[0] == "cli":
                if out[1] != 0 or out[2] != library:
                    rec.fail(f"cli detect: exit {out[1]}, global {out[2]}")
            elif out[0] == "mc" and out[2] is not None:
                wrong += out[2][0] * self.sizes.mc_trials
                trials += self.sizes.mc_trials

        config = placement.PlacementConfig(max_outages=inputs.MAX_OUTAGES)
        rec.attempted += 1
        worst = _max_error(placement.evaluate_areas(self.tree, self.sensors, config=config))
        if not (worst <= inputs.TARGET + FEAS_SLACK):
            rec.fail(f"detect placement: re-evaluated error {worst} over target")
        report = {"sensors": len(self.sensors), "placement_max_error": worst}
        if trials:
            rec.attempted += 1
            predicted = closed_form_error(self.tree, self.sensors, self.mc_outage)
            rate = wrong / trials
            se = math.sqrt(max(predicted * (1.0 - predicted), 1.0 / trials) / trials)
            report["monte_carlo"] = {
                "outage": sorted(self.mc_outage),
                "trials": trials,
                "rate": rate,
                "closed_form": predicted,
                "stderr": se,
                "z_allowed": MC_Z,
            }
            if abs(rate - predicted) > MC_Z * se:
                rec.fail(f"monte carlo rate {rate} vs closed form {predicted} (se {se})")
        return report

    def _check_signs(self, i: int, decided: tuple, eps: float, below: dict, rec: Record) -> bool:
        """A sensor reads zero exactly when a decided edge sits at or above it."""
        dark: set = set()
        for e in decided:
            if e not in below:
                below[e] = frozenset(self.tree.descendant_vertices(e))
            dark |= below[e]
        flows = self.data["base"][i % len(self.data["base"])]["flows"]
        for s in self.sensors:
            if (abs(flows[s]) <= eps) != (s in dark):
                rec.fail(f"detect observation {i}: sensor {s} reads {flows[s]} against {list(decided)}")
                return False
        return True


class DetectDrift(DetectStream):
    """As ``detect_stream``, but each observation's forecast means are rescaled.

    Observation ``i`` scales every forecast mean by its own seeded factor in
    [0.9, 1.1], as a rolling forecast would, so anything keyed on the
    forecast moments misses on every call.
    """

    name = "detect_drift"
    repeats_identical = False

    def observation(self, i: int) -> dict:
        base = self.data["base"][i % len(self.data["base"])]
        rng = np.random.default_rng(inputs.derive(self.data["drift_seed"], "call", i))
        factor = float(rng.uniform(*inputs.DRIFT_RANGE))
        forecasts = {v: m * factor for v, m in self.data["forecasts"].items()}
        return {"flows": base["flows"], "forecasts": forecasts}


WORKLOADS = {w.name: w for w in (PlanGrid, DetectStream, DetectDrift)}


def closed_form_error(tree, sensors, outage: frozenset) -> float:
    """Probability that ``detect`` misses ``outage``: 1 - prod(1 - p_area).

    Areas see disjoint loads, so their decisions are independent. An area
    whose root sensor is live decides among the hypotheses of the sign
    pattern the outage induces and misses with ``errors.missed_detection``
    of its true local hypothesis; a dark area decides nothing.
    """
    stats = network.cumulative_stats(tree)
    correct = 1.0
    for area in detector.build_areas(tree, sensors):
        if any(tree.is_ancestor_edge(e, area.root_sensor) for e in outage):
            continue
        local = frozenset(outage & set(area.edges))
        for _, hset in errors.pattern_hypothesis_sets(
            area, stats, max_outages=inputs.MAX_OUTAGES, cap=1_000_000, rho=None
        ):
            if local in hset.hypotheses:
                correct *= 1.0 - errors.missed_detection(hset, hset.hypotheses.index(local))
                break
        else:
            raise ValueError(f"outage {sorted(outage)} has no hypothesis in area {area.root_sensor}")
    return 1.0 - correct
