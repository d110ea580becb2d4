"""Seeded input generator for the benchmark.

The workload seed goes in; JSON files come out. The measured code reads only
these files: feeder JSON (with its sensor list), sweep configurations and
observations. The same seed always writes the same bytes.

Feeders come from ``sim.random_tree`` and ``sim.ForecastModel`` applies the
forecast noise, both seeded from the workload seed. The 1,000-vertex detect
feeder needs a greedy placement (seconds of work), so its files are cached
per seed and size under the work directory and shared by both detect
workloads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from outagekit import network, placement, sim


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    tag: str
    # plan_grid: one sweep tree and opt_per_pass optimal feeders per pass
    sweep_vertices: int
    opt_vertices: int
    opt_per_pass: int
    # detect_*: feeder size, base observations, detect calls and MC trials per pass
    detect_vertices: int
    base_observations: int
    detect_per_pass: int
    mc_trials: int
    setup_repeats: int


FULL = Sizes(
    tag="full",
    sweep_vertices=100,
    opt_vertices=20,
    opt_per_pass=20,
    detect_vertices=1000,
    base_observations=240,
    detect_per_pass=20,
    mc_trials=10,
    setup_repeats=8,
)

TINY = Sizes(
    tag="tiny",
    sweep_vertices=24,
    opt_vertices=10,
    opt_per_pass=3,
    detect_vertices=40,
    base_observations=12,
    detect_per_pass=6,
    mc_trials=400,
    setup_repeats=2,
)

SWEEP_KAPPAS = (0.01, 0.3)
SWEEP_TARGETS = (0.05, 0.1, 0.2, 0.3)
KAPPA = 0.3
TARGET = 0.2
MAX_OUTAGES = 2
DRIFT_RANGE = (0.9, 1.1)


def derive(seed: int, stream: str, index: int = 0) -> int:
    """Independent 32-bit seed for one named input stream of a workload seed."""
    tag = int.from_bytes(stream.encode(), "little")
    return int(np.random.SeedSequence([seed % 2**64, tag, index]).generate_state(1)[0])


def _write_json(path: str, data) -> str:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)
    return path


def _forecast_feeder(n: int, seed: int) -> network.Tree:
    tree = sim.random_tree(n, seed=seed)
    return sim.ForecastModel(mode="fixed_kappa", kappa=KAPPA).apply(tree)


class Generator:
    """Writes the inputs of one workload seed under ``work_dir``."""

    def __init__(self, work_dir: str, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.dir = os.path.join(work_dir, f"inputs-{sizes.tag}-{seed}")
        self.cache_dir = os.path.join(work_dir, "cache")
        os.makedirs(self.dir, exist_ok=True)
        os.makedirs(self.cache_dir, exist_ok=True)

    # -- plan_grid -------------------------------------------------------

    def plan_pass(self, p: int) -> tuple[str, list[str]]:
        """Sweep configuration and optimal-placement feeders of pass ``p``.

        Every pass gets a fresh sweep tree and fresh feeders, so a run
        averages over many seeded feeders instead of timing one.
        """
        s = self.sizes
        cfg_path = os.path.join(self.dir, f"sweep-{p}.json")
        if not os.path.exists(cfg_path):
            _write_json(
                cfg_path,
                {
                    "kappas": list(SWEEP_KAPPAS),
                    "targets": list(SWEEP_TARGETS),
                    "n_vertices": s.sweep_vertices,
                    "seed": derive(self.seed, "sweep", p),
                    "mode": "greedy",
                    "max_outages": MAX_OUTAGES,
                },
            )
        feeders = []
        for j in range(p * s.opt_per_pass, (p + 1) * s.opt_per_pass):
            path = os.path.join(self.dir, f"opt-{j}.json")
            if not os.path.exists(path):
                tree = _forecast_feeder(s.opt_vertices, derive(self.seed, "opt", j))
                _write_json(path, network.dump_feeder(tree, []))
            feeders.append(path)
        return cfg_path, feeders

    # -- detect_stream / detect_drift -----------------------------------

    def detect_inputs(self) -> dict:
        """Feeder with its greedy sensors, base observations and the MC outage.

        Observations come from ``sim.simulate_outage``: a third each with no
        outage, one failed edge and two failed edges, edges drawn uniformly
        and the pairs drawn as antichains. The forecasts every observation
        carries are stored once, as ``forecasts``.
        """
        s = self.sizes
        stem = os.path.join(self.cache_dir, f"detect-{s.tag}-{self.seed}")
        paths = {
            "feeder": stem + "-feeder.json",
            "observations": stem + "-obs.json",
        }
        if all(os.path.exists(p) for p in paths.values()):
            return paths

        tree = _forecast_feeder(s.detect_vertices, derive(self.seed, "feeder"))
        config = placement.PlacementConfig(max_outages=MAX_OUTAGES)
        sensors = placement.solve_feasibility(tree, TARGET, config=config).sensors

        rng = np.random.default_rng(derive(self.seed, "observations"))
        edges = tree.edges
        base = []
        for i in range(s.base_observations):
            outage = _draw_outage(tree, rng, i % 3)
            obs = sim.simulate_outage(tree, sensors, outage, rng=rng)
            base.append({"outage": sorted(outage), "flows": dict(obs.flows)})
        non_root = [e for e in edges if e != edges[0]]
        mc_edge = non_root[int(rng.integers(len(non_root)))]

        _write_json(paths["feeder"], network.dump_feeder(tree, sensors))
        _write_json(
            paths["observations"],
            {
                "forecasts": {v: tree.mean[v] for v in edges},
                "base": base,
                "mc_outage": [mc_edge],
                "mc_seed": derive(self.seed, "mc"),
                "drift_seed": derive(self.seed, "drift"),
            },
        )
        return paths


def _draw_outage(tree: network.Tree, rng: np.random.Generator, k: int) -> frozenset:
    """``k`` distinct failed edges, uniform over the antichains of that size.

    Draws whole sets and rejects any with one edge at or below another.
    """
    edges = tree.edges
    while True:
        chosen = [edges[int(i)] for i in rng.integers(len(edges), size=k)]
        if len(set(chosen)) == k and all(
            not tree.is_ancestor_edge(a, b) for a in chosen for b in chosen if a != b
        ):
            return frozenset(chosen)
