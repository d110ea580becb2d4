"""Command-line front end.

Subcommands: enumerate, detect, evaluate, place, simulate, sweep. Outputs are
JSON (CSV for sweep tables) on stdout unless --out is given. Exit codes:
0 success, 1 malformed input (bad files, bad arguments), 2 the computation
cannot be completed (inconsistent observation, enumeration cap, placement
limits); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from .detector import DetectionError, detect, observation_from_json
from .hypotheses import EnumerationCapError, enumerate_unique
from .network import FeederFormatError, branch_decompose, load_feeder
from .placement import (
    MODES,
    PlacementConfig,
    PlacementError,
    evaluate_areas,
    solve_budget,
    solve_feasibility,
)
from .sim import (
    SweepConfig,
    empirical_detection_rate,
    sweep,
    write_sweep_csv,
    write_sweep_histograms,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for infeasibility
    def error(self, message: str):  # type: ignore[override]
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FeederFormatError(f"cannot read {path!r}: {exc}") from exc


def _load_sensor_list(path: str) -> list[str]:
    data = _load_json(path)
    if isinstance(data, dict) and "sensors" in data:
        data = data["sensors"]
    if not isinstance(data, list):
        raise FeederFormatError("placement file must hold a sensor list")
    return [str(e) for e in data]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numbers(value: object, n: int | None = None) -> bool:
    return (
        isinstance(value, list)
        and (n is None or len(value) == n)
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    )


# the sweep config keys passed to SweepConfig, with the JSON values each takes
_SWEEP_FIELDS = {
    "kappas": ("a list of numbers", _is_numbers),
    "targets": ("a list of numbers", _is_numbers),
    "n_vertices": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "mode": ("a string", lambda v: isinstance(v, str)),
    "max_outages": ("an integer or null", lambda v: v is None or _is_int(v)),
    "max_children": ("an integer", _is_int),
    "mean_range": ("a list of two numbers", lambda v: _is_numbers(v, 2)),
}


def _finite_float(text: str) -> float:
    """argparse type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value

    return parse


def _parse_outage(text: str | None) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _cmd_enumerate(args) -> None:
    tree, _ = load_feeder(args.feeder)
    hyps = enumerate_unique(
        branch_decompose(tree), max_outages=args.max_outages, cap=args.cap
    )
    _emit(json.dumps([sorted(h) for h in hyps], indent=2), args.out)


def _cmd_detect(args) -> None:
    tree, sensors = load_feeder(args.feeder)
    obs = observation_from_json(_load_json(args.obs))
    det = detect(tree, sensors, obs, max_outages=args.max_outages, rho=args.rho, cap=args.cap)
    _emit(json.dumps(det.to_json(), indent=2), args.out)


def _cmd_evaluate(args) -> None:
    tree, sensors = load_feeder(args.feeder)
    if args.placement is not None:
        sensors = tuple(_load_sensor_list(args.placement))
    config = PlacementConfig(max_outages=args.max_outages, rho=args.rho, cap=args.cap)
    rows = evaluate_areas(tree, sensors, config=config)
    areas = [{"root": root, "error": err} for root, err in rows]
    worst = max((err for _, err in rows), default=0.0)
    _emit(json.dumps({"areas": areas, "max_error": worst}, indent=2), args.out)


def _cmd_place(args) -> None:
    tree, _ = load_feeder(args.feeder)
    config = PlacementConfig(max_outages=args.max_outages, rho=args.rho, cap=args.cap)
    if args.target is not None:
        placement = solve_feasibility(tree, args.target, mode=args.mode, config=config)
    else:
        placement = solve_budget(tree, args.budget, mode=args.mode, config=config)
    _emit(json.dumps(placement.to_json(), indent=2), args.out)


def _cmd_simulate(args) -> None:
    tree, sensors = load_feeder(args.feeder)
    if args.placement is not None:
        sensors = tuple(_load_sensor_list(args.placement))
    rate, se = empirical_detection_rate(
        tree, sensors, _parse_outage(args.outage), args.trials,
        seed=args.seed, max_outages=args.max_outages, rho=args.rho, cap=args.cap,
    )
    payload = {"error_rate": rate, "stderr": se, "trials": args.trials}
    _emit(json.dumps(payload, indent=2), args.out)


def _cmd_sweep(args) -> None:
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise FeederFormatError("sweep config must be a JSON object")
    fields = {}
    for key, value in raw.items():
        if key not in _SWEEP_FIELDS:
            continue
        what, valid = _SWEEP_FIELDS[key]
        if not valid(value):
            raise FeederFormatError(f"sweep config field {key!r} must be {what}, got {value!r}")
        fields[key] = tuple(value) if isinstance(value, list) else value
    if args.seed is not None:
        fields["seed"] = args.seed
    out_dir = args.out or raw.get("out_dir") or "."
    if not isinstance(out_dir, str):
        raise FeederFormatError(f"sweep config field 'out_dir' must be a string, got {out_dir!r}")
    result = sweep(SweepConfig(**fields))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_sweep_csv(result, csv_path)
    written = write_sweep_histograms(result, out_dir)
    sys.stdout.write(json.dumps({"csv": csv_path, "histograms": written}, indent=2) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="outagekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, rho: bool = True) -> None:
        p.add_argument("--feeder", required=True, help="feeder JSON file")
        p.add_argument("--max-outages", type=int, default=2, dest="max_outages")
        p.add_argument(
            "--cap", type=_int_at_least(1), default=1_000_000, help="hypothesis cap per area"
        )
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        if rho:
            p.add_argument(
                "--rho", type=_positive_float, default=None, help="per-edge outage prior"
            )

    p = sub.add_parser("enumerate", help="list unique outage hypotheses")
    common(p, rho=False)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("detect", help="detect outages from an observation file")
    common(p)
    p.add_argument("--obs", required=True, help="observation JSON file")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="per-area worst missed-detection errors")
    common(p)
    p.add_argument("--placement", default=None, help="placement JSON overriding feeder sensors")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("place", help="compute a sensor placement")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--target", type=_finite_float, default=None, help="error target in (0, 1)"
    )
    group.add_argument(
        "--budget", type=_int_at_least(0), default=None, help="added-sensor budget"
    )
    p.add_argument("--mode", choices=MODES, default="greedy")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("simulate", help="empirical detection error by Monte Carlo")
    common(p)
    p.add_argument("--placement", default=None, help="placement JSON overriding feeder sensors")
    p.add_argument("--outage", default=None, help="true outage edges, comma separated")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="density/error grid experiment")
    p.add_argument("--config", required=True, help="sweep config JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FeederFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DetectionError, EnumerationCapError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
