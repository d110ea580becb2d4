"""One cold set-up, timed inside a fresh interpreter; prints its seconds as JSON.

Usage: python3 bench/probe.py SRC_DIR FEEDER_JSON... [--warmup OBS_JSON]

Times importing outagekit from SRC_DIR and loading each feeder file with
``network.load_feeder``; with ``--warmup`` also one ``detect`` call on the
observation file against the first feeder and its sensors.
"""

import sys
from time import perf_counter

start = perf_counter()


def main(argv: list[str]) -> int:
    src, rest = argv[0], argv[1:]
    warmup = None
    if "--warmup" in rest:
        k = rest.index("--warmup")
        warmup = rest[k + 1]
        rest = rest[:k] + rest[k + 2 :]
    sys.path.insert(0, src)
    import json

    from outagekit import detector, network

    loaded = [network.load_feeder(path) for path in rest]
    if warmup is not None:
        with open(warmup) as fh:
            obs = detector.observation_from_json(json.load(fh))
        tree, sensors = loaded[0]
        detector.detect(tree, sensors, obs, max_outages=2)
    print(json.dumps({"setup_s": perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
