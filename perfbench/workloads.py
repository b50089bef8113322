"""The benchmark's workloads: each maps a workload seed to wavelq experiment configs.

The sizes are fixed per workload; the seed only picks each experiment's own
``seed`` (initial states, tracking targets, random probes).  Every generated
config is complete, so ``wavelq run --config`` replays it on its own.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import math
import random

RECTANGLE_STRIP = {"kind": "rectangle", "a": 1.0, "b": 2.0}
INTERVAL_SUBDOMAIN = {"kind": "interval", "n_modes": 64,
                      "control": {"subinterval": [0.4, 1.9]}, "observation": "full_domain"}


def _turnpike_synthetic() -> list[dict]:
    return [{
        "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 12},
        "experiment": {"kind": "turnpike", "horizons": [10.0, 20.0, 40.0],
                       "tail_exponent": 2.5, "z_tail": 2.0, "dt_record": 0.02},
    }]


def _rectangle_strip() -> list[dict]:
    return [
        {"model": dict(RECTANGLE_STRIP, max_frequency=40.0),
         "experiment": {"kind": "observability", "horizon": 6.0 * math.pi,
                        "shells": [5.0, 10.0, 20.0], "side": "control"}},
        {"model": dict(RECTANGLE_STRIP, max_frequency=12.0),
         "experiment": {"kind": "bounds", "n_random": 100}},
        {"model": dict(RECTANGLE_STRIP, max_frequency=16.0),
         "experiment": {"kind": "decay_riccati", "horizon": 30.0, "window": [5.0, 25.0]}},
    ]


def _interval_subdomain() -> list[dict]:
    return [
        {"model": dict(INTERVAL_SUBDOMAIN),
         "experiment": {"kind": "decay_collocated", "horizon": 60.0, "smoothness_k": 1.0,
                        "window": [5.0, 55.0]}},
        {"model": dict(INTERVAL_SUBDOMAIN),
         "experiment": {"kind": "null_control", "t0": 2.5 * math.pi, "n_draws": 50,
                        "tail_exponent": 1.6}},
    ]


WORKLOADS = {
    "turnpike_synthetic": _turnpike_synthetic,
    "rectangle_strip": _rectangle_strip,
    "interval_subdomain": _interval_subdomain,
}


def generate(name: str, seed: int) -> list[dict]:
    """The configs of workload ``name`` for workload seed ``seed``."""
    rng = random.Random(seed)
    return [dict(cfg, seed=rng.randrange(2**31), output_dir=f"out/{name}/{i}")
            for i, cfg in enumerate(WORKLOADS[name]())]
