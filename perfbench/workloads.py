"""Benchmark workloads: each is a list of corrlab experiment configs.

A workload is a closed batch run one experiment at a time.  The workload
seed is written into every config's `seed`; nothing else depends on it.
This module imports nothing from corrlab, so building the configs adds no
time to the measured set-up.
"""

from __future__ import annotations

# seeds must be non-negative for the config validator; any integer maps to
# one, and non-negative seeds map to themselves
_SEED_RANGE = 1 << 63


def _halving(start: float, count: int) -> list:
    return [start / 2**k for k in range(count)]


def fixedpoint(seed: int) -> list:
    """Fixed-point solves over all three Green kernels (1D FD, conservative, 2D sine).

    A variance check's tolerance scales with the sample variance, so small
    samples fail low-variance seeds often; elliptic and 2D run 640 and 128.
    """
    return [
        {
            "kind": "helmholtz-corrector",
            "seed": seed,
            "n_real": 400,
            "epsilon_list": [0.02, 0.01, 0.005, 0.0025],
            "probes": [0.25, 0.5, 0.75],
            "moments": ["one", "sine"],
        },
        {
            "kind": "elliptic-corrector",
            "seed": seed,
            "n_real": 640,
            "epsilon_list": [0.005, 0.0025],
        },
        {
            "kind": "helmholtz-moments-2d",
            "seed": seed,
            "n_real": 128,
            "epsilon_list": [0.0625],
        },
    ]


def eigen(seed: int) -> list:
    """Tridiagonal eigen-solves; the fixed-point iteration never runs."""
    return [
        {
            "kind": "spectral-corrector",
            "seed": seed,
            "n_real": 300,
            "epsilon_list": [0.01, 0.005, 0.0025],
        },
        {"kind": "heat-corrector", "seed": seed, "n_real": 500},
    ]


def fanout(seed: int) -> list:
    """Many cheap field samples; no solver runs, so scheduling shows."""
    return [
        {
            "kind": "field-stats",
            "seed": seed,
            "n_real": 3000,
            "epsilon_list": _halving(0.1, 8),
        }
    ]


WORKLOADS = {"fixedpoint": fixedpoint, "eigen": eigen, "fanout": fanout}


def configs(name: str, seed: int) -> list:
    """The raw configs of workload `name` for one workload seed."""
    return WORKLOADS[name](seed % _SEED_RANGE)


def realizations(cfg: dict) -> int:
    """Realizations one validated config attempts: n_real per epsilon."""
    return cfg["n_real"] * len(cfg["epsilon_list"])
