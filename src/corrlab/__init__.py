"""Numerical laboratory for central-limit correctors of elliptic problems
with rapidly oscillating random potentials and coefficients.

Submodules load on first attribute access, so `import corrlab.cli` stays
free of numpy until the command line has pinned the BLAS thread count.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "asymptotics",
    "elliptic",
    "ensemble",
    "greens",
    "helmholtz",
    "randfield",
    "spectral",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
