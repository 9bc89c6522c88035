"""Numerical laboratory for central-limit correctors of elliptic problems
with rapidly oscillating random potentials and coefficients.

The package imports no submodule, so `import corrlab.cli` stays free of
numpy until the command line has pinned the BLAS thread count.
"""

__version__ = "0.1.0"
