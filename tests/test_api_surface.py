"""Public API under src/corrlab: what the program runs, plus one list of oracles.

A static scan that imports nothing.  Every public top-level def or class is
referenced from src/ outside its own body and the oracles' bodies, or it is
one of the ORACLES: the reference implementations only tests call, each the
independent second route of a cross-check.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "corrlab"

ORACLES = (  # (name, the route it checks)
    ("GreenOperator", "Nystrom quadrature of the closed-form kernel against the FD inverse"),
    ("transformed_green_matrix", "kernel-composed operator in harmonic coordinates against the conservative inverse"),
    ("harmonic_coords", "harmonic coordinates behind transformed_green_matrix"),
    ("HarmonicCoords", "the record harmonic_coords returns"),
    ("leading_corrector", "first-order corrector -G(q u0) against the fixed-point corrector"),
    ("gaussian_r", "space-side Gaussian correlation against the inverse transform of gaussian_rhat"),
    ("space_profile_l2", "space-side int H^2 against the Fourier-side limit constant for d <= 3"),
    ("radial_profile", "adaptive profile quadrature against the cumulative master grid"),
    ("profile_at_zero", "closed-form Hhat(0), the small-rho end of radial_profile"),
    ("unperturbed_spectrum", "analytic sine spectrum against the discrete reference spectrum"),
    ("direct_solve_fd", "direct banded solve against the Helmholtz fixed point"),
    ("direct_solve_conservative", "direct conservative solve against the elliptic fixed point"),
    ("cross_correlation", "continuum cross-correlation against sigma_matrix and sampled triples"),
    ("cross_autocovariance_lattice", "lattice cross-covariances behind cross_correlation"),
)
NAMES = [name for name, _ in ORACLES]


def _names(tree, skip=()):
    """Names loaded or read as attributes in `tree`, outside the subtrees in `skip`."""
    inside = {id(n) for node in skip for n in ast.walk(node)}
    return {getattr(n, "id", None) or n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside}


def _public_defs():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        yield from ((tree, node) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_"))


def test_every_public_def_is_run_by_the_program_or_is_an_oracle():
    defs = list(_public_defs())
    oracle_defs = [node for _, node in defs if node.name in NAMES]
    trees = {id(tree): tree for tree, _ in defs}.values()
    unused = {node.name for _, node in defs
              if not any(node.name in _names(tree, oracle_defs + [node]) for tree in trees)}
    assert sorted(unused ^ set(NAMES)) == []  # an oracle the program runs is no oracle
    tested = set().union(*(_names(ast.parse(p.read_text())) for p in TESTS.glob("test_*.py")))
    for node in oracle_defs:  # a test calls it, or another oracle builds on it
        assert node.name in tested | set().union(*(_names(o) - {o.name} for o in oracle_defs if o is not node))
