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
    ("derive_seed", "scalar splitmix64 against the chunk's numpy seeds"),
)
NAMES = [name for name, _ in ORACLES]


def _names(tree):
    """Names loaded or read as attributes in `tree`."""
    return {getattr(n, "id", None) or n.attr for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def _trees():
    """Each source file parsed once: its public top-level defs and, for every
    name it uses, the top-level statements that use it.  The sets hold the
    statement nodes themselves, not their ids: a node kept alive cannot lend
    its id to a node parsed later."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        users = {}
        for stmt in tree.body:
            for name in _names(stmt):
                users.setdefault(name, set()).add(stmt)
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]
        yield defs, users


def test_every_public_def_is_run_by_the_program_or_is_an_oracle():
    trees = list(_trees())
    defs = [node for tree_defs, _ in trees for node in tree_defs]
    oracle_defs = [node for node in defs if node.name in NAMES]
    # a use counts unless it sits in the definition itself or in an oracle's body
    unused = {node.name for node in defs
              if not any(users.get(node.name, set()) - set(oracle_defs) - {node} for _, users in trees)}
    assert sorted(unused ^ set(NAMES)) == []  # an oracle the program runs is no oracle
    tested = set().union(*(_names(ast.parse(p.read_text())) for p in TESTS.glob("test_*.py")))
    oracle_names = {o: _names(o) - {o.name} for o in oracle_defs}
    for node in oracle_defs:  # a test calls it, or another oracle builds on it
        assert node.name in tested | set().union(*(names for o, names in oracle_names.items() if o is not node))
