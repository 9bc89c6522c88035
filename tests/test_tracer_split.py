"""The benchmark tracer's entry points exist and split the 1D and 2D paths.

`perfbench/tracer.py` wraps corrlab names by attribute lookup, and a missing
name fails the whole benchmark run.  The 2D Helmholtz path shares its code
with the 1D path but keeps its own names, so a traced pass must see the 2D
names only in the 2D experiment and the 1D solve only in 1D tasks.  State
prepared once per epsilon stays out of the tasks: no Helmholtz task factors
an operator, and each reference spectrum is built once per epsilon.
"""

import importlib.util
from pathlib import Path

from corrlab import elliptic, ensemble, experiments, greens, helmholtz, iteration
from corrlab import randfield, spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# every entry point the benchmark wraps, as (module, dotted attribute path)
ENTRY_POINTS = [
    (helmholtz, "perturbed_solve"),
    (helmholtz, "perturbed_solve_2d"),
    (helmholtz, "apply_green_2d"),
    (helmholtz, "neumann_solve"),
    (helmholtz, "corrector_law_1d"),
    (helmholtz, "moment_covariance"),
    (helmholtz, "moment_covariance_2d"),
    (elliptic, "neumann_solve"),
    (elliptic, "solve_transformed"),
    (elliptic, "limit_law"),
    (spectral, "perturbed_spectrum"),
    (spectral, "discrete_unperturbed_spectrum"),
    (spectral, "match_eigenpairs"),
    (iteration, "estimate_composed_norm"),
    (greens, "DiscreteGreenOperator.__post_init__"),
    (greens, "DiscreteGreenOperator.apply"),
    (randfield, "sample_at"),
    (randfield, "sample_2d"),
    (randfield, "sample_triple"),
    (experiments, "validate_config"),
    (ensemble, "run"),
]

TASK_KINDS = (
    "field-stats",
    "helmholtz-corrector",
    "helmholtz-moments-2d",
    "elliptic-corrector",
    "spectral-corrector",
    "heat-corrector",
)

ONLY_2D = ("helmholtz.perturbed_solve_2d", "helmholtz.apply_green_2d", "helmholtz.moment_covariance_2d")
ONLY_1D = ("helmholtz.perturbed_solve", "helmholtz.moment_covariance", "helmholtz.corrector_law_1d")
KIND_2D = "helmholtz-moments-2d"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    for module, path in ENTRY_POINTS:
        owner = module
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module.__name__, path)
    for kind in TASK_KINDS:
        assert callable(ensemble.REGISTRY[kind]), kind


def _traced_pass(workload):
    """Spans of one traced workers=1 pass of `workload` at n_real 4, with the
    experiment kind and the realization task (if any) around each span."""
    tracing = _load("tracer")
    workloads = _load("workloads")
    configs = [
        experiments.validate_config(dict(raw, n_real=4))
        for raw in workloads.configs(workload, 7)
    ]
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        for config in configs:
            with tr.span("experiment", tag=config["kind"]):
                experiments.KINDS[config["kind"]].runner(config, 1)
    finally:
        tr.uninstall()

    experiment, task = [None] * len(tr.spans), [None] * len(tr.spans)
    for i, (name, _, _, parent, tag) in enumerate(tr.spans):
        if parent >= 0:
            experiment[i], task[i] = experiment[parent], task[parent]
        if name == "experiment":
            experiment[i] = tag
        elif name.startswith(tracing.TASK + "."):
            task[i] = name[len(tracing.TASK) + 1 :]
    return configs, tr.spans, experiment, task


def test_traced_fixedpoint_pass_keeps_the_2d_names_on_the_2d_path():
    _, spans, experiment, task = _traced_pass("fixedpoint")
    seen = {name for name, *_ in spans}
    for name in ONLY_2D + ONLY_1D:
        assert name in seen, name
    factored = set()
    for i, (name, *_) in enumerate(spans):
        if name in ONLY_2D:
            assert experiment[i] == KIND_2D and task[i] in (None, KIND_2D), (name, task[i])
        if name in ONLY_1D:
            assert experiment[i] == "helmholtz-corrector", (name, experiment[i])
        if name == "helmholtz.perturbed_solve":
            assert task[i] == "helmholtz-corrector", task[i]
        if name == "greens.factor":
            factored.add((experiment[i], task[i]))
    # the Helmholtz FD operator is factored once per epsilon, before any
    # realization; only the elliptic tasks factor their own operators
    assert ("helmholtz-corrector", None) in factored
    assert {t for _, t in factored} == {None, "elliptic-corrector"}


def test_traced_eigen_pass_builds_each_reference_once_per_epsilon_outside_tasks():
    configs, spans, experiment, task = _traced_pass("eigen")
    built = [i for i, (name, *_) in enumerate(spans) if name == "spectral.discrete_unperturbed_spectrum"]
    assert all(task[i] is None for i in built)
    for config in configs:
        count = sum(experiment[i] == config["kind"] for i in built)
        assert count == len(config["epsilon_list"]), config["kind"]
