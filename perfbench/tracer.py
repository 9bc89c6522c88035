"""In-memory span tracer that wraps corrlab's layer entry points.

Spans are recorded only here, in the benchmark: `install` replaces the
public functions, methods and registry entries that each caller looks up
with timing wrappers, and `uninstall` puts the originals back.  Nothing in
the program changes.  Tracing assumes one process (workers=1): spans of a
worker process would never reach this tracer.

A span is [name, start, end, parent index, tag].  Parents are always
recorded before their children, so one pass in index order can work out
which spans ran inside a realization task.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter

TASK = "task"


class Tracer:
    def __init__(self):
        self.spans = []
        self.observed = defaultdict(list)
        self._stack = []
        self._restore = []

    def span(self, name: str, tag=None):
        """Context manager recording one span around a block of the benchmark."""
        return _Span(self, name, tag)

    def _open(self, name, tag) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, tag])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        rec = self.spans[idx]
        rec[1] = start
        rec[2] = end

    def wrap(self, owner, key: str, name: str, observe=None, tag=None) -> None:
        """Replace owner.key (or owner[key] for a dict) with a timed wrapper.

        `observe(result)` stores a value under `name` in `observed`;
        `tag(args)` attaches a value to the span.
        """
        fn = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, tag(args) if tag else None)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())
            if observe is not None:
                tracer.observed[name].append(observe(out))
            return out

        traced.__wrapped__ = fn
        _assign(owner, key, traced)
        self._restore.append((owner, key, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, fn = self._restore.pop()
            _assign(owner, key, fn)


class _Span:
    __slots__ = ("tracer", "name", "tag", "idx", "t0")

    def __init__(self, tracer, name, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        self.idx = self.tracer._open(self.name, self.tag)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, perf_counter())
        return False


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# --- what to wrap ---

SAMPLERS = ("randfield.sample_at", "randfield.sample_2d", "randfield.sample_triple")
SOLVES = ("helmholtz.neumann_solve", "elliptic.neumann_solve")
TARGETS_HELM = (
    "helmholtz.corrector_law_1d",
    "helmholtz.moment_covariance",
    "helmholtz.moment_covariance_2d",
)


def _solve_facts(res):
    return (res.iterations, res.truncated, res.op_norm_estimate)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach.

    Each wrapper goes where the caller looks the name up: helmholtz and
    elliptic import `neumann_solve` and `apply_green_2d` by name, so those
    are wrapped in the importing module, not where they are defined.
    """
    from corrlab import elliptic, ensemble, experiments, greens, helmholtz, iteration
    from corrlab import randfield, spectral

    modules = {
        "randfield": randfield,
        "helmholtz": helmholtz,
        "elliptic": elliptic,
        "iteration": iteration,
        "spectral": spectral,
        "ensemble": ensemble,
    }

    def mod_wrap(qualified, **kw):
        mod, attr = qualified.split(".")
        tracer.wrap(modules[mod], attr, qualified, **kw)

    for name in SAMPLERS + TARGETS_HELM:
        mod_wrap(name)
    for name in SOLVES:
        mod_wrap(name, observe=_solve_facts)
    for name in (
        "helmholtz.perturbed_solve",
        "helmholtz.perturbed_solve_2d",
        "helmholtz.apply_green_2d",
        "iteration.estimate_composed_norm",
        "elliptic.solve_transformed",
        "elliptic.limit_law",
        "spectral.perturbed_spectrum",
        "spectral.discrete_unperturbed_spectrum",
        "ensemble.run",
    ):
        mod_wrap(name)
    mod_wrap("spectral.match_eigenpairs", observe=lambda m: m.any_violation)
    tracer.wrap(greens.DiscreteGreenOperator, "__post_init__", "greens.factor")
    tracer.wrap(greens.DiscreteGreenOperator, "apply", "greens.apply")
    tracer.wrap(experiments, "validate_config", "experiments.validate")
    for kind in list(ensemble.REGISTRY):
        # task signature is (params, epsilon, seed); the tag keeps epsilon
        tracer.wrap(ensemble.REGISTRY, kind, f"{TASK}.{kind}", tag=lambda a: a[1])


# --- span arithmetic ---


class SpanTable:
    """Durations, self times and task membership of a tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        self.in_task = [False] * n
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
                self.in_task[i] = self.in_task[parent] or spans[parent][0].startswith(TASK + ".")
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.children_time = child

    def select(self, names, task_only=False):
        names = (names,) if isinstance(names, str) else tuple(names)
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] in names and (self.in_task[i] or not task_only)
        ]

    def tasks(self):
        return [i for i, s in enumerate(self.spans) if s[0].startswith(TASK + ".")]

    def total(self, idxs, self_only=False) -> float:
        src = self.self_time if self_only else self.dur
        return math.fsum(src[i] for i in idxs)

    def mean(self, idxs, self_only=False) -> float:
        return self.total(idxs, self_only) / len(idxs) if idxs else 0.0


def _p99(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


# kinds whose per-realization cost the ROADMAP baseline records
BASELINE_KINDS = (
    "helmholtz-corrector",
    "elliptic-corrector",
    "spectral-corrector",
    "heat-corrector",
    "helmholtz-moments-2d",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name.

    Times are in the unit their name ends with; `_per_real` figures divide
    by the realization tasks run.  Layers the pass never reached read 0.
    """
    t = SpanTable(tracer.spans)
    tasks = t.tasks()
    n_real = len(tasks)
    task_time = t.total(tasks)

    samplers = t.select(SAMPLERS, task_only=True)
    factor = t.select("greens.factor", task_only=True)
    apply1 = t.select("greens.apply", task_only=True)
    apply2 = t.select("helmholtz.apply_green_2d", task_only=True)
    power = t.select("iteration.estimate_composed_norm", task_only=True)
    solves = t.select(SOLVES, task_only=True)
    eig = t.select("spectral.perturbed_spectrum", task_only=True)
    ref = t.select("spectral.discrete_unperturbed_spectrum")
    match = t.select("spectral.match_eigenpairs", task_only=True)
    runs = t.select("ensemble.run")
    runners = t.select("experiments.runner")

    facts = tracer.observed
    solve_facts = [f for name in SOLVES for f in facts.get(name, [])]
    iters = [f[0] for f in solve_facts if not f[1]]
    flags = facts.get("spectral.match_eigenpairs", [])
    task_ms = [1e3 * t.dur[i] for i in tasks]

    out = {
        "randfield.sample_us": 1e6 * t.mean(samplers),
        "randfield.calls_per_real": _frac(len(samplers), n_real),
        "randfield.share": _frac(t.total(samplers), task_time),
        "greens.factor_us": 1e6 * t.mean(factor),
        "greens.apply_us": 1e6 * t.mean(apply1),
        "greens.apply_calls_per_real": _frac(len(apply1) + len(apply2), n_real),
        "greens.apply2d_us": 1e6 * t.mean(apply2),
        "greens.share": _frac(t.total(factor) + t.total(apply1) + t.total(apply2), task_time),
        "iteration.calls_per_real": _frac(len(solves), n_real),
        "iteration.power_ms": 1e3 * t.mean(power),
        "iteration.power_share": _frac(t.total(power), task_time),
        "iteration.neumann_ms": 1e3 * t.mean(solves),
        "iteration.iters_mean": _frac(sum(iters), len(iters)),
        "iteration.iters_max": float(max(iters, default=0)),
        "iteration.truncated_frac": _frac(sum(f[1] for f in solve_facts), len(solve_facts)),
        "iteration.norm_estimate_max": max((f[2] for f in solve_facts), default=0.0),
        "helmholtz.solve1d_ms": 1e3 * t.mean(t.select("helmholtz.perturbed_solve")),
        "helmholtz.solve2d_ms": 1e3 * t.mean(t.select("helmholtz.perturbed_solve_2d")),
        "helmholtz.targets_ms": 1e3 * t.total(t.select(TARGETS_HELM)),
        "elliptic.solve_ms": 1e3 * t.mean(t.select("elliptic.solve_transformed")),
        "elliptic.targets_ms": 1e3 * t.total(t.select("elliptic.limit_law")),
        "spectral.solves_per_real": _frac(len(eig), n_real),
        "spectral.eigensolve_ms": 1e3 * t.mean(eig, self_only=True),
        "spectral.reference_ms": 1e3 * t.total(ref),
        "spectral.match_us": 1e6 * t.mean(match),
        "spectral.flagged_frac": _frac(sum(flags), len(flags)),
        "spectral.share": _frac(
            t.total(eig, self_only=True) + t.total([i for i in ref if t.in_task[i]]) + t.total(match),
            task_time,
        ),
        "ensemble.wall_s": t.total(runs),
        "ensemble.self_s": t.total(runs, self_only=True),
        "ensemble.task_ms_p50": statistics.median(task_ms) if task_ms else 0.0,
        "ensemble.task_ms_p99": _p99(task_ms),
        "experiments.validate_ms": 1e3 * t.total(t.select("experiments.validate")),
        "experiments.grade_ms": 1e3 * (t.total(runners) - t.total(runs)),
        "experiments.serialize_ms": 1e3 * t.total(t.select("experiments.serialize")),
    }
    for kind in BASELINE_KINDS:
        out[f"ms_per_real.{kind}"] = _finest_task_ms(t, f"{TASK}.{kind}")
    return out


def _finest_task_ms(t: SpanTable, name: str) -> float:
    """Mean task ms at the smallest epsilon the pass ran for one kind."""
    idxs = t.select(name)
    if not idxs:
        return 0.0
    finest = min(t.spans[i][4] for i in idxs)
    return 1e3 * t.mean([i for i in idxs if t.spans[i][4] == finest])
