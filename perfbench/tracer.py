"""In-memory span tracer for gmclab, applied from outside the package.

The tracer replaces the module and class attributes through which gmclab's
callers reach its public functions (``gmclab.pipelines.build_chaos``,
``LayerSampler.sample_field``, ...) with wrappers that record one span per
call: name, layer group, start, end, parent span, run id and, where the call
has one, the replica index.  The package itself carries no tracing code, and
``Tracer.close`` puts every original attribute back.

Spans stay in memory until the caller writes them out.  A span's self time is
its duration minus the time its children cover; the tracer assumes one
thread (the benchmark runs with GMCLAB_WORKERS=1), so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from dataclasses import asdict, dataclass, field

# the numpy.fft entry points the circulant sampler calls; their input sizes
# feed field.fft_points
FFT_FUNCTIONS = ("fft", "fft2")


@dataclass
class Span:
    id: int
    name: str
    group: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    replica: int | None = None
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans around patched callables; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, group: str, replica) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, group, parent, self.run,
                    time.perf_counter(), replica=replica)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def parent_group(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].group

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def wrap(self, owner, attr: str, group: str, count=None,
             replica: str | None = None, new_run: bool = False):
        """Replace owner.attr (or owner[attr] for a dict) by a span-recording
        wrapper.  count(span, args, kwargs, result) adds counters after the
        call; replica names the parameter that carries the replica index."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        name = getattr(original, "__qualname__", attr)
        get_replica = None if replica is None else getter(original, replica)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if new_run:
                tracer.run += 1
            span = tracer._open(name, group,
                                None if get_replica is None else get_replica(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        self._set(owner, attr, traced)

    def count_calls(self, owner, attr: str, key: str, measure):
        """Add measure(args) to counts[key] of the innermost open span,
        without opening a span of its own."""
        original = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if stack:
                counts = stack[-1].counts
                counts[key] = counts.get(key, 0) + measure(args, kwargs)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def close(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            self._set(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = asdict(span)
                rec["self_s"] = span.self_s
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# gmclab instrumentation
# ---------------------------------------------------------------------------

def getter(fn, param: str):
    """(args, kwargs) -> value of fn's parameter param, default included."""
    params = inspect.signature(fn).parameters
    pos = list(params).index(param)
    default = params[param].default

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(param, default)
    return get


def instrument(tracer: Tracer):
    """Wrap the public gmclab functions the pipelines reach, by layer group."""
    import numpy as np

    import gmclab.analysis as analysis
    import gmclab.atomic as atomic
    import gmclab.cli as cli
    import gmclab.field as gfield
    import gmclab.kernels as kernels
    import gmclab.pipelines as pipelines

    def kernel_points(span, args, kwargs, result):
        # nested kernel calls are part of their caller's evaluation
        if tracer.parent_group(span) != "kernels.eval":
            span.counts["eval_calls"] = 1
            span.counts["points"] = int(np.size(result))

    def embedding(span, args, kwargs, result):
        span.counts["embedding_m"] = int(result[1])

    def layer_draws(span, args, kwargs, result):
        span.counts["layer_draws"] = len(args[0].levels)

    region, alpha, z_min = (getter(pipelines.sample_stable_atoms, p)
                            for p in ("region", "alpha", "z_min"))

    def atoms(span, args, kwargs, result):
        span.counts["atoms"] = result.count
        span.counts["expected_atoms"] = atomic.expected_atom_count(
            region(args, kwargs).volume, alpha(args, kwargs), z_min(args, kwargs))

    def subordinated(span, args, kwargs, result):
        span.counts["subordinated_atoms"] = result.count

    def intervals(span, args, kwargs, result):
        span.counts["covering_intervals"] = int(sum(2 ** int(g) for g in result.levels))

    # sample sets resampled per call: the Laplace and scaling checks resample
    # both sides; dimension_estimate resamples only a multi-replica table
    sides = {"estimate_spectrum": 1, "verify_laplace": 2,
             "dimension_estimate": 1, "verify_perfect_scaling": 2}
    sums = getter(analysis.dimension_estimate, "sums")

    def bootstrap(fn_name):
        n_boot = getter(getattr(analysis, fn_name), "n_boot")

        def count(span, args, kwargs, result):
            n_sets = sides[fn_name]
            if fn_name == "dimension_estimate":
                table = np.asarray(sums(args, kwargs))
                n_sets = int(table.ndim == 3 and table.shape[0] > 1)
            span.counts["bootstrap_resamples"] = n_boot(args, kwargs) * n_sets
        return count

    def pipeline_replicas(span, args, kwargs, result):
        span.counts["replicas"] = args[0].replicas

    out_dir = getter(cli.write_outputs, "out_dir")

    def bytes_written(span, args, kwargs, result):
        # the byte-compared artifacts only: summary.txt and manifest.json
        # carry wall-clock time, so their sizes vary between identical runs
        res, folder = args[0], out_dir(args, kwargs)
        names = [f"{n}.csv" for n in res.tables] + list(res.extra_files)
        span.counts["bytes_written"] = sum(
            os.path.getsize(os.path.join(folder, n)) for n in names)

    def fft_points(args, kwargs):
        return int(np.size(args[0] if args else kwargs.get("a", kwargs.get("x"))))

    w = tracer.wrap
    w(cli, "main", "cli.main", new_run=True)
    w(cli, "load_config", "cli.config")
    w(cli, "validate_config", "cli.config")
    w(cli, "write_outputs", "cli.write", count=bytes_written)
    for name in list(pipelines.PIPELINES):
        w(pipelines.PIPELINES, name, "pipelines.run", count=pipeline_replicas)

    w(gfield, "level_increment_radial", "kernels.eval", count=kernel_points)
    w(gfield, "eval_level_increment", "kernels.eval", count=kernel_points)
    w(kernels, "eval_partial_kernel", "kernels.eval", count=kernel_points)

    w(gfield.LayerSampler, "__init__", "field.prepare")
    w(gfield, "prepare_circulant", "field.prepare", count=embedding)
    w(gfield.LayerSampler, "sample_field", "field.draw", count=layer_draws,
      replica="replica")
    w(gfield.RngStream, "generator", "field.rng", replica="replica")
    for fn in FFT_FUNCTIONS:
        tracer.count_calls(np.fft, fn, "fft_points", fft_points)

    w(pipelines, "build_chaos", "chaos.build")
    w(pipelines, "measure_box", "chaos.box")

    w(pipelines, "sample_stable_atoms", "atomic.sample", count=atoms)
    w(pipelines, "build_atomic_direct", "atomic.direct")
    w(pipelines, "build_subordinated", "atomic.subordinated", count=subordinated)
    w(atomic.AtomicMeasure, "box_mass", "atomic.box")

    w(analysis, "covering_sums", "analysis.covering", count=intervals)
    for fn in sides:
        w(analysis, fn, "analysis.bootstrap", count=bootstrap(fn))
    for fn in ("hill_tail_index", "kpz_solve", "kpz_solve_dual", "lq_spectrum",
               "sample_omega"):
        w(analysis, fn, "analysis.other")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

# metric name -> span group whose self time it sums
TIME_METRICS = {
    "kernels.eval_s": "kernels.eval",
    "field.prepare_s": "field.prepare",
    "field.draw_s": "field.draw",
    "field.rng_s": "field.rng",
    "chaos.build_s": "chaos.build",
    "chaos.box_s": "chaos.box",
    "atomic.sample_s": "atomic.sample",
    "atomic.direct_s": "atomic.direct",
    "atomic.subordinated_s": "atomic.subordinated",
    "atomic.box_s": "atomic.box",
    "analysis.covering_s": "analysis.covering",
    "analysis.bootstrap_s": "analysis.bootstrap",
    "analysis.other_s": "analysis.other",
    "pipelines.self_s": "pipelines.run",
    "cli.config_s": "cli.config",
    "cli.write_s": "cli.write",
    "cli.main_s": "cli.main",
}

# metric name -> (span group, counter key, reduction over the run's spans)
COUNT_METRICS = {
    "kernels.eval_calls": ("kernels.eval", "eval_calls", sum),
    "kernels.points": ("kernels.eval", "points", sum),
    "field.embedding_m": ("field.prepare", "embedding_m", max),
    "field.layer_draws": ("field.draw", "layer_draws", sum),
    "field.fft_points": ("field.draw", "fft_points", sum),
    "field.rng_streams": ("field.rng", None, sum),
    "chaos.build_calls": ("chaos.build", None, sum),
    "chaos.box_calls": ("chaos.box", None, sum),
    "atomic.atoms_sampled": ("atomic.sample", "atoms", sum),
    "atomic.subordinated_atoms": ("atomic.subordinated", "subordinated_atoms", sum),
    "analysis.covering_intervals": ("analysis.covering", "covering_intervals", sum),
    "analysis.bootstrap_resamples": ("analysis.bootstrap", "bootstrap_resamples", sum),
    "pipelines.replicas": ("pipelines.run", "replicas", sum),
    "cli.bytes_written": ("cli.write", "bytes_written", sum),
}


def run_metrics(spans: list[Span]) -> dict:
    """Self times and counts of one traced run (the spans of one run id)."""
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.group, []).append(span)
    out = {name: sum(s.self_s for s in groups.get(g, ()))
           for name, g in TIME_METRICS.items()}
    for name, (g, key, reduce) in COUNT_METRICS.items():
        values = [1 if key is None else s.counts.get(key, 0) for s in groups.get(g, ())]
        out[name] = reduce(values) if values else 0
    expected = sum(s.counts.get("expected_atoms", 0.0) for s in groups.get("atomic.sample", ()))
    out["atomic.atom_count_ratio"] = (out["atomic.atoms_sampled"] / expected
                                      if expected else 0.0)
    roots = groups.get("cli.main", ())
    out["trace.run_s"] = sum(s.end - s.start for s in roots if s.parent is None)
    return out
