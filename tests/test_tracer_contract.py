"""The benchmark's span tracer (perfbench/tracer.py) patches gmclab from
outside the package, by module attribute and by parameter name.  These tests
pin what it reaches, so a rename in gmclab fails here and not in a benchmark
run."""

import importlib
import inspect
from pathlib import Path

import pytest

import gmclab.analysis as analysis
import gmclab.cli as cli
import gmclab.field as gfield
import gmclab.kernels as kernels

ROOT = Path(__file__).resolve().parents[1]

BOOTSTRAP_FUNCTIONS = ("estimate_spectrum", "verify_laplace", "verify_perfect_scaling",
                       "dimension_estimate")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracer")


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_instrument_patches_and_close_restores(tracer_module, tmp_path):
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        patches = list(tracer._patches)
        patched = {(id(owner), attr) for owner, attr, _ in patches}
        for owner, attr in [(gfield, "level_increment_radial"),
                            (gfield, "eval_level_increment"),
                            (kernels, "eval_partial_kernel"),
                            (gfield, "prepare_circulant"),
                            (gfield.LayerSampler, "sample_field"),
                            (gfield.RngStream, "generator")]:
            assert (id(owner), attr) in patched, attr
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original, attr
        # one traced run feeds the counters that read results and arguments
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("level = 3\nresolution = 32\nreplicas = 5\nseed = 3\n")
        assert cli.main(["chaos", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    finally:
        tracer.close()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, attr
    metrics = tracer_module.run_metrics(tracer.spans)
    assert metrics["field.embedding_m"] == 64
    # field.draw spans wrap sample_field; the pipelines draw whole field
    # chunks through field_blocks, which the tracer does not wrap
    assert metrics["field.layer_draws"] == 0
    # the unit box and five lambda.grid sides, one measure_box call per side
    # for the one field block
    assert metrics["chaos.box_calls"] == 6
    # the five replicas share one field block, so one substream
    assert metrics["field.rng_streams"] == 1
    assert metrics["cli.bytes_written"] > 0
    assert {s.replica for s in tracer.spans if s.group == "field.rng"} == {0}
    # instrument() reads these by name; the chaos run above does not reach them
    for name in BOOTSTRAP_FUNCTIONS:
        assert "n_boot" in inspect.signature(getattr(analysis, name)).parameters, name
    assert "sums" in inspect.signature(analysis.dimension_estimate).parameters


# runs the chaos run above does not reach: the counters read covering_sums'
# levels, dimension_estimate's sums, sample_stable_atoms' region, alpha and
# z_min, and each bootstrap's n_boot
TRACED_RUNS = {
    "duality": ("gamma2 = 1.0\nlevel = 3\nresolution = 27\ncantor.depth = 3\nz_min = 1e-6\n"
                "replicas = 4\nseed = 3\ns.grid = 0.3,0.4,0.5,0.6,0.7,0.8\n", {
                    # 2 + 4 + 8 Cantor intervals per covering_sums call: one
                    # call per field block, for M and for its dual
                    "analysis.covering_intervals": 14 * 2,
                    # two dimension estimates over four replicas
                    "analysis.bootstrap_resamples": 2 * 200,
                    # the field chunks bypass the sample_field spans
                    "field.layer_draws": 0,
                    "pipelines.replicas": 4,
                }),
    "laplace": ("gamma2 = 1.0\nlevel = 3\nresolution = 32\nz_min = 1e-4\nreplicas = 20\n"
                "seed = 3\nu.grid = 0.5,1\n", {
                    # two comparisons, each resampling both sides 400 times
                    "analysis.bootstrap_resamples": 2 * 2 * 400,
                    # the three sides share each replica's field and its
                    # chaos: one chaos per field chunk, and the chunks
                    # bypass the sample_field spans
                    "field.layer_draws": 0,
                    "chaos.build_calls": 1,
                    # one block: its field, atoms and subordinated
                    # substreams, one generator each
                    "field.rng_streams": 3,
                    # both duals are exact cells: no atom cloud is drawn
                    "atomic.atoms_sampled": 0,
                    "atomic.subordinated_atoms": 0,
                    "pipelines.replicas": 20,
                }),
    "atoms": ("gamma2 = 1.0\nlevel = 3\nresolution = 32\nz_min = 1e-4\nreplicas = 20\n"
              "seed = 3\n", {
                  # one block: its field, atoms and positions substreams
                  "field.rng_streams": 3,
                  "pipelines.replicas": 20,
              }),
}


@pytest.mark.parametrize("experiment", sorted(TRACED_RUNS))
def test_traced_run_feeds_counters(tracer_module, tmp_path, experiment):
    text, expected = TRACED_RUNS[experiment]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    finally:
        tracer.close()
    metrics = tracer_module.run_metrics(tracer.spans)
    assert {name: metrics[name] for name in expected} == expected
    if experiment == "atoms":
        # about 200 atoms per replica at z_min = 1e-4, alpha = 1/2
        assert abs(metrics["atomic.atom_count_ratio"] - 1.0) < 0.1
