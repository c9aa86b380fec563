import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmclab
import gmclab.field as gfield
from gmclab import pipelines
from gmclab.analysis import covering_sums
from gmclab.atomic import (
    build_atomic_direct,
    build_dual_cells,
    build_subordinated,
    sample_stable_atoms,
)
from gmclab.chaos import LatticeMeasure, build_chaos, measure_box
from gmclab.cli import main, write_csv
from gmclab.config import (
    ConfigError,
    parse_config_text,
    validate_config,
)
from gmclab.field import PURPOSES, Lattice, LayerSampler, RngStream
from gmclab.kernels import eval_partial_kernel
from gmclab.pipelines import _box_masses, _covering_sums, _measures
from oracles import replica_fields

BASE_CONFIG = """
# smoke configuration
kernel.family = exact1d
gamma2 = 0.5
level = 3
resolution = 32
replicas = 50
seed = 9
lambda.grid = 0.5,0.25,0.125,0.0625
q.grid = 0.2,0.5
u.grid = 0.5,1
"""

# one small config per subcommand, each run in about a second
RERUN_CONFIGS = {
    "field": BASE_CONFIG,
    "chaos": BASE_CONFIG,
    "atoms": "gamma2 = 1.0\nlevel = 3\nresolution = 32\nreplicas = 5\nseed = 2\n",
    "spectrum": "gamma2 = 0.5\nlevel = 5\nresolution = 256\nreplicas = 100\nseed = 7\n"
                "lambda.grid = 0.5,0.25,0.125,0.0625\nq.grid = 0.5,1.0\n",
    "laplace": "gamma2 = 1.0\nlevel = 3\nresolution = 64\nz_min = 1e-5\n"
               "replicas = 100\nseed = 7\n",
    "tail": "gamma2 = 1.0\nlevel = 3\nresolution = 64\nz_min = 1e-5\nreplicas = 1000\n"
            "seed = 7\nhill.k = 50\n",
    "scaling": "gamma2 = 1.0\nlevel = 4\nresolution = 128\nz_min = 1e-6\nreplicas = 100\n"
               "seed = 7\nq.grid = 0.1,0.2\nscaling.lambdas = 0.5,0.25\n",
    "kpz": "gamma2 = 0.5\nlevel = 5\nresolution = 243\ncantor.depth = 5\nreplicas = 10\n"
           "seed = 7\ns.grid = 0.30,0.35,0.40,0.45,0.50,0.55,0.60,0.65,0.70,0.75\n",
    "duality": "gamma2 = 1.0\nlevel = 5\nresolution = 243\ncantor.depth = 5\nz_min = 1e-6\n"
               "replicas = 10\nseed = 7\n"
               "s.grid = 0.30,0.35,0.40,0.45,0.50,0.55,0.60,0.65,0.70,0.75\n",
    "lq": "gamma2 = 0.5\nlevel = 5\nresolution = 256\nq.grid = 0,0.5,1\nreplicas = 1\n"
          "seed = 7\n",
}


# a config kpz and duality would run but for its dimension
SQUARE_CANTOR = ("kernel.family = exact2d\ndimension = 2\ngamma2 = 1.0\nlevel = 3\n"
                 "resolution = 243\ncantor.depth = 5\nreplicas = 2\n"
                 "s.grid = 0.3,0.4,0.5,0.6,0.7\n")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(BASE_CONFIG)
    return str(path)


def test_cli_import_loads_no_stats_or_integrate():
    # a fresh interpreter: scipy.stats alone costs about half a second of
    # every CLI start-up, and only the atoms pipeline imports it, when it runs
    src = str(Path(gmclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, gmclab.cli; "
             "print(*[m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.kernel_family == "exact1d"
        assert cfg.level == 3
        assert cfg.lambda_grid == (0.5, 0.25, 0.125, 0.0625)

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# only a comment\n\nseed = 4\n")
        assert cfg.seed == 4

    @pytest.mark.parametrize("text", [
        "bogus.key = 1",
        "seed 4",
        "level = three",
        "dump.fields = true",
    ])
    def test_bad_input_raises(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    @pytest.mark.parametrize("text,alpha", [
        # duality mode: alpha = gamma2 / (2d)
        ("gamma2 = 1.0\n", 0.5),
        ("gamma2 = 0.5\n", 0.25),
        ("gamma2 = 1.0\ndimension = 2\n", 0.25),
        ("gamma2 = 3.6\ndimension = 2\n", 0.9),
        ("alpha.mode = explicit\nalpha.value = 0.3\n", 0.3),
    ], ids=["1.0-1-0.5", "0.5-1-0.25", "1.0-2-0.25", "3.6-2-0.9", "explicit"])
    def test_alpha_modes(self, text, alpha):
        assert parse_config_text(text).alpha() == pytest.approx(alpha)

    def test_duplicate_key_raises(self):
        with pytest.raises(ConfigError, match=r"^line 3: duplicate key 'gamma2'$"):
            parse_config_text("gamma2 = 0.5\nseed = 4\ngamma2 = 1.5\n")

    def test_validate_flags_bad_alpha(self):
        cfg = parse_config_text("gamma2 = 2.5\n")
        assert any("alpha" in d for d in validate_config(cfg))

    def test_validate_cantor_alignment(self):
        cfg = parse_config_text("resolution = 1000\ncantor.depth = 6\n"
                                "s.grid = 0.3,0.4,0.5,0.6,0.7\n")
        assert any("3^cantor" in d for d in validate_config(cfg, "kpz"))


class TestCsv:
    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1 + 0.2
        write_csv(str(path), {"a": [1], "b": [value]})
        line = path.read_text().splitlines()[1]
        assert float(line.split(",")[1]) == value

    def test_cells_keep_the_row_writer_bytes(self, tmp_path):
        # the bytes the former per-row writer gave these cells: numpy ints and
        # floats spelled as Python's, labels as themselves, nan as nan
        path = tmp_path / "t.csv"
        write_csv(str(path), {
            "replica": np.arange(3, dtype=np.int64),
            "series": ["atomic_total", "pareto_control", "exponential_control"],
            "mass": np.array([0.1 + 0.2, 1e-300, 1e16]),
            "target": [0.5, np.float64(0.25), np.nan],
        })
        assert path.read_bytes() == (b"replica,series,mass,target\n"
                                     b"0,atomic_total,0.30000000000000004,0.5\n"
                                     b"1,pareto_control,1e-300,0.25\n"
                                     b"2,exponential_control,1e+16,nan\n")

    def test_columns_of_unequal_length_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "t.csv"), {"a": np.arange(3), "b": np.arange(2.0)})


class TestCliRuns:
    def test_usage_error_without_subcommand(self):
        assert main([]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["chaos", "--config", str(tmp_path / "none.txt")]) == 2

    def test_invalid_config_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("gamma2 = -1\n")
        assert main(["chaos", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text,diag", [
        ("kernel.family = bogus\n", "unknown kernel family 'bogus'"),
        ("kernel.family = exact2d\n", "family exact2d requires d=2, got d=1"),
        ("kernel.T = 0\n", "T must be positive"),
    ], ids=["family", "dimension", "T"])
    def test_invalid_kernel_is_diagnosed(self, tmp_path, capsys, text, diag):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert validate_config(parse_config_text(text)) == [f"kernel: {diag}"]
        assert main(["chaos", "--config", str(path)]) == 2
        assert f"config error: kernel: {diag}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,text,args,diag", [
        ("kpz", "resolution = 729\n", [], "s.grid needs at least 5 values"),
        ("duality", "resolution = 729\ncantor.depth = 2\ns.grid = 0.3,0.4,0.5,0.6,0.7\n", [],
         "cantor.depth must be >= 3: the dimension fit needs three levels"),
        ("lq", "resolution = 256\nreplicas = 1\n", ["--replicas", "400"],
         "lq analyses one replica: replicas must be 1, got 400"),
        ("scaling", "gamma2 = 1.0\nresolution = 100\nq.grid = 0.1\nscaling.lambdas = 0.5\n", [],
         "scaling box of side 0.125 spans 12.5 cells; "
         "resolution * scaling.radius * lambda must be a whole number"),
        # the square's covering sums run over C x C, but their KPZ targets
        # and tolerances are not calibrated
        ("kpz", SQUARE_CANTOR, [],
         "kpz covers the Cantor set on [0, 1]: dimension must be 1, got 2"),
        ("duality", SQUARE_CANTOR, [],
         "duality covers the Cantor set on [0, 1]: dimension must be 1, got 2"),
        ("lq", "resolution = 24\nreplicas = 1\n", [],
         "lq fits three dyadic depths 2^2, 2^3, 2^4: resolution must be a multiple of 16, "
         "got 24"),
        ("scaling", "kernel.family = star\ngamma2 = 1.0\nresolution = 128\nq.grid = 0.1\n"
         "scaling.lambdas = 0.5\n", [],
         "perfect scaling requires an exact scale invariant kernel (exact1d or exact2d), "
         "got star"),
        # each would pass having checked nothing, or fail inside numpy
        ("laplace", "u.grid =\n", [], "laplace needs at least one u.grid value"),
        ("spectrum", "q.grid =\n", [], "spectrum needs at least one q.grid value"),
        ("lq", "resolution = 256\nreplicas = 1\nq.grid =\n", [],
         "lq needs at least one q.grid value"),
        ("scaling", "gamma2 = 1.0\nresolution = 64\nq.grid = 0.1\nscaling.lambdas =\n", [],
         "scaling needs at least one scaling.lambdas value"),
        ("spectrum", "lambda.grid = 0.5,0.25,0.125\n", [],
         "spectrum needs at least 4 lambda.grid values, got 3"),
        # measure_box would snap the box of side 0.03125 to 2 cells, 0.0417,
        # while the fit regresses on the nominal side
        ("spectrum", "resolution = 48\nlambda.grid = 0.5,0.25,0.125,0.0625,0.03125\n", [],
         "spectrum box of side 0.03125 spans 1.5 cells; "
         "resolution * lambda must be a whole number"),
        # the default k = max(replicas // 20, 50) is 50
        ("tail", "gamma2 = 1.0\nreplicas = 40\n", [],
         "hill.k must lie in [30, replicas = 40), got 50 (the default)"),
        ("tail", "gamma2 = 1.0\nhill.k = 10\n", [],
         "hill.k must lie in [30, replicas = 1000), got 10"),
        # a radius above 1 snaps every box to the unit box; 0 leaves no cell
        ("scaling", "gamma2 = 1.0\nresolution = 128\nq.grid = 0.1\nscaling.radius = 2.0\n", [],
         "scaling.radius must lie in (0, 1], got 2.0"),
        ("scaling", "gamma2 = 1.0\nresolution = 128\nq.grid = 0.1\nscaling.radius = 0\n", [],
         "scaling.radius must lie in (0, 1], got 0.0"),
        # one replica has no standard error: each ran and failed on a nan
        *[(experiment, text, args,
           f"{experiment} measures the spread across replicas: replicas must be >= 2, got 1")
          for experiment, text, args in [
              ("field", "replicas = 1\n", []),
              ("chaos", "", ["--replicas", "1"]),
              ("spectrum", "replicas = 1\n", []),
              ("laplace", "gamma2 = 1.0\nreplicas = 1\n", []),
              ("scaling", "gamma2 = 1.0\nresolution = 128\nq.grid = 0.1\nreplicas = 1\n", [])]],
        # each failed after drawing every field: measure_box snapped the box to
        # no cell, the KPZ solvers rejected gamma2, and the cloud its z_min
        ("chaos", "kernel.family = exact2d\ndimension = 2\nresolution = 27\n", [],
         "chaos box of side 0.015625 spans 0.421875 cells; "
         "resolution * lambda must be at least 0.5"),
        ("kpz", "resolution = 729\ngamma2 = 2.5\nalpha.mode = explicit\nalpha.value = 0.5\n"
         "s.grid = 0.3,0.4,0.5,0.6,0.7\n", [],
         "kpz solves the KPZ relation: gamma2 must be below 2d = 2, got 2.5"),
        ("atoms", "alpha.mode = explicit\nalpha.value = 0.99\n", [],
         "z_min = auto resolves to 0 at alpha = 0.99: atoms needs a positive z_min"),
        # each asked numpy for 636 GiB of atoms and died in a MemoryError
        # traceback, exit 1, the code of a failed check
        ("atoms", "gamma2 = 1.5\nlevel = 8\nresolution = 64\nreplicas = 3\n", [],
         "z_min = 3.90625e-15 at alpha = 0.75 expects 8.5e+10 atoms per unit mass, "
         "above the budget of 1e+07: raise z_min"),
        ("laplace", "gamma2 = 1.5\nresolution = 64\nreplicas = 3\n", [],
         "z_min = 3.90625e-15 at alpha = 0.75 expects 8.5e+10 atoms per unit mass, "
         "above the budget of 1e+07: raise z_min"),
        # drew every field, then found no zero crossing in the s grid
        ("kpz", "resolution = 243\ncantor.depth = 5\ns.grid = 0.65,0.7,0.75,0.8,0.85\n", [],
         "s.grid [0.65, 0.85] must bracket the KPZ root 0.5696 at gamma2 = 0.5"),
        # each ran and named two checks alike
        ("spectrum", "q.grid = 0.5,0.5\n", [], "q.grid repeats the value 0.5"),
        ("laplace", "gamma2 = 1.0\nu.grid = 1,1\n", [], "u.grid repeats the value 1"),
        ("scaling", "gamma2 = 1.0\nresolution = 128\nq.grid = 0.1\nscaling.lambdas = 0.5,0.5\n",
         [], "scaling.lambdas repeats the value 0.5"),
        # inside the budget per unit mass, but about 1.2e7 rows of atoms.csv
        ("atoms", "gamma2 = 1.3\nlevel = 8\nresolution = 64\nreplicas = 3\n", [],
         "atoms writes every atom: 3 replicas of 4e+06 expected atoms make 1.2e+07, above "
         "the budget of 1e+07: raise z_min or lower replicas"),
    ], ids=["kpz-s-grid", "duality-depth", "lq-replicas", "scaling-cells", "kpz-dim2",
            "duality-dim2", "lq-depths", "scaling-kernel", "laplace-u-grid", "spectrum-q-grid",
            "lq-q-grid", "scaling-lambdas", "spectrum-lambdas", "spectrum-lambda-cells",
            "tail-default-k", "tail-small-k", "scaling-radius-2", "scaling-radius-0",
            "field-one-replica", "chaos-one-replica", "spectrum-one-replica",
            "laplace-one-replica", "scaling-one-replica", "chaos-box-no-cell",
            "kpz-supercritical", "atoms-z-min-underflow", "atoms-atom-budget",
            "laplace-atom-budget", "kpz-s-grid-bracket", "spectrum-q-grid-repeat",
            "laplace-u-grid-repeat", "scaling-lambdas-repeat", "atoms-replica-budget"])
    def test_unrunnable_config_is_diagnosed(self, tmp_path, capsys, experiment, text, args,
                                            diag):
        # rejected before any ensemble is built
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "out"),
                     *args]) == 2
        assert capsys.readouterr().err == f"gmclab: config error: {diag}\n"
        assert not (tmp_path / "out").exists()

    def test_chaos_run_and_artifacts(self, config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["chaos", "--config", config_file, "--out", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "[PASS] chaos" in captured
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["experiment"] == "chaos"
        assert "masses.csv" in manifest["artifacts"]
        header = (tmp_path / "out" / "masses.csv").read_text().splitlines()[0]
        assert header == "replica,box_id,lambda,mass"

    def test_manifest_seed_scheme_names_each_bit_generator(self, config_file, tmp_path):
        main(["chaos", "--config", config_file, "--out", str(tmp_path / "out")])
        scheme = json.loads((tmp_path / "out" / "manifest.json").read_text())["seed_scheme"]
        assert scheme["bit_generator"] == {
            purpose: type(RngStream(0).generator(0, purpose).bit_generator).__name__
            for purpose in PURPOSES}
        assert scheme["purposes"] == list(PURPOSES)
        # the field draws its replicas in blocks of 64, the atom clouds one each
        assert scheme["field_block"] == 64
        assert scheme["spawn_key"] == "(purpose, replica, 0), with replica // field_block for the field"
        assert "(field, replica // 64, 0)" in scheme["field"]
        assert "real part" in scheme["field"] and "imaginary part" in scheme["field"]

    def test_replica_count_leaves_earlier_replicas(self, config_file, tmp_path):
        # replica r's field depends only on (seed, r): 5 replicas are the first
        # rows of 70, which reach into the second field block
        rows = {}
        for n in (5, 70):
            out = tmp_path / str(n)
            main(["chaos", "--config", config_file, "--out", str(out), "--replicas", str(n)])
            rows[n] = (out / "masses.csv").read_text().splitlines()
        first = [line for line in rows[70] if line.split(",")[0] in {"replica", *map(str, range(5))}]
        assert len(rows[5]) > 1 and rows[5] == first

    def test_duality_at_explicit_alpha(self, tmp_path):
        # the dual's dimension is held to the config's alpha times the
        # chaos's, not to the duality value gamma2/2d
        path = tmp_path / "cfg.txt"
        path.write_text(RERUN_CONFIGS["duality"]
                        + "alpha.mode = explicit\nalpha.value = 0.3\n")
        out = tmp_path / "out"
        assert main(["duality", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["alpha"] == 0.3

    @pytest.mark.parametrize("experiment", sorted(RERUN_CONFIGS))
    def test_rerun_is_byte_identical(self, experiment, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(RERUN_CONFIGS[experiment])
        outs = [tmp_path / "a", tmp_path / "b"]
        codes = [main([experiment, "--config", str(path), "--out", str(out)]) for out in outs]
        assert codes[0] in (0, 1) and codes[0] == codes[1]

        def artifacts(out):
            return {name: (out / name).read_bytes()
                    for name in os.listdir(out) if name != "manifest.json"}

        first = artifacts(outs[0])
        assert first == artifacts(outs[1])  # manifest.json: wall clock differs
        for out in outs:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["artifacts"] == {
                name: hashlib.sha256(blob).hexdigest() for name, blob in first.items()}

    @pytest.mark.parametrize("experiment", sorted(RERUN_CONFIGS))
    def test_checks_are_the_verdict(self, experiment, tmp_path):
        # the run passes exactly when each of its check records does, and
        # summary.txt lists the records in order after its status line
        path = tmp_path / "cfg.txt"
        path.write_text(RERUN_CONFIGS[experiment])
        code = main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        checks = manifest["checks"]
        assert manifest["passed"] == all(c["passed"] for c in checks)
        assert code == (0 if manifest["passed"] else 1)
        names = [c["name"] for c in checks]
        assert len(set(names)) == len(names)
        # lq compares with a conjecture and checks nothing; every other
        # pipeline checks something
        assert (experiment == "lq") == (not checks)
        lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert lines[1] == f"status: {'PASS' if manifest['passed'] else 'FAIL'}"
        assert lines[2 + len(checks)] == ""
        assert [line.partition(" (")[0] for line in lines[2:2 + len(checks)]] == [
            f"check {c['name']}: {'PASS' if c['passed'] else 'FAIL'}" for c in checks]

    def test_seed_override_changes_output(self, config_file, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        main(["chaos", "--config", config_file, "--out", out1])
        main(["chaos", "--config", config_file, "--out", out2, "--seed", "123"])
        a = (tmp_path / "a" / "masses.csv").read_bytes()
        b = (tmp_path / "b" / "masses.csv").read_bytes()
        assert a != b

    def test_replica_override(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        main(["chaos", "--config", config_file, "--out", out, "--replicas", "7"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["replicas"] == 7

    def test_field_run(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        code = main(["field", "--config", config_file, "--out", out, "--replicas", "400"])
        assert code == 0
        assert (tmp_path / "out" / "covariance.csv").exists()

    @pytest.mark.parametrize("text", [
        "gamma2 = 1.0\nlevel = 3\nresolution = 32\nseed = 2\n",
        "kernel.family = exact2d\ndimension = 2\ngamma2 = 1.0\nlevel = 3\nresolution = 16\n"
        "seed = 2\n",
    ], ids=["d1", "d2"])
    def test_atoms_coordinates_lie_in_their_cells(self, tmp_path, text):
        # row i of replica r is atom i of the replica's cloud on (atoms, r, 0);
        # its coordinates come from (positions, r, 0), so 3 replicas are the
        # first rows of 5
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        rows = {}
        for n in (3, 5):
            out = tmp_path / str(n)
            assert main(["atoms", "--config", str(path), "--out", str(out),
                         "--replicas", str(n)]) == 0
            rows[n] = (out / "atoms.csv").read_text().splitlines()
        assert rows[3] == [line for line in rows[5]
                           if line.split(",")[0] in {"replica", "0", "1", "2"}]
        cfg = parse_config_text(text)
        lat = Lattice(cfg.dimension, cfg.resolution)
        table = np.array([[float(v) for v in line.split(",")] for line in rows[5][1:]])
        for r in range(5):
            cells = sample_stable_atoms(lat, cfg.alpha(), cfg.resolved_z_min(),
                                        RngStream(2).generator(r, "atoms")).cells
            coords = table[table[:, 0] == r, 1:1 + lat.d]
            index = np.stack(np.unravel_index(cells, (lat.resolution,) * lat.d), axis=1)
            assert len(coords) == len(cells) > 0
            assert np.all(index * lat.spacing <= coords)
            assert np.all(coords <= (index + 1) * lat.spacing)

    def test_atoms_run_emits_svg(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma2 = 1.0\nlevel = 3\nresolution = 32\n"
                        "replicas = 5\nseed = 2\n")
        out = str(tmp_path / "out")
        code = main(["atoms", "--config", str(path), "--out", out])
        assert code == 0
        assert (tmp_path / "out" / "atoms.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("text", [
    "gamma2 = 1.0\nlevel = 3\nresolution = 32\nz_min = 1e-4\nreplicas = 3\nseed = 5\n",
    "kernel.family = gff-square\ndimension = 2\ngamma2 = 2.0\nlevel = 3\nresolution = 8\n"
    "z_min = 1e-4\nreplicas = 3\nseed = 5\n",
], ids=["exact1d", "gff-square"])
def test_measures_of_one_replica_share_its_field(text):
    # the chaos and both duals of replica r are built on r's one field draw
    cfg = parse_config_text(text)
    alpha, h, d = cfg.alpha(), 1.0 / cfg.resolution, cfg.dimension
    replicas = [(atoms, m, direct, subordinated)
                for _, _, (block, clouds, subordinated_clouds)
                in _measures(cfg, ("chaos", "direct", "subordinated"), RngStream(cfg.seed))
                for m, (atoms, direct), subordinated
                in zip(block.masses, clouds, subordinated_clouds)]
    alone = [m for _, _, (block,) in _measures(cfg, ("chaos",), RngStream(cfg.seed))
             for m in block.masses]
    assert len(replicas) == len(alone) == cfg.replicas
    for (atoms, m, direct, subordinated), m_alone in zip(replicas, alone):
        assert direct.count > 0 and subordinated.count > 0
        np.testing.assert_allclose(
            direct.masses, (m[atoms.cells] / h**d) ** (1 / alpha) * atoms.masses,
            rtol=1e-12)
        assert np.array_equal(m, m_alone)
    stream = RngStream(cfg.seed)
    sampler = pipelines._sampler(cfg)
    for start, _, (m, dual) in _measures(cfg, ("chaos", "dual"), stream):
        for i, r in enumerate(range(start, start + len(m.masses))):
            field = sampler.sample_field(stream, r)
            assert np.array_equal(m.masses[i], alone[r])
            assert np.array_equal(m.masses[i], build_chaos(field, cfg.gamma2).masses)
            expected = build_dual_cells(field, cfg.gamma2, alpha, stream.generator(r, "atoms"))
            assert np.array_equal(dual.masses[i], expected.masses)


@pytest.mark.parametrize("text", [
    "gamma2 = 1.0\nlevel = 3\nresolution = 32\nz_min = 1e-4\nreplicas = 70\nseed = 4\n",
    "kernel.family = gff-square\ndimension = 2\ngamma2 = 2.0\nlevel = 3\nresolution = 8\n"
    "z_min = 1e-4\nreplicas = 70\nseed = 4\n",
], ids=["exact1d", "gff-square"])
def test_block_loop_matches_replica_by_replica(text):
    # 70 replicas: one full field block of 64 and a partial block of 6.  Every
    # row a block yields is the measure built on that replica's own field, and
    # every cloud the one drawn replica by replica, bit for bit
    cfg = parse_config_text(text)
    alpha, z_min, gamma2 = cfg.alpha(), cfg.resolved_z_min(), cfg.gamma2
    stream = RngStream(cfg.seed)
    fields = list(replica_fields(pipelines._sampler(cfg), stream, cfg.replicas))
    rows = []
    for start, field, (m, dual) in _measures(cfg, ("chaos", "dual"), stream):
        assert len(field.values) == len(m.masses) == len(dual.masses)
        for i, r in enumerate(range(start, start + len(field.values))):
            f = fields[r]
            assert np.array_equal(field.values[i], f.values)
            assert np.array_equal(m.masses[i], build_chaos(f, gamma2).masses)
            expected = build_dual_cells(f, gamma2, alpha, stream.generator(r, "atoms"))
            assert np.array_equal(dual.masses[i], expected.masses)
            rows.append(field.values[i])
    assert len(rows) == cfg.replicas
    n = 0
    for start, _, (direct, subordinated) in _measures(cfg, ("direct", "subordinated"), stream):
        for r, ((atoms, mu), nu) in enumerate(zip(direct, subordinated), start):
            f = fields[r]
            cloud = sample_stable_atoms(f.lattice, alpha, z_min, stream.generator(r, "atoms"))
            ref_mu = build_atomic_direct(f, gamma2, cloud)
            ref_nu = build_subordinated(build_chaos(f, gamma2), alpha, z_min,
                                        stream.generator(r, "subordinated"))
            assert np.array_equal(atoms.masses, cloud.masses)
            for got, ref in ((mu, ref_mu), (nu, ref_nu)):
                assert got.count > 0
                assert np.array_equal(got.counts, ref.counts)
                assert np.array_equal(got.masses, ref.masses)
            n += 1
    assert n == cfg.replicas
    # random access reads the same rows
    fresh = pipelines._sampler(cfg)
    for r in (69, 3, 64, 0, 63, 65, 3):
        assert np.array_equal(fresh.sample_field(stream, r).values, rows[r])


@pytest.mark.parametrize("text", [
    "kernel.family = star\ngamma2 = 1.0\nlevel = 3\nresolution = 64\nreplicas = 4\nseed = 3\n",
    "gamma2 = 1.0\nlevel = 3\nresolution = 64\nreplicas = 4\nseed = 3\n",
    "kernel.family = exact2d\ndimension = 2\ngamma2 = 2.0\nlevel = 3\nresolution = 16\n"
    "replicas = 4\nseed = 3\n",
    "kernel.family = gff-square\ndimension = 2\ngamma2 = 2.0\nlevel = 3\nresolution = 8\n"
    "replicas = 4\nseed = 3\n",
], ids=["star", "exact1d", "exact2d", "gff-square"])
def test_field_theory_is_the_per_pair_kernel(text):
    # run_field evaluates all 20 pairs in one call; each value is the one
    # its own pair's call gives, bit for bit
    cfg = parse_config_text(text)
    table = pipelines.run_field(cfg).tables["covariance"]
    spec, pts = pipelines.kernel_spec(cfg), pipelines.lattice_for(cfg).centers()
    ref = [np.ravel(eval_partial_kernel(spec, cfg.level, pts[i], pts[j]))[0]
           for i, j in zip(table["i"], table["j"])]
    assert len(ref) == 20
    assert np.array_equal(table["theory"], ref)


@pytest.mark.parametrize("kind", ["chaos", "dual"])
def test_block_reducers_match_replica_loop(kind, monkeypatch):
    # 70 replicas: one full field block of 64 and a partial block of 6
    cfg = parse_config_text("gamma2 = 1.0\nlevel = 5\nresolution = 243\ncantor.depth = 5\n"
                            "replicas = 70\nseed = 3\n")
    sides = (1.0, 0.5, 0.25, 0.1, 1 / 3)
    levels, s_grid = range(1, 6), np.array([0.0, 0.3, 0.5, 0.7, 1.0])

    def blocks():
        return [ms[0] for _, _, ms in _measures(cfg, (kind,), RngStream(cfg.seed))]

    loop = [LatticeMeasure(block.lattice, m) for block in blocks() for m in block.masses]
    masses = _box_masses(cfg, kind, RngStream(cfg.seed), sides)
    ref = np.array([[measure_box(m, [0.0], [side]) for side in sides] for m in loop])
    assert masses.shape == (70, len(sides)) and np.array_equal(masses, ref)
    sums = _covering_sums(blocks(), levels, s_grid)
    ref = np.array([covering_sums(m, "cantor", levels, s_grid).sums for m in loop])
    assert sums.shape == (70, 5, s_grid.size) and np.array_equal(sums, ref)
    assert [start for start, _, _ in _measures(cfg, (kind,), RngStream(cfg.seed))] == [0, 64]
    # a transform that would pass CHUNK_BYTES is cut to fewer rows, and each
    # chunk is reduced on its own
    rows = 15
    monkeypatch.setattr(gfield, "CHUNK_BYTES", rows * pipelines._sampler(cfg)._row_bytes)
    assert [start for start, _, _ in _measures(cfg, (kind,), RngStream(cfg.seed))] == [
        0, 30, 60, 64]
    assert np.array_equal(_covering_sums(blocks(), levels, s_grid), ref)


def test_lq_draws_only_the_row_it_reads(monkeypatch):
    # lq reads replica 0: one circulant row, not the 32 rows of its block
    sizes = []
    fields = LayerSampler._fields
    monkeypatch.setattr(LayerSampler, "_fields",
                        lambda self, z: sizes.append(len(z)) or fields(self, z))
    assert pipelines.run_lq(parse_config_text(RERUN_CONFIGS["lq"])).passed
    assert sizes == [1]
