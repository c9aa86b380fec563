import hashlib
import json
import os

import pytest

from gmclab.cli import main, write_csv
from gmclab.config import (
    ConfigError,
    parse_config_text,
    validate_config,
)

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


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(BASE_CONFIG)
    return str(path)


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

    def test_alpha_modes(self):
        cfg = parse_config_text("gamma2 = 1.0\n")
        assert cfg.alpha() == pytest.approx(0.5)
        cfg = parse_config_text("alpha.mode = explicit\nalpha.value = 0.3\n")
        assert cfg.alpha() == pytest.approx(0.3)

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
        write_csv(str(path), ["a", "b"], [(1, value)])
        line = path.read_text().splitlines()[1]
        assert float(line.split(",")[1]) == value


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

    def test_atoms_run_emits_svg(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma2 = 1.0\nlevel = 3\nresolution = 32\n"
                        "replicas = 5\nseed = 2\n")
        out = str(tmp_path / "out")
        code = main(["atoms", "--config", str(path), "--out", out])
        assert code == 0
        assert (tmp_path / "out" / "atoms.svg").read_text().startswith("<svg")
