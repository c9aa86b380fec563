"""sha256 of every artifact but manifest.json, for the reference configs.

Usage (from the root of a gmclab checkout):

    python3 tools/digests.py [--seed N]

Runs each of the seventeen reference configs below through gmclab.cli.main at
the given seed (default 7) in a temporary directory and prints one line per
config with its exit code, one line per check that failed (read from the
manifest's `checks`), then one line per artifact:

    <config> exit <code>
    <config> failed <check>
    <config> <artifact> <sha256>

Every artifact but manifest.json (which carries the wall-clock time) is
reproducible byte for byte, so comparing two trees is one run on each and a
diff of the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gmclab.cli import main  # noqa: E402

WORKLOADS = ROOT / "perfbench" / "workloads"

# name: (subcommand, config file or key = value lines)
CONFIGS = {
    "chaos": ("chaos", WORKLOADS / "chaos-deep-1d.cfg"),
    "laplace": ("laplace", WORKLOADS / "laplace-dual-1d.cfg"),
    "duality": ("duality", WORKLOADS / "duality-cantor-1d.cfg"),
    "field": ("field", WORKLOADS / "gff-field-2d.cfg"),
    "atoms": ("atoms", """
        kernel.family = exact1d
        gamma2 = 1.0
        level = 4
        resolution = 64
        replicas = 5
    """),
    "spectrum": ("spectrum", """
        kernel.family = exact1d
        gamma2 = 0.5
        level = 5
        resolution = 256
        replicas = 200
        lambda.grid = 0.5,0.25,0.125,0.0625
        q.grid = 0.5,1.0
    """),
    "tail": ("tail", """
        kernel.family = exact1d
        gamma2 = 1.0
        level = 3
        resolution = 64
        replicas = 2000
        z_min = 1e-6
        hill.k = 60
    """),
    "scaling": ("scaling", """
        kernel.family = exact1d
        gamma2 = 1.0
        level = 4
        resolution = 128
        replicas = 300
        z_min = 1e-6
        q.grid = 0.1,0.2
        scaling.lambdas = 0.5,0.25
    """),
    "kpz": ("kpz", """
        kernel.family = exact1d
        gamma2 = 0.5
        level = 5
        resolution = 243
        cantor.depth = 5
        s.grid = 0.30,0.35,0.40,0.45,0.50,0.55,0.60,0.65,0.70,0.75
        replicas = 30
    """),
    "lq": ("lq", """
        kernel.family = exact1d
        gamma2 = 0.5
        level = 5
        resolution = 256
        q.grid = 0,0.5,1
        replicas = 1
    """),
    "field-star": ("field", """
        kernel.family = star
        gamma2 = 0.5
        level = 3
        resolution = 64
        replicas = 300
    """),
    "field-exact2d": ("field", """
        kernel.family = exact2d
        dimension = 2
        gamma2 = 1.0
        level = 3
        resolution = 16
        replicas = 300
    """),
    "chaos-exact2d": ("chaos", """
        kernel.family = exact2d
        dimension = 2
        gamma2 = 1.0
        level = 3
        resolution = 32
        replicas = 100
        lambda.grid = 0.5,0.25,0.125,0.0625
    """),
    "lq-exact2d": ("lq", """
        kernel.family = exact2d
        dimension = 2
        gamma2 = 1.0
        level = 3
        resolution = 32
        q.grid = 0,0.5,1
        replicas = 1
    """),
    "atoms-exact2d": ("atoms", """
        kernel.family = exact2d
        dimension = 2
        gamma2 = 1.0
        level = 3
        resolution = 16
        replicas = 3
    """),
    "laplace-gff": ("laplace", """
        kernel.family = gff-square
        dimension = 2
        gamma2 = 2.0
        level = 3
        resolution = 32
        replicas = 400
        z_min = 1e-6
    """),
    "tail-gff": ("tail", """
        kernel.family = gff-square
        dimension = 2
        gamma2 = 2.0
        level = 3
        resolution = 16
        replicas = 2000
        z_min = 1e-6
    """),
}


def digests(name: str, seed: int, work: Path) -> list[str]:
    """Run one reference config and list its exit code, its failed checks and
    its artifact digests (the sha256 values cli.write_outputs records in
    manifest.json)."""
    subcommand, source = CONFIGS[name]
    if isinstance(source, Path):
        cfg = source
    else:
        cfg = work / f"{name}.cfg"
        cfg.write_text("\n".join(line.strip() for line in source.strip().splitlines()) + "\n")
    out = work / name
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([subcommand, "--config", str(cfg), "--seed", str(seed), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    return ([f"{name} exit {code}"]
            + [f"{name} failed {c['name']}" for c in manifest["checks"] if not c["passed"]]
            + [f"{name} {a} {h}" for a, h in sorted(manifest["artifacts"].items())])


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="master seed (default 7)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="gmclab-digests-") as tmp:
        for name in CONFIGS:
            for line in digests(name, args.seed, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
