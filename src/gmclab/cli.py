"""Command line front end.

Usage: gmclab <subcommand> --config <path> [--seed N] [--out DIR] [--replicas N]

Exit codes: 0 every check passed, 1 a check failed, 2 usage or configuration
error.  Every run writes its tables as CSV, a summary.txt with one line per
check after its status, and a manifest.json with the checks under `checks` and
sha256 digests of all artifacts, so reruns with the same config and seed can be
verified byte for byte.  Its `diagnostics` (library versions, realised against
expected atom counts) are kept out of the compared artifacts and `summary`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, ExperimentConfig, config_to_dict, load_config, validate_config
from .field import FIELD_BLOCK, PURPOSES
from .pipelines import PIPELINES, Check, PipelineResult

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2


def write_csv(path: str, table: dict):
    """Write a table, column name -> 1-D array or list, in header order.

    A cell is str of its column's .tolist() element: an int or a label as
    itself, a float as its shortest round-trip repr.  A column of another
    length raises ValueError."""
    columns = [np.asarray(col).tolist() for col in table.values()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(table) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*columns, strict=True))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_line(check: Check) -> str:
    return (f"check {check.name}: {'PASS' if check.passed else 'FAIL'} "
            f"(statistic {check.statistic}, threshold {check.threshold})")


def _summary_text(result: PipelineResult, cfg: ExperimentConfig) -> str:
    lines = [
        f"gmclab {__version__}  experiment={result.name}  "
        f"seed={cfg.seed}  replicas={cfg.replicas}",
        f"status: {'PASS' if result.passed else 'FAIL'}",
        *map(_check_line, result.checks),
        "",
        *(f"{key}: {value}" for key, value in result.summary.items()),
    ]
    return "\n".join(lines) + "\n"


def write_outputs(result: PipelineResult, cfg: ExperimentConfig,
                  out_dir: str, elapsed: float) -> str:
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    for name, table in result.tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        write_csv(path, table)
        artifacts.append(path)
    for name, blob in result.extra_files.items():
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(blob)
        artifacts.append(path)
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(_summary_text(result, cfg))
    artifacts.append(summary_path)
    manifest = {
        "tool": "gmclab",
        "version": __version__,
        "experiment": result.name,
        "passed": result.passed,
        "checks": [asdict(c) for c in result.checks],
        "config": config_to_dict(cfg),
        "seed_scheme": {
            "bit_generator": {purpose: bg.__name__ for purpose, (_, bg) in PURPOSES.items()},
            "field_block": FIELD_BLOCK,
            "spawn_key": ("(purpose, replica // field_block, 0) for every purpose: one "
                          "substream per purpose and block, read in replica order"),
            "field": (f"one substream per block of {FIELD_BLOCK} replicas, "
                      f"(field, replica // {FIELD_BLOCK}, 0), drawn in replica order; "
                      "circulant draw k of a block gives replica 2k its real part "
                      "and replica 2k + 1 its imaginary part; sine draw k is replica k"),
            "purposes": list(PURPOSES),
        },
        "wall_clock_seconds": elapsed,
        "summary": result.summary,
        "diagnostics": {"versions": {"python": platform.python_version(),
                                     "numpy": np.__version__, "scipy": scipy.__version__},
                        **result.diagnostics},
        "artifacts": {os.path.basename(p): _sha256(p) for p in artifacts},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return manifest_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmclab",
        description="Multiplicative chaos simulation and verification pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"gmclab {__version__}")
    sub = parser.add_subparsers(dest="experiment", metavar="subcommand")
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--replicas", type=int, default=None, help="override the replica count")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"gmclab: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    diags = validate_config(cfg, args.experiment)
    if diags:
        for d in diags:
            print(f"gmclab: config error: {d}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        result = PIPELINES[args.experiment](cfg)
    except (ValueError, KeyError) as exc:
        print(f"gmclab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - start
    manifest_path = write_outputs(result, cfg, cfg.out_dir, elapsed)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {args.experiment}: outputs in {cfg.out_dir} "
          f"({elapsed:.2f} s); manifest {manifest_path}")
    for line in map(_check_line, result.checks):
        print(f"  {line}")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    return EXIT_PASS if result.passed else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
