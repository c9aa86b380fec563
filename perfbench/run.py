"""gmclab pipeline benchmark: one workload per invocation.

Usage (from the root of a gmclab checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `gmclab <pipeline> --config perfbench/workloads/NAME.cfg
--seed N` run, made in this process through gmclab.cli.main.  The package is
imported from the checkout's src/ directory, one workload runs at a time, and
GMCLAB_WORKERS and the BLAS thread count are forced to 1.

--trace 0 measures the end-to-end metrics, with no tracing.  Timed calls,
with a set-up interpreter after three of every four, run until there are at
least SAMPLES calls and SETUP_SAMPLES interpreters and the run has lasted
--seconds:
  run_s        median wall time of one cli.main call, after one warm-up call
  setup_s      median, over fresh interpreters, of `import gmclab.cli` plus
               the workload's LayerSampler construction
  peak_rss_mb  peak resident memory of this process
Both times are normalised to a nominal host speed by a reference job timed
next to each interval (see hostspeed.py).

--trace 1 spends half the time (and at least SAMPLES / 2 calls) on untraced
calls and half on calls traced through perfbench/tracer.py, and reports the per-layer metrics of the traced
calls (mean self times, exact counts) plus the tracing overhead, all in
wall-clock seconds.

Every call is a run: it passes when cli.main returns 0, its numbers are
finite, and its exit code, CSV tables and the `summary` object of
manifest.json equal those of the warm-up call at the same seed.  Exit code 1
means that the pipeline's own statistical gate (3 SE or 95% CI overlap)
failed; the gates do that by chance at up to about 1% of seeds.  So when the
warm-up call exits 1, one more call runs at a confirmation seed, and exit
code 1 fails the runs only if the gate fails there as well (see judge).
summary.txt and the rest of manifest.json are left out of the comparison
because they carry wall-clock time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The environment, the per-call times and the
spans are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads.  The dense backend's small matrix
# products gain nothing from a second thread, and a threaded BLAS waits on
# the other core, so with two threads gff-field-2d's run_s followed the
# host's load (spread 0.23 over ten runs; 0.11 and 0.02 with one thread).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import normalise, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

EXIT_PASS = 0  # gmclab.cli: every check passed
EXIT_STAT_FAIL = 1  # gmclab.cli: the pipeline's statistical gate failed
# the confirmation seed is seed + CONFIRM_OFFSET; the pipelines draw their
# ensembles from seed, seed + 1 and seed + 2, so it lies far from those
CONFIRM_OFFSET = 1_000_003
SAMPLES = 8  # least timed calls per run
SETUP_SAMPLES = 6  # least set-up interpreters per run
SETUP_TIMEOUT_S = 150

# workload -> gmclab pipeline; the config is workloads/<workload>.cfg
WORKLOADS = {
    "chaos-deep-1d": "chaos",
    "laplace-dual-1d": "laplace",
    "duality-cantor-1d": "duality",
    "gff-field-2d": "field",
}


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str], label: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {label}: {p}", file=sys.stderr)


# ---------------------------------------------------------------------------
# one pipeline call and its checks
# ---------------------------------------------------------------------------

def snapshot(rc: int, out_dir: Path) -> dict:
    """The compared result of one call: exit code, CSV tables and the
    manifest summary."""
    tables = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    return {"exit": rc, "tables": tables, "summary": summary}


def _nonfinite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return any(_nonfinite(v) for v in value)
    if isinstance(value, dict):
        return any(_nonfinite(v) for v in value.values())
    return False


def _csv_nonfinite(blob: bytes) -> bool:
    for line in blob.decode("utf-8").splitlines()[1:]:
        for cell in line.split(","):
            try:
                if not math.isfinite(float(cell)):
                    return True
            except ValueError:
                pass
    return False


def judge(snap: dict | None, reference: dict | None,
          gate_confirmed: bool = False) -> list[str]:
    """Problems of one call; an empty list means the call passed.

    Exit code 1 (the pipeline's statistical gate failed) is a problem only
    when gate_confirmed: the gate failed at the confirmation seed too.  A
    gate that fails by chance at a share p of seeds does so at both seeds
    at a share p**2 (below 2e-4 here), while a program that gets a mass, a
    covariance or a Laplace transform wrong fails it at most seeds.
    """
    if snap is None:
        return ["no outputs"]
    problems = []
    if snap["exit"] == EXIT_STAT_FAIL and gate_confirmed:
        problems.append("exit code 1: the pipeline's statistical gate failed "
                        "at this seed and at the confirmation seed")
    elif snap["exit"] not in (EXIT_PASS, EXIT_STAT_FAIL):
        problems.append(f"exit code {snap['exit']}")
    problems += [f"non-finite values in {name}" for name, blob in snap["tables"].items()
                 if _csv_nonfinite(blob)]
    if _nonfinite(snap["summary"]):
        problems.append("non-finite values in the manifest summary")
    if reference is not None:
        for key in ("exit", "tables", "summary"):
            if snap[key] != reference[key]:
                problems.append(f"{key} differs from the first run at this seed")
    return problems


def call(argv: list[str], out_dir: Path):
    """One in-process gmclab.cli.main call: (seconds, snapshot or None)."""
    import gmclab.cli

    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    rc, snap = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = gmclab.cli.main(argv + ["--out", str(out_dir)])
        except Exception:  # a crash is a failed run, not a harness error
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if rc not in (EXIT_PASS, EXIT_STAT_FAIL):
        sys.stderr.write(sink.getvalue())
    if rc is not None:
        try:
            snap = snapshot(rc, out_dir)
        except (OSError, ValueError, KeyError):
            pass
    shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, snap


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(cfg_path: Path) -> tuple[float, float]:
    """(set-up seconds, reference-job seconds) of one fresh interpreter
    (see setup_child.py); the reference job runs here, before and after it."""
    before = reference_seconds()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(cfg_path)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    after = reference_seconds()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]), (before + after) / 2


def measure(name: str, seed: int, seconds: float, trace: bool,
            replicas: int | None = None, samples: int = SAMPLES) -> dict:
    """Run one workload; returns the result record (metrics, ops, details)."""
    from tracer import TIME_METRICS, Tracer, instrument, run_metrics

    pipeline = WORKLOADS[name]
    cfg_path = HERE / "workloads" / f"{name}.cfg"

    def argv_at(s: int) -> list[str]:
        argv = [pipeline, "--config", str(cfg_path), "--seed", str(s)]
        return argv + (["--replicas", str(replicas)] if replicas is not None else [])

    argv = argv_at(seed)
    out_dir = WORK / "out" / name
    ops = Ops()
    record = {"workload": name, "pipeline": pipeline, "seed": seed,
              "seconds": seconds, "trace": int(trace), "replicas": replicas}

    warm_s, reference = call(argv, out_dir)
    record["warmup_s"] = warm_s
    confirmed = False
    if reference is not None and reference["exit"] == EXIT_STAT_FAIL:
        # untimed; a crash or a failed check there confirms the failure too
        _, confirm = call(argv_at(seed + CONFIRM_OFFSET), out_dir)
        record["confirmation"] = {"seed": seed + CONFIRM_OFFSET,
                                  "exit": None if confirm is None else confirm["exit"]}
        confirmed = confirm is None or confirm["exit"] != EXIT_PASS
        print(f"perfbench: the pipeline's gate failed at seed {seed} (exit code 1); "
              f"at seed {seed + CONFIRM_OFFSET} it "
              f"{'failed too' if confirmed else 'passed'}", file=sys.stderr)
    ops.record(judge(reference, None, confirmed), "warm-up run")

    # Set-up interpreters are interleaved with the timed calls, so both
    # samples span the run's whole wall time; the reference job runs before
    # and after each interval to normalise it to the host's speed at that
    # moment.  A traced run has no bound to meet, so it takes half the
    # samples and no set-up.
    budget, least = (seconds / 2, max(1, samples // 2)) if trace else (seconds, samples)
    setups = 0 if trace else max(1, samples * SETUP_SAMPLES // SAMPLES)
    run_wall, run_ref, setup_wall, setup_ref = [], [], [], []
    start = time.perf_counter()
    while len(run_wall) < least or time.perf_counter() - start < budget:
        before = reference_seconds()
        dt, snap = call(argv, out_dir)
        run_ref.append((before + reference_seconds()) / 2)
        run_wall.append(dt)
        ops.record(judge(snap, reference, confirmed), f"run {len(run_wall)}")
        if len(setup_wall) * least < setups * len(run_wall):
            dt, ref = measure_setup(cfg_path)
            setup_wall.append(dt)
            setup_ref.append(ref)
    run_norm = [normalise(w, r) for w, r in zip(run_wall, run_ref)]
    setup_norm = [normalise(w, r) for w, r in zip(setup_wall, setup_ref)]
    record.update(run_wall_s=run_wall, run_reference_s=run_ref, run_s_samples=run_norm,
                  setup_wall_s=setup_wall, setup_reference_s=setup_ref,
                  setup_s_samples=setup_norm)

    if not trace:
        record["metrics"] = {
            "run_s": (statistics.median(run_norm), "s"),
            "setup_s": (statistics.median(setup_norm), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["ops"] = ops
        return record

    # the per-layer times are wall-clock seconds, so the overhead is taken
    # against the untraced calls' wall time
    run_s = statistics.median(run_wall)
    per_run = []
    start = time.perf_counter()
    with Tracer() as tracer:
        instrument(tracer)
        while len(per_run) < least or time.perf_counter() - start < budget:
            first = len(tracer.spans)
            _, snap = call(argv, out_dir)
            problems = judge(snap, reference, confirmed)
            per_run.append(run_metrics(tracer.spans[first:]))
            counts = {k: v for k, v in per_run[-1].items() if k not in TIME_METRICS
                      and not k.startswith("trace.")}
            if counts != {k: per_run[0][k] for k in counts}:
                problems.append("per-layer counts differ from the first traced run")
            ops.record(problems, f"traced run {len(per_run)}")
    spans_path = WORK / "spans" / f"{name}-seed{seed}.jsonl"
    tracer.write(str(spans_path))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["traced_run_s_samples"] = [m["trace.run_s"] for m in per_run]

    # times: mean over traced calls, so the layer self times add up to
    # trace.run_s; counts repeat exactly, so the first call's are reported
    metrics = {}
    for key, value in per_run[0].items():
        if key in TIME_METRICS or key == "trace.run_s":
            metrics[key] = (statistics.fmean(m[key] for m in per_run), "s")
        elif key == "atomic.atom_count_ratio":
            metrics[key] = (value, "ratio")
        else:
            metrics[key] = (value, "count")
    metrics["trace.overhead_s"] = (metrics["trace.run_s"][0] - run_s, "s")
    record["untraced_run_s"] = run_s
    record["metrics"] = metrics
    record["ops"] = ops
    return record


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(ran_alone: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "GMCLAB_WORKERS": os.environ.get("GMCLAB_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ran_alone": ran_alone,
    }


def import_gmclab():
    """Import gmclab from this checkout's src/, refusing any other copy."""
    if not (SRC / "gmclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gmclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmclab.cli

    if Path(gmclab.cli.__file__).resolve().parent != SRC / "gmclab":
        raise SystemExit(f"perfbench: imported gmclab from {gmclab.cli.__file__}, "
                         f"not from {SRC}")


def result_line(record: dict) -> str:
    ops = record["ops"]
    return json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["GMCLAB_WORKERS"] = "1"
    import_gmclab()
    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            ran_alone = True
        except BlockingIOError:
            fcntl.flock(lock, fcntl.LOCK_EX)
            ran_alone = False
        env = environment(ran_alone)
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    record["environment"] = env
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**record, "ops": vars(record["ops"])}, fh, indent=2)
        fh.write("\n")
    print("environment: " + json.dumps(env))
    print(f"{args.workload} wall-clock run: median {statistics.median(record['run_wall_s']):.6g} s "
          f"over {len(record['run_wall_s'])} calls")
    for key, (value, unit) in record["metrics"].items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
