"""Self-test of the benchmark harness at tiny replica counts.

Usage (from the root of a gmclab checkout):  python3 perfbench/selftest.py

Checks that
  1. every metric BENCHMARK.json names is emitted, with its unit, in the
     untraced and the traced mode;
  2. the layer self times add up to the traced wall time, which is the
     untraced run_s plus trace.overhead_s;
  3. two differing result tables fed to the comparison count as a failed
     run, and so do a non-finite value, exit code 2, and exit code 1 when
     the pipeline's gate failed at the confirmation seed too; exit code 1
     alone does not.
gff-field-2d is left out: its sampler set-up alone takes seconds at any
replica count, and it runs the same harness code as the other workloads.
"""

from __future__ import annotations

import json
import math
import sys

import run

TINY_REPLICAS = {"chaos-deep-1d": 4, "laplace-dual-1d": 20, "duality-cantor-1d": 10}


def check(ok: bool, what: str, failures: list[str]):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    run.import_gmclab()
    from tracer import TIME_METRICS

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []

    for name, replicas in TINY_REPLICAS.items():
        for trace in (False, True):
            rec = run.measure(name, seed=1, seconds=0, trace=trace,
                              replicas=replicas, samples=2)
            got = {k: u for k, (_, u) in rec["metrics"].items()}
            check(got == wanted[trace],
                  f"{name} trace={int(trace)}: metrics and units match BENCHMARK.json",
                  failures)
            check(rec["ops"].failed == 0 and rec["ops"].attempted >= 3,
                  f"{name} trace={int(trace)}: {rec['ops'].attempted} runs, none failed",
                  failures)
            if not trace:
                continue
            m = {k: v for k, (v, _) in rec["metrics"].items()}
            self_total = sum(m[k] for k in TIME_METRICS)
            check(math.isclose(self_total, m["trace.run_s"], rel_tol=1e-9),
                  f"{name}: layer self times sum to the traced wall time "
                  f"({self_total:.6f} s vs {m['trace.run_s']:.6f} s)", failures)
            check(math.isclose(rec["untraced_run_s"] + m["trace.overhead_s"],
                               m["trace.run_s"], rel_tol=1e-9),
                  f"{name}: untraced run_s + trace.overhead_s = traced wall time",
                  failures)

    reference = {"exit": 0, "tables": {"t.csv": b"a,b\n0,1.5\n"}, "summary": {"x": 1.0}}
    cases = [
        ("identical tables", {**reference, "tables": dict(reference["tables"])},
         reference, False, False),
        ("differing tables", {**reference, "tables": {"t.csv": b"a,b\n0,1.25\n"}},
         reference, False, True),
        ("a non-finite table value", {**reference, "tables": {"t.csv": b"a,b\n0,nan\n"}},
         None, False, True),
        ("exit code 2 (usage error)", {**reference, "exit": 2}, None, False, True),
        ("exit code 1, gate passed at the confirmation seed", {**reference, "exit": 1},
         None, False, False),
        ("exit code 1, gate failed at the confirmation seed", {**reference, "exit": 1},
         None, True, True),
    ]
    for what, snap, ref, confirmed, should_fail in cases:
        ops = run.Ops()
        ops.record(run.judge(snap, ref, confirmed), what)
        check(ops.failed == int(should_fail),
              f"{what}: {'counts as a failed run' if should_fail else 'passes'}", failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
