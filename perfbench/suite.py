"""Run every perfbench workload, one after another, and print its metrics.

Usage (from the root of a gmclab checkout):

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds of BENCHMARK.json.  With --trace 0 each
workload prints run_s, setup_s, peak_rss_mb and failed_ops (failed runs over
attempted runs).  With --trace 1 it prints the per-layer metrics, the layer
with the largest self time, and whether that is the layer predicted for the
workload: the text after "predicted dominant layer: " in the workload's
`why` in BENCHMARK.json, layers (or single time metrics) joined by " + ".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORK, WORKLOADS

RUN_TIMEOUT_S = 900
PREDICTION = "predicted dominant layer: "

# layer -> its per-layer self-time metrics
TIME_LAYERS = {
    "kernels": ("kernels.eval_s",),
    "field": ("field.prepare_s", "field.draw_s", "field.rng_s"),
    "chaos": ("chaos.build_s", "chaos.box_s"),
    "atomic": ("atomic.sample_s", "atomic.direct_s", "atomic.subordinated_s",
               "atomic.box_s"),
    "analysis": ("analysis.covering_s", "analysis.bootstrap_s", "analysis.other_s"),
    "pipelines": ("pipelines.self_s",),
    "cli": ("cli.config_s", "cli.write_s", "cli.main_s"),
}


def dominant(metrics: dict, predicted: tuple[str, ...]) -> tuple[str, bool]:
    """Largest layer by self time, and whether the predicted layers (or
    single time metrics) together exceed every other layer."""
    value = {k: m["value"] for k, m in metrics.items()}
    chosen = {k for p in predicted for k in TIME_LAYERS.get(p, (p,))}
    label = " + ".join(predicted)
    totals = {layer: sum(value[k] for k in keys if k not in chosen)
              for layer, keys in TIME_LAYERS.items() if layer not in predicted}
    totals[label] = sum(value[k] for k in chosen)
    top = max(totals, key=totals.get)
    return top, top == label


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    predicted = {w["name"]: tuple(w["why"].rsplit(PREDICTION, 1)[1].split(" + "))
                 for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status, env = 0, None
    for name, pipeline in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json",
                  encoding="utf-8") as fh:
            record = json.load(fh)
        env = record["environment"]
        print(f"{name}  ({pipeline} pipeline, seed {args.seed})")
        for key, m in result["metrics"].items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"  {key:30s} {value} {m['unit']}")
        print(f"  {'failed_ops':30s} {result['failed'] / result['attempted']:.6g} fraction"
              f"  ({result['failed']} of {result['attempted']} runs)")
        if args.trace:
            top, ok = dominant(result["metrics"], predicted[name])
            print(f"  dominant self time: {top}  "
                  f"(predicted {' + '.join(predicted[name])}: {'yes' if ok else 'NO'})")
        if result["failed"]:
            status = 1
    print(f"environment: {json.dumps(env)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
