"""The benchmark of record for ``repro``: one workload per invocation.

Run from the checkout root::

    python3 perfbench/run.py --workload mc_fixed_blocked --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs a fixed amount of work untraced and then traced and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment.  ``--workload all`` runs every workload in its
own process and prints a table.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from statistics import fmean

import checkout
from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up probes per run (after one unmeasured warm-up probe); the
#: reported ``setup_s`` is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_p75_s": "s",
    "jobs_per_s": "jobs/s",
}


def measure_setup(kind, work):
    """Median of :data:`SETUP_PROBES` cold set-ups in fresh processes."""
    def probe():
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), kind,
             "--work", work],
            cwd=checkout.ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        return float(completed.stdout.strip().splitlines()[-1])

    probe()
    return median([probe() for _ in range(SETUP_PROBES)])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, work, verdict):
    import workloads

    kind = "service" if workload == "service_open_loop" else "mc"
    setup = measure_setup(kind, work)
    workloads.warm_process(workload)
    if kind == "mc":
        campaigns, error = workloads.run_mc(workload, seed, seconds, work,
                                            verdict)
        metrics = workloads.mc_metrics(campaigns)
        notes = {"campaign_walls_s": [wall for wall, _ in campaigns],
                 "reference_error_k": error}
    else:
        client = workloads.run_service(seed, seconds, work, verdict)
        metrics = workloads.service_metrics(client)
        notes = {
            "jobs": len(client.specs),
            "arrival_rate_per_s": workloads.ARRIVAL_RATE,
            "latency_limit_s": workloads.LATENCY_LIMIT_S,
            "p75_meets_limit":
                metrics["job_latency_p75_s"] <= workloads.LATENCY_LIMIT_S,
        }
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, END_TO_END_UNITS, notes


def per_layer(workload, seed, seconds, work, verdict, trace_path):
    import layers
    import workloads
    from tracing import Tracer

    # The process's cold model build is traced too, so the set-up layers
    # (assembly, factorization) show; no blocked solve runs in it.
    tracer = Tracer()
    with layers.install(tracer, electrical_size=None):
        electrical_size = workloads.warm_process(workload)

    def factory():
        return layers.install(tracer, electrical_size)

    if workload == "service_open_loop":
        untraced = workloads.run_service(seed, seconds, work, verdict)
        traced = workloads.run_service(seed, seconds, work, verdict,
                                       factory)
        base_runs = workloads.service_layer_figures(untraced)["run"]
        figures = workloads.service_layer_figures(traced)
        overhead = fmean(figures["run"]) / fmean(base_runs) - 1.0
        lag = workloads.lag_max(traced)
    else:
        overhead = workloads.run_mc_traced(workload, seed, work, verdict,
                                           factory)
        figures, lag = None, 0.0
    metrics = layers.per_layer_metrics(tracer, figures, overhead, lag)
    tracer.dump(trace_path, extra={"workload": workload, "seed": seed})
    notes = {"zero_by_construction": {
        name: reason
        for name, reason in layers.STRUCTURAL_ZEROS[workload].items()
        if not metrics[name]
    }}
    return metrics, layers.LAYER_UNITS, notes


def run_workload(args):
    import workloads

    os.makedirs(checkout.WORK, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = tempfile.mkdtemp(prefix=stem + "-", dir=checkout.WORK)
    try:
        environment = checkout.environment()
        verdict = workloads.Verdict()
        if args.trace:
            trace_path = os.path.join(checkout.WORK, f"trace-{stem}.json")
            metrics, units, notes = per_layer(
                args.workload, args.seed, args.seconds, work, verdict,
                trace_path,
            )
        else:
            metrics, units, notes = end_to_end(
                args.workload, args.seed, args.seconds, work, verdict
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "notes": notes,
              "problems": verdict.problems, "result": result}
    with open(os.path.join(checkout.WORK, f"result-{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for problem in verdict.problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print("environment: " + json.dumps({**environment, "notes": notes}))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, then one table."""
    import workloads

    rows = []
    for workload in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=checkout.ROOT, capture_output=True, text=True, check=True,
        )
        rows.append((workload,
                     json.loads(completed.stdout.strip().splitlines()[-1])))
    for workload, result in rows:
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({workload: result for workload, result in rows}))


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checkout.import_repro()
    except checkout.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
