"""Which ``repro`` calls the traced run times, and the per-layer metrics.

A layer is a ``repro`` subpackage.  :func:`install` wraps the public
functions and methods at each layer boundary with :class:`tracing.Tracer`
spans and counters; :func:`per_layer_metrics` turns the recorded spans
into the metrics listed in :data:`LAYER_METRICS`.  Every entry also
names the end-to-end metric the layer should move and on which
workload -- the prediction a change to that layer is judged against.
"""

import os

import numpy as np

from stats import median
from tracing import call_count, outermost, self_times, total_self_time, \
    total_time

#: (metric, unit, better, end-to-end metric it should move, workload).
LAYER_METRICS = (
    ("package3d.build_s", "s", "lower",
     "setup_s; job_latency_p50_s", "all; service_open_loop"),
    ("package3d.builds", "count", "lower",
     "setup_s; job_latency_p50_s", "all; service_open_loop"),
    ("fit.assembly_s", "s", "lower", "setup_s", "all"),
    ("fit.field_s", "s", "lower", "samples_per_s", "mc_fixed_blocked"),
    ("fit.field_calls", "count", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("solvers.factorize_s", "s", "lower",
     "setup_s; samples_per_s; job_latency_p50_s",
     "all; mc_adaptive_scalar; service_open_loop"),
    ("solvers.cache_hits", "count", "higher",
     "setup_s; samples_per_s; job_latency_p50_s",
     "all; mc_adaptive_scalar; service_open_loop"),
    ("solvers.cache_misses", "count", "lower",
     "setup_s; samples_per_s; job_latency_p50_s",
     "all; mc_adaptive_scalar; service_open_loop"),
    ("solvers.cache_hit_ratio", "ratio", "higher",
     "setup_s; samples_per_s; job_latency_p50_s",
     "all; mc_adaptive_scalar; service_open_loop"),
    ("backends.factorize_s", "s", "lower",
     "setup_s; samples_per_s; job_latency_p50_s",
     "all; mc_adaptive_scalar; service_open_loop"),
    ("solvers.el_batch_s", "s", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("solvers.th_batch_s", "s", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("solvers.batch_calls", "count", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("solvers.backsolve_columns", "count", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("solvers.scalar_solve_s", "s", "lower", "samples_per_s",
     "mc_adaptive_scalar"),
    ("solvers.scalar_solves", "count", "lower", "samples_per_s",
     "mc_adaptive_scalar"),
    ("solvers.adaptive_steps", "count", "lower", "samples_per_s",
     "mc_adaptive_scalar"),
    ("solvers.adaptive_accept_ratio", "ratio", "higher", "samples_per_s",
     "mc_adaptive_scalar"),
    ("coupled.block_transient_self_s", "s", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("coupled.iterations_per_step", "iter/step", "lower", "samples_per_s",
     "mc_fixed_blocked"),
    ("coupled.step_once_s", "s", "lower", "samples_per_s",
     "mc_adaptive_scalar"),
    ("coupled.step_once_calls", "count", "lower", "samples_per_s",
     "mc_adaptive_scalar"),
    ("campaign.evaluate_chunk_s", "s", "lower", "job_latency_p50_s",
     "service_open_loop"),
    ("campaign.chunks", "count", "lower", "job_latency_p50_s",
     "service_open_loop"),
    ("campaign.store_write_s", "s", "lower", "job_latency_p50_s",
     "service_open_loop"),
    ("campaign.store_bytes", "B", "lower", "job_latency_p50_s",
     "service_open_loop"),
    ("campaign.fold_s", "s", "lower", "job_latency_p50_s",
     "service_open_loop"),
    ("campaign.unattributed_frac", "ratio", "lower",
     "none (coverage guard)", "all"),
    ("service.queue_wait_p50_s", "s", "lower",
     "job_latency_p50_s; job_latency_p75_s", "service_open_loop"),
    ("service.run_p50_s", "s", "lower",
     "job_latency_p50_s; job_latency_p75_s", "service_open_loop"),
    ("service.http_rtt_p50_s", "s", "lower",
     "job_latency_p50_s; job_latency_p75_s", "service_open_loop"),
    ("service.status_polls", "count", "higher",
     "job_latency_p50_s; job_latency_p75_s", "service_open_loop"),
    ("service.queue_depth_max", "count", "lower",
     "job_latency_p50_s; job_latency_p75_s", "service_open_loop"),
    ("client.generator_lag_max_s", "s", "lower",
     "none (run validity)", "service_open_loop"),
    ("trace.overhead_frac", "ratio", "lower", "none (run validity)", "all"),
)

LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}

RUN = "campaign.run"
#: Store write methods and the file each one wrote.
STORE_WRITES = {
    "write_chunk": lambda store, result: result,
    "write_reducer_state": lambda store, result: store.reducer_state_path,
    "write_progress": lambda store, result: store.progress_path,
    "write_summary": lambda store, result: store.summary_path,
}


def install(tracer, electrical_size):
    """Wrap every traced ``repro`` boundary and return ``tracer``.

    Undo with ``tracer.restore()`` or by leaving ``with tracer``; a
    failure half way restores what was already wrapped.
    ``electrical_size`` is the unknown count of the electrical Woodbury
    system, which splits ``solve_batch`` into electrical and thermal
    solves.
    """
    try:
        _wrap_all(tracer, electrical_size)
    except BaseException:
        tracer.restore()
        raise
    return tracer


def _wrap_all(tracer, electrical_size):
    from repro.backends import get_array_backend
    from repro.campaign import executor, reducer, runner
    from repro.campaign.store import ArtifactStore
    from repro.coupled.electrothermal import (
        BlockedCoupledSolver,
        CoupledSolver,
    )
    from repro.fit.assembly import FITDiscretization
    from repro.package3d.uq_study import Date16UncertaintyStudy
    from repro.service import manager
    from repro.solvers import adaptive
    from repro.solvers.cache import FactorizationCache
    from repro.solvers.woodbury import WoodburySolver

    # The benchmark calls run_campaign through the runner module and the
    # service through its manager's import, so both names are wrapped.
    tracer.wrap(runner, "run_campaign", RUN)
    tracer.wrap(manager, "run_campaign", RUN)

    tracer.wrap(Date16UncertaintyStudy, "__init__", "package3d.build")

    for method in ("__init__", "electrical_stiffness", "thermal_stiffness",
                   "stiffness_from_diagonal"):
        tracer.wrap(FITDiscretization, method, "fit.assembly")
    for method in ("cell_field_components", "node_power_from_cells"):
        tracer.wrap(FITDiscretization, method, "fit.field")

    def cache_before(args, kwargs):
        return args[0].hits

    def cache_after(hits_before, result, args, kwargs):
        hit = args[0].hits > hits_before
        tracer.count("solvers.cache_hits" if hit else "solvers.cache_misses")

    tracer.wrap(FactorizationCache, "factorize", "solvers.factorize",
                before=cache_before, after=cache_after)
    tracer.wrap(type(get_array_backend()), "factorize", "backends.factorize")

    def batch_name(args, kwargs):
        if args[0].size == electrical_size:
            return "solvers.el_batch"
        return "solvers.th_batch"

    def batch_after(token, result, args, kwargs):
        shape = (args[2] if len(args) > 2 else kwargs["rhs"]).shape
        tracer.count("solvers.backsolve_columns",
                     1 if len(shape) == 1 else shape[1])

    tracer.wrap(WoodburySolver, "solve_batch", batch_name, after=batch_after)
    tracer.wrap(WoodburySolver, "solve", "solvers.scalar_solve")

    def adaptive_after(token, result, args, kwargs):
        tracer.count("solvers.adaptive_accepted", result.accepted)
        tracer.count("solvers.adaptive_steps",
                     result.accepted + result.rejected)

    tracer.wrap(adaptive, "adaptive_implicit_euler", "solvers.adaptive",
                after=adaptive_after)

    def block_after(token, result, args, kwargs):
        iterations = np.asarray(result.iterations_per_step)
        tracer.count("coupled.iterations", float(iterations.sum()))
        tracer.count("coupled.iteration_entries", int(iterations.size))

    tracer.wrap(BlockedCoupledSolver, "solve_transient_block",
                "coupled.block_transient", after=block_after)
    tracer.wrap(CoupledSolver, "step_once", "coupled.step_once")

    tracer.wrap(executor, "evaluate_chunk", "campaign.evaluate_chunk")
    for method, written in STORE_WRITES.items():
        def store_after(token, result, args, kwargs, written=written):
            path = written(args[0], result)
            tracer.count("campaign.store_bytes", os.path.getsize(path))

        tracer.wrap(ArtifactStore, method, "campaign.store_write",
                    after=store_after)
    pending = [reducer.Reducer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "fold" in vars(cls):
            tracer.wrap(cls, "fold", "campaign.fold")


def per_layer_metrics(tracer, service=None, overhead_frac=0.0,
                      generator_lag_max_s=0.0):
    """Every metric of :data:`LAYER_METRICS` from one traced phase.

    ``service`` holds the service-side figures the client measured
    (``queue_wait``, ``run``, ``http_rtt`` lists, ``status_polls``,
    ``queue_depth_max``); MC workloads pass ``None`` and report them
    as 0.
    """
    spans = tracer.spans
    counters = tracer.counters
    selfs = self_times(spans)
    hits = counters.get("solvers.cache_hits", 0)
    misses = counters.get("solvers.cache_misses", 0)
    attempted = counters.get("solvers.adaptive_steps", 0)
    entries = counters.get("coupled.iteration_entries", 0)
    run_wall = total_time(spans, RUN)
    run_self = sum(selfs[span.span_id] for span in outermost(spans, RUN))
    service = service or {}

    def p50(key):
        values = service.get(key)
        return median(values) if values else 0.0

    metrics = {
        "package3d.build_s": total_time(spans, "package3d.build"),
        "package3d.builds": call_count(spans, "package3d.build"),
        "fit.assembly_s": total_time(spans, "fit.assembly"),
        "fit.field_s": total_time(spans, "fit.field"),
        "fit.field_calls": call_count(spans, "fit.field"),
        "solvers.factorize_s": total_time(spans, "solvers.factorize"),
        "solvers.cache_hits": hits,
        "solvers.cache_misses": misses,
        "solvers.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "backends.factorize_s": total_time(spans, "backends.factorize"),
        "solvers.el_batch_s": total_time(spans, "solvers.el_batch"),
        "solvers.th_batch_s": total_time(spans, "solvers.th_batch"),
        "solvers.batch_calls": (call_count(spans, "solvers.el_batch")
                                + call_count(spans, "solvers.th_batch")),
        "solvers.backsolve_columns":
            counters.get("solvers.backsolve_columns", 0),
        "solvers.scalar_solve_s": total_time(spans, "solvers.scalar_solve"),
        "solvers.scalar_solves": call_count(spans, "solvers.scalar_solve"),
        "solvers.adaptive_steps": attempted,
        "solvers.adaptive_accept_ratio": (
            counters.get("solvers.adaptive_accepted", 0) / attempted
            if attempted else 0.0
        ),
        "coupled.block_transient_self_s": total_self_time(
            spans, "coupled.block_transient", selfs
        ),
        "coupled.iterations_per_step": (
            counters.get("coupled.iterations", 0.0) / entries
            if entries else 0.0
        ),
        "coupled.step_once_s": total_time(spans, "coupled.step_once"),
        "coupled.step_once_calls": call_count(spans, "coupled.step_once"),
        "campaign.evaluate_chunk_s":
            total_time(spans, "campaign.evaluate_chunk"),
        "campaign.chunks": call_count(spans, "campaign.evaluate_chunk"),
        "campaign.store_write_s": total_time(spans, "campaign.store_write"),
        "campaign.store_bytes": counters.get("campaign.store_bytes", 0),
        "campaign.fold_s": total_time(spans, "campaign.fold"),
        "campaign.unattributed_frac": (
            run_self / run_wall if run_wall else 0.0
        ),
        "service.queue_wait_p50_s": p50("queue_wait"),
        "service.run_p50_s": p50("run"),
        "service.http_rtt_p50_s": p50("http_rtt"),
        "service.status_polls": service.get("status_polls", 0),
        "service.queue_depth_max": service.get("queue_depth_max", 0),
        "client.generator_lag_max_s": generator_lag_max_s,
        "trace.overhead_frac": overhead_frac,
    }
    missing = set(LAYER_UNITS) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metric table mismatch: {missing}")
    return metrics


_NO_SERVICE = {
    "service.queue_wait_p50_s": "no service in this workload",
    "service.run_p50_s": "no service in this workload",
    "service.http_rtt_p50_s": "no service in this workload",
    "service.status_polls": "no service in this workload",
    "service.queue_depth_max": "no service in this workload",
    "client.generator_lag_max_s": "closed-loop client",
}
_NO_SCALAR = {
    "solvers.scalar_solve_s": "the blocked kernel makes no scalar solves",
    "solvers.scalar_solves": "the blocked kernel makes no scalar solves",
    "solvers.adaptive_steps": "fixed time stepping",
    "solvers.adaptive_accept_ratio": "fixed time stepping",
    "coupled.step_once_s": "no per-sample stepping",
    "coupled.step_once_calls": "no per-sample stepping",
}
_NO_BLOCKED = {
    "solvers.el_batch_s": "adaptive stepping bypasses the blocked kernel",
    "solvers.th_batch_s": "adaptive stepping bypasses the blocked kernel",
    "solvers.batch_calls": "adaptive stepping bypasses the blocked kernel",
    "solvers.backsolve_columns": "adaptive stepping bypasses the blocked "
                                 "kernel",
    "coupled.block_transient_self_s": "no blocked transient",
    "coupled.iterations_per_step": "no blocked transient",
}

#: Why a per-layer metric reads 0 on a workload by construction.
STRUCTURAL_ZEROS = {
    "mc_fixed_blocked": {**_NO_SCALAR, **_NO_SERVICE},
    "mc_adaptive_scalar": {**_NO_BLOCKED, **_NO_SERVICE},
    "service_open_loop": _NO_SCALAR,
}
