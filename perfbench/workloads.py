"""The benchmark's three workloads, driven through ``repro``'s public API.

* ``mc_fixed_blocked`` -- the paper's Monte Carlo study as
  ``date16_campaign_spec`` defines it (coarse mesh, 12 wires,
  truncated-normal elongations, 51-point horizon, traces QoI, moments
  reducer), in chunks of 16 on the serial executor into on-disk stores.
  The sample-blocked kernel does nearly all the work here.
* ``mc_adaptive_scalar`` -- the same problem with adaptive time
  stepping, which bypasses the blocked kernel: per-sample scalar steps
  and one thermal factorization per dt-ladder rung.
* ``service_open_loop`` -- small campaigns submitted over HTTP to an
  in-process ``CampaignService`` at a fixed rate below its capacity,
  with status polls beside the runners' store writes.

Each MC run is a closed loop of campaigns: the first is the fixed
reference campaign (its samples are checked against the committed
reference), the rest have campaign seeds drawn from ``--seed``.
"""

import itertools
import math
import os
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext

import numpy as np

from stats import (
    due_times,
    generator_lag,
    jobs_for_percentile,
    median,
    open_loop_latencies,
    percentile,
)

WORKLOADS = ("mc_fixed_blocked", "mc_adaptive_scalar", "service_open_loop")

#: Campaign seed of the reference campaign every MC run starts with.
REFERENCE_SEED = 2016
#: Its samples compared with ``reference/date16_reference.npz``.
REFERENCE_INDICES = (2, 7, 9, 14)
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "date16_reference.npz")

#: ``(samples, chunk size)`` of one campaign of each MC workload.
CAMPAIGN_SHAPE = {
    "mc_fixed_blocked": (16, 16),
    "mc_adaptive_scalar": (16, 8),
}

#: Largest |trace - reference| in kelvin each MC workload may show.
#: The fixed grid iterates its fixed point to 1e-3 K, and that is the
#: bound: the blocked path sits 7.7e-5 K from the reference at this
#: checkpoint, which leaves room for the ~5e-5 K shifts a better
#: conditioned Woodbury update or another fixed-point start produce,
#: while a wrong conductance or a dropped term (kelvin-sized on a ~42 K
#: rise) fails.  The adaptive path also carries its controller error
#: (1 K local tolerance) and the linear interpolation onto the fixed
#: grid: 0.96 K from the reference at this checkpoint.
REFERENCE_BOUND_K = {
    "mc_fixed_blocked": 1.0e-3,
    "mc_adaptive_scalar": 2.0,
}

#: Traced runs replay this many seeded campaigns after the reference
#: one, so their per-layer counts repeat exactly for a given seed.
TRACED_SEEDED_CAMPAIGNS = 2

# Service workload.  A job is 4 samples in one chunk: about 0.45 s on
# the two-core machine the benchmark was sized on, most of it the
# per-job model build and store writes the workload is about.
JOB_SAMPLES = 4
JOB_CHUNK = 4
JOB_TIME_POINTS = 11
TENANTS = ("tenant-a", "tenant-b")
SERVICE_WORKERS = 2
#: Jobs per second.  A job runs alone unless it takes longer than the
#: 1 s between arrivals, a slowdown of over 2x; two CPU-bound
#: neighbours slowed these jobs 1.6x.  Jobs of 8 samples (0.65-0.8 s)
#: at 0.8 jobs/s came close enough to overlapping under a loaded host
#: that jobs contending for the GIL amplified the slowdown: the same
#: two neighbours doubled their p50 latency, and its spread over ten
#: seeds reached 25% of the median.
ARRIVAL_RATE = 1.0
#: The tail percentile reported; the job count keeps 10 jobs beyond it.
TAIL_PERCENTILE = 75
MIN_JOBS = jobs_for_percentile(TAIL_PERCENTILE)
#: Latency limit on the tail percentile; a failed job misses it.
LATENCY_LIMIT_S = 5.0
POLL_INTERVAL_S = 0.2
DRAIN_TIMEOUT_S = 60.0


def campaign_seeds(seed, count):
    """The first ``count`` campaign seeds drawn from the benchmark seed."""
    return list(itertools.islice(campaign_seed_stream(seed), count))


def campaign_seed_stream(seed):
    """Endless campaign seeds drawn from the benchmark seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31))


def mc_spec(workload, campaign_seed):
    """One campaign of an MC workload."""
    from repro.package3d.scenarios import date16_campaign_spec

    samples, chunk = CAMPAIGN_SHAPE[workload]
    options = {}
    if workload == "mc_adaptive_scalar":
        options["time_stepping"] = "adaptive"
    return date16_campaign_spec(
        num_samples=samples, chunk_size=chunk, seed=campaign_seed,
        name=f"{workload}-{campaign_seed}", **options,
    )


def job_spec(campaign_seed):
    """One small service job: 4 samples on an 11-point horizon."""
    from repro.package3d.chip_example import Date16Parameters
    from repro.package3d.scenarios import date16_campaign_spec

    return date16_campaign_spec(
        num_samples=JOB_SAMPLES, chunk_size=JOB_CHUNK, seed=campaign_seed,
        name=f"job-{campaign_seed}",
        parameters=Date16Parameters(num_time_points=JOB_TIME_POINTS),
    )


def warm_process(workload):
    """Build one Date16 model and take one step in this process.

    Fills the process-wide factorization cache the campaigns share, so
    the timed loop measures a warm process (set-up is measured apart,
    in fresh processes).  Returns the electrical system's unknown count,
    which the traced run needs to label blocked solves.
    """
    from repro.package3d.chip_example import Date16Parameters
    from repro.package3d.uq_study import Date16UncertaintyStudy
    from repro.solvers.cache import shared_cache

    parameters = None
    if workload == "service_open_loop":
        parameters = Date16Parameters(num_time_points=JOB_TIME_POINTS)
    study = Date16UncertaintyStudy(parameters=parameters,
                                   factorization_cache=shared_cache())
    study.solver.step_once(study.problem.initial_temperatures(),
                           study.time_grid.dt)
    return int(study.solver.el_free.size)


class Verdict:
    """Correctness bookkeeping: operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, operations, problem):
        self.failed += operations
        self.problems.append(problem)

    @property
    def correct(self):
        return not self.problems


# ----------------------------------------------------------------------
# Monte Carlo workloads (closed loop)
# ----------------------------------------------------------------------
def _read_outputs(store, spec):
    chunks = [store.read_chunk(chunk) for chunk in range(spec.num_chunks)]
    indices = np.concatenate([chunk[0] for chunk in chunks])
    parameters = np.concatenate([chunk[1] for chunk in chunks])
    outputs = np.concatenate([chunk[2] for chunk in chunks])
    return indices, parameters, outputs


def check_campaign(spec, stored, result, verdict):
    """The stored samples are the spec's, finite, and reduce to the
    returned mean."""
    from repro.campaign import campaign_parameters

    indices, parameters, outputs = stored
    samples = spec.num_samples
    if not np.array_equal(indices, np.arange(samples)):
        verdict.fail(samples, f"{spec.name}: stored indices {indices}")
        return
    if not np.array_equal(parameters, campaign_parameters(spec)):
        verdict.fail(samples, f"{spec.name}: stored parameters differ")
        return
    if not np.all(np.isfinite(outputs)):
        verdict.fail(samples, f"{spec.name}: non-finite outputs")
        return
    if not np.allclose(result.mean, outputs.mean(axis=0), rtol=1e-9,
                       atol=1e-9):
        verdict.fail(samples, f"{spec.name}: mean disagrees with chunks")


def load_reference():
    with np.load(REFERENCE_FILE) as data:
        return {key: data[key] for key in data.files}


def check_reference(workload, stored, verdict):
    """Compare the reference samples read back from the store with the
    committed tight-tolerance reference."""
    reference = load_reference()
    indices, parameters, outputs = stored
    row_of = {int(index): row for row, index in enumerate(indices)}
    compared = len(REFERENCE_INDICES)
    if any(index not in row_of for index in REFERENCE_INDICES):
        verdict.fail(compared, f"{workload}: reference samples missing")
        return None
    rows = [row_of[index] for index in REFERENCE_INDICES]
    if not np.array_equal(parameters[rows], reference["parameters"]):
        verdict.fail(compared, f"{workload}: reference inputs differ")
        return None
    error = float(np.max(np.abs(outputs[rows] - reference["traces"])))
    if not error <= REFERENCE_BOUND_K[workload]:
        verdict.fail(compared, f"{workload}: max |T - T_ref| = {error:.3e} K"
                               f" > {REFERENCE_BOUND_K[workload]:.1e} K")
    return error


def _run_one_campaign(workload, campaign_seed, work, verdict, reference):
    from repro.campaign import ArtifactStore, runner

    spec = mc_spec(workload, campaign_seed)
    store = ArtifactStore(tempfile.mkdtemp(prefix="store-", dir=work))
    verdict.attempted += spec.num_samples
    start = time.perf_counter()
    result = runner.run_campaign(spec, store=store, executor="serial")
    wall = time.perf_counter() - start
    stored = _read_outputs(store, spec)
    check_campaign(spec, stored, result, verdict)
    error = None
    if reference:
        error = check_reference(workload, stored, verdict)
    shutil.rmtree(store.path)
    return wall, spec.num_samples, error


def run_mc(workload, seed, seconds, work, verdict):
    """Campaigns back to back until ``seconds`` have passed.

    Returns per-campaign ``(wall, samples)`` and the reference error.
    """
    seeds = itertools.chain([REFERENCE_SEED], campaign_seed_stream(seed))
    deadline = time.perf_counter() + seconds
    campaigns = []
    reference_error = None
    for position, campaign_seed in enumerate(seeds):
        if position and time.perf_counter() >= deadline:
            break
        wall, samples, error = _run_one_campaign(
            workload, campaign_seed, work, verdict, reference=position == 0
        )
        campaigns.append((wall, samples))
        if position == 0:
            reference_error = error
    return campaigns, reference_error


def mc_metrics(campaigns):
    walls = [wall for wall, _ in campaigns]
    return {
        "samples_per_s": median([samples / wall
                                 for wall, samples in campaigns]),
        "job_latency_p50_s": median(walls),
        "job_latency_p75_s": percentile(walls, TAIL_PERCENTILE),
        "jobs_per_s": len(walls) / sum(walls),
    }


def run_mc_traced(workload, seed, work, verdict, tracer_factory):
    """The same fixed campaign list untraced, then traced.

    ``tracer_factory()`` installs the tracer as a context manager that
    restores the originals on exit.  Returns traced ÷ untraced wall
    minus one.
    """
    seeds = [REFERENCE_SEED] + campaign_seeds(seed, TRACED_SEEDED_CAMPAIGNS)
    untraced = [
        _run_one_campaign(workload, campaign_seed, work, verdict,
                          reference=position == 0)[0]
        for position, campaign_seed in enumerate(seeds)
    ]
    with tracer_factory():
        traced = [
            _run_one_campaign(workload, campaign_seed, work, verdict,
                              reference=position == 0)[0]
            for position, campaign_seed in enumerate(seeds)
        ]
    return sum(traced) / sum(untraced) - 1.0


# ----------------------------------------------------------------------
# Service workload (open loop)
# ----------------------------------------------------------------------
def job_count(seconds):
    """Enough jobs to fill ``seconds`` at the arrival rate, and at least
    enough for the tail percentile to have 10 jobs beyond it."""
    return max(MIN_JOBS, math.ceil(ARRIVAL_RATE * seconds))


class OpenLoopClient:
    """Submits jobs on a fixed schedule and polls every in-flight job.

    The generator thread sends job ``i`` at its due time whatever the
    service's state; the polling thread (the caller's) reads
    ``job_status`` for every submitted, unfinished job each sweep.
    """

    TERMINAL = ("completed", "failed", "cancelled")

    def __init__(self, url, specs, rate):
        self.url = url
        self.specs = specs
        self.rate = rate
        count = len(specs)
        self.due = []
        self.sent = [None] * count
        self.job_ids = [None] * count
        self.final = [None] * count
        self.submit_errors = [None] * count
        self.http_rtt = []
        self.status_polls = 0
        self.queue_depth_max = 0
        self.ended = None

    def _generate(self):
        from repro.errors import ServiceError
        from repro.service import submit_job

        for index, spec in enumerate(self.specs):
            delay = self.due[index] - time.time()
            if delay > 0:
                time.sleep(delay)
            self.sent[index] = time.time()
            try:
                job = submit_job(self.url, spec,
                                 tenant=TENANTS[index % len(TENANTS)])
            except ServiceError as exc:
                self.submit_errors[index] = str(exc)
                continue
            self.job_ids[index] = job["job_id"]

    def run(self, drain_timeout_s=DRAIN_TIMEOUT_S):
        from repro.errors import ServiceError
        from repro.service import job_status

        start = time.time() + 0.1
        self.due = due_times(start, self.rate, len(self.specs))
        generator = threading.Thread(target=self._generate,
                                     name="open-loop-generator")
        generator.start()
        deadline = self.due[-1] + drain_timeout_s
        try:
            while time.time() < deadline:
                queued = 0
                pending = False
                for index, job_id in enumerate(self.job_ids):
                    if self.final[index] is not None:
                        continue
                    if job_id is None:
                        pending = pending or self.submit_errors[index] is None
                        continue
                    begin = time.perf_counter()
                    try:
                        status = job_status(self.url, job_id)
                    except ServiceError:
                        pending = True
                        continue
                    self.http_rtt.append(time.perf_counter() - begin)
                    self.status_polls += 1
                    if status["state"] in self.TERMINAL:
                        self.final[index] = status
                    else:
                        pending = True
                        queued += status["state"] == "queued"
                self.queue_depth_max = max(self.queue_depth_max, queued)
                if not pending and not generator.is_alive():
                    break
                time.sleep(POLL_INTERVAL_S)
        finally:
            generator.join()
            self.ended = time.time()

    def completed(self, index):
        status = self.final[index]
        return status is not None and status["state"] == "completed"

    def latencies(self):
        """Due-to-finished latency per job; a failed job's latency is the
        time until its failure was seen, and never under the limit."""
        finished = [
            self.final[index]["finished_walltime"]
            if self.completed(index) else None
            for index in range(len(self.specs))
        ]
        latencies = open_loop_latencies(self.due, finished)
        return [
            max(LATENCY_LIMIT_S, self.ended - due) if math.isinf(latency)
            else latency
            for latency, due in zip(latencies, self.due)
        ]

    def service_times(self):
        """Per completed job: queue wait and run time from its record."""
        waits, runs = [], []
        for index, status in enumerate(self.final):
            if self.completed(index):
                waits.append(status["started_walltime"]
                             - status["submitted_walltime"])
                runs.append(status["finished_walltime"]
                            - status["started_walltime"])
        return waits, runs


def check_bitwise(service, job_id, spec, work, verdict):
    """The job's stored chunks and summary equal a direct
    ``run_campaign`` of the same spec, bit for bit."""
    from repro.campaign import ArtifactStore, CampaignSpec, runner

    job_store = service.manager.store_for(service.manager.job(job_id))
    direct = ArtifactStore(tempfile.mkdtemp(prefix="direct-", dir=work))
    campaign = CampaignSpec.from_dict(spec)
    runner.run_campaign(campaign, store=direct, executor="serial")
    same = job_store.read_summary() == direct.read_summary()
    for chunk in range(campaign.num_chunks):
        ours, theirs = job_store.read_chunk(chunk), direct.read_chunk(chunk)
        same = same and all(
            np.array_equal(left, right) for left, right in zip(ours, theirs)
        )
    shutil.rmtree(direct.path)
    if not same:
        verdict.fail(1, f"job {job_id} differs from a direct run_campaign")


def run_service(seed, seconds, work, verdict, tracer_factory=None):
    """One open-loop phase against a fresh in-process service.

    With ``tracer_factory`` the phase runs traced; the correctness
    checks after it never are.
    """
    from repro.service import CampaignService

    count = job_count(seconds)
    specs = [job_spec(value).to_dict()
             for value in campaign_seeds(seed, count)]
    root = tempfile.mkdtemp(prefix="service-", dir=work)
    try:
        with tracer_factory() if tracer_factory else nullcontext():
            service = CampaignService(root, max_workers=SERVICE_WORKERS)
            service.start()
            try:
                client = OpenLoopClient(service.url, specs, ARRIVAL_RATE)
                client.run()
            finally:
                service.stop(wait=True)
        verdict.attempted += count
        for index in range(count):
            if not client.completed(index):
                reason = client.submit_errors[index] or client.final[index]
                verdict.fail(1, f"job {index} did not complete: {reason}")
        if client.completed(0):
            check_bitwise(service, client.job_ids[0], specs[0], work,
                          verdict)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return client


def service_metrics(client):
    latencies = client.latencies()
    completed = [index for index in range(len(client.specs))
                 if client.completed(index)]
    if completed:
        last = max(client.final[index]["finished_walltime"]
                   for index in completed)
        span = last - client.due[0]
    else:
        span = math.inf
    return {
        "samples_per_s": len(completed) * JOB_SAMPLES / span,
        "job_latency_p50_s": median(latencies),
        "job_latency_p75_s": percentile(latencies, TAIL_PERCENTILE),
        "jobs_per_s": len(completed) / span,
    }


def service_layer_figures(client):
    waits, runs = client.service_times()
    return {
        "queue_wait": waits,
        "run": runs,
        "http_rtt": client.http_rtt,
        "status_polls": client.status_polls,
        "queue_depth_max": client.queue_depth_max,
    }


def lag_max(client):
    sent = [value if value is not None else due
            for value, due in zip(client.sent, client.due)]
    return max(generator_lag(client.due, sent))
