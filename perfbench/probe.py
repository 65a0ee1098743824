"""One cold set-up, timed from a fresh interpreter; prints seconds.

``mc``: imports plus the first Date16 model build on a cold cache --
mesh, FIT assembly, the electrical base factorization, and one coupled
step, which factorizes the thermal base at the grid's dt.
``service``: imports plus starting a ``CampaignService`` until
``/healthz`` answers.

Run by ``run.py`` several times per run; by hand::

    python3 perfbench/probe.py mc
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import checkout  # noqa: E402


def build_model():
    # A user's first campaign pays for importing these too.
    from repro.campaign import run_campaign  # noqa: F401
    from repro.package3d.scenarios import date16_campaign_spec  # noqa: F401
    from repro.package3d.uq_study import Date16UncertaintyStudy
    from repro.solvers.cache import shared_cache

    study = Date16UncertaintyStudy(factorization_cache=shared_cache())
    study.solver.step_once(study.problem.initial_temperatures(),
                           study.time_grid.dt)


def start_service(work):
    import urllib.error
    import urllib.request

    from repro.package3d.scenarios import date16_campaign_spec  # noqa: F401
    from repro.service import CampaignService

    root = tempfile.mkdtemp(prefix="probe-", dir=work)
    service = CampaignService(root, max_workers=2)
    service.start()
    try:
        while True:
            try:
                with urllib.request.urlopen(service.url + "/healthz",
                                            timeout=5) as response:
                    if response.status == 200:
                        return time.perf_counter()
            except urllib.error.URLError:
                time.sleep(0.005)
    finally:
        service.stop(wait=True)
        shutil.rmtree(root, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=("mc", "service"))
    parser.add_argument("--work", default=checkout.WORK)
    args = parser.parse_args()
    checkout.import_repro()
    if args.kind == "mc":
        build_model()
        ready = time.perf_counter()
    else:
        ready = start_service(args.work)
    print(repr(ready - START))


if __name__ == "__main__":
    main()
