"""Regenerate the committed correctness reference of the MC workloads.

Solves the reference samples (``workloads.REFERENCE_SEED``, rows
``workloads.REFERENCE_INDICES``) one at a time on the paper's fixed
51-point grid with a fixed-point tolerance of 1e-8 K, and writes their
wire-temperature traces to ``reference/date16_reference.npz``.

The reference shares the model (mesh, FIT assembly, frozen-field fast
formulation, wire model) with the benchmarked program but none of the
machinery the benchmark times: no blocked kernel, no campaign, and no
Woodbury update -- every linear solve is a fresh sparse LU of the
wire-stamped matrix ``A_base + U diag(g) U^T``.  The Woodbury update's
own round-off (ROADMAP item 2) stalls the fast path's fixed point near
4e-6 K, so it cannot reach 1e-8 K and would not be independent anyway.

Run from the checkout root (takes a few minutes)::

    python3 perfbench/make_reference.py
"""

import argparse
import os
import sys
import time

import checkout

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUTPUT = os.path.join(HERE, "reference", "date16_reference.npz")
TOLERANCE_K = 1.0e-8
MAX_ITERATIONS = 200


def direct_solves(tracer):
    """Route every ``WoodburySolver.solve`` through a direct sparse LU of
    the stamped matrix (patched on ``tracer``; undo with ``restore``)."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from repro.solvers.woodbury import WoodburySolver

    bases = {}

    def remember_base(token, result, args, kwargs):
        solver = args[0]
        base = args[1] if len(args) > 1 else kwargs["base_matrix"]
        bases[id(solver)] = sp.csc_matrix(base)

    def solve(solver, conductances, rhs):
        conductances = np.asarray(conductances, dtype=float).ravel()
        stamps = sp.csc_matrix(solver.update_vectors)
        matrix = bases[id(solver)] + stamps @ sp.diags(conductances) \
            @ stamps.T
        return splu(matrix.tocsc()).solve(np.asarray(rhs, dtype=float))

    tracer.wrap(WoodburySolver, "__init__", "reference.base",
                after=remember_base)
    tracer.patch(WoodburySolver, "solve", solve)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    checkout.import_repro()
    import numpy as np

    from repro.campaign import campaign_parameters
    from repro.package3d.uq_study import Date16UncertaintyStudy

    import workloads
    from tracing import Tracer

    spec = workloads.mc_spec("mc_fixed_blocked", workloads.REFERENCE_SEED)
    rows = campaign_parameters(spec, list(workloads.REFERENCE_INDICES))
    traces = []
    with Tracer() as tracer:
        direct_solves(tracer)
        study = Date16UncertaintyStudy(tolerance=TOLERANCE_K)
        study.solver.max_iterations = MAX_ITERATIONS
        for index, row in zip(workloads.REFERENCE_INDICES, rows):
            start = time.perf_counter()
            traces.append(study.evaluate_traces(row))
            print(f"sample {index}: {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(args.output)),
                exist_ok=True)
    np.savez(
        args.output,
        seed=workloads.REFERENCE_SEED,
        indices=np.asarray(workloads.REFERENCE_INDICES),
        parameters=rows,
        traces=np.stack(traces),
        times=study.time_grid.times,
        tolerance_k=TOLERANCE_K,
    )
    print(f"wrote {os.path.relpath(args.output, checkout.ROOT)}")


if __name__ == "__main__":
    main()
