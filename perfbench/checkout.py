"""Locate the ``repro`` sources of this checkout and describe the run.

Importing this module pins the BLAS/OpenMP thread pools to one thread
(before NumPy loads), so every benchmark process -- the runner, the
set-up probes and the reference generator -- runs single-threaded:
the container this benchmark was sized on has two cores, and one BLAS
thread is both faster and steadier there than the default.
"""

import hashlib
import os
import platform
import subprocess
import sys

BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = str(BLAS_THREADS)

#: The checkout root: the directory holding ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, service roots and traces (git-ignored).
WORK = os.path.join(ROOT, ".perfbench-run")


class MissingProgram(RuntimeError):
    """The checkout holds no ``repro`` sources to benchmark."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise MissingProgram(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        raise MissingProgram(
            f"imported repro from {repro.__file__}, not from {SRC}"
        )
    return repro


def source_digest():
    """SHA-256 over every file under ``src/repro`` (path + bytes): the
    code identity when the checkout is not a git repository."""
    digest = hashlib.sha256()
    top = os.path.join(SRC, "repro")
    for directory, subdirectories, files in os.walk(top):
        subdirectories[:] = sorted(
            name for name in subdirectories if name != "__pycache__"
        )
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    """``HEAD`` of the checkout, or ``None`` outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else None


def environment():
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {name: os.environ.get(name)
                       for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
