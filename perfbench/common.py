"""Paths, thread pinning, in-process CLI calls and machine facts."""

from __future__ import annotations

import contextlib
import io
import os
import platform
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads() -> None:
    """Single-threaded BLAS; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import lpopa from the checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "lpopa", "cli.py")):
        raise SystemExit(f"perfbench: no lpopa source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def call_cli(argv) -> tuple[int, str, str]:
    """Run ``lpopa.cli.main(argv)`` in this process; (exit code, stdout, stderr).

    The module attribute is looked up on every call, so a traced ``main``
    is the one that runs.
    """
    import lpopa.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lpopa.cli.main(list(argv))
        except SystemExit as exc:          # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # an error the CLI does not map
            traceback.print_exc()
            code = 1
    return int(code or 0), out.getvalue(), err.getvalue()


def machine_facts() -> dict:
    """nproc, interpreter and library versions, and the BLAS thread setting."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }
