"""One measured pipeline run in a fresh process.

    python3 perfbench/pipeline.py CONFIG RESULT_JSON [--trace TRACE_JSON | --setup-only]

Runs ``mildflow run CONFIG`` in-process through ``mildflow.cli.main``,
with mildflow imported from the ``src/`` tree of the checkout this file
sits in, and writes a JSON record of the exit code, the wall time of the
run, the set-up time (mask parse through the Stokes ``eigh``) and the
process's peak RSS.  BLAS threads are pinned by the caller through the
environment before numpy loads.  One untimed LAPACK call runs first, so
thread start-up and lazy library set-up stay out of the timings.

With ``--trace`` the public functions of each module are wrapped in spans
(see ``spans.py``); the spans go to TRACE_JSON and
the caller derives the per-layer metrics from them.  With ``--setup-only``
the run stops after the Stokes assembly and only its set-up time counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans

ROOT = Path(__file__).resolve().parent.parent


def warm_up() -> dict:
    """Untimed LAPACK calls; returns the environment the timings ran in."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.svd(a)
    np.linalg.eigh(a + a.T)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "blas": f"{blas['name']} {blas['version']}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def import_mildflow():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mildflow.cli
    import mildflow.mild
    import mildflow.verify

    if Path(mildflow.__file__).resolve().parent != src / "mildflow":
        raise SystemExit(f"mildflow imported from {mildflow.__file__}, not from {src}")
    return {"cli": mildflow.cli, "mild": mildflow.mild, "verify": mildflow.verify}


class SetupDone(Exception):
    """Ends a set-up-only run once the Stokes spectrum is assembled."""


def mark_setup(cli, stop: bool) -> dict:
    """Two clock reads: on entry to the mask parse, on return from the
    Stokes assembly; with ``stop`` the run ends there."""
    marks = {}
    load_mask, assemble_stokes = cli.load_mask, cli.assemble_stokes

    def timed_load_mask(*args, **kwargs):
        marks["start"] = time.perf_counter()
        return load_mask(*args, **kwargs)

    def timed_assemble_stokes(*args, **kwargs):
        result = assemble_stokes(*args, **kwargs)
        marks["end"] = time.perf_counter()
        if stop:
            raise SetupDone
        return result

    cli.load_mask, cli.assemble_stokes = timed_load_mask, timed_assemble_stokes
    return marks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("result")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    record = {"env": warm_up()}
    modules = import_mildflow()
    cli = modules["cli"]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(modules)
        start = time.perf_counter()
        root = tracer.open(spans.ROOT)
        code = cli.main(["run", args.config])
        tracer.close(root)
        wall = time.perf_counter() - start
        record["setup_s"] = None
    else:
        marks = mark_setup(cli, args.setup_only)
        start = time.perf_counter()
        try:
            code = cli.main(["run", args.config])
        except SetupDone:
            code = 0
        wall = time.perf_counter() - start
        record["setup_s"] = marks["end"] - marks["start"] if "end" in marks else None

    record.update(
        exit_code=code,
        wall_s=wall,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        Path(args.trace).write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
