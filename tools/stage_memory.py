"""Peak and resident memory of each stage of one ``mildflow run``.

    python tools/stage_memory.py CONFIG

Runs ``mildflow run CONFIG`` in a fresh Python process, with mildflow
imported from the ``src/`` tree of the checkout this file sits in, and
wraps each stage function in ``STAGES``.  ``mildflow.cli`` looks them up
as module attributes at call time, so the wrappers see every call, as
``perfbench/spans.py`` sees them.  One untimed LAPACK call runs first, as
in ``perfbench/pipeline.py``, so that BLAS start-up is not charged to the
first stage.

For each stage it prints the number of calls, their wall time, how far
the process's peak RSS (``ru_maxrss``) rose during them, and the RSS when
the last call returned (``/proc/self/statm``).  The rises and the RSS
before the run add up to the run's peak, which is printed last.  A stage
the run did not reach is listed as not called.  ``tracemalloc`` sees
neither LAPACK's workspace nor OpenBLAS's buffers; these counters do.

The run writes its outputs where CONFIG says.  Exits with the exit code
of ``mildflow run``.  Linux only.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1024.0 * 1024.0
#: The ``mildflow.cli`` stage functions, in pipeline order.
STAGES = ("load_mask", "build_operators", "build_hodge", "assemble_stokes",
          "estimate_phi_norm", "shrink_horizon", "picard_solve", "strong_residual",
          "energy_audit", "imex_oracle")


def peak_mib() -> float:
    """The process's peak RSS so far (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mib() -> float:
    """The process's current RSS."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MIB


def wrap(cli, name: str, record: dict):
    """Replace ``cli.<name>`` by a wrapper that adds each call to ``record``."""
    func = getattr(cli, name)

    def measured(*args, **kwargs):
        peak, start = peak_mib(), time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            entry = record.setdefault(name, {"calls": 0, "seconds": 0.0, "rise": 0.0})
            entry["calls"] += 1
            entry["seconds"] += time.perf_counter() - start
            entry["rise"] += peak_mib() - peak
            entry["rss"] = rss_mib()

    setattr(cli, name, measured)


def measure(config: str) -> int:
    """Run ``mildflow run config`` in this process with every stage wrapped,
    print the table and return the run's exit code."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.svd(a)
    np.linalg.eigh(a + a.T)
    sys.path.insert(0, str(ROOT / "src"))
    import mildflow.cli as cli

    record: dict = {}
    for name in STAGES:
        wrap(cli, name, record)
    before = rss_mib()
    start = time.perf_counter()
    code = cli.main(["run", config])
    wall = time.perf_counter() - start
    print(f"{'stage':<18} {'calls':>5} {'seconds':>8} {'peak rise MiB':>14} {'RSS after MiB':>14}")
    print(f"{'(before the run)':<18} {'':>5} {'':>8} {'':>14} {before:>14.1f}")
    for name in STAGES:
        if name in record:
            e = record[name]
            print(f"{name:<18} {e['calls']:>5} {e['seconds']:>8.3f} {e['rise']:>14.1f} {e['rss']:>14.1f}")
        else:
            print(f"{name:<18} {0:>5} {'not called':>8}")
    print(f"{'(the run)':<18} {'':>5} {wall:>8.3f} {'peak':>14} {peak_mib():>14.1f}")
    print(f"exit code {code}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        return measure(args.config)
    return subprocess.run([sys.executable, __file__, "--in-process", args.config]).returncode


if __name__ == "__main__":
    sys.exit(main())
