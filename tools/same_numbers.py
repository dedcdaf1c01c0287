"""Check that two checkouts of mildflow give the same numbers.

    python tools/same_numbers.py PARENT CHANGE [--work DIR]

PARENT and CHANGE are checkout directories.  Each runs ``mildflow run``
from its own ``src/`` in a fresh subprocess on these inputs:

* the criterion-11 config: ``tests/data/box4.mask`` with the settings of
  ``tests/test_acceptance.py::test_criterion_11_determinism``;
* two failing variants of it: ``picard: {tol: 1.0e-30, max_iterations: 1}``
  stops unconverged (exit 5), and an empty ``shrink.eps_schedule`` at
  ``initial_data.amplitude: 30.0`` leaves the gate unreachable (exit 4),
  so the partial summaries and failure messages are compared too;
* the ``mild_box8`` benchmark workload, seeds 1-10;
* the ``setup_rough12`` benchmark workload, seed 1.

The workload masks and configs come from each checkout's own
``perfbench/workloads.py``, imported without writing to the checkout.  Both
sides run on the same input files, and differing input bytes are a
violation.  Then, per input:

* every ``summary.json`` value is compared, ``timestamp`` aside: an
  integer, string, bool or null must match exactly, and a float passes if
  |change - parent| <= max(1e-8 |parent|, 10 picard.tol);
* the values that moved, and the keys that are new or removed, are
  listed; a removed key is a violation, a new one is not;
* ``norms.csv`` and ``iterations.csv`` must match byte for byte, and
  both sides must exit with the same code.  When a CSV differs, the
  largest absolute and relative move of each of its columns is printed
  with the violation.

Reruns are byte-identical only at a fixed BLAS thread count, so both sides
run with the environment this script sees; set ``OPENBLAS_NUM_THREADS``
to pin it.  The inputs and outputs stay in the work directory (a new
temporary directory unless ``--work`` names one).  Exits 1 on any
violation.  Needs only the standard library and PyYAML.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

CRITERION_11 = {
    "horizon": 0.5,
    "segments": 20,
    "quad_order": 6,
    "seed": 4242,
    "nonlinearity_scale": 1.0,
    "picard": {"tol": 1e-10, "max_iterations": 15},
    "phi_norm": {"trials": 4},
    "gate": {"safety_factor": 2.0},
    "shrink": {"eps_schedule": [0.2, 0.4]},
    "oracle": {"dts": [0.01]},
    "initial_data": {"kind": "random", "amplitude": 0.03, "seed": 7},
}
# the criterion-11 config and the changes of its failing variants
CRITERION_11_VARIANTS = {
    "criterion_11": {},
    "criterion_11_no_convergence": {"picard": {"tol": 1e-30, "max_iterations": 1}},
    "criterion_11_gate_unreachable": {
        "shrink": {"eps_schedule": []},
        "initial_data": dict(CRITERION_11["initial_data"], amplitude=30.0),
    },
}
CASES = ([(kind, None) for kind in CRITERION_11_VARIANTS]
         + [("mild_box8", s) for s in range(1, 11)] + [("setup_rough12", 1)])
CSV_FILES = ("norms.csv", "iterations.csv")
REL_TOL = 1e-8
TOL_FACTOR = 10.0


def load_workloads(checkout: Path) -> dict:
    """``WORKLOADS`` of a checkout's ``perfbench/workloads.py``."""
    name = f"_workloads_{len(sys.modules)}"
    spec = importlib.util.spec_from_file_location(name, checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def write_inputs(checkout: Path, workloads: dict, case: tuple, directory: Path) -> Path:
    """Write the case's ``domain.mask`` and ``config.yaml``; return the config path."""
    kind, seed = case
    out = directory / "out"
    if kind not in CRITERION_11_VARIANTS:
        return workloads[kind].write_inputs(directory, seed, out)
    mask = directory / "domain.mask"
    mask.write_bytes((checkout / "tests" / "data" / "box4.mask").read_bytes())
    config = directory / "config.yaml"
    config.write_text(yaml.safe_dump(dict(CRITERION_11, **CRITERION_11_VARIANTS[kind],
                                          mask=str(mask), output_dir=str(out))))
    return config


def run(checkout: Path, config: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "mildflow.cli", "run", str(config)],
                          cwd=config.parent, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 2, 3, 4, 5, 6, 7):
        print(done.stderr, file=sys.stderr)
    return done.returncode


def check_import(checkout: Path):
    """Make sure ``PYTHONPATH=checkout/src`` imports that checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import mildflow; print(mildflow.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(checkout / "src"):
        sys.exit(f"PYTHONPATH={checkout / 'src'} imports mildflow from {where}")


def flatten(value, prefix=""):
    """(dotted key, leaf) pairs of a JSON value; an empty container is a leaf."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from flatten(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def is_float(value) -> bool:
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool))


def same(x, y) -> bool:
    """Exactly equal, counting two NaNs as equal."""
    if is_float(x) and is_float(y) and math.isnan(x) and math.isnan(y):
        return True
    return type(x) is type(y) and x == y


def compare_summaries(parent: dict, change: dict, tol: float) -> list:
    """Violations between two summaries; prints every moved, new and removed key."""
    old, new = dict(flatten(parent)), dict(flatten(change))
    for values in (old, new):
        values.pop("timestamp", None)
    violations = []
    for key in sorted(old.keys() & new.keys()):
        x, y = old[key], new[key]
        if same(x, y):
            continue
        if is_float(x) and is_float(y) and not (isinstance(x, int) and isinstance(y, int)):
            delta = abs(y - x)
            ok = delta <= max(REL_TOL * abs(x), TOL_FACTOR * tol)
            rel = delta / abs(x) if x else math.inf
            print(f"    moved {key}: {x!r} -> {y!r} (|d| {delta:.2e}, rel {rel:.2e})"
                  + ("" if ok else "  VIOLATION"))
        else:
            ok = False
            print(f"    changed {key}: {x!r} -> {y!r}  VIOLATION")
        if not ok:
            violations.append(f"{key} moved")
    for key in sorted(new.keys() - old.keys()):
        print(f"    new {key}: {new[key]!r}")
    for key in sorted(old.keys() - new.keys()):
        print(f"    removed {key}: {old[key]!r}  VIOLATION")
        violations.append(f"{key} removed")
    return violations


def column_moves(parent: Path, change: Path) -> list:
    """One line per column of two CSV files with a header row: its largest
    absolute and relative move, or one line saying the tables do not pair."""
    tables = []
    for path in (parent, change):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    (header, *old), (new_header, *new) = tables
    if header != new_header or [len(row) for row in old] != [len(row) for row in new]:
        return ["headers or row shapes differ"]
    lines = []
    for j, name in enumerate(header):
        largest, largest_rel = 0.0, 0.0
        for row_old, row_new in zip(old, new):
            x, y = float(row_old[j]), float(row_new[j])
            if same(x, y):
                continue
            delta = abs(y - x) if not math.isnan(y - x) else math.inf
            largest = max(largest, delta)
            largest_rel = max(largest_rel, delta / abs(x) if x else math.inf)
        lines.append(f"{name}: |d| {largest:.2e}, rel {largest_rel:.2e}")
    return lines


def compare_case(directory: Path, inputs: dict, codes: dict) -> list:
    violations = []
    if inputs["parent"] != inputs["change"]:
        print("    the two checkouts wrote different inputs  VIOLATION")
        violations.append("inputs differ")
    if codes["parent"] != codes["change"]:
        print(f"    exit code {codes['parent']} -> {codes['change']}  VIOLATION")
        violations.append("exit code moved")
    summaries = {}
    for side in ("parent", "change"):
        path = directory / side / "summary.json"
        summaries[side] = json.loads(path.read_text()) if path.exists() else None
    if None in summaries.values():
        if summaries["parent"] is not summaries["change"]:
            print("    summary.json written by one side only  VIOLATION")
            violations.append("summary.json missing")
    else:
        picard = summaries["parent"]["config"].get("picard", {})
        violations += compare_summaries(summaries["parent"], summaries["change"],
                                        picard.get("tol", 1e-10))
    for name in CSV_FILES:
        a, b = (directory / side / name for side in ("parent", "change"))
        if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
            print(f"    {name} differs  VIOLATION")
            for line in column_moves(a, b) if a.exists() and b.exists() else []:
                print(f"      {line}")
            violations.append(f"{name} differs")
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two checkouts' outputs on fixed inputs.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--work", type=Path, help="directory for the inputs and outputs")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        check_import(checkout)
    sys.dont_write_bytecode = True
    workloads = {side: load_workloads(checkout) for side, checkout in sides.items()}
    work = args.work or Path(tempfile.mkdtemp(prefix="same_numbers_"))
    print(f"work directory: {work}")

    failed = 0
    for case in CASES:
        kind, seed = case
        directory = work / (kind if seed is None else f"{kind}_seed{seed}")
        directory.mkdir(parents=True, exist_ok=True)
        inputs, codes = {}, {}
        for side, checkout in sides.items():
            config = write_inputs(checkout, workloads[side], case, directory)
            inputs[side] = {p.name: p.read_bytes() for p in (config, directory / "domain.mask")}
            shutil.rmtree(directory / side, ignore_errors=True)
            codes[side] = run(checkout, config)
            if (directory / "out").exists():
                (directory / "out").rename(directory / side)
        print(f"{directory.name}: exit {codes['parent']} / {codes['change']}")
        violations = compare_case(directory, inputs, codes)
        print("    " + ("; ".join(violations) if violations else "same numbers"))
        failed += bool(violations)
    print(f"{failed} of {len(CASES)} inputs with violations" if failed else
          f"all {len(CASES)} inputs give the same numbers")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
