"""Seeded inputs, configs and path guards of the benchmark workloads.

Each workload turns a seed into the only two files the program sees, a
mask and a YAML config, and knows which path through the pipeline that
input must take.  A run whose summary shows another path (gate, shrink,
iteration count) is reported as a shape violation and not timed, so a
timing change comes from the code and not from a seed that moved the path.

There is no small-domain workload.  On the two-core shared hosts this
benchmark was built on, a pipeline bound by interpreter overhead (the
81-cell L-shaped domain: tiny Phi calls and about 19k single-column
oracle steps) drifted with the host's load by about twice as much as the
BLAS-3 bound workloads here, and its median over ten runs spread by
16-19% against the 25% bound on ``wall_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml


def format_mask(dims, spacing, occupied) -> str:
    """Text of a ``mask v1`` file; ``occupied`` is a set of (x, y, z)."""
    nx, ny, nz = dims
    lines = ["mask v1", f"{nx} {ny} {nz} {spacing!r}"]
    for k in range(nz):
        if k:
            lines.append("")
        for j in range(ny):
            lines.append("".join("1" if (i, j, k) in occupied else "0" for i in range(nx)))
    return "\n".join(lines) + "\n"


def box_mask(seed: int, side: int = 8) -> str:
    cells = {(i, j, k) for i in range(side) for j in range(side) for k in range(side)}
    return format_mask((side, side, side), 1.0 / side, cells)


def rough_mask(seed: int, side: int = 12, fill: float = 0.8) -> str:
    """Random mask with an exact cell count, so the dense factorizations
    always see the same n and only the shape (holes, pieces, rank) varies."""
    cells = [(i, j, k) for k in range(side) for j in range(side) for i in range(side)]
    chosen = random.Random(seed).sample(cells, round(fill * len(cells)))
    return format_mask((side, side, side), 1.0 / side, set(chosen))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mask: Callable[[int], str]
    config: dict
    guard: Callable[[dict], list]

    def write_inputs(self, directory: Path, seed: int, output_dir: Path) -> Path:
        """Write the mask and config for ``seed``; return the config path."""
        mask_path = directory / "domain.mask"
        mask_path.write_text(self.mask(seed))
        config = dict(self.config, mask=str(mask_path), output_dir=str(output_dir), seed=seed)
        config_path = directory / "config.yaml"
        config_path.write_text(yaml.safe_dump(config, sort_keys=True))
        return config_path


def _guard_mild_box8(summary: dict) -> list:
    problems = []
    gate = summary["gate"]
    if gate["passed_initially"]:
        problems.append("gate passed without the shrink")
    elif not (gate["shrink"] or {}).get("passed"):
        problems.append("horizon shrink did not pass")
    elif len(gate["shrink"]["attempts"]) != 1:
        problems.append(f"shrink passed on attempt {len(gate['shrink']['attempts'])}, not 1")
    iterations = summary["picard"]["iterations"]
    if not 4 <= iterations <= 6:
        problems.append(f"Picard took {iterations} iterations, outside 4..6")
    return problems


def _guard_setup_rough12(summary: dict) -> list:
    problems = []
    if summary["gate"]["threshold"] is not None:
        problems.append("not in linear mode")
    if summary["picard"]["iterations"] != 1:
        problems.append(f"linear Picard took {summary['picard']['iterations']} iterations, not 1")
    if summary["domain"]["cells"] != 1382:
        problems.append(f"mask has {summary['domain']['cells']} cells, not 1382")
    return problems


PICARD = {"tol": 1e-10, "max_iterations": 15}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mild_box8",
            "full 8^3 box, Picard on random data past a one-step shrink: the BLAS-3 bound Phi path with little set-up",
            box_mask,
            {
                "horizon": 0.5,
                "segments": 24,
                "quad_order": 6,
                "nonlinearity_scale": 1.0,
                "picard": PICARD,
                "phi_norm": {"trials": 4},
                # The data is large enough to fail the gate; the first
                # shrink attempt smooths it and keeps the full horizon.
                "shrink": {"eps_schedule": [0.02]},
                "oracle": {"dts": [2.5e-4]},
                "initial_data": {"kind": "random", "amplitude": 6.0},
            },
            _guard_mild_box8,
        ),
        Workload(
            "setup_rough12",
            "rough 80%-fill 12^3 mask in linear mode: the dense Hodge SVD and Stokes eigh and their memory",
            rough_mask,
            {
                "horizon": 0.5,
                "segments": 4,
                "quad_order": 2,
                "nonlinearity_scale": 0.0,
                "picard": PICARD,
                "phi_norm": {"trials": 1},
                "initial_data": {"kind": "random", "amplitude": 1.0},
            },
            _guard_setup_rough12,
        ),
    )
}
