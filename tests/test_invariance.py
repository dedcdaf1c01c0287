"""Exact invariances of the whole pipeline, read off ``summary.json``.

Parabolic scaling.  The discrete problem inherits the Navier-Stokes scaling
u_c(x, t) = u(x / c, t / c^2) / c: map the spacing h -> c h, the horizon
and every time in the config (smoothing eps, oracle dt) -> c^2 times, and
the random data's L2 amplitude -> sqrt(c) times, and every number of the
run maps to its image.  Counts and decisions stay, the norms of the
critical trajectory space and every relative figure stay (dimensionless),
and a quantity with units of length^p scales by c^p.

Translation.  Moving the mask inside a larger grid, or padding it with
empty cells, keeps the cell enumeration, so nothing may change; an odd
offset swaps the even and odd parity blocks, which changes the order of
the dense factorizations but not their result beyond round-off.

Both hold in exact arithmetic only; floats are compared to 1e-10
relative.  Three kinds of number carry round-off of a larger reference and
are held to bounds of their own:

* Picard's floor: the last fixed-point distance sits near round-off
  under ``picard.tol``, so distances are compared as the same-numbers rule
  compares them, within max(1e-10 relative, 10 tol), and each contraction
  ratio within that bound over the distance it divides by;
* the residual figures are small differences relative to ||u'|| + ||Lap u||,
  so they carry that reference's round-off: compared within
  max(1e-10 relative, ``ROUNDOFF``);
* the oracle's deviation, relative to the trajectory, carries the floor of
  its sweeps, which force in float32 and stop at ``SWEEP_TOLERANCE`` times
  eps32 relative: compared within max(1e-10 relative, ``SWEEP_FLOOR``), as
  Picard's distances are compared within their tolerance;
* the defect checks (divergence of the basis and of the solution, the
  pressure-consistency gap, the merged eigenvalue gaps, the coupling the
  factorization of C drops) measure round-off itself: scaled to their
  units they must stay below ``ROUNDOFF``.
"""

import csv
import json
import math

import numpy as np
import pytest
import yaml

from mildflow import DomainMask, load_mask
from mildflow.cli import run_experiment, load_config
from mildflow.domain import format_mask
from mildflow.verify import SWEEP_DTYPE, SWEEP_TOLERANCE
from conftest import mask_path

TOL = 1e-10
PICARD_TOL = 1e-10
ROUNDOFF = 1e-13
#: The relative accuracy to which the oracle's sweeps solve its recurrence.
SWEEP_FLOOR = SWEEP_TOLERANCE * np.finfo(SWEEP_DTYPE).eps

#: Length dimension p of each dimensionful summary float (it scales by c^p);
#: a path is the dotted key path with list indices dropped.
POWERS = {
    "domain.spacing": 1,
    "spectrum.lambda_min": -2,
    "spectrum.lambda_max": -2,
    "spectrum.margins.divergence_tolerance": -1,
    "spectrum.margins.divergence_defect": -1,
    "gate.shrink.eps": 2,
    "gate.shrink.horizon": 2,
    "gate.shrink.attempts.eps": 2,
    "gate.shrink.attempts.horizon": 2,
    "picard.horizon_shrinks": 2,
    "oracle.dt": 2,
    "verification.max_energy_balance": 1,
    "verification.energy_balance_floor": 1,
    "verification.initial_value_error": 0.5,
    "verification.max_divergence": -0.5,
}

#: Round-off measurements, held to ``ROUNDOFF`` after scaling to their units.
ROUNDOFF_PATHS = {
    "spectrum.margins.divergence_defect",
    "spectrum.margins.max_merged_gap_rel",
    "spectrum.margins.max_dropped_coupling_rel",
    "verification.max_divergence",
    "verification.max_pressure_consistency",
}

#: Relative residuals, compared within max(``TOL`` relative, ``ROUNDOFF``).
RESIDUAL_PATHS = {
    "verification.max_residual_rel",
    "verification.max_gradient_match_rel",
}

#: Inputs and the grid shape, which a translation changes on purpose.
IGNORED = {"timestamp", "config", "domain.dims"}


def criterion_11_config(mask_file, out_dir, amplitude, c=1.0):
    """The criterion-11 run at a data amplitude, mapped by the parabolic
    scaling with factor c."""
    return {
        "mask": str(mask_file),
        "output_dir": str(out_dir),
        "horizon": c**2 * 0.5,
        "segments": 20,
        "quad_order": 6,
        "seed": 4242,
        "nonlinearity_scale": 1.0,
        "picard": {"tol": PICARD_TOL, "max_iterations": 15},
        "phi_norm": {"trials": 4},
        "gate": {"safety_factor": 2.0},
        "shrink": {"eps_schedule": [c**2 * 0.2, c**2 * 0.4]},
        "oracle": {"dts": [c**2 * 0.01]},
        "initial_data": {"kind": "random", "amplitude": math.sqrt(c) * amplitude,
                         "seed": 7},
    }


def run(tmp_path, name, mask, amplitude, c=1.0):
    """Exit code, summary and norms.csv rows of the criterion-11 run on ``mask``."""
    mask_file = tmp_path / f"{name}.mask"
    mask_file.write_text(format_mask(mask))
    out = tmp_path / name
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(criterion_11_config(mask_file, out, amplitude, c)))
    code = run_experiment(load_config(str(config)))
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "norms.csv") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    return code, summary, np.array(rows)


def flatten(node, path=""):
    """(path, index, value) leaves of a summary; list indices go in ``index``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            for leaf_path, index, leaf in flatten(value, path):
                yield leaf_path, (i,) + index, leaf
    else:
        yield path, (), node


def assert_images(base, image, c):
    """``image`` is ``base`` under the parabolic scaling with factor c."""
    def kept(summary):
        return {(p, i): v for p, i, v in flatten(summary)
                if p not in IGNORED and p.split(".")[0] not in IGNORED}

    leaves, other = kept(base), kept(image)
    assert leaves.keys() == other.keys()
    distances = base["picard"]["distances"]
    for (path, index), want in leaves.items():
        got = other[(path, index)]
        if not isinstance(want, float) or isinstance(want, bool):
            assert got == want, path
            continue
        scaled = got / c ** POWERS.get(path, 0)
        if path in ROUNDOFF_PATHS:
            assert abs(scaled) <= ROUNDOFF and abs(want) <= ROUNDOFF, path
        elif path in RESIDUAL_PATHS:
            assert abs(scaled - want) <= max(TOL * abs(want), ROUNDOFF), path
        elif path == "oracle.relative_sup_deviation":
            assert abs(scaled - want) <= max(TOL * abs(want), SWEEP_FLOOR), path
        elif path in ("picard.distances", "picard.fixed_point_residual"):
            assert abs(scaled - want) <= max(TOL * abs(want), 10 * PICARD_TOL), path
        elif path == "picard.ratios":
            floor = max(TOL * abs(want), 10 * PICARD_TOL / distances[index[0]])
            assert abs(scaled - want) <= floor, path
        else:
            assert abs(scaled - want) <= TOL * abs(want), (path, scaled, want)


def assert_norm_rows(base, image, c):
    """norms.csv: the time column scales by c^2, the norm terms stay."""
    np.testing.assert_allclose(image[:, 0] / c**2, base[:, 0], rtol=TOL, atol=0)
    np.testing.assert_allclose(image[:, 1:], base[:, 1:], rtol=TOL, atol=0)


@pytest.fixture(scope="module", params=[("box4", 0.03), ("lmask_6x6x3", 0.03), ("box4", 12.0)],
                ids=["box4", "lmask", "box4_shrink"])
def reference(request, tmp_path_factory):
    # criterion 11's amplitude passes the gate; at 12 it takes one shrink
    name, amplitude = request.param
    mask = load_mask(mask_path(name))
    tmp_path = tmp_path_factory.mktemp(name)
    code, summary, rows = run(tmp_path, "reference", mask, amplitude)
    assert code == 0
    assert summary["gate"]["passed_initially"] == (amplitude < 1.0)
    return mask, amplitude, tmp_path, summary, rows


def test_reports_the_dimensionless_scales(reference):
    # lambda t_1 on the grid Picard runs on, and eps lambda_min per shrink
    # attempt; not in ``POWERS``, so the scaling tests hold them invariant
    summary = reference[3]
    lam_min, lam_max = summary["spectrum"]["lambda_min"], summary["spectrum"]["lambda_max"]
    shrink = summary["gate"]["shrink"]
    horizon = shrink["horizon"] if shrink else summary["config"]["horizon"]
    t1 = horizon / summary["config"]["segments"] ** 2
    assert summary["grid"]["lambda_min_t1"] == pytest.approx(lam_min * t1, rel=1e-14)
    assert summary["grid"]["lambda_max_t1"] == pytest.approx(lam_max * t1, rel=1e-14)
    attempts = shrink["attempts"] if shrink else []
    assert len(attempts) == (reference[1] > 1.0)
    for attempt in attempts:
        assert attempt["eps_lambda_min"] == pytest.approx(attempt["eps"] * lam_min, rel=1e-14)


@pytest.mark.parametrize("c", [4.0**-5, 0.1, 37.0, 4.0**5])
def test_parabolic_scaling(reference, c):
    mask, amplitude, tmp_path, summary, rows = reference
    scaled = DomainMask(mask.dims, c * mask.spacing, mask.occupancy)
    code, image, image_rows = run(tmp_path, f"scaled_{c!r}", scaled, amplitude, c)
    assert code == 0
    assert_images(summary, image, c)
    assert_norm_rows(rows, image_rows, c)


@pytest.mark.parametrize("low, high", [((1, 0, 0), (0, 0, 0)), ((1, 3, 1), (2, 0, 1)),
                                       ((0, 0, 0), (2, 1, 3)), ((2, 2, 0), (0, 0, 0))],
                         ids=["odd_x", "odd_xyz_padded", "padded", "even"])
def test_translation_and_padding(reference, low, high):
    mask, amplitude, tmp_path, summary, rows = reference
    occupancy = np.pad(mask.occupancy, list(zip(low, high)))
    moved = DomainMask(occupancy.shape, mask.spacing, occupancy)
    code, image, image_rows = run(tmp_path, f"moved_{low}_{high}", moved, amplitude)
    assert code == 0
    assert image["domain"]["dims"] == [d + a + b for d, a, b in zip(mask.dims, low, high)]
    assert_images(summary, image, 1.0)
    assert_norm_rows(rows, image_rows, 1.0)
