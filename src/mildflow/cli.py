"""Batch experiment runner.

``mildflow run <config.yaml>`` drives the full pipeline

    mask -> operators -> hodge -> stokes -> (gate / horizon shrink)
         -> picard -> strong checks -> stepping oracle

and emits three machine-readable files into the output directory:

* ``summary.json``    every norm, gate status, contraction ratios,
                      residuals, oracle deviations, and a config echo;
* ``norms.csv``       the per-node weighted norm terms of the solution;
* ``iterations.csv``  the per-iterate fixed-point log.

``validate`` parses a config without running; ``mask-info`` inspects a
mask file.  Exit codes: 0 ok, 2 config error, 3 mask error, 4 smallness
gate unreachable, 5 fixed-point divergence or no convergence within
``picard.max_iterations``, 6 oracle failure, 7 inconsistent Hodge or
Stokes decomposition.

The config is YAML (keys documented in the README; any other key is a
config error); a seed is mandatory so reruns at the same BLAS thread
count are bit-reproducible apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .domain import VectorField, load_mask, build_operators
from .errors import (
    ConfigError,
    GateUnreachableError,
    MaskError,
    MildflowError,
    OracleInstabilityError,
    PicardDivergenceError,
    SpectrumError,
)
from .hodge import build_hodge, parity_classes
from .mild import (
    PicardConfig,
    TimeGrid,
    alpha_trajectory,
    estimate_phi_norm,
    et_norm,
    et_terms,
    picard_solve,
    shrink_horizon,
    smallness_gate,
)
from .stokes import assemble_stokes
from .verify import energy_audit, imex_oracle, strong_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MASK = 3
EXIT_GATE = 4
EXIT_PICARD = 5
EXIT_ORACLE = 6
EXIT_SPECTRUM = 7

_FLOAT_FMT = "%.17g"

# The README's config schema: every section and the keys it may hold.
_SECTION_KEYS = {
    "picard": {"tol", "max_iterations"},
    "phi_norm": {"trials"},
    "gate": {"safety_factor"},
    "shrink": {"eps_schedule"},
    "oracle": {"dts"},
    "initial_data": {"kind", "mode", "amplitude", "seed", "path"},
}
_CONFIG_KEYS = {"mask", "output_dir", "horizon", "segments", "quad_order", "seed",
                "nonlinearity_scale", *_SECTION_KEYS}
#: Most oracle steps one ``oracle.dts`` entry may take (``horizon / dt``).
MAX_ORACLE_STEPS = 10**6


@dataclass(eq=False)
class ExperimentConfig:
    """Validated experiment description (see README for the file schema)."""

    mask_path: str
    output_dir: str
    horizon: float
    segments: int
    quad_order: int
    seed: int
    nonlinearity_scale: float
    picard_tol: float
    picard_max_iterations: int
    phi_trials: int
    gate_safety: float
    eps_schedule: list
    oracle_dts: list
    initial_data: dict
    raw: dict = field(default_factory=dict, repr=False)


def load_config(path) -> ExperimentConfig:
    """Parse and statically validate a YAML experiment config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _SECTION_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            for sub in value:
                if sub not in _SECTION_KEYS[key]:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")

    def need(key, kind, section=None):
        src = data if section is None else data.get(section, {})
        name = key if section is None else f"{section}.{key}"
        if key not in src:
            raise ConfigError(f"missing config key {name!r}")
        value = src[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool):
            hint = _float_text_hint(value) if kind is float else ""
            raise ConfigError(f"config key {name!r} must be {kind.__name__}{hint}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"config key {name!r} must be finite")
        return value

    def optional(key, kind, default, section=None):
        if key not in (data if section is None else data.get(section, {})):
            return default
        return need(key, kind, section)

    def positive_list(section, key):
        values = data.get(section, {}).get(key, [])
        bad = [
            e for e in values
            if not isinstance(e, (int, float)) or isinstance(e, bool) or not 0 < e < math.inf
        ] if isinstance(values, list) else [None]
        if bad:
            raise ConfigError(
                f"{section}.{key} must be a list of positive numbers{_float_text_hint(bad[0])}"
            )
        return [float(e) for e in values]

    mask_path = need("mask", str)
    output_dir = need("output_dir", str)
    horizon = need("horizon", float)
    segments = need("segments", int)
    quad_order = optional("quad_order", int, 6)
    seed = need("seed", int)
    scale = optional("nonlinearity_scale", float, 1.0)
    tol = optional("tol", float, 1e-10, "picard")
    max_it = optional("max_iterations", int, 15, "picard")
    trials = optional("trials", int, 16, "phi_norm")
    safety = optional("safety_factor", float, 2.0, "gate")
    schedule = positive_list("shrink", "eps_schedule")
    dts = positive_list("oracle", "dts")

    init = need("initial_data", dict)
    kind = need("kind", str, "initial_data")
    if kind not in ("zero", "eigenmode", "random", "file"):
        raise ConfigError(f"unknown initial_data.kind {kind!r}")
    if kind == "eigenmode":
        need("mode", int, "initial_data")
        need("amplitude", float, "initial_data")
    elif kind == "random":
        need("amplitude", float, "initial_data")
        optional("seed", int, None, "initial_data")
    elif kind == "file":
        need("path", str, "initial_data")

    if horizon <= 0 or segments < 2 or quad_order < 1:
        raise ConfigError("horizon must be positive, segments >= 2, quad_order >= 1")
    if tol <= 0 or max_it < 1 or trials < 1 or safety < 1.0:
        raise ConfigError("picard/phi_norm/gate settings out of range")
    if not scale >= 0.0:
        raise ConfigError("nonlinearity_scale must be non-negative")
    if any(horizon / dt > MAX_ORACLE_STEPS for dt in dts):
        raise ConfigError(f"oracle.dts: horizon / dt exceeds {MAX_ORACLE_STEPS} oracle steps")

    return ExperimentConfig(
        mask_path=mask_path,
        output_dir=output_dir,
        horizon=horizon,
        segments=segments,
        quad_order=quad_order,
        seed=seed,
        nonlinearity_scale=scale,
        picard_tol=tol,
        picard_max_iterations=max_it,
        phi_trials=trials,
        gate_safety=safety,
        eps_schedule=schedule,
        oracle_dts=dts,
        initial_data=init,
        raw=data,
    )


def _float_text_hint(value) -> str:
    """The cause when YAML 1.1 read a number such as 1e-12 as text, else ''."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return ""
    text = repr(number) if "." in repr(number) else repr(number).replace("e", ".0e")
    ok = isinstance(value, str) and math.isfinite(number)
    return f"; write {text}: YAML 1.1 reads {value} as text" if ok else ""


def _build_initial_data(config: ExperimentConfig, spectrum, hodge) -> VectorField:
    init = config.initial_data
    kind = init["kind"]
    mask = hodge.mask
    if kind == "zero":
        return VectorField.zeros(mask)
    if kind == "eigenmode":
        mode = init["mode"]
        if not 0 <= mode < spectrum.dim:
            raise ConfigError(f"eigenmode index {mode} outside 0..{spectrum.dim - 1}")
        return VectorField(mask, float(init["amplitude"]) * spectrum.eigenfield(mode).values)
    if kind == "random":
        rng = np.random.default_rng(init.get("seed", config.seed + 1))
        coords = hodge.coords(rng.standard_normal(3 * mask.n_cells))
        coords *= float(init["amplitude"]) / (mask.cell_volume ** 0.5 * np.linalg.norm(coords))
        return hodge.lift(coords)
    # kind == "file": component-blocked array of shape (3, n) or (3n,)
    try:
        values = np.asarray(np.load(init["path"]), dtype=float).reshape(-1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read initial data file {init['path']}: {exc}") from exc
    if values.size != 3 * mask.n_cells:
        raise ConfigError(
            f"initial data file {init['path']} holds {values.size} values, "
            f"the mask needs 3 x {mask.n_cells}"
        )
    if not np.isfinite(values).all():
        raise ConfigError(f"initial data file {init['path']} holds non-finite values")
    return VectorField.from_flat(mask, values)


def run_experiment(config: ExperimentConfig) -> int:
    """Run the pipeline; write summary/norms/iterations files; return exit code."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config.raw,
        "status": "ok",
    }

    def fail(stage, exc, code):
        summary["status"] = "failed"
        summary["failure"] = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
        _write_summary(out_dir, summary)
        return code

    try:
        mask = load_mask(config.mask_path)
    except MaskError as exc:
        return fail("mask", exc, EXIT_MASK)
    except OSError as exc:
        return fail("mask", exc, EXIT_MASK)

    ops = build_operators(mask)
    summary["domain"] = {
        "dims": list(mask.dims),
        "spacing": mask.spacing,
        "cells": mask.n_cells,
    }
    try:
        hodge = build_hodge(ops)
        spectrum = assemble_stokes(hodge)
    except SpectrumError as exc:
        return fail("spectrum", exc, EXIT_SPECTRUM)
    summary["domain"].update(hodge_dim=hodge.dim, gradient_rank=hodge.grad_rank)
    summary["spectrum"] = {
        "dim": spectrum.dim,
        "lambda_min": float(spectrum.eigenvalues[0]),
        "lambda_max": float(spectrum.eigenvalues[-1]),
        "margins": {**hodge.margins, **spectrum.margins},
    }

    try:
        u0 = _build_initial_data(config, spectrum, hodge)
    except ConfigError as exc:
        return fail("initial_data", exc, EXIT_CONFIG)

    grid = TimeGrid.graded(config.horizon, config.segments, config.quad_order)
    phi_hat = estimate_phi_norm(spectrum, hodge, grid, config.phi_trials, config.seed)
    # the iteration runs with scale * Phi, so the gate must guard that norm;
    # a zero norm (scale 0, or a domain without convective coupling) is the
    # linear mode, which contracts unconditionally
    phi_gate = config.gate_safety * config.nonlinearity_scale * phi_hat
    linear_mode = phi_gate == 0.0
    alpha = alpha_trajectory(spectrum, u0, grid)
    alpha_norms = et_norm(spectrum, alpha)
    gate_ok = linear_mode or smallness_gate(alpha_norms, phi_gate)
    summary["phi_norm"] = {"estimate": phi_hat, "safety_factor": config.gate_safety,
                           "gate_value": phi_gate}
    summary["gate"] = {"passed_initially": gate_ok, "alpha_total": alpha_norms.total,
                       "threshold": None if linear_mode else 1.0 / (4.0 * phi_gate),
                       "shrink": None}

    shrink_attempts = []
    if not gate_ok:
        try:
            shrunk = shrink_horizon(spectrum, u0, phi_gate, grid, config.eps_schedule)
        except GateUnreachableError as exc:
            summary["gate"]["shrink"] = {
                "passed": False,
                "attempts": [vars(a) for a in exc.attempts],
            }
            return fail("gate", exc, EXIT_GATE)
        shrink_attempts = shrunk.attempts
        summary["gate"]["shrink"] = {
            "passed": True,
            "eps": shrunk.eps,
            "horizon": shrunk.horizon,
            "attempts": [vars(a) for a in shrink_attempts],
        }
        u0 = shrunk.u0_smooth
        grid = shrunk.grid

    picard_cfg = PicardConfig(
        grid=grid,
        tol=config.picard_tol,
        max_iterations=config.picard_max_iterations,
        nonlinearity_scale=config.nonlinearity_scale,
    )
    try:
        traj, log = picard_solve(spectrum, hodge, u0, picard_cfg)
    except PicardDivergenceError as exc:
        if exc.log is not None:
            summary["picard"] = _picard_summary(exc.log, shrink_attempts)
        return fail("picard", exc, EXIT_PICARD)
    summary["picard"] = _picard_summary(log, shrink_attempts)
    if not log.converged:
        exc = PicardDivergenceError(
            f"no convergence to tol {config.picard_tol:g} in {log.iterations} iterations "
            f"(last distance {log.distances[-1]:.3e})"
        )
        return fail("picard", exc, EXIT_PICARD)

    report = strong_residual(spectrum, hodge, ops, traj, u0, config.nonlinearity_scale)
    balances = energy_audit(spectrum, ops, traj)
    summary["verification"] = {
        "max_divergence": float(report.divergence_norms.max()),
        "max_residual_rel": float(report.residual_rels.max()),
        "max_gradient_match_rel": float(report.gradient_match_rels.max()),
        "max_pressure_consistency": float(report.pressure_consistency_rels.max()),
        "initial_value_error": report.initial_value_error,
        "max_energy_balance": float(np.abs(balances).max()),
        "max_convective_l32_weighted": float(report.convective_l32.max()),
    }

    oracle_results = []
    for dt in config.oracle_dts:
        try:
            oracle = imex_oracle(spectrum, hodge, u0, grid, dt, config.nonlinearity_scale)
        except OracleInstabilityError as exc:
            summary["oracle"] = oracle_results
            return fail("oracle", exc, EXIT_ORACLE)
        dev = np.linalg.norm(oracle.samples - traj.samples, axis=1).max()
        ref = max(np.linalg.norm(traj.samples, axis=1).max(), np.finfo(float).tiny)
        oracle_results.append({"dt": dt, "relative_sup_deviation": float(dev / ref)})
    summary["oracle"] = oracle_results

    _write_summary(out_dir, summary)
    _write_norms_csv(out_dir / "norms.csv", spectrum, traj)
    _write_iterations_csv(out_dir / "iterations.csv", log)
    return EXIT_OK


def _picard_summary(log, shrink_attempts) -> dict:
    return {
        "iterations": log.iterations,
        "converged": log.converged,
        "distances": list(map(float, log.distances)),
        "ratios": list(map(float, log.ratios)),
        "fixed_point_residual": log.fixed_point_residual,
        "alpha_norms": _norms_dict(log.alpha_norms),
        "final_norms": _norms_dict(log.iterate_norms[-1] if log.iterate_norms else None),
        "horizon_shrinks": [[a.eps, a.horizon] for a in shrink_attempts],
    }


def _norms_dict(norms) -> dict | None:
    return None if norms is None else {**vars(norms), "total": norms.total}


def _write_summary(out_dir: Path, summary: dict):
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


def _write_norms_csv(path: Path, spectrum, traj):
    lines = ["t,quarter_norm,weighted_half_norm,weighted_deriv_norm"]
    for t, terms in zip(traj.grid.nodes, et_terms(spectrum, traj)):
        lines.append(",".join(_FLOAT_FMT % x for x in (t, *terms)))
    path.write_text("\n".join(lines) + "\n")


def _write_iterations_csv(path: Path, log):
    lines = ["iterate,et_total,distance,ratio"]
    for n, norms in enumerate(log.iterate_norms):
        ratio = log.ratios[n - 1] if 1 <= n <= len(log.ratios) else float("nan")
        lines.append(
            "%d,%s,%s,%s"
            % (n, _FLOAT_FMT % norms.total, _FLOAT_FMT % log.distances[n], _FLOAT_FMT % ratio)
        )
    path.write_text("\n".join(lines) + "\n")


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = run_experiment(config)
    except MildflowError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1
    if code != EXIT_OK:
        print(f"run failed with exit code {code} (see summary.json)", file=sys.stderr)
    return code


def _cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def _cmd_mask_info(args) -> int:
    try:
        mask = load_mask(args.mask)
    except (MaskError, OSError) as exc:
        print(f"mask error: {exc}", file=sys.stderr)
        return EXIT_MASK
    nx, ny, nz = mask.dims
    print(f"dims: {nx} x {ny} x {nz}")
    print(f"spacing: {mask.spacing}")
    print(f"occupied cells: {mask.n_cells} of {nx * ny * nz}")
    counts = np.bincount(parity_classes(mask), minlength=8)
    print("cells per parity class (4 x odd + 2 y odd + z odd): "
          + " ".join(f"{k}:{c}" for k, c in enumerate(counts)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mildflow",
        description="Mild/strong solution experiments on voxel domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a full experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)
    p_val = sub.add_parser("validate", help="parse and check a config only")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)
    p_info = sub.add_parser("mask-info", help="inspect a mask file")
    p_info.add_argument("mask")
    p_info.set_defaults(func=_cmd_mask_info)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
