"""Batch experiment runner.

``mildflow run <config.yaml>`` drives the full pipeline

    mask -> operators -> hodge -> stokes -> (gate / horizon shrink)
         -> picard -> strong checks -> stepping oracle

and emits four machine-readable files into the output directory:

* ``summary.json``    every norm, gate status, contraction ratios,
                      residuals, oracle deviations, the warnings the
                      run showed, and a config echo;
* ``norms.csv``       the per-node weighted norm terms of the solution;
* ``iterations.csv``  the per-iterate fixed-point log;
* ``trace.json``      each stage's calls, seconds and memory (not deterministic).

``validate`` parses a config without running; ``mask-info`` inspects a
mask file.  Exit codes: 0 ok, 2 config error; a failing stage exits with
the code that ``_FAILURES`` gives its exception type.

The config is YAML.  The ``ExperimentConfig`` fields declare its keys,
which the README documents; any other key is a config error.  A seed is
mandatory so reruns at the same BLAS thread count are bit-reproducible
apart from the timestamp field.
"""

import argparse
import contextlib
import functools
import json
import math
import operator
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import yaml

from . import __version__
from .domain import VectorField, load_mask, build_operators
from .errors import (
    ConfigError,
    GateUnreachableError,
    MaskError,
    OracleInstabilityError,
    PicardDivergenceError,
    SpectrumError,
)
from .hodge import build_hodge, parity_classes
from .mild import (
    PicardConfig,
    TimeGrid,
    alpha_from_coords,
    alpha_trajectory,
    estimate_phi_norm,
    et_norm,
    et_terms,
    modal_forcing,
    picard_solve,
    shrink_horizon,
    smallness_gate,
)
from .stokes import assemble_stokes
from .verify import energy_audit, imex_oracle, oracle_times, strong_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MASK = 3
EXIT_GATE = 4
EXIT_PICARD = 5
EXIT_ORACLE = 6
EXIT_SPECTRUM = 7

# The stage and exit code of each exception a run reports.  OSError is here
# because ``load_mask`` is the one stage that reads a file; the outputs are
# written outside the handler, so a failed write is never a mask error.
_FAILURES = {
    MaskError: ("mask", EXIT_MASK),
    OSError: ("mask", EXIT_MASK),
    SpectrumError: ("spectrum", EXIT_SPECTRUM),
    ConfigError: ("initial_data", EXIT_CONFIG),
    GateUnreachableError: ("gate", EXIT_GATE),
    PicardDivergenceError: ("picard", EXIT_PICARD),
    OracleInstabilityError: ("oracle", EXIT_ORACLE),
}

# The keys each initial-data kind reads besides ``kind``, with their types and bounds.
_INITIAL_DATA_KEYS = {"zero": {}, "eigenmode": {"mode": (int, {">=": 0}), "amplitude": (float, {})},
                      "random": {"amplitude": (float, {}), "seed": (int, {">=": 0})},
                      "file": {"path": (str, {})}}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}  # a bound's metadata keys
#: Most oracle steps one ``oracle.dts`` entry may take (``horizon / dt``).
MAX_ORACLE_STEPS = 10**6
#: Most time-grid segments N.  Phi's kernel operands hold 3n rows and up to
#: N + 1 columns: one is 1,536 x 10,001 doubles, 123 MB, on an 8^3 box at N = 10^4.
MAX_SEGMENTS = 10**4
#: Most ||Phi|| probe trials: one takes about 1.8 ms on an 8^3 box (2 x86_64 cores), 10^4 18 s.
MAX_PHI_TRIALS = 10**4


@dataclass(eq=False, kw_only=True)
class ExperimentConfig:
    """Validated experiment description, and the config schema.

    Each field but ``raw`` reads the YAML key in its ``key`` metadata ("section.key"
    inside a section) as the field's type, within its ``_BOUNDS`` metadata (each entry
    of a list); a field with no default is a required key.  ``config_from_dict`` accepts
    these keys and no others (``initial_data`` holds the keys of ``_INITIAL_DATA_KEYS``).
    """

    mask_path: str = field(metadata={"key": "mask"})
    output_dir: str = field(metadata={"key": "output_dir"})
    horizon: float = field(metadata={"key": "horizon", ">": 0})
    segments: int = field(metadata={"key": "segments", ">=": 2, "<=": MAX_SEGMENTS})
    quad_order: int = field(default=6, metadata={"key": "quad_order", ">=": 1})
    seed: int = field(metadata={"key": "seed", ">=": 0})
    nonlinearity_scale: float = field(default=1.0, metadata={"key": "nonlinearity_scale", ">=": 0})
    picard_tol: float = field(default=1e-10, metadata={"key": "picard.tol", ">": 0})
    picard_max_iterations: int = field(default=15,
                                       metadata={"key": "picard.max_iterations", ">=": 1})
    phi_trials: int = field(default=16, metadata={"key": "phi_norm.trials", ">=": 1,
                                                  "<=": MAX_PHI_TRIALS})
    gate_safety: float = field(default=2.0, metadata={"key": "gate.safety_factor", ">=": 1})
    eps_schedule: list[float] = field(default_factory=list,
                                      metadata={"key": "shrink.eps_schedule", ">": 0})
    oracle_dts: list[float] = field(default_factory=list, metadata={"key": "oracle.dts", ">": 0})
    initial_data: dict = field(metadata={"key": "initial_data"})
    raw: dict = field(default_factory=dict, repr=False)


class _UniqueKeyLoader(yaml.SafeLoader):
    """Safe YAML loading that rejects a key written twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(k, deep=deep) for k, _ in node.value
                if k.tag != "tag:yaml.org,2002:merge"]  # a << merge key may repeat
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ConfigError(f"config key {key!r} is written twice in one mapping")
        return super().construct_mapping(node, deep=deep)


def load_config(path) -> ExperimentConfig:
    """Parse and statically validate a YAML experiment config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Check ``data`` against the ``ExperimentConfig`` fields and build the config."""
    schema = {f.metadata["key"]: f for f in fields(ExperimentConfig) if "key" in f.metadata}
    top = {name.partition(".")[0] for name in schema}
    sections = {"initial_data": {"kind", *set().union(*_INITIAL_DATA_KEYS.values())}}
    for section, _, key in (name.partition(".") for name in schema if "." in name):
        sections.setdefault(section, set()).add(key)
    for key, value in data.items():
        if key not in top:
            raise ConfigError(f"unknown config key {key!r}")
        if key in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            for sub in value:
                if sub not in sections[key]:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")

    def need(name, kind, bounds, required=True):
        section, _, key = name.rpartition(".")
        src = data.get(section, {}) if section else data
        if key not in src:
            if required:
                raise ConfigError(f"missing config key {name!r}")
            return MISSING
        return _checked(name, src[key], kind, bounds)

    values = {f.name: need(name, f.type, f.metadata,
                           f.default is MISSING and f.default_factory is MISSING)
              for name, f in schema.items()}
    config = ExperimentConfig(**{k: v for k, v in values.items() if v is not MISSING}, raw=data)

    init = config.initial_data
    kind = need("initial_data.kind", str, {})
    if kind not in _INITIAL_DATA_KEYS:
        raise ConfigError(f"unknown initial_data.kind {kind!r}")
    unread = sorted(init.keys() - _INITIAL_DATA_KEYS[kind].keys() - {"kind"})
    if unread:
        raise ConfigError(f"config key 'initial_data.{unread[0]}' is not read by kind {kind!r}")
    for key, (key_type, bounds) in _INITIAL_DATA_KEYS[kind].items():
        need(f"initial_data.{key}", key_type, bounds, key != "seed")  # the random seed is optional

    horizon, segments = config.horizon, config.segments
    if any(horizon / dt > MAX_ORACLE_STEPS for dt in config.oracle_dts):
        raise ConfigError(f"oracle.dts: horizon / dt exceeds {MAX_ORACLE_STEPS} oracle steps")
    try:
        TimeGrid.graded(horizon, segments, config.quad_order)
    except ValueError as exc:
        raise ConfigError(f"horizon {horizon!r} and segments {segments} "
                          f"give no time grid: {exc}") from exc
    return config


def _checked(name: str, value, kind, bounds: dict):
    """``value`` of config key ``name`` as a ``kind`` (an int read as a float), finite if a
    float and within the ``_BOUNDS`` in ``bounds``, each entry ``name[i]`` of a ``list[...]``
    checked so; else a ConfigError that names the key and what it must be."""
    base = get_origin(kind) or kind  # list for list[float]
    if base is float and isinstance(value, int) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # past the float range it stays an int
            value = float(value)
    if not isinstance(value, base) or isinstance(value, bool):
        hint = _float_text_hint(value) if base is float else ""
        raise ConfigError(f"config key {name!r} must be {base.__name__}{hint}")
    if base is list:
        return [_checked(f"{name}[{i}]", e, *get_args(kind), bounds) for i, e in enumerate(value)]
    if base is float and not math.isfinite(value):
        raise ConfigError(f"config key {name!r} must be finite")
    for op, bound in bounds.items():
        if op in _BOUNDS and not _BOUNDS[op](value, bound):
            raise ConfigError(f"config key {name!r} must be {op} {bound}")
    return value


def _float_text_hint(value) -> str:
    """The cause when YAML 1.1 read a number such as 1e-12 as text, else ''."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
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
        mode_field = spectrum.eigenfield(init["mode"]).values
        return VectorField(mask, float(init["amplitude"]) * mode_field)
    if kind == "random":
        rng = np.random.default_rng(init.get("seed", config.seed + 1))
        coords = hodge.coords(rng.standard_normal(3 * mask.n_cells))
        coords *= float(init["amplitude"]) / (mask.cell_volume ** 0.5 * np.linalg.norm(coords))
        return hodge.lift(coords)
    # kind == "file": a component-blocked array of shape (3, n) or (3n,) only
    try:
        values = np.load(init["path"])
        if isinstance(values, np.lib.npyio.NpzFile):
            values.close()
            raise ValueError("it is an .npz archive; it needs one array saved with np.save")
        values = values.astype(float, casting="same_kind")
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot read initial data file {init['path']}: {exc}") from exc
    accepted = ((3, mask.n_cells), (3 * mask.n_cells,))
    if values.shape not in accepted:
        raise ConfigError(
            f"initial data file {init['path']} holds an array of shape {values.shape}, "
            f"the mask needs {accepted[0]} or {accepted[1]}"
        )
    if not np.isfinite(values).all():
        raise ConfigError(f"initial data file {init['path']} holds non-finite values")
    return VectorField.from_flat(mask, values)


def run_experiment(config: ExperimentConfig) -> int:
    """Run the pipeline; write the summary, trace, norms and iterations files; return exit code.

    A failing stage raises; ``_FAILURES`` gives its stage name and exit
    code, and the partial ``summary.json`` keeps what earlier stages found.
    """
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for table in ("norms.csv", "iterations.csv"):  # only a run that succeeds writes them
            (out_dir / table).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot prepare output_dir {out_dir}: {exc}") from exc
    trace = _Trace()
    summary = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config.raw,
        "status": "ok",
        "warnings": [],
    }
    try:
        # a fresh warnings registry per run, so a rerun in one process records the same
        with warnings.catch_warnings():
            warnings.showwarning = functools.partial(_record_warning, summary["warnings"],
                                                     warnings.showwarning)
            spectrum, traj, log = _run_stages(config, summary, trace)
        overflowed = []
        _nulled(summary, overflowed)
        if overflowed:
            raise SpectrumError(f"a number left the floating-point range: {', '.join(overflowed)}")
    except tuple(_FAILURES) as exc:
        stage, code = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        summary["status"] = "failed"
        summary["failure"] = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
        _write_json(out_dir, summary, trace)
        return code
    _write_json(out_dir, summary, trace)
    _write_norms_csv(out_dir / "norms.csv", spectrum, traj)
    _write_iterations_csv(out_dir / "iterations.csv", log)
    return EXIT_OK


def _record_warning(record: list, show, message, category, *args, **kwargs):
    """Append the category and message of a warning the filters let through to
    ``record``, then ``show`` it as the caller would have."""
    record.append({"category": category.__name__, "message": str(message)})
    show(message, category, *args, **kwargs)


def _memory_mib() -> tuple:
    """The process's peak RSS (``ru_maxrss``) and its RSS now, in MiB; each is
    None where ``resource`` (Windows) or ``/proc/self/statm`` (macOS) is missing."""
    peak = rss = None
    with contextlib.suppress(ImportError, OSError):
        from resource import RUSAGE_SELF, getpagesize, getrusage
        peak = getrusage(RUSAGE_SELF).ru_maxrss / (2.0**20 if sys.platform == "darwin" else 1024.0)
        with open("/proc/self/statm") as statm:
            rss = int(statm.read().split()[1]) * getpagesize() / 2.0**20
    return peak, rss


class _Trace:
    """Each stage's calls, seconds, peak-RSS rise and RSS after, for ``trace.json``."""

    def __init__(self):
        self.start, self.rss_before, self.stages = time.perf_counter(), _memory_mib()[1], {}

    def __call__(self, name: str, *args, **kwargs):
        """Call the module global ``name``, looked up now, so a rebound name is seen."""
        start, peak = time.perf_counter(), _memory_mib()[0]
        try:
            return globals()[name](*args, **kwargs)
        finally:
            entry = self.stages.setdefault(name, dict(calls=0, seconds=0.0, peak_rise_mib=0.0))
            entry["calls"] += 1
            entry["seconds"] += time.perf_counter() - start
            top, entry["rss_after_mib"] = _memory_mib()
            entry["peak_rise_mib"] = None if peak is None else entry["peak_rise_mib"] + top - peak


def _run_stages(config: ExperimentConfig, summary: dict, stage: _Trace):
    """The pipeline in stage order, each stage called through ``stage``, recording into
    ``summary`` as it goes; returns the spectrum, the solution trajectory and its log."""
    mask = stage("load_mask", config.mask_path)
    ops = stage("build_operators", mask)
    summary["domain"] = {"dims": list(mask.dims), "spacing": mask.spacing,
                         "cells": mask.n_cells}
    hodge = stage("build_hodge", ops)
    # the spectrum has the Hodge dimension: a mode past it fails before the eigensolve
    mode = config.initial_data.get("mode")
    if mode is not None and not 0 <= mode < hodge.dim:
        raise ConfigError(f"eigenmode index {mode} outside 0..{hodge.dim - 1}")
    spectrum = stage("assemble_stokes", hodge)
    summary["domain"].update(hodge_dim=hodge.dim, gradient_rank=hodge.grad_rank)
    summary["spectrum"] = {
        "dim": spectrum.dim,
        "lambda_min": float(spectrum.eigenvalues[0]),
        "lambda_max": float(spectrum.eigenvalues[-1]),
        "margins": {**hodge.margins, **spectrum.margins},
    }

    u0 = _build_initial_data(config, spectrum, hodge)
    grid = TimeGrid.graded(config.horizon, config.segments, config.quad_order)
    phi_hat = stage("estimate_phi_norm", spectrum, hodge, grid, config.phi_trials, config.seed)
    # the iteration runs with scale * Phi, so the gate must guard that norm; scale 0,
    # or a zero probe on a domain without convective coupling (checked below), is the
    # linear mode: it contracts unconditionally, and every later stage runs at scale 0
    linear_mode = config.nonlinearity_scale == 0.0 or phi_hat == 0.0
    scale = 0.0 if linear_mode else config.nonlinearity_scale
    phi_gate = config.gate_safety * scale * phi_hat
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is reported below
        alpha = alpha_trajectory(spectrum, u0, grid)
        alpha_norms = et_norm(spectrum, alpha)
    if not math.isfinite(alpha_norms.total):
        # ||alpha|| is linear in u0: if it is finite for u0 scaled to norm 1,
        # the data is too large; if not, the spectrum's range is
        top = np.abs(u0.flat).max()
        size = top * u0.mask.cell_volume ** 0.5 * np.linalg.norm(u0.flat / top)  # ||u0||
        if not np.isfinite(size) or math.isfinite(et_norm(spectrum, alpha_from_coords(
                spectrum, hodge.coords(u0.flat / size), grid)).total):
            raise ConfigError(f"initial data too large: ||u0|| = {size:.3e} makes ||alpha|| overflow")
        raise SpectrumError(f"||alpha|| is the non-finite {alpha_norms.total}")
    if config.nonlinearity_scale > 0.0 and phi_hat == 0.0:
        x = spectrum.lift(np.random.default_rng(config.seed).standard_normal(spectrum.dim))
        if modal_forcing(spectrum, x, x).any():
            raise SpectrumError(f"the ||Phi|| probe read 0 on a domain with convective coupling; "
                                f"raise phi_norm.trials (now {config.phi_trials})")
    # past linear mode, a gate value that underflowed to 0 has an infinite threshold
    threshold = None if linear_mode else (1.0 / (4.0 * phi_gate) if phi_gate else math.inf)
    if not (math.isfinite(phi_gate) and (linear_mode or math.isfinite(threshold))):
        raise ConfigError(f"gate.safety_factor * nonlinearity_scale * ||Phi|| = {phi_gate!r} "
                          f"and the gate threshold 1/(4 x) = {threshold!r} must both be finite")
    gate_ok = linear_mode or smallness_gate(alpha_norms, phi_gate)
    summary["phi_norm"] = {"estimate": phi_hat, "safety_factor": config.gate_safety,
                           "gate_value": phi_gate}
    summary["gate"] = {"passed_initially": gate_ok, "alpha_total": alpha_norms.total,
                       "threshold": threshold, "shrink": None}

    shrink_attempts = []
    if not gate_ok:
        try:
            shrunk = stage("shrink_horizon", spectrum, u0, phi_gate, grid, config.eps_schedule)
        except GateUnreachableError as exc:
            summary["gate"]["shrink"] = {"passed": False,
                                         "attempts": [vars(a) for a in exc.attempts]}
            raise
        shrink_attempts = shrunk.attempts
        summary["gate"]["shrink"] = {
            "passed": True,
            "eps": shrunk.eps,
            "horizon": shrunk.horizon,
            "attempts": [vars(a) for a in shrink_attempts],
        }
        u0 = shrunk.u0_smooth
        grid = shrunk.grid
        alpha = alpha_trajectory(spectrum, u0, grid)
    # lambda t_1 >> 1 means a mode decays before the first node resolves it
    t1 = grid.nodes[1]
    summary["grid"] = {"lambda_min_t1": float(spectrum.eigenvalues[0] * t1),
                       "lambda_max_t1": float(spectrum.eigenvalues[-1] * t1)}

    picard_cfg = PicardConfig(
        grid=grid,
        tol=config.picard_tol,
        max_iterations=config.picard_max_iterations,
        nonlinearity_scale=scale,
    )
    try:
        traj, log = stage("picard_solve", spectrum, hodge, u0, picard_cfg)
    except PicardDivergenceError as exc:
        summary["picard"] = _picard_summary(exc.log, shrink_attempts)
        raise
    summary["picard"] = _picard_summary(log, shrink_attempts)

    report = stage("strong_residual", spectrum, hodge, ops, traj, u0, scale)
    balances = stage("energy_audit", spectrum, traj)
    floor = stage("energy_audit", spectrum, alpha)
    summary["verification"] = {
        "max_divergence": float(report.divergence_norms.max()),
        "max_residual_rel": float(report.residual_rels.max()),
        # the nodes come first: the fixed-point distance, then the time discretization
        "max_node_residual_rel": float(report.residual_rels[:grid.segments].max()),
        "max_midpoint_residual_rel": float(report.residual_rels[grid.segments:].max()),
        "max_gradient_match_rel": float(report.gradient_match_rels.max()),
        "max_pressure_consistency": float(report.pressure_consistency_rels.max()),
        "initial_value_error": report.initial_value_error,
        "max_energy_balance": float(np.abs(balances).max()),
        "energy_balance_floor": float(np.abs(floor).max()),
        "max_convective_l32_weighted": float(report.convective_l32.max()),
    }

    summary["oracle"] = []
    for dt in config.oracle_dts:
        oracle = stage("imex_oracle", spectrum, hodge, u0, grid, dt, scale)
        dev = np.linalg.norm(oracle.samples - traj.samples, axis=1).max()
        ref = max(np.linalg.norm(traj.samples, axis=1).max(), np.finfo(float).tiny)
        summary["oracle"].append({
            "dt": dt,
            "steps": oracle_times(grid, dt).size - 1,
            "dt_lambda_max": float(dt * spectrum.eigenvalues[-1]),
            "relative_sup_deviation": float(dev / ref),
        })
    return spectrum, traj, log


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


def _nulled(value, found: list, key: str = ""):
    """``value`` with each NaN or infinite float replaced by None, as JSON has no
    such number, and its dotted key appended to ``found``."""
    if isinstance(value, dict):
        return {name: _nulled(item, found, f"{key}.{name}" if key else name)
                for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(item, found, f"{key}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        found.append(key)
        return None
    return value


def _write_json(out_dir: Path, summary: dict, trace: _Trace):
    """Write ``summary.json`` as strict JSON, then ``trace.json`` with the run's
    seconds and peak so far."""
    text = json.dumps(_nulled(summary, []), indent=2, sort_keys=True)
    (out_dir / "summary.json").write_text(text + "\n")
    run = {"rss_before_mib": trace.rss_before, "seconds": time.perf_counter() - trace.start,
           "peak_rss_mib": _memory_mib()[0], "stages": trace.stages}
    (out_dir / "trace.json").write_text(json.dumps(run, indent=2) + "\n")


def _write_norms_csv(path: Path, spectrum, traj):
    np.savetxt(path, np.column_stack([traj.grid.nodes, et_terms(spectrum, traj)]),
               fmt="%.17g", delimiter=",", comments="",
               header="t,quarter_norm,weighted_half_norm,weighted_deriv_norm")


def _write_iterations_csv(path: Path, log):
    # the first iterate has no ratio
    ratios = np.full(len(log.iterate_norms), np.nan)
    ratios[1:len(log.ratios) + 1] = log.ratios
    totals = [norms.total for norms in log.iterate_norms]
    np.savetxt(path, np.column_stack([np.arange(ratios.size), totals, log.distances, ratios]),
               fmt=["%d", "%.17g", "%.17g", "%.17g"], delimiter=",", comments="",
               header="iterate,et_total,distance,ratio")


def _cmd_run(args) -> int:
    code = run_experiment(load_config(args.config))
    if code != EXIT_OK:
        print(f"run failed with exit code {code} (see summary.json)", file=sys.stderr)
    return code


def _cmd_validate(args) -> int:
    load_config(args.config)
    print("config ok")
    return EXIT_OK


def _cmd_mask_info(args) -> int:
    # imported here only: scipy.ndimage adds about 6 MiB to a run's peak RSS
    from scipy.ndimage import label

    try:
        mask = load_mask(args.mask)
    except (MaskError, OSError) as exc:
        print(f"mask error: {exc}", file=sys.stderr)
        return EXIT_MASK
    nx, ny, nz = mask.dims
    print(f"dims: {nx} x {ny} x {nz}")
    print(f"spacing: {mask.spacing}")
    print(f"occupied cells: {mask.n_cells} of {nx * ny * nz}")
    # label's default structure couples the 6 face neighbours, as the stencil does
    print(f"face-connected components: {label(mask.occupancy)[1]}")
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
