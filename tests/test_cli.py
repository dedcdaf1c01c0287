"""Experiment runner: config handling, pipeline staging, emitted files."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from mildflow.cli import (
    EXIT_CONFIG,
    EXIT_GATE,
    EXIT_MASK,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PICARD,
    EXIT_SPECTRUM,
    ExperimentConfig,
    _INITIAL_DATA_KEYS,
    config_from_dict,
    load_config,
    main,
    run_experiment,
)
from mildflow.errors import (
    ConfigError,
    OracleInstabilityError,
    PicardDivergenceError,
    SpectrumError,
)
from conftest import load_by_path, mask_path

README = Path(__file__).resolve().parent.parent / "README.md"


def base_config(out_dir, **overrides):
    cfg = {
        "mask": mask_path("box4"),
        "output_dir": str(out_dir),
        "horizon": 0.5,
        "segments": 20,
        "quad_order": 6,
        "seed": 1234,
        "nonlinearity_scale": 1.0,
        "picard": {"tol": 1e-10, "max_iterations": 15},
        "phi_norm": {"trials": 4},
        "gate": {"safety_factor": 2.0},
        "shrink": {"eps_schedule": [0.2, 0.4, 0.6]},
        "oracle": {"dts": [0.01]},
        "initial_data": {"kind": "eigenmode", "mode": 0, "amplitude": 0.05},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_summary(out_dir):
    """``summary.json`` read as strict JSON: a NaN or Infinity literal fails the read."""
    def reject(literal):
        raise ValueError(f"summary.json holds {literal}, which is not JSON")

    return json.loads((Path(out_dir) / "summary.json").read_text(), parse_constant=reject)


def read_trace(out_dir, last):
    """The stages of a run's ``trace.json``, checked up to ``last``, the stage it ended in."""
    trace = json.loads((Path(out_dir) / "trace.json").read_text())
    assert list(trace["stages"])[-1] == last
    assert trace["seconds"] >= 0.0 and trace["peak_rss_mib"] > 0.0 and trace["rss_before_mib"] > 0.0
    for stage in trace["stages"].values():
        assert stage["calls"] >= 1 and stage["seconds"] >= 0.0
        assert stage["peak_rise_mib"] >= 0.0 and stage["rss_after_mib"] > 0.0
    return trace["stages"]


def readme_schema():
    """The YAML block under the README's ``### Config schema``."""
    text = README.read_text()
    block = text[text.index("### Config schema"):]
    block = block[block.index("```yaml\n") + len("```yaml\n"):]
    return yaml.safe_load(block[:block.index("```")])


def declared_bounds():
    """(key, type, operator, bound) of each bound on a config key: the
    ``ExperimentConfig`` field metadata and the initial-data key table."""
    declared = [(f.metadata["key"], f.type, f.metadata)
                for f in dataclasses.fields(ExperimentConfig) if "key" in f.metadata]
    declared += [(f"initial_data.{key}", kind, bounds) for keys in _INITIAL_DATA_KEYS.values()
                 for key, (kind, bounds) in keys.items()]
    return [(key, kind, op, bound) for key, kind, meta in declared
            for op, bound in meta.items() if op != "key"]


DECLARED_BOUNDS = declared_bounds()


def with_key(cfg, key, kind, value):
    """``cfg`` with the config key ``key`` set to ``value`` (as a list's one entry);
    an initial-data key under the first kind that reads it, its other keys valid
    (0 if an int, 0.05 if a float)."""
    section, _, sub = key.rpartition(".")
    value = [value] if kind == list[float] else value
    if section == "initial_data":
        kind_name, keys = next(item for item in _INITIAL_DATA_KEYS.items() if sub in item[1])
        cfg[section] = {"kind": kind_name, **{k: t(0.05) for k, (t, _) in keys.items()}}
    if section:
        cfg[section] = {**cfg.get(section, {}), sub: value}
    else:
        cfg[key] = value
    return cfg


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.horizon == 0.5
        assert cfg.eps_schedule == [0.2, 0.4, 0.6]

    def test_missing_seed(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, cfg))

    def test_bad_initial_kind(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["initial_data"] = {"kind": "vortex"}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("{{{{")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "change",
        [
            {"nonlinearity_scal": 0.0},  # misspelt top-level key
            {"picard.tol": 1e-12},  # a section key written flat at the top level
            {"oracle.dts": [0.01]},
            {"picard": {"tol": 1e-10, "max_iteration": 3}},  # misspelt nested key
            {"picard": 5},  # section that is not a mapping
            {"nonlinearity_scale": -1.0},
            {"initial_data": {"kind": "random", "amplitude": 0.02, "seed": "seven"}},
            {"horizon": float("nan")},
            {"horizon": float("inf")},
            {"horizon": 10**400},  # an int that float() cannot convert
            {"gate": {"safety_factor": float("nan")}},
            {"oracle": {"dts": [float("nan")]}},
            {"oracle": {"dts": [float("inf")]}},
            {"initial_data": {"kind": "eigenmode", "mode": 0, "amplitude": float("nan")}},
            {"initial_data": {"kind": "random", "amplitude": float("inf")}},
            {"picard": {"tol": float("nan")}},
            {"picard": {"tol": "1e-12"}},  # how YAML 1.1 reads `tol: 1e-12`
            {"oracle": {"dts": ["1e-3"]}},
            {"horizon": 1e300},  # 1e302 oracle steps at dt 0.01
            {"segments": 10**4 + 1},  # parsed only: nothing is allocated
            {"phi_norm": {"trials": 10**4 + 1}},  # about 18 s of probe on an 8^3 box
            {"gate": {"safety_factor": 0.5}},
            {"seed": -3},  # numpy's generators take only non-negative seeds
            {"initial_data": {"kind": "random", "amplitude": 0.05, "seed": -1}},
            # t_1 = T / N^2 underflows to 0: no strictly increasing grid
            {"horizon": 1.0e-318, "segments": 1000, "seed": 1,
             "initial_data": {"kind": "random", "amplitude": 0.05}},
            # keys the kind never reads
            {"initial_data": {"kind": "zero", "amplitude": 5.0}},
            {"initial_data": {"kind": "file", "path": "zeros.npy", "amplitude": 5.0}},
            {"initial_data": {"kind": "eigenmode", "mode": 0, "amplitude": 0.05, "seed": 3}},
            {"initial_data": {"kind": "random", "amplitude": 0.05, "mode": 2}},
            {"initial_data": {"kind": "random", "amplitude": 0.05, "path": "zeros.npy"}},
        ],
        ids=["top_level_typo", "flat_section_key", "flat_section_list", "nested_typo", "section_not_mapping", "negative_scale",
             "random_seed_not_int", "horizon_nan", "horizon_inf", "horizon_int_past_float",
             "safety_factor_nan",
             "oracle_dt_nan", "oracle_dt_inf", "amplitude_nan", "random_amplitude_inf",
             "picard_tol_nan", "picard_tol_exponent_text", "oracle_dt_exponent_text",
             "oracle_steps_over_cap", "segments_over_cap", "trials_over_cap",
             "safety_factor_below_1",
             "negative_seed", "negative_random_seed", "horizon_underflow",
             "zero_amplitude", "file_amplitude", "eigenmode_seed", "random_mode", "random_path"],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, command, change):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, **change))
        with pytest.raises(ConfigError):
            load_config(path)
        assert main([command, path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("picard:\n  tol: 1e-12\n", "float; write 1.0e-12: YAML 1.1 reads 1e-12 as text"),
            ("horizon: 1e5\n", "float; write 100000.0: YAML 1.1 reads 1e5 as text"),
            ("oracle:\n  dts: [1e-3]\n",
             "'oracle.dts\\[0\\]' must be float; write 0.001: YAML 1.1 reads 1e-3 as text"),
            ("oracle:\n  dts: [2.0e-7]\n", "horizon / dt exceeds 1000000 oracle steps"),
            ("segments: 10001\n", "config key 'segments' must be <= 10000$"),
            ("horizon: abc\n", "'horizon' must be float$"),  # no hint for plain text
            ("seed: -3\n", "'seed' must be >= 0"),
            ("initial_data:\n  kind: random\n  amplitude: 0.05\n  seed: -1\n",
             "'initial_data.seed' must be >= 0"),
            ("horizon: 1.0e-322\n", "horizon 1e-322 and segments 20 give no time grid: "
                                    "nodes must start at 0 and increase strictly$"),
            ("initial_data:\n  kind: zero\n  amplitude: 5.0\n",
             "'initial_data.amplitude' is not read by kind 'zero'$"),
            # PyYAML alone keeps the last value of a repeated key
            ("horizon: 0.5\nhorizon: 5.0\n", "key 'horizon' is written twice"),
            ("picard:\n  tol: 1.0e-10\n  tol: 1.0e-12\n", "key 'tol' is written twice"),
        ],
        ids=["tol", "horizon", "oracle_dt", "oracle_step_cap", "segment_cap", "text",
             "seed", "random_seed", "horizon_underflow", "unread_initial_data_key",
             "duplicate_key", "duplicate_section_key"],
    )
    def test_config_error_names_cause(self, tmp_path, text, message):
        cfg = base_config(tmp_path / "out")
        del cfg[text.split(":")[0]]  # the text supplies that key instead
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg) + text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("key, kind, op, bound", DECLARED_BOUNDS,
                             ids=[f"{key}{op}{bound}" for key, _, op, bound in DECLARED_BOUNDS])
    def test_every_declared_bound_is_checked(self, tmp_path, capsys, key, kind, op, bound):
        # just past the bound is a config error that names the key and the bound
        entry = float if kind == list[float] else kind
        past = {(int, ">="): bound - 1, (int, "<="): bound + 1, (float, ">"): float(bound),
                (float, ">="): math.nextafter(bound, -math.inf)}
        name = f"{key}[0]" if kind == list[float] else key
        path = write_config(tmp_path, with_key(base_config(tmp_path / "out"), key, kind,
                                               past[entry, op]))
        assert main(["validate", path]) == EXIT_CONFIG
        assert f"config key '{name}' must be {op} {bound}\n" in capsys.readouterr().err
        if op != ">":  # an inclusive bound is itself accepted
            path = write_config(tmp_path, with_key(base_config(tmp_path / "out"), key, kind,
                                                   entry(bound)))
            assert main(["validate", path]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("text", [None, "- a list\n"], ids=["unreadable", "not_mapping"])
    def test_unusable_config_file_exits_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match="cannot read" if text is None else "mapping"):
            load_config(path)
        assert main([command, str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_required_keys_only_take_the_readme_defaults(self, tmp_path):
        required = {key: base_config(tmp_path)[key] for key in ("mask", "output_dir", "seed")}
        cfg = config_from_dict({**required, "horizon": 1, "segments": 8,
                                "initial_data": {"kind": "zero"}})
        assert cfg.horizon == 1.0 and isinstance(cfg.horizon, float)
        assert (cfg.quad_order, cfg.nonlinearity_scale, cfg.picard_tol,
                cfg.picard_max_iterations, cfg.phi_trials, cfg.gate_safety) == \
            (6, 1.0, 1e-10, 15, 16, 2.0)
        assert cfg.eps_schedule == [] and cfg.oracle_dts == []

    def test_readme_schema_block_is_accepted(self):
        schema = readme_schema()
        assert config_from_dict(schema).segments == schema["segments"]

    def test_declared_keys_and_defaults_are_the_readme_block(self):
        shown = {}
        for key, value in readme_schema().items():
            if isinstance(value, dict) and key != "initial_data":  # its keys go by kind
                shown.update({f"{key}.{sub}": item for sub, item in value.items()})
            else:
                shown[key] = value
        declared = {f.metadata["key"]: f for f in dataclasses.fields(ExperimentConfig)
                    if "key" in f.metadata}
        assert shown.keys() == declared.keys()
        for key, f in declared.items():
            if key.split(".")[0] in ("quad_order", "nonlinearity_scale", "picard", "phi_norm",
                                     "gate"):
                assert (type(shown[key]), shown[key]) == (type(f.default), f.default), key

    def test_validate_command(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["validate", path]) == EXIT_OK
        bad = base_config(tmp_path / "out", horizon=-1.0)
        assert main(["validate", write_config(tmp_path, bad, "bad.yaml")]) == EXIT_CONFIG


class TestMaskInfo:
    def test_mask_info(self, capsys):
        assert main(["mask-info", mask_path("lmask_6x6x3")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "6 x 6 x 3" in out
        assert "81" in out

    def test_mask_info_parity_classes(self, lmask, capsys):
        assert main(["mask-info", mask_path("lmask_6x6x3")]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[-1]
        odd = lmask.cells % 2
        counts = [int(np.sum((4 * odd[:, 0] + 2 * odd[:, 1] + odd[:, 2]) == k)) for k in range(8)]
        assert line.endswith(" ".join(f"{k}:{c}" for k, c in enumerate(counts)))
        assert sum(counts) == lmask.n_cells

    @pytest.mark.parametrize("name, components", [
        *((name, 1) for name in ("single", "box2", "box4", "lshape_3x3x1", "lmask_6x6x3")),
        ("two_cubes", 2),
    ])
    def test_mask_info_components(self, tmp_path, capsys, name, components):
        path = mask_path(name)
        if name == "two_cubes":  # two 2^3 cubes that share only an edge
            path = tmp_path / "two_cubes.mask"
            block = "1100\n1100\n0011\n0011\n"
            path.write_text(f"mask v1\n4 4 2 1.0\n{block}\n{block}")
        assert main(["mask-info", str(path)]) == EXIT_OK
        assert f"face-connected components: {components}\n" in capsys.readouterr().out

    def test_cli_import_loads_no_ndimage(self):
        # mask-info imports scipy.ndimage itself: it adds about 6 MiB to a run's peak RSS
        import mildflow

        env = dict(os.environ, PYTHONPATH=str(Path(mildflow.__file__).parents[1]))
        code = ("import sys, mildflow.cli; "
                "print([m for m in sys.modules if m.startswith('scipy.ndimage')])")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"

    def test_missing_mask(self, tmp_path, capsys):
        assert main(["mask-info", str(tmp_path / "none.mask")]) == EXIT_MASK

    @pytest.mark.parametrize("command", ["run", "mask-info"])
    @pytest.mark.parametrize(
        "text",
        [
            b"mask v1\n2 2 1 1.0\n1\xc3\xa9\n11\n",
            # h^3 weights every inner product and 1/h^2 the Laplacian
            b"mask v1\n2 2 1 inf\n11\n11\n",
            b"mask v1\n2 2 1 1e200\n11\n11\n",  # h^3 overflows
            b"mask v1\n2 2 1 1e-200\n11\n11\n",  # 1/h^2 overflows
            b"mask v1\n2 2 1 1e-110\n11\n11\n",  # h^3 underflows to 0
        ],
        ids=["non_ascii", "spacing_inf", "spacing_1e200", "spacing_1e-200", "spacing_1e-110"],
    )
    def test_bad_mask_file_is_mask_error(self, tmp_path, capsys, command, text):
        mask = tmp_path / "bad.mask"
        mask.write_bytes(text)
        out = tmp_path / "out"
        config = write_config(tmp_path, base_config(out, mask=str(mask)))
        assert main([command, config if command == "run" else str(mask)]) == EXIT_MASK
        assert "Traceback" not in capsys.readouterr().err
        if command == "run":
            assert read_summary(out)["failure"]["stage"] == "mask"


class TestRunPipeline:
    def test_zero_initial_data(self, tmp_path):
        # u = 0 solves at any scale; at 1e308 the gate passes, and the
        # self-pair cross term must not double the scale to infinity, whose
        # product with a zero forcing is NaN
        for name, changes in (("default", {}),
                              ("largest", {"nonlinearity_scale": 1.0e+308,
                                           "gate": {"safety_factor": 1.0}})):
            out = tmp_path / name
            cfg = base_config(out, initial_data={"kind": "zero"}, **changes)
            assert main(["run", write_config(tmp_path, cfg, f"{name}.yaml")]) == EXIT_OK
            summary = read_summary(out)
            assert summary["status"] == "ok"
            assert summary["gate"]["passed_initially"] is True
            assert summary["picard"]["iterations"] == 1
            assert summary["picard"]["final_norms"]["total"] == 0.0
            assert summary["verification"]["max_residual_rel"] == 0.0
            assert (out / "norms.csv").exists() and (out / "iterations.csv").exists()

    def test_linear_mode(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, nonlinearity_scale=0.0, oracle={"dts": [0.02]})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["picard"]["iterations"] == 1
        assert summary["verification"]["max_residual_rel"] <= 1e-10
        assert summary["oracle"][0]["relative_sup_deviation"] <= 1e-10

    @pytest.mark.parametrize("scale", [0.0, 1.0])
    def test_energy_balance_floor(self, tmp_path, scale):
        # the floor is the balance of alpha: in linear mode the solution is
        # alpha, and the two numbers are the same
        out = tmp_path / "out"
        cfg = base_config(out, nonlinearity_scale=scale, oracle={"dts": [0.02]})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        verification = read_summary(out)["verification"]
        floor = verification["energy_balance_floor"]
        assert floor > 0.0
        if scale == 0.0:
            assert floor == verification["max_energy_balance"]
        else:
            assert floor != verification["max_energy_balance"]

    def test_small_data_nonlinear_golden_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, oracle={"dts": [0.01, 0.005]})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["gate"]["passed_initially"] is True
        bound = 4.0 * summary["phi_norm"]["gate_value"] * summary["gate"]["alpha_total"] * 1.1
        assert summary["picard"]["ratios"]
        assert all(r <= bound for r in summary["picard"]["ratios"])
        assert summary["oracle"][-1]["relative_sup_deviation"] <= 1e-3
        assert summary["picard"]["converged"] is True
        # the node residual measures the fixed-point distance, the midpoint
        # residual the time discretization
        verification = summary["verification"]
        node, midpoint = (verification[f"max_{at}_residual_rel"] for at in ("node", "midpoint"))
        assert verification["max_residual_rel"] == max(node, midpoint)
        assert node <= 1e-8 < midpoint
        # each dt's march lands on its multiples of dt and on the 20 graded
        # nodes j^2 / 800, once where they coincide (65 and 110 steps)
        nodes = {Fraction(j * j, 800) for j in range(21)}
        for entry, dt in zip(summary["oracle"], (0.01, 0.005)):
            per_unit = round(1 / dt)
            times = nodes | {Fraction(k, per_unit) for k in range(per_unit // 2 + 1)}
            assert entry["steps"] == len(times) - 1
            assert entry["dt_lambda_max"] == dt * summary["spectrum"]["lambda_max"]

    def test_random_initial_data(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out, initial_data={"kind": "random", "amplitude": 0.02, "seed": 9}
        )
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        assert read_summary(out)["status"] == "ok"

    def test_random_initial_data_is_projected_gaussian(self, tmp_path, box4_hodge,
                                                       box4_spectrum):
        # kind: random is P g, g ~ N(0, I_3n), scaled to the amplitude, so it
        # does not depend on the basis of the divergence-free subspace
        from mildflow.cli import _build_initial_data

        cfg = config_from_dict(base_config(
            tmp_path, initial_data={"kind": "random", "amplitude": 0.5, "seed": 9}))
        mask = box4_hodge.mask
        g = np.random.default_rng(9).standard_normal(3 * mask.n_cells)
        pg = box4_hodge.basis @ (box4_hodge.basis.T @ g)
        expected = 0.5 * pg / (np.linalg.norm(pg) * mask.cell_volume ** 0.5)
        # another orthonormal basis: each parity block's kernel rotated
        rng = np.random.default_rng(3)
        rotated = dataclasses.replace(box4_hodge, blocks=tuple(
            dataclasses.replace(b, kernel=b.kernel @ np.linalg.qr(
                rng.standard_normal((b.kernel.shape[1],) * 2))[0])
            for b in box4_hodge.blocks))
        assert np.abs(rotated.basis - box4_hodge.basis).max() > 0.1
        for hodge in (box4_hodge, rotated):
            u0 = _build_initial_data(cfg, box4_spectrum, hodge)
            assert np.abs(u0.flat - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_spectrum_margins(self, tmp_path, box4_hodge, box4_spectrum):
        out = tmp_path / "out"
        cfg = base_config(out, nonlinearity_scale=0.0, oracle={"dts": [0.02]})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        margins = read_summary(out)["spectrum"]["margins"]
        assert margins == pytest.approx({**box4_hodge.margins, **box4_spectrum.margins},
                                        rel=1e-6)
        # box4's gradient has full rank; the box's spectrum is degenerate
        assert margins["max_dropped_singular_rel"] is None
        assert margins["min_kept_singular_rel"] > margins["rank_tolerance"]
        assert margins["max_merged_gap_rel"] <= margins["cluster_tolerance"]
        assert margins["min_split_gap_rel"] > margins["cluster_tolerance"]
        assert margins["lambda_min_over_positivity_tol"] > 1.0
        assert margins["divergence_defect"] <= margins["divergence_tolerance"]

    def test_file_initial_data(self, tmp_path, box4_hodge, box4_spectrum):
        import numpy as np

        out = tmp_path / "out"
        field = box4_hodge.lift(
            0.03 * box4_spectrum.from_modal(np.eye(box4_spectrum.dim)[1])
        )
        npy = tmp_path / "u0.npy"
        np.save(npy, field.values)
        cfg = base_config(out, initial_data={"kind": "file", "path": str(npy)})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK

    @pytest.mark.parametrize("values", ["wrong_size", "cell_major", "nan", "complex", "npz",
                                        "unreadable"])
    def test_bad_file_initial_data_is_config_error(self, tmp_path, values):
        import numpy as np

        out = tmp_path / "out"
        npy = tmp_path / "u0.npy"
        arrays = {"wrong_size": np.zeros((3, 63)), "nan": np.full((3, 64), np.nan),
                  # 3 x 64 values, but one row per cell: not component-blocked
                  "cell_major": np.full((64, 3), 0.01),
                  # a float cast would drop the imaginary part
                  "complex": np.full((3, 64), 0.01 + 0.01j)}
        if values == "npz":  # an archive of arrays, not one array
            with open(npy, "wb") as fh:
                np.savez(fh, u=np.zeros((3, 64)))
        elif values != "unreadable":
            np.save(npy, arrays[values])
        cfg = base_config(out, initial_data={"kind": "file", "path": str(npy)})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["failure"]["stage"] == "initial_data"
        if values == "complex":
            assert "complex128" in summary["failure"]["message"]
        if values == "npz":
            assert summary["failure"]["message"] == (
                f"cannot read initial data file {npy}: it is an .npz archive; "
                "it needs one array saved with np.save")

    def test_single_cell_mask_runs(self, tmp_path):
        # one cell has no convective coupling: ||Phi|| is 0, so the run is in
        # linear mode at any scale, and every stage after the gate runs at 0
        for name, scale in (("one", 1.0), ("largest", 1.0e+308)):
            out = tmp_path / name
            cfg = base_config(out, mask=mask_path("single"), nonlinearity_scale=scale)
            assert main(["run", write_config(tmp_path, cfg, f"{name}.yaml")]) == EXIT_OK
            summary = read_summary(out)
            assert summary["phi_norm"]["gate_value"] == 0.0
            assert summary["gate"]["passed_initially"] is True
            assert summary["gate"]["threshold"] is None
            assert summary["picard"]["converged"] is True
            assert summary["picard"]["iterations"] == 1
            assert summary["verification"]["max_convective_l32_weighted"] == 0.0

    def test_zero_probe_with_coupling_is_spectrum_error(self, tmp_path):
        # on the L-shape one probe trial, the ground mode, has a zero
        # self-forcing, but the domain is coupled: no linear mode
        out = tmp_path / "out"
        cfg = base_config(out, mask=mask_path("lshape_3x3x1"), seed=4242,
                          phi_norm={"trials": 1},
                          initial_data={"kind": "random", "amplitude": 50.0, "seed": 7})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_SPECTRUM
        failure = read_summary(out)["failure"]
        assert failure["stage"] == "spectrum"
        assert "phi_norm.trials" in failure["message"]

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg_a = base_config(tmp_path / "a", oracle={"dts": [0.02]})
        cfg_b = base_config(tmp_path / "b", oracle={"dts": [0.02]})
        cfg_b["output_dir"] = str(tmp_path / "b")
        assert run_experiment(load_config(write_config(tmp_path, cfg_a, "a.yaml"))) == EXIT_OK
        assert run_experiment(load_config(write_config(tmp_path, cfg_b, "b.yaml"))) == EXIT_OK

        def canonical(d):
            s = json.loads((Path(d) / "summary.json").read_text())
            s.pop("timestamp")
            s["config"].pop("output_dir")
            return json.dumps(s, sort_keys=True)

        assert canonical(tmp_path / "a") == canonical(tmp_path / "b")
        norms_a = (tmp_path / "a" / "norms.csv").read_text()
        norms_b = (tmp_path / "b" / "norms.csv").read_text()
        assert norms_a == norms_b

    def test_output_dir_that_is_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def _gradient_data_config(tmp_path, box4_ops, box4_spectrum, **overrides):
        """A box4 config whose file initial data has a gradient part."""
        rng = np.random.default_rng(0)
        gradient = box4_ops.gradient @ rng.standard_normal(box4_ops.mask.n_cells)
        values = 0.03 * box4_spectrum.eigenfield(1).values + 0.01 * gradient.reshape(3, -1)
        npy = tmp_path / "u0.npy"
        np.save(npy, values)
        return write_config(tmp_path, base_config(
            tmp_path / "out", initial_data={"kind": "file", "path": str(npy)}, **overrides))

    def test_projection_warning_once_per_run(self, tmp_path, box4_ops, box4_spectrum):
        config = self._gradient_data_config(tmp_path, box4_ops, box4_spectrum)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", config]) == EXIT_OK
        assert read_summary(tmp_path / "out")["gate"]["passed_initially"] is True
        assert sum("gradient component" in str(w.message) for w in caught) == 1

    def test_warnings_are_recorded_in_summary(self, tmp_path, box4_ops, box4_spectrum):
        # the projected data and a coarse oracle step (dt * lambda_max = 2.47)
        # each warn once; the run records both, still shows them to the
        # caller, and a rerun in the same process records them again
        config = self._gradient_data_config(tmp_path, box4_ops, box4_spectrum,
                                            oracle={"dts": [0.25]})
        out = tmp_path / "out"
        outputs, recorded = [], []
        with warnings.catch_warnings(record=True) as caught:
            for _ in range(2):
                assert main(["run", config]) == EXIT_OK
                summary = (out / "summary.json").read_text()
                recorded += json.loads(summary)["warnings"]
                timestamp = json.loads(summary)["timestamp"]
                outputs.append([summary.replace(timestamp, "")] + [
                    (out / name).read_bytes() for name in ("norms.csv", "iterations.csv")])
        assert [w["category"] for w in recorded] == ["UserWarning", "UserWarning"] * 2
        assert "gradient component" in recorded[0]["message"]
        assert "oracle step dt=0.25 is coarse" in recorded[1]["message"]
        assert [(w["category"], w["message"]) for w in recorded] == [
            (w.category.__name__, str(w.message)) for w in caught]
        assert outputs[0] == outputs[1]

    def test_failed_run_records_its_warnings(self, tmp_path, box4_ops, box4_spectrum):
        config = self._gradient_data_config(tmp_path, box4_ops, box4_spectrum,
                                            picard={"tol": 1e-30, "max_iterations": 1})
        with pytest.warns(UserWarning, match="gradient component"):
            assert main(["run", config]) == EXIT_PICARD
        summary = read_summary(tmp_path / "out")
        assert summary["status"] == "failed"
        assert [w["category"] for w in summary["warnings"]] == ["UserWarning"]
        assert "gradient component" in summary["warnings"][0]["message"]

    def test_warning_filters_still_decide(self, tmp_path):
        # an ignored warning is not recorded; one the caller turns into an
        # error stops the run with it, as the test suite's own filters need
        config = write_config(tmp_path, base_config(tmp_path / "out", oracle={"dts": [0.25]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert main(["run", config]) == EXIT_OK
        assert read_summary(tmp_path / "out")["warnings"] == []
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="is coarse"):
                main(["run", config])

    def test_missing_mask_exit_code(self, tmp_path):
        cfg = base_config(tmp_path / "out", mask=str(tmp_path / "nope.mask"))
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_MASK
        summary = read_summary(tmp_path / "out")
        assert summary["status"] == "failed"
        assert summary["failure"]["stage"] == "mask"
        read_trace(tmp_path / "out", "load_mask")

    def test_large_data_run_passes_after_shrink(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            initial_data={"kind": "eigenmode", "mode": 0, "amplitude": 60.0},
            shrink={"eps_schedule": [0.3, 0.6, 0.9, 1.2, 1.5, 1.8]},
            oracle={"dts": [0.005]},
        )
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["gate"]["passed_initially"] is False
        shrink = summary["gate"]["shrink"]
        assert shrink["passed"] is True
        assert shrink["eps"] > 0.0
        assert shrink["horizon"] < 0.5
        assert len(shrink["attempts"]) >= 2
        assert summary["picard"]["converged"] is True
        assert summary["picard"]["horizon_shrinks"]

    def test_gate_unreachable_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            initial_data={"kind": "eigenmode", "mode": 0, "amplitude": 1e7},
            shrink={"eps_schedule": []},
        )
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_GATE
        summary = read_summary(out)
        assert summary["failure"]["stage"] == "gate"
        assert summary["gate"]["passed_initially"] is False
        read_trace(out, "shrink_horizon")

    def test_data_smoothed_to_zero_is_gate_failure(self, tmp_path):
        # eps = 1e3 smooths the mode to exactly 0: no attempt may pass on it
        out = tmp_path / "out"
        cfg = base_config(out, initial_data={"kind": "eigenmode", "mode": 0, "amplitude": 1e3},
                          shrink={"eps_schedule": [1e3]})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_GATE
        summary = read_summary(out)
        assert summary["failure"]["stage"] == "gate"
        assert summary["gate"]["shrink"]["passed"] is False
        assert all(a["alpha_eps_total"] == 0.0 for a in summary["gate"]["shrink"]["attempts"])

    def test_bad_eigenmode_index_is_config_error(self, tmp_path):
        # box4's spectrum has dimension 128: the index fails before the eigensolve
        out = tmp_path / "out"
        cfg = base_config(out, initial_data={"kind": "eigenmode", "mode": 1000,
                                             "amplitude": 0.1})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "assemble_stokes" not in read_trace(out, "build_hodge")
        summary = read_summary(out)
        assert summary["failure"] == {"stage": "initial_data", "error": "ConfigError",
                                      "message": "eigenmode index 1000 outside 0..127"}

    def test_picard_divergence_exit_code(self, tmp_path, monkeypatch):
        import mildflow.cli as cli_mod
        from mildflow import IterationLog

        def explode(*args, **kwargs):
            raise PicardDivergenceError("no contraction", IterationLog())

        monkeypatch.setattr(cli_mod, "picard_solve", explode)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_PICARD
        assert read_summary(out)["failure"]["stage"] == "picard"

    def test_no_convergence_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, picard={"tol": 1e-30, "max_iterations": 1})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_PICARD
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["failure"]["stage"] == "picard"
        assert summary["picard"]["converged"] is False
        assert summary["picard"]["iterations"] == 1
        # a failed run writes its summary and trace and neither CSV
        assert not (out / "norms.csv").exists() and not (out / "iterations.csv").exists()
        read_trace(out, "picard_solve")

    def test_failed_run_removes_the_previous_runs_tables(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_OK
        assert (out / "norms.csv").exists() and (out / "iterations.csv").exists()
        cfg = base_config(out, picard={"tol": 1e-30, "max_iterations": 1})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_PICARD
        assert read_summary(out)["status"] == "failed"
        assert not (out / "norms.csv").exists() and not (out / "iterations.csv").exists()

    def test_output_write_error_is_not_a_stage_failure(self, tmp_path, monkeypatch):
        # the one handler maps OSError to stage mask; a failed write must
        # not reach it
        import mildflow.cli as cli_mod

        def disk_full(*args, **kwargs):
            raise OSError("no space left")

        monkeypatch.setattr(cli_mod, "_write_norms_csv", disk_full)
        cfg = load_config(write_config(tmp_path, base_config(tmp_path / "out")))
        with pytest.raises(OSError, match="no space left"):
            run_experiment(cfg)

    @pytest.mark.parametrize("stage", ["build_hodge", "assemble_stokes"])
    def test_spectrum_error_exit_code(self, tmp_path, monkeypatch, capsys, stage):
        import mildflow.cli as cli_mod

        def broken(*args, **kwargs):
            raise SpectrumError("rank bookkeeping broken")

        monkeypatch.setattr(cli_mod, stage, broken)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_SPECTRUM
        assert "exit code 7" in capsys.readouterr().err
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["failure"]["stage"] == "spectrum"
        assert summary["failure"]["error"] == "SpectrumError"
        assert summary["domain"]["cells"] == 64
        assert "spectrum" not in summary
        read_trace(out, stage)

    @staticmethod
    def _fine_box4_spectrum_failure(tmp_path, capsys, **overrides):
        """Run box4 at the legal spacing 1e-100, check that it fails at stage
        spectrum, and return its summary."""
        mask = tmp_path / "fine.mask"
        mask.write_text(Path(mask_path("box4")).read_text().replace("4 4 4 1.0", "4 4 4 1e-100"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", write_config(tmp_path, base_config(out, mask=str(mask),
                                                                   **overrides))])
        assert code == EXIT_SPECTRUM
        assert "Traceback" not in capsys.readouterr().err
        summary = read_summary(out)
        assert summary["failure"]["stage"] == "spectrum"
        assert summary["failure"]["error"] == "SpectrumError"
        assert "non-finite" in summary["failure"]["message"]
        # everything computed before the failing stage is still in the summary
        assert summary["domain"]["cells"] == 64 and summary["spectrum"]["dim"] > 0
        return summary

    def test_non_finite_probe_is_spectrum_error(self, tmp_path, capsys):
        # a probe trial's norms overflow to a NaN ratio; the run stops there
        # instead of passing the gate on a 0 estimate
        assert "phi_norm" not in self._fine_box4_spectrum_failure(tmp_path, capsys)

    def test_non_finite_alpha_is_spectrum_error(self, tmp_path, capsys):
        # with the criterion-11 config every probe ratio is a finite 0 but
        # ||alpha|| overflows; the run stops there instead of reporting NaN
        # Picard distances as non-convergence
        summary = self._fine_box4_spectrum_failure(
            tmp_path, capsys, seed=4242, shrink={"eps_schedule": [0.2, 0.4]},
            initial_data={"kind": "random", "amplitude": 0.03, "seed": 7})
        assert "picard" not in summary

    @pytest.mark.parametrize("amplitude", [1.0e+160, 1.0e+300])
    def test_initial_data_too_large_is_config_error(self, tmp_path, amplitude):
        # the criterion-11 config with huge data: ||alpha|| overflows on the
        # data alone, so the data is blamed, without a numpy warning
        out = tmp_path / "out"
        cfg = base_config(out, seed=4242, shrink={"eps_schedule": [0.2, 0.4]},
                          initial_data={"kind": "random", "amplitude": amplitude, "seed": 7})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        failure = read_summary(out)["failure"]
        assert failure["stage"] == "initial_data" and failure["error"] == "ConfigError"
        assert failure["message"] == (
            f"initial data too large: ||u0|| = {amplitude:.3e} makes ||alpha|| overflow")

    @pytest.mark.parametrize("scale", [1.0e+308, 1.0e-320, 1.0e-323],
                             ids=["gate_value", "threshold", "gate_value_underflow"])
    def test_gate_out_of_float_range_is_config_error(self, tmp_path, scale):
        # the criterion-11 config: safety * scale * ||Phi|| overflows, or
        # its threshold 1/(4 x) does; a run on either would report infinity.
        # A positive scale is not linear mode, so a gate value that underflows
        # to 0 has an infinite threshold too
        out = tmp_path / "out"
        cfg = base_config(out, seed=4242, nonlinearity_scale=scale,
                          shrink={"eps_schedule": [0.2, 0.4]},
                          initial_data={"kind": "random", "amplitude": 0.03, "seed": 7})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        summary = read_summary(out)
        assert "phi_norm" not in summary and "gate" not in summary
        failure = summary["failure"]
        assert failure["stage"] == "initial_data" and failure["error"] == "ConfigError"
        assert failure["message"].startswith("gate.safety_factor * nonlinearity_scale * ||Phi||")

    def test_number_out_of_float_range_is_spectrum_error(self, tmp_path):
        # box4 at spacing 1e-60 in linear mode over a horizon of 1e200: the
        # eigenvalues times t_1 or dt and the energy balances overflow
        mask = tmp_path / "fine.mask"
        mask.write_text(Path(mask_path("box4")).read_text().replace("4 4 4 1.0", "4 4 4 1e-60"))
        out = tmp_path / "out"
        cfg = base_config(out, mask=str(mask), horizon=1.0e200, segments=2,
                          nonlinearity_scale=0.0, oracle={"dts": [1.0e199]})
        with warnings.catch_warnings():  # the overflows and the coarse oracle step warn
            warnings.simplefilter("ignore")
            assert main(["run", write_config(tmp_path, cfg)]) == EXIT_SPECTRUM
        summary = read_summary(out)
        assert summary["failure"] == {
            "stage": "spectrum", "error": "SpectrumError",
            "message": "a number left the floating-point range: grid.lambda_min_t1, "
                       "grid.lambda_max_t1, verification.max_energy_balance, "
                       "verification.energy_balance_floor, oracle[0].dt_lambda_max"}
        assert summary["grid"] == {"lambda_min_t1": None, "lambda_max_t1": None}
        assert summary["oracle"][0]["dt_lambda_max"] is None
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.json"]

    def test_oracle_failure_exit_code(self, tmp_path, monkeypatch):
        import mildflow.cli as cli_mod

        def blow_up(*args, **kwargs):
            raise OracleInstabilityError("norm grew beyond the guard")

        monkeypatch.setattr(cli_mod, "imex_oracle", blow_up)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_ORACLE
        summary = read_summary(out)
        assert summary["failure"]["stage"] == "oracle"
        # everything computed before the oracle is still in the summary
        assert summary["picard"]["converged"] is True
        read_trace(out, "imex_oracle")

    @pytest.mark.parametrize("missing", ["resource", "statm"])
    def test_trace_memory_is_null_where_it_cannot_be_read(self, tmp_path, monkeypatch, missing):
        import mildflow.cli as cli_mod

        def no_statm(*args, **kwargs):
            raise FileNotFoundError("/proc/self/statm")

        if missing == "resource":  # as on Windows, which has no /proc either
            monkeypatch.setitem(sys.modules, "resource", None)
        else:  # as on macOS
            monkeypatch.setattr(cli_mod, "open", no_statm, raising=False)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, base_config(out))]) == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        stages = trace["stages"].values()
        assert {trace["rss_before_mib"], *(stage["rss_after_mib"] for stage in stages)} == {None}
        peaks = [trace["peak_rss_mib"], *(stage["peak_rise_mib"] for stage in stages)]
        assert all((peak is None) == (missing == "resource") for peak in peaks)


@pytest.mark.parametrize("mask_name", ["box4", "lmask_6x6x3"])
def test_pipeline_never_reads_the_dense_arrays(tmp_path, monkeypatch, mask_name):
    # the pipeline works on the parity blocks and the factors U, V and R
    # only; the dense Z, Y and Q exist for the library and the tests
    from mildflow import HodgeDecomposition, StokesSpectrum

    def forbidden(self):
        raise AssertionError("the pipeline read a dense basis")

    for cls, name in ((StokesSpectrum, "fields"), (StokesSpectrum, "modes"),
                      (HodgeDecomposition, "basis")):
        monkeypatch.setattr(cls, name, property(forbidden))
    out = tmp_path / "out"
    # the criterion-11 config
    cfg = base_config(out, mask=mask_path(mask_name), seed=4242,
                      shrink={"eps_schedule": [0.2, 0.4]},
                      initial_data={"kind": "random", "amplitude": 0.03, "seed": 7})
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
    assert read_summary(out)["status"] == "ok"


def test_pipeline_calls_the_traced_cli_names(tmp_path, monkeypatch):
    # the tracer sees a stage only if the run looks its function up as a
    # mildflow.cli global at call time, and a kernel only if the run looks
    # it up as a global of its mildflow.mild or mildflow.verify caller
    import mildflow.cli
    import mildflow.mild
    import mildflow.verify

    modules = {"cli": mildflow.cli, "mild": mildflow.mild, "verify": mildflow.verify}
    # the tracer wraps mild.convolve_semigroup too, but the pipeline never calls it
    traced = [(module, name) for module, name, _ in load_by_path("perfbench/spans.py")["TRACED"]
              if (module, name) != ("mild", "convolve_semigroup")]
    calls = dict.fromkeys(traced, 0)

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    for module, name in traced:
        monkeypatch.setattr(modules[module], name,
                            counting((module, name), getattr(modules[module], name)))
    out = tmp_path / "out"
    # criterion 11's config at amplitude 12 takes one shrink
    cfg = base_config(out, seed=4242, shrink={"eps_schedule": [0.2, 0.4]},
                      initial_data={"kind": "random", "amplitude": 12.0, "seed": 7})
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
    assert read_summary(out)["gate"]["shrink"]["passed"] is True
    assert all(calls.values()), calls
    # the run's own trace counts the same calls of exactly the ten cli stages
    stages = read_trace(out, "imex_oracle")
    assert {name: stage["calls"] for name, stage in stages.items()} == {
        name: count for (module, name), count in calls.items() if module == "cli"}


@pytest.mark.parametrize("mask_name", ["box4", "lmask_6x6x3"])
def test_numpy_only_setup_route_gives_the_same_run(tmp_path, monkeypatch, mask_name):
    # without numpy's OpenBLAS (numpy 1.x wheels) the block SVDs run serially and
    # the Gram eigensolve is np.linalg.eigh on a copy: the outputs must not move
    import mildflow.hodge
    import mildflow.stokes

    runs = {}
    for route in ("openblas", "numpy_only"):
        if route == "numpy_only":
            for module in (mildflow.hodge, mildflow.stokes):  # stokes binds its own name
                monkeypatch.setattr(module, "_openblas", lambda *args: None)
        out = tmp_path / route
        cfg = {**load_by_path("tools/same_numbers.py")["CRITERION_11"],
               "mask": mask_path(mask_name), "output_dir": str(out)}
        code = main(["run", write_config(tmp_path, cfg, f"{route}.yaml")])
        summary = read_summary(out)
        del summary["timestamp"], summary["config"]["output_dir"]
        tables = [(out / name).read_bytes() for name in ("norms.csv", "iterations.csv")]
        runs[route] = code, summary, tables
    assert runs["openblas"][0] == EXIT_OK
    assert runs["numpy_only"] == runs["openblas"]


def test_readme_library_example_runs(monkeypatch):
    text = README.read_text()
    block = text[text.index("## Library example"):]
    block = block[block.index("```python\n") + len("```python\n"):]
    monkeypatch.chdir(README.parent)  # the example reads tests/data/box4.mask
    exec(compile(block[:block.index("```")], str(README), "exec"), {})
