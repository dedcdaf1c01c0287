"""Experiment runner: config handling, pipeline staging, emitted files."""

import dataclasses
import json
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
from conftest import mask_path

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
    return json.loads((Path(out_dir) / "summary.json").read_text())


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
            {"picard": {"tol": 1e-10, "max_iteration": 3}},  # misspelt nested key
            {"picard": 5},  # section that is not a mapping
            {"nonlinearity_scale": -1.0},
            {"initial_data": {"kind": "random", "amplitude": 0.02, "seed": "seven"}},
            {"horizon": float("nan")},
            {"horizon": float("inf")},
            {"gate": {"safety_factor": float("nan")}},
            {"oracle": {"dts": [float("nan")]}},
            {"oracle": {"dts": [float("inf")]}},
            {"initial_data": {"kind": "eigenmode", "mode": 0, "amplitude": float("nan")}},
            {"initial_data": {"kind": "random", "amplitude": float("inf")}},
            {"picard": {"tol": float("nan")}},
            {"picard": {"tol": "1e-12"}},  # how YAML 1.1 reads `tol: 1e-12`
            {"oracle": {"dts": ["1e-3"]}},
            {"horizon": 1e300},  # 1e302 oracle steps at dt 0.01
        ],
        ids=["top_level_typo", "nested_typo", "section_not_mapping", "negative_scale",
             "random_seed_not_int", "horizon_nan", "horizon_inf", "safety_factor_nan",
             "oracle_dt_nan", "oracle_dt_inf", "amplitude_nan", "random_amplitude_inf",
             "picard_tol_nan", "picard_tol_exponent_text", "oracle_dt_exponent_text",
             "oracle_steps_over_cap"],
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
            ("oracle:\n  dts: [1e-3]\n", "numbers; write 0.001: YAML 1.1 reads 1e-3 as text"),
            ("oracle:\n  dts: [2.0e-7]\n", "horizon / dt exceeds 1000000 oracle steps"),
        ],
        ids=["tol", "horizon", "oracle_dt", "oracle_step_cap"],
    )
    def test_config_error_names_cause(self, tmp_path, text, message):
        cfg = base_config(tmp_path / "out")
        del cfg[text.split(":")[0]]  # the text supplies that key instead
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg) + text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_readme_schema_block_is_accepted(self):
        text = README.read_text()
        block = text[text.index("### Config schema"):]
        block = block[block.index("```yaml\n") + len("```yaml\n"):]
        schema = yaml.safe_load(block[:block.index("```")])
        assert config_from_dict(schema).segments == schema["segments"]

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

    def test_missing_mask(self, tmp_path, capsys):
        assert main(["mask-info", str(tmp_path / "none.mask")]) == EXIT_MASK


class TestRunPipeline:
    def test_zero_initial_data(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial_data={"kind": "zero"})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["status"] == "ok"
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
        rotation, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((box4_hodge.dim,) * 2))
        rotated = dataclasses.replace(box4_hodge, basis=box4_hodge.basis @ rotation)
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

    @pytest.mark.parametrize("values", ["wrong_size", "nan"])
    def test_bad_file_initial_data_is_config_error(self, tmp_path, values):
        import numpy as np

        out = tmp_path / "out"
        data = np.zeros((3, 63)) if values == "wrong_size" else np.full((3, 64), np.nan)
        npy = tmp_path / "u0.npy"
        np.save(npy, data)
        cfg = base_config(out, initial_data={"kind": "file", "path": str(npy)})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["failure"]["stage"] == "initial_data"

    def test_single_cell_mask_runs(self, tmp_path):
        # one cell has no convective coupling: ||Phi|| is 0 and the gate
        # passes as in linear mode
        out = tmp_path / "out"
        cfg = base_config(out, mask=mask_path("single"))
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["phi_norm"]["gate_value"] == 0.0
        assert summary["gate"]["passed_initially"] is True
        assert summary["gate"]["threshold"] is None
        assert summary["picard"]["converged"] is True

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

    def test_missing_mask_exit_code(self, tmp_path):
        cfg = base_config(tmp_path / "out", mask=str(tmp_path / "nope.mask"))
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_MASK
        summary = read_summary(tmp_path / "out")
        assert summary["status"] == "failed"
        assert summary["failure"]["stage"] == "mask"

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

    def test_bad_eigenmode_index_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, initial_data={"kind": "eigenmode", "mode": 10**6,
                                             "amplitude": 0.1})
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG

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
