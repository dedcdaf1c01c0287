"""tools/stage_memory.py: one run of the criterion-11 config, every stage listed."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import yaml

from conftest import mask_path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_memory_lists_every_stage(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(dict(_load("same_numbers").CRITERION_11,
                                          mask=mask_path("box4"), output_dir=str(tmp_path / "out"))))
    done = subprocess.run([sys.executable, str(TOOLS / "stage_memory.py"), str(config)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for stage in _load("stage_memory").STAGES:
        row = next(line for line in lines if line.split()[0] == stage)
        assert "not called" in row or len(row.split()) == 5, row
    assert (tmp_path / "out" / "summary.json").is_file()
    assert lines[-1] == "exit code 0"
