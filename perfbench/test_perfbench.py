"""Self-tests of the benchmark harness (not part of the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs real pipelines: about a minute on two cores.  No timing bound is
asserted here; only counts, checks and the span bookkeeping.
"""

from __future__ import annotations

import json
import shutil

import pytest

from run import EXACT_COUNTERS, ROOT, Run, output_problems
from workloads import WORKLOADS

# A seed not used while the workloads were tuned.
SEED = 97


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counters_repeat_across_traced_runs(name):
    run = Run(WORKLOADS[name], SEED, seconds=0, trace=True)
    with run.workspace() as config:
        for _ in range(2):
            run.pipeline(config, "trace", timeout=170)
    assert run.problems == []
    first, second = run.layers
    assert {c: first[c] for c in EXACT_COUNTERS} == {c: second[c] for c in EXACT_COUNTERS}
    assert first["mild.phi_calls"] == first["mild.probe_phi_calls"] + first["mild.picard_phi_calls"]


def _write_outputs(directory, **picard):
    summary = {
        "picard": {"converged": True, "fixed_point_residual": 1e-13, **picard},
        "verification": {"max_divergence": 1e-15},
        "oracle": [{"dt": 1e-3, "relative_sup_deviation": 1e-4}],
    }
    directory.mkdir()
    (directory / "summary.json").write_text(json.dumps(summary))
    (directory / "norms.csv").write_text("")
    (directory / "iterations.csv").write_text("")


@pytest.fixture
def scratch_dir():
    """Scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".perfbench_work" / "selftest"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    path.parent.rmdir()


def test_output_checks_reject_a_run_that_did_not_converge(scratch_dir):
    _write_outputs(scratch_dir / "ok")
    assert output_problems(scratch_dir / "ok", 0, 1e-10) == []
    _write_outputs(scratch_dir / "bad", converged=False, fixed_point_residual=1e-9)
    problems = output_problems(scratch_dir / "bad", 0, 1e-10)
    assert len(problems) == 2
    assert output_problems(scratch_dir / "ok", 5, 1e-10) == ["exit code 5"]
