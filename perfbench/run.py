"""Benchmark of the mildflow pipeline: time to a verified mild solution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --compare PARENT.log CHANGE.log

Run from the root of a checkout.  One run writes the seeded inputs of one
workload (see ``workloads.py``) and then, closed loop, starts one
``mildflow run`` after another, each in a fresh process with the BLAS
threads pinned to the number of usable cores, until ``--seconds`` are
spent (at least two runs, so reruns can be compared byte for byte).
Every pipeline's outputs are checked; one that fails a check or leaves
its workload's path counts as failed and is not timed.

With ``--trace 0`` the run reports the end-to-end metrics as medians over
its pipelines.  With ``--trace 1`` it alternates untraced pipelines with
traced ones (spans around each module's public functions, see
``spans.py``) and reports the per-layer metrics, medians over the traced
pipelines, plus the tracing overhead.  The last line of standard output
is the result object; the line before it is a full record (samples,
environment, problems) that ``--compare`` reads back.

``--workload all`` runs every workload in turn and prints a table of the
end-to-end metrics with their units.  ``--compare`` takes two files of
captured output, parent first, and prints each workload's metrics side by
side with quartiles and pair wins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The whole run must end within this many seconds of wall time.
RUN_LIMIT_S = 170.0
MIN_PIPELINES = 2
MIN_SETUP_SAMPLES = 3
MAX_DIVERGENCE = 1e-10
MAX_ORACLE_DEVIATION = 1e-3
# Sum of layer self times against the traced wall time.
SELF_SUM_TOLERANCE = 0.01
# Counters that must repeat exactly across traced runs of one seed.
EXACT_COUNTERS = (
    "mild.phi_calls",
    "mild.probe_phi_calls",
    "mild.picard_phi_calls",
    "mild.picard_iterations",
    "mild.shrink_attempts",
    "convection.advect_calls.mild",
    "convection.advect_cols.mild",
    "convection.advect_calls.verify",
)


def output_problems(out_dir: Path, exit_code: int, picard_tol: float) -> list:
    """Checks a pipeline's outputs must pass for the run to count."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    for name in ("summary.json", "norms.csv", "iterations.csv"):
        if not (out_dir / name).is_file():
            problems.append(f"{name} not written")
    if problems:
        return problems
    summary = json.loads((out_dir / "summary.json").read_text())
    picard = summary.get("picard") or {}
    if picard.get("converged") is not True:
        problems.append("Picard did not converge")
    residual = picard.get("fixed_point_residual")
    if residual is None or not residual <= 2.0 * picard_tol:
        problems.append(f"fixed-point residual {residual} above 2 tol")
    divergence = (summary.get("verification") or {}).get("max_divergence")
    if divergence is None or not divergence <= MAX_DIVERGENCE:
        problems.append(f"max divergence {divergence} above {MAX_DIVERGENCE}")
    for oracle in summary.get("oracle", []):
        if not oracle["relative_sup_deviation"] <= MAX_ORACLE_DEVIATION:
            problems.append(
                f"oracle deviation {oracle['relative_sup_deviation']} at dt={oracle['dt']}"
                f" above {MAX_ORACLE_DEVIATION}"
            )
    return problems


def output_bytes(out_dir: Path) -> dict:
    """Output files with the timestamp blanked, for rerun comparison."""
    files = {n: (out_dir / n).read_bytes() for n in ("summary.json", "norms.csv", "iterations.csv")}
    files["summary.json"] = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""',
                                   files["summary.json"])
    return files


class Run:
    """One benchmark run: a workload, a seed and a time budget."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.out_dir = self.workdir / "out"
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
                        MKL_NUM_THREADS=nproc)
        self.samples = {"wall_s": [], "setup_s": [], "peak_rss_mib": [], "traced_wall_s": []}
        self.layers: list[dict] = []
        self.layer_self: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.env_info = None
        self.reference = None

    def pipeline(self, config: Path, kind: str, timeout: float):
        """Run one pipeline in a fresh process; record it or its problems.

        ``kind`` is ``run`` (untraced), ``trace`` or ``setup`` (stops after
        the Stokes assembly and adds only a set-up sample).
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        result_path = self.workdir / "result.json"
        trace_path = self.workdir / "trace.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "pipeline.py"), str(config), str(result_path)]
        if kind == "trace":
            cmd += ["--trace", str(trace_path)]
        elif kind == "setup":
            cmd.append("--setup-only")
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail([f"pipeline still running after {timeout:.0f} s"])
        if proc.returncode != 0 or not result_path.is_file():
            return self.fail([f"pipeline process exited {proc.returncode}: {proc.stderr[-2000:]}"])
        record = json.loads(result_path.read_text())
        self.env_info = record["env"]
        if kind == "setup":
            if record["exit_code"] != 0 or record["setup_s"] is None:
                return self.fail([f"set-up run failed: {proc.stderr[-2000:]}"])
            self.samples["setup_s"].append(record["setup_s"])
            return
        problems = output_problems(self.out_dir, record["exit_code"],
                                   self.workload.config["picard"]["tol"])
        if problems:
            return self.fail(problems + [proc.stderr[-2000:]])
        summary = json.loads((self.out_dir / "summary.json").read_text())
        violations = self.workload.guard(summary)
        if violations:
            return self.fail(["shape violation: " + v for v in violations])
        outputs = output_bytes(self.out_dir)
        if self.reference is None:
            self.reference = outputs
        differing = [n for n in outputs if outputs[n] != self.reference[n]]
        if differing:
            return self.fail([f"rerun of seed {self.seed} changed {', '.join(differing)}"])
        if kind == "trace":
            span_dicts = json.loads(trace_path.read_text())
            layer_self = spans.layer_self_times(span_dicts)
            covered = sum(layer_self.values())
            if abs(covered - record["wall_s"]) > SELF_SUM_TOLERANCE * record["wall_s"]:
                return self.fail([f"layer self times sum to {covered:.4f} s against a traced"
                                  f" wall of {record['wall_s']:.4f} s"])
            layers = spans.layer_metrics(span_dicts, summary)
            if self.layers:
                moved = [c for c in EXACT_COUNTERS if layers[c] != self.layers[0][c]]
                if moved:
                    return self.fail([f"counters changed between traced runs: {moved}"])
            self.layers.append(layers)
            self.layer_self.append(layer_self)
            self.samples["traced_wall_s"].append(record["wall_s"])
        else:
            for key in ("wall_s", "setup_s", "peak_rss_mib"):
                self.samples[key].append(record[key])

    def fail(self, problems: list):
        self.failed += 1
        self.problems.extend(p for p in problems if p)

    @contextlib.contextmanager
    def workspace(self):
        """Working directory inside the checkout holding the seeded inputs;
        yields the config path and removes everything afterwards."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            yield self.workload.write_inputs(self.workdir, self.seed, self.out_dir)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                self.workdir.parent.rmdir()
            except OSError:
                pass

    def execute(self):
        with self.workspace() as config:
            start = time.perf_counter()

            def remaining():
                return RUN_LIMIT_S - (time.perf_counter() - start)

            durations = []
            while True:
                kind = "trace" if self.trace and self.attempted % 2 == 1 else "run"
                began = time.perf_counter()
                self.pipeline(config, kind, timeout=remaining())
                durations.append(time.perf_counter() - began)
                if self.failed and not (self.samples["wall_s"] or self.layers):
                    return
                if self.attempted < MIN_PIPELINES:
                    continue
                # Stop before a pipeline that would overrun the budget.
                elapsed = time.perf_counter() - start
                if elapsed + max(durations[-2:]) > min(self.seconds, RUN_LIMIT_S - 30.0):
                    break
            # Long pipelines leave few set-up samples; add set-up-only runs.
            while not self.trace and len(self.samples["setup_s"]) < MIN_SETUP_SAMPLES:
                failed = self.failed
                self.pipeline(config, "setup", timeout=remaining())
                if self.failed > failed:
                    return

    def metrics(self) -> dict:
        if not self.trace:
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
            return {k: {"value": statistics.median(self.samples[k]), "unit": u}
                    for k, u in units.items() if self.samples[k]}
        if not (self.layers and self.samples["wall_s"]):
            return {}
        out = {}
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_frac":
                value = (statistics.median(self.samples["traced_wall_s"])
                         / statistics.median(self.samples["wall_s"]) - 1.0)
            else:
                value = statistics.median(layers[name] for layers in self.layers)
            out[name] = {"value": value, "unit": unit}
        return out

    def report(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics(),
        }

    def record(self, result: dict) -> dict:
        return {compare.RECORD_KEY: {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "env": self.env_info,
            "samples": self.samples,
            "layer_self_s": self.layer_self,
            "problems": self.problems,
            **result,
        }}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(WORKLOADS[name], seed, seconds, trace)
    run.execute()
    result = run.report()
    for problem in run.problems:
        print(f"{name} seed {seed}: {problem}", file=sys.stderr)
    print(json.dumps(run.record(result)))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        compare.print_report(benchmark_spec(), *args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (ROOT / "src" / "mildflow" / "cli.py").is_file():
        print(f"no mildflow source tree under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in WORKLOADS}
    print(f"{'workload':<16} {'metric':<32} {'value':>14}  unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<32} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<16} {'fail_frac':<32} {result['failed'] / result['attempted']:>14.6g}"
              f"  {result['failed']}/{result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
