"""Span tracing of the pipeline from outside the program.

``Tracer.install`` replaces the public functions each module exposes with
wrappers that record one span per call: name, parent span, start, end,
the ``tracemalloc`` peak reached inside the call for the dense
factorization layers, and the number of columns for the advection kernel.  Spans stay in memory and
are written out once the pipeline has finished; ``layer_metrics`` turns
them into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc

MIB = 1024.0 * 1024.0

# (module attribute path, function name, span name); the module layer is the
# span name's first component.
TRACED = [
    ("cli", "load_mask", "domain.load_mask"),
    ("cli", "build_operators", "domain.build_operators"),
    ("cli", "build_hodge", "hodge.build_hodge"),
    ("cli", "assemble_stokes", "stokes.assemble_stokes"),
    ("cli", "estimate_phi_norm", "mild.estimate_phi_norm"),
    ("cli", "shrink_horizon", "mild.shrink_horizon"),
    ("cli", "picard_solve", "mild.picard_solve"),
    ("cli", "strong_residual", "verify.strong_residual"),
    ("cli", "energy_audit", "verify.energy_audit"),
    ("cli", "imex_oracle", "verify.imex_oracle"),
    ("mild", "phi", "mild.phi"),
    ("mild", "convolve_semigroup", "mild.convolve_semigroup"),
    ("mild", "advect_flat", "convection.advect_flat.mild"),
    ("verify", "advect_flat", "convection.advect_flat.verify"),
]

ROOT = "cli.run"
MEMORY_LAYERS = ("hodge", "stokes")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "peak", "cols")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.peak = None
        self.cols = 0
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "cols": self.cols,
                "peak_mib": None if self.peak is None else self.peak / MIB}


class Tracer:
    """Records nested spans in memory.

    ``tracemalloc`` runs only inside the spans of ``MEMORY_LAYERS``: traced
    allocation slows every Python-level allocation, and the per-call
    overhead paths (oracle steps, advection calls) would otherwise be
    charged several times their untraced cost.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name)
        self.spans.append(span)
        self._stack.append(span)
        if name.split(".")[0] in MEMORY_LAYERS:
            tracemalloc.start()
        return span

    def close(self, span: Span):
        if span.name.split(".")[0] in MEMORY_LAYERS:
            span.peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str):
        counts_cols = name.startswith("convection.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            if counts_cols:
                xu = args[1]
                span.cols = 1 if xu.ndim == 1 else xu.shape[1]
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def install(self, modules: dict):
        """Wrap every function in ``TRACED``; ``modules`` maps short names
        to the imported mildflow modules."""
        for module, attr, name in TRACED:
            target = modules[module]
            setattr(target, attr, self.wrap(getattr(target, attr), name))


def _child_time(spans: list) -> dict:
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return child_time


def layer_metrics(spans: list, summary: dict) -> dict:
    """Per-layer metrics of one traced pipeline from its span dicts.

    Iteration and attempt counts come from the pipeline's own summary.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = _child_time(spans)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def under(s, ancestor):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == ancestor:
                return True
        return False

    def total(name):
        return sum(dur(s) for s in named(name))

    def peak(name):
        return max((s["peak_mib"] for s in named(name)), default=0.0)

    phis = named("mild.phi")
    advect_mild = named("convection.advect_flat.mild")
    advect_verify = named("convection.advect_flat.verify")
    mild_cols = sum(s["cols"] for s in advect_mild)
    phi_self = sum(dur(s) - child_time[s["id"]] for s in phis)
    picard_phis = sum(1 for s in phis if under(s, "mild.picard_solve"))
    iterations = summary["picard"]["iterations"]
    shrink = summary["gate"]["shrink"]
    root = named(ROOT)[0]

    return {
        "domain.setup_s": total("domain.load_mask") + total("domain.build_operators"),
        "hodge.build_s": total("hodge.build_hodge"),
        "hodge.peak_mib": peak("hodge.build_hodge"),
        "stokes.assemble_s": total("stokes.assemble_stokes"),
        "stokes.peak_mib": peak("stokes.assemble_stokes"),
        "convection.advect_calls.mild": len(advect_mild),
        "convection.advect_cols.mild": mild_cols,
        "convection.advect_s.mild": sum(dur(s) for s in advect_mild),
        "convection.advect_calls.verify": len(advect_verify),
        "convection.advect_s.verify": sum(dur(s) for s in advect_verify),
        "mild.phi_calls": len(phis),
        "mild.phi_s": statistics.median(dur(s) for s in phis) if phis else 0.0,
        "mild.convolve_s": total("mild.convolve_semigroup"),
        "mild.phi_self_s": phi_self,
        "mild.lifted_cols_per_phi": mild_cols / len(phis) if phis else 0.0,
        "mild.probe_s": total("mild.estimate_phi_norm"),
        "mild.probe_phi_calls": sum(1 for s in phis if under(s, "mild.estimate_phi_norm")),
        "mild.picard_s": total("mild.picard_solve"),
        "mild.picard_iterations": iterations,
        "mild.picard_phi_calls": picard_phis,
        "mild.picard_phi_useful_frac": iterations / picard_phis if picard_phis else 0.0,
        "mild.shrink_s": total("mild.shrink_horizon"),
        "mild.shrink_attempts": len(shrink["attempts"]) if shrink else 0,
        "verify.strong_s": total("verify.strong_residual"),
        "verify.energy_s": total("verify.energy_audit"),
        "verify.oracle_s": total("verify.imex_oracle"),
        "cli.self_s": dur(root) - child_time[root["id"]],
    }


def layer_self_times(spans: list) -> dict:
    """Self time per module layer; together they cover the root span."""
    child_time = _child_time(spans)
    out: dict = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[s["id"]]
    return out
