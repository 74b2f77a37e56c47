"""Spans around the public functions of consensim, recorded from outside.

A function is wrapped at every module attribute that refers to it, which is
where its callers look it up at call time (for example
``consensim.cli.simulate`` and ``consensim.dynamics.simulate`` both resolve
to the wrapper). Nothing under ``src/`` is edited. A target that no longer
exists is skipped and listed as missing, so the layer metrics built on it
are reported as absent instead of breaking the run.

Spans stay in memory during a pass; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from pathlib import Path

# span name -> (defining module, attribute)
TARGETS = {
    "cli.cmd_run": ("consensim.cli", "cmd_run"),
    "cli.write_trajectory_csv": ("consensim.cli", "write_trajectory_csv"),
    "cli.build_report": ("consensim.cli", "build_report"),
    "scenario_io.parse_scenario": ("consensim.scenario_io", "parse_scenario"),
    "scenario_io.parse_scenario_dict": ("consensim.scenario_io", "parse_scenario_dict"),
    "graph.is_connected": ("consensim.graph", "is_connected"),
    "graph.leader_reaches_all": ("consensim.graph", "leader_reaches_all"),
    "protocols.validate_assumptions": ("consensim.protocols", "validate_assumptions"),
    "protocols.sector_constants": ("consensim.protocols", "sector_constants"),
    "dynamics.validate_scenario": ("consensim.dynamics", "validate_scenario"),
    "dynamics.scenario_fingerprint": ("consensim.dynamics", "scenario_fingerprint"),
    "dynamics.simulate": ("consensim.dynamics", "simulate"),
    "analysis.lyapunov_series": ("consensim.analysis", "lyapunov_series"),
    "analysis.detect_consensus": ("consensim.analysis", "detect_consensus"),
    "analysis.predict_consensus": ("consensim.analysis", "predict_consensus"),
    "analysis.conservation_drift": ("consensim.analysis", "conservation_drift"),
    "analysis.conserved_series": ("consensim.analysis", "conserved_series"),
}


def _simulate_counts(args, result) -> dict:
    iset = args[0].integrator
    steps = round(iset.t_end / iset.dt)
    samples = getattr(result, "samples", None)
    return {"steps": steps, "agent_steps": steps * args[0].n_agents,
            "samples": len(samples if samples is not None else result.times())}


def _csv_counts(args, result) -> dict:
    return {"bytes": Path(args[2]).stat().st_size}


COUNTERS = {"dynamics.simulate": _simulate_counts, "cli.write_trajectory_csv": _csv_counts}


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "consensim" or name.startswith("consensim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _resolve(target: tuple[str, str]):
    module_name, attr = target
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


class SpanRecorder:
    """Keeps one record per wrapped call: name, start, end, parent span id,
    scenario id, and any counts taken from the call's arguments or result."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self.stack: list[int] = []
        self.scenario: int | None = None
        self.missing: list[str] = []

    def install(self) -> None:
        for name, target in TARGETS.items():
            fn = _resolve(target)
            if fn is None:
                self.missing.append(name)
                continue
            _replace_everywhere(fn, self._wrap(name, fn, COUNTERS.get(name)))

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[span_id] = {"id": span_id, "name": name, "start": start,
                                       "end": end, "parent": parent,
                                       "scenario": self.scenario}
            if counter is not None:
                try:
                    self.spans[span_id]["counts"] = counter(args, result)
                except (AttributeError, TypeError, IndexError, OSError, ZeroDivisionError):
                    pass
            return result
        return traced


class AllocationProbe:
    """Peak traced allocation inside each ``simulate`` call."""

    def __init__(self):
        self.peaks: list[int] = []
        self.missing: list[str] = []

    def install(self) -> None:
        fn = _resolve(TARGETS["dynamics.simulate"])
        if fn is None:
            self.missing.append("dynamics.simulate")
            return

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        _replace_everywhere(fn, measured)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result
