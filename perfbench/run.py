"""Benchmark of consensim through its user-facing ``run`` command.

    python3 perfbench/run.py --workload {bundled,ring5k,sweep} --seed N
                             --seconds S --trace {0,1}

Run from the repository root. The seed generates the workload's scenario
files (see workloads.py); each pass then runs ``consensim run <file>
--no-plots`` on every file, in process through ``consensim.cli.main``, in
a fresh interpreter started for that pass. Passes repeat while the next
one still ends within ``S`` seconds (at least two). Every run's outputs
are checked (see checks.py); a failed check counts the run as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
Their times are taken at the loaded end of what the run saw. A shared host
slows this process by up to 2x in spells of a fraction of a second to
many seconds; the loaded speed is a floor that nearly every run reaches
at times, while the fast spells come and go. A median or a mean over a
run moves with them by 20-40% between runs, an upper quantile by a few
per cent. Each scenario's time is therefore its LOAD_Q quantile
(Harrell-Davis, see ``hd_quantile``) over the run's passes:

- ``agent_steps_per_s``: sum over the pass's scenarios of n_agents x RK4
  steps, over the sum of the scenarios' times, i.e. over the wall time of
  a pass from the first parse to the last report.json written.
- ``scenario_s.p50``, ``scenario_s.p90``: quantiles over the workload's
  scenarios of their times (one scenario's run, parse to outputs written).
  The number of samples behind each is printed above the result.
- ``setup_s``: a fresh interpreter's ``import consensim`` plus
  ``parse_scenario`` (validation included) of every scenario; LOAD_Q
  quantile of the probes, which run after each pass and take a fifth of
  the run.
- ``peak_rss_mb``: ``ru_maxrss`` of the process that ran a pass; median.
- ``success_ratio``: runs that exited 0 and passed every output check over
  runs attempted, i.e. 1 - failed_ratio (a ratio that must never read 0).

With ``--trace 1`` untraced and traced passes alternate, then one pass
measures allocations inside ``simulate``; the last line carries the
per-layer metrics (see tracing.py and ``layer_metrics``) and
``trace_overhead``. Plots are excluded: matplotlib is optional and its
absence would make the plot path a no-op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SHARE = 0.2
LOAD_Q = 0.95
MIN_PASSES = 2
DEADLINE_S = 165.0

END_TO_END = {
    "agent_steps_per_s": "1/s",
    "scenario_s.p50": "s",
    "scenario_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "scenario_io.parse_s": "s",
    "graph.reach_s": "s",
    "graph.reach_calls": "count",
    "protocols.assumptions_s": "s",
    "protocols.sector_s": "s",
    "protocols.sector_calls": "count",
    "dynamics.validate_s": "s",
    "dynamics.validate_calls_per_run": "calls/run",
    "dynamics.fingerprint_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.step_us": "us",
    "dynamics.agent_step_ns": "ns",
    "dynamics.steps": "count",
    "dynamics.rhs_evals": "count",
    "dynamics.samples": "count",
    "dynamics.peak_alloc_mb": "MB",
    "analysis.lyapunov_s": "s",
    "analysis.detect_s": "s",
    "analysis.conservation_s": "s",
    "analysis.predict_s": "s",
    "cli.csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.report_s": "s",
    "cli.run_other_s": "s",
    "trace_overhead": "ratio",
}


class ChildFailed(RuntimeError):
    pass


class Session:
    """Starts the child processes of one benchmark run inside ``work`` and
    keeps them within the run's deadline."""

    def __init__(self, root: Path, work: Path, scenarios: list[Path]):
        self.root = root
        self.work = work
        self.scenarios = [str(p) for p in scenarios]
        self.started = time.perf_counter()
        self.jobs = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def job(self, **request) -> dict:
        self.jobs += 1
        request_path = self.work / f"job{self.jobs:03d}.json"
        request["result"] = str(self.work / f"job{self.jobs:03d}.result.json")
        request_path.write_text(json.dumps(request))
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(request_path)],
                                  cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{request['job']} job timed out after {timeout:.0f} s") from exc
        result_path = Path(request["result"])
        if proc.returncode != 0 or not result_path.is_file():
            raise ChildFailed(f"{request['job']} job exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())

    def setup_probe(self, scenarios: list[str]) -> dict:
        return self.job(job="setup", scenarios=scenarios)

    def run_pass(self, trace: str, index: int) -> dict:
        out = self.work / f"pass{index:03d}"
        result = self.job(job="pass", trace=trace, scenarios=self.scenarios, out=str(out))
        result["trace"] = trace
        if index > 0:  # hashes suffice for repeats; the first pass is checked in full
            shutil.rmtree(out, ignore_errors=True)
        return result


def run_passes(session: Session, cycle: tuple[str, ...], seconds: float,
               setup_share: float = 0.0) -> tuple[list[dict], list[dict]]:
    """Repeat ``cycle`` while the next one still ends within ``seconds``
    (at least MIN_PASSES passes; stop early only to meet the deadline).
    With ``setup_share`` > 0 each cycle ends with set-up probes, as many as
    keep their time at that share of the time measured so far (at least
    one), so that probes and passes sample the same stretch of the run."""
    passes: list[dict] = []
    probes: list[dict] = []
    start = time.perf_counter()
    probing = slowest = 0.0
    while True:
        began = time.perf_counter()
        for trace in cycle:
            passes.append(session.run_pass(trace, len(passes)))
        if setup_share > 0:
            while True:
                probe_start = time.perf_counter()
                probes.append(session.setup_probe(session.scenarios))
                probing += time.perf_counter() - probe_start
                if probing >= setup_share * (time.perf_counter() - start):
                    break
        now = time.perf_counter()
        slowest = max(slowest, now - began)
        if session.elapsed() + 2 * slowest > DEADLINE_S:
            return passes, probes  # no room for another cycle and the work after it
        if len(passes) >= MIN_PASSES and now - start + slowest > seconds:
            return passes, probes


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics, with Beta(q(n+1), (1-q)(n+1)) weights. Unlike one order
    statistic it stays put when the quantile falls in a gap between
    clusters, such as the fast and slow spells of a shared host."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    sub = 32  # midpoint rule per order statistic; weights are normalised below
    grid = [(i + (k + 0.5) / sub) / n for i in range(n) for k in range(sub)]
    logs = [(a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) for x in grid]
    peak = max(logs)
    density = [math.exp(v - peak) for v in logs]
    weights = [math.fsum(density[i * sub:(i + 1) * sub]) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def end_to_end(passes: list[dict], probes: list[dict], facts: list[dict],
               success_ratio: float) -> tuple[dict, str]:
    agent_steps = sum(f["agent_steps"] for f in facts)
    times = [hd_quantile([p["runs"][i]["seconds"] for p in passes], LOAD_Q)
             for i in range(len(facts))]
    metrics = {
        "agent_steps_per_s": agent_steps / math.fsum(times),
        "scenario_s.p50": hd_quantile(times, 0.5),
        "scenario_s.p90": hd_quantile(times, 0.9),
        "setup_s": hd_quantile([p["setup_s"] for p in probes], LOAD_Q),
        "peak_rss_mb": _median(p["maxrss_kb"] / 1024.0 for p in passes),
        "success_ratio": success_ratio,
    }
    note = (f"setup_s: {len(probes)} probes; scenario_s: {len(times)} scenarios, "
            f"each timed in {len(passes)} passes")
    return metrics, note


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass. Times are self times summed over
    the pass: span duration minus child-span coverage, so the time of a
    layer never includes a wrapped function it calls."""
    spans = result["spans"]
    missing = set(result["missing"])
    selfs = tracing.self_times(spans)

    def present(names):
        return any(n not in missing for n in names)

    def self_s(*names):
        return sum(selfs[s["id"]] for s in spans if s["name"] in names) if present(names) else None

    def calls(*names):
        return sum(1 for s in spans if s["name"] in names) if present(names) else None

    def count(name, key):
        if name in missing:
            return None
        values = [s.get("counts", {}).get(key) for s in spans if s["name"] == name]
        return None if any(v is None for v in values) else sum(values)

    validate_calls, runs = calls("dynamics.validate_scenario"), calls("cli.cmd_run")
    integrate = self_s("dynamics.simulate")
    steps = count("dynamics.simulate", "steps")
    agent_steps = count("dynamics.simulate", "agent_steps")
    return {
        "scenario_io.parse_s": self_s("scenario_io.parse_scenario",
                                      "scenario_io.parse_scenario_dict"),
        "graph.reach_s": self_s("graph.is_connected", "graph.leader_reaches_all"),
        "graph.reach_calls": calls("graph.is_connected", "graph.leader_reaches_all"),
        "protocols.assumptions_s": self_s("protocols.validate_assumptions"),
        "protocols.sector_s": self_s("protocols.sector_constants"),
        "protocols.sector_calls": calls("protocols.sector_constants"),
        "dynamics.validate_s": self_s("dynamics.validate_scenario"),
        "dynamics.validate_calls_per_run": validate_calls / runs
        if validate_calls is not None and runs else None,
        "dynamics.fingerprint_s": self_s("dynamics.scenario_fingerprint"),
        "dynamics.integrate_s": integrate,
        "dynamics.step_us": integrate / steps * 1e6
        if integrate is not None and steps else None,
        "dynamics.agent_step_ns": integrate / agent_steps * 1e9
        if integrate is not None and agent_steps else None,
        "dynamics.steps": steps,
        "dynamics.rhs_evals": 4 * steps if steps is not None else None,
        "dynamics.samples": count("dynamics.simulate", "samples"),
        "analysis.lyapunov_s": self_s("analysis.lyapunov_series"),
        "analysis.detect_s": self_s("analysis.detect_consensus"),
        "analysis.conservation_s": self_s("analysis.conservation_drift",
                                          "analysis.conserved_series"),
        "analysis.predict_s": self_s("analysis.predict_consensus"),
        "cli.csv_s": self_s("cli.write_trajectory_csv"),
        "cli.csv_bytes": count("cli.write_trajectory_csv", "bytes"),
        "cli.report_s": self_s("cli.build_report"),
        "cli.run_other_s": self_s("cli.cmd_run"),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["trace"] == "spans"]
    layers = [layer_metrics(p) for p in traced]
    metrics = {name: _median(m[name] for m in layers) for name in layers[0]}
    memory = [p for p in passes if p["trace"] == "memory"]
    peaks = [peak for p in memory for peak in p["alloc_peaks"]]
    metrics["dynamics.peak_alloc_mb"] = max(peaks) / 2**20 if peaks else None
    untraced = _median(p["pass_seconds"] for p in passes if p["trace"] == "off")
    metrics["trace_overhead"] = _median(p["pass_seconds"] for p in traced) / untraced - 1.0
    return {name: metrics[name] for name in PER_LAYER}


def environment(first_pass: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": first_pass["python"], "numpy": first_pass["numpy"],
            "platform": platform.platform(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
            "plots": "excluded (--no-plots)", "process_per_pass": True}


def benchmark(args, root: Path, work: Path) -> dict:
    paths = workloads.generate(args.workload, args.seed, root, work / "scenarios")
    facts = [checks.scenario_facts(p) for p in paths]
    session = Session(root, work, paths)
    session.setup_probe([])  # compiles bytecode so later probes time a warm import
    if args.trace:
        passes, _ = run_passes(session, ("off", "spans"), args.seconds)
        passes.append(session.run_pass("memory", len(passes)))
    else:
        passes, probes = run_passes(session, ("off",), args.seconds, SETUP_SHARE)
    attempted, failed, reasons = checks.failed_runs(passes, work / "pass000", facts,
                                                    args.workload)
    for reason in reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    print("env: " + json.dumps(environment(passes[0]), sort_keys=True))
    if args.trace:
        values = per_layer(passes)
        units = PER_LAYER
        absent = sorted(name for name, value in values.items() if value is None)
        if absent:
            print("absent (function no longer exists): " + ", ".join(absent))
    else:
        values, note = end_to_end(passes, probes, facts,
                                  (attempted - failed) / attempted)
        units = END_TO_END
        print(note)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "consensim" / "__init__.py").is_file():
        print(f"error: {root} holds no src/consensim; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = benchmark(args, root, work)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
