"""Command-line front end.

    consensim run <scenario> [--out DIR] [--require-consensus] [--no-plots]
                             [--dt X] [--t-end X]
    consensim predict <scenario>
    consensim validate <scenario>

<scenario> is a JSON file path or a bundled name (fig2a, fig2b, fig3a,
fig3b). Exit codes: 0 success, 1 parse/validation failure, unreadable file
or unusable output directory, 2 integration blow-up, 3 consensus required
but not achieved, 4 prediction inapplicable.

``run`` writes trajectory.csv (17 significant digits, byte-identical across
runs of the same scenario), report.json, and unless --no-plots two SVG
plots. Plot failures never fail the run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import operator
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .analysis import (conservation_drift, conserved_series, default_tracking_weight,
                       detect_consensus, lyapunov_series, predict_consensus)
from .dynamics import Mode, Scenario, Trajectory, simulate, validate_scenario
from .errors import HypothesisViolated, NonFiniteState, ParseError, ValidationFailed
from .scenario_io import bundled_scenario_path, list_bundled, parse_scenario

MONOTONE_SLACK = 1e-9


def resolve_scenario_path(ref: str) -> Path:
    """A real file path wins; otherwise try the bundled scenario names."""
    path = Path(ref)
    if path.is_file():
        return path
    if ref in list_bundled():
        return bundled_scenario_path(ref)
    raise ParseError(f"no scenario file {ref!r} and no bundled scenario of that name "
                     f"(bundled: {', '.join(list_bundled())})")


@dataclasses.dataclass(frozen=True)
class RunSeries:
    """The energy (S,) and conserved-quantity (S, d) series of one run,
    computed once and shared by the CSV and the report. A series the
    scenario's hypotheses rule out is None, with the reason beside it."""

    leader_weight: float | None
    energy: np.ndarray | None
    energy_reason: str | None
    conserved: np.ndarray | None
    conserved_reason: str | None


def run_series(traj: Trajectory, scenario: Scenario) -> RunSeries:
    weight = energy = energy_reason = conserved = conserved_reason = None
    try:
        weight = default_tracking_weight(scenario) if scenario.mode is Mode.LEADER else None
        energy = lyapunov_series(traj, scenario, weight)
    except HypothesisViolated as exc:
        energy_reason = str(exc)
    try:
        conserved = conserved_series(traj, scenario)
    except HypothesisViolated as exc:
        conserved_reason = str(exc)
    return RunSeries(weight, energy, energy_reason, conserved, conserved_reason)


# The most floats write_trajectory_csv gathers into one table of rows.
_CSV_BLOCK_FLOATS = 1 << 16


def write_trajectory_csv(traj: Trajectory, scenario: Scenario, path, series: RunSeries) -> None:
    """One row per sample: time, agent positions, agent velocities, leader
    state when present, the energy value, and the conserved quantity when
    the scenario admits one."""
    n, dims = scenario.n_agents, scenario.n_dims
    suffixes = [f"_{l}" for l in range(1, dims + 1)] if dims > 1 else [""]

    def cols(prefix: str, who) -> list[str]:
        # Agent-major order, one comprehension per dimension suffix.
        names = [""] * (len(who) * dims)
        for l, suffix in enumerate(suffixes):
            names[l::dims] = [f"{prefix}_{w}{suffix}" for w in who]
        return names

    header = ["t"] + cols("p", range(1, n + 1)) + cols("q", range(1, n + 1))
    samples = len(traj.t)
    columns = [traj.t[:, None], traj.p.reshape(samples, -1), traj.q.reshape(samples, -1)]
    if scenario.mode is Mode.LEADER:
        header += cols("p", "L") + cols("q", "L")
        columns += [traj.leader_p, traj.leader_q]

    energy, conserved = series.energy, series.conserved
    if energy is None:
        print(f"warning: energy column omitted: {series.energy_reason}", file=sys.stderr)
    else:
        header.append("V")
        columns.append(energy[:, None])
    if conserved is not None:
        header += [f"alpha_{l + 1}" for l in range(dims)]
        columns.append(conserved)
    # "%.17g" % v is format(v, ".17g") for every double: one format call per
    # row. Rows become Python floats and text one at a time, and the table
    # exists one block of rows at a time, so memory does not grow with the file.
    width = sum(column.shape[1] for column in columns)
    row_format = ",".join(["%.17g"] * width) + "\n"
    block = max(1, _CSV_BLOCK_FLOATS // width)
    with open(path, "w") as file:
        file.write(",".join(header) + "\n")
        for start in range(0, samples, block):
            file.writelines(row_format % tuple(row.tolist()) for row in
                            np.hstack([column[start:start + block] for column in columns]))


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    return value


def build_report(traj: Trajectory, scenario: Scenario, scenario_path: str,
                 series: RunSeries) -> dict:
    """Everything the run learned, JSON-shaped; the validation is the one
    ``simulate`` ran and left on the trajectory."""
    validation = traj.validation
    report_consensus = detect_consensus(traj, scenario.pos_tol, scenario.vel_tol, scenario)

    lyap: dict = {"available": False, "leader_weight": None, "reason": series.energy_reason}
    if series.energy is not None:
        values = series.energy
        steps = np.diff(values)
        slack = MONOTONE_SLACK * (1.0 + values[:-1])
        lyap = {
            "available": True,
            "leader_weight": series.leader_weight,
            "initial": float(values[0]),
            "final": float(values[-1]),
            "nonincreasing": bool(np.all(steps <= slack)),
            "max_step_increase": float(steps.max()) if len(steps) else 0.0,
            "slack_factor": MONOTONE_SLACK,
            "reason": None,
        }

    conservation: dict = {"applicable": False, "max_relative_drift": None,
                          "reason": series.conserved_reason}
    if series.conserved is not None:
        conservation = {"applicable": True,
                        "max_relative_drift": conservation_drift(traj, scenario, series.conserved),
                        "reason": None}

    predicted = report_consensus.predicted_value
    prediction_error = None
    if predicted is not None:
        prediction_error = float(np.abs(report_consensus.observed_value - predicted).max())

    assumptions = validation.assumptions
    return {
        "scenario": {
            "path": str(scenario_path),
            "description": scenario.description,
            "fingerprint": traj.scenario_fingerprint,
            "mode": scenario.mode.value,
            "n_agents": scenario.n_agents,
            "n_dims": scenario.n_dims,
            "integrator": dataclasses.asdict(scenario.integrator),
        },
        "validation": {
            "errors": list(validation.errors),
            "warnings": list(validation.warnings),
            "assumptions": {
                "all_passed": assumptions.all_passed,
                "checks": [{"name": n, "passed": p, "blocking": b, "detail": d}
                           for n, p, b, d in zip(assumptions.names, assumptions.passed,
                                                 assumptions.blocking, assumptions.details)],
                "sector": [float(v) for v in assumptions.sector],
                "gain_bounds": [float(v) for v in assumptions.gain_bounds],
            },
        },
        "consensus": {
            "achieved": report_consensus.achieved,
            "t_consensus": report_consensus.t_consensus,
            "final_spread": report_consensus.final_spread,
            "final_speed": report_consensus.final_speed,
            "observed_value": _jsonable(report_consensus.observed_value),
            "predicted_value": _jsonable(predicted),
            "prediction_abs_error": prediction_error,
            "prediction_reason": report_consensus.prediction_reason,
            "pos_tol": report_consensus.pos_tol,
            "vel_tol": report_consensus.vel_tol,
        },
        "lyapunov": lyap,
        "conservation": conservation,
    }


# One assumption check as json.dumps(indent=2, sort_keys=True) lays it out
# at its depth in the report, and the line its list takes when empty.
_CHECK = ('        {{\n          "blocking": {},\n          "detail": {},\n'
          '          "name": {},\n          "passed": {}\n        }}')
_EMPTY_CHECKS = '\n      "checks": []'
_JSON_BOOLS = ("false", "true")


def _report_pieces(report: dict) -> Iterator[str]:
    """The text of report.json in pieces, whose join is ``json.dumps(report,
    indent=2, sort_keys=True)`` and a newline.

    That call always takes the pure-Python encoder, which is slow on the
    thousands of assumption checks of a large scenario, and would hold the
    whole text at once. So the report is dumped with an empty check list,
    and its text is given as the part before that list, then each check
    (never none: there is one per gain), rendered from one template, then
    the part after it. The split point is a line break, which json.dumps
    writes only between items (never inside a string), followed by the
    indented ``"checks"`` key; no other key of the report is named so, so
    the point occurs exactly once."""
    validation = report["validation"]
    assumptions = validation["assumptions"]
    shell = {**report, "validation": {**validation,
                                      "assumptions": {**assumptions, "checks": []}}}
    head, tail = json.dumps(shell, indent=2, sort_keys=True).split(_EMPTY_CHECKS)
    yield f"{head}{_EMPTY_CHECKS[:-1]}"
    rows = map(operator.itemgetter("blocking", "detail", "name", "passed"),
               assumptions["checks"])
    # Each check follows a line break, and every check but the first a comma too.
    separators = itertools.chain(["\n"], itertools.repeat(",\n"))
    for separator, (blocking, detail, name, passed) in zip(separators, rows):
        yield separator + _CHECK.format(_JSON_BOOLS[blocking], encode_basestring_ascii(detail),
                                        encode_basestring_ascii(name), _JSON_BOOLS[passed])
    yield f"\n      ]{tail}\n"


def write_report_json(report: dict, path) -> None:
    """Write report.json to ``path`` piece by piece, never the whole text at once."""
    with open(path, "w") as file:
        file.writelines(_report_pieces(report))


PLOT_WIDTH, PLOT_MIN_HEIGHT = 700, 420
_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_BOTTOM, _LEGEND_WIDTH = 64, 16, 44, 120
_LEGEND_ROW = 14
# The most polyline points _svg_chart formats at once.
_SVG_BLOCK_POINTS = 1 << 10
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick values (1, 2 or 5 times a power of ten) in [lo, hi], about five."""
    raw = (hi - lo) / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw)
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


def _svg_chart(times: np.ndarray, lines: list, hlines: np.ndarray, ylabel: str) -> Iterator[str]:
    """One line chart as SVG text, in pieces of one line of text or of one
    block of polyline points. ``lines`` holds (label, values, color,
    dasharray or None, stroke width) per polyline; ``hlines`` are drawn as
    dotted horizontal lines. The scales come first, from each series'
    extremes, so a polyline's text exists only while it is written. Every
    number is written with a fixed format and nothing depends on the clock,
    so equal input gives equal bytes."""
    height = max(PLOT_MIN_HEIGHT, 2 * _MARGIN_TOP + _LEGEND_ROW * len(lines))
    left, top = _MARGIN_LEFT, _MARGIN_TOP
    right, bottom = PLOT_WIDTH - _LEGEND_WIDTH, height - _MARGIN_BOTTOM
    t0, t1 = float(times[0]), float(times[-1])
    extremes = np.array([(ys.min(), ys.max()) for ys in
                         [values for _, values, *_ in lines] + [hlines] if ys.size])
    lo, hi = float(extremes[:, 0].min()), float(extremes[:, 1].max())
    pad = 0.05 * (hi - lo) or 0.5 * max(1.0, abs(lo))  # a flat series still gets a range
    lo, hi = lo - pad, hi + pad

    def px(t):
        return left + (np.asarray(t, dtype=float) - t0) * ((right - left) / (t1 - t0))

    def py(y):
        return top + (hi - np.asarray(y, dtype=float)) * ((bottom - top) / (hi - lo))

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_WIDTH}" height="{height}" '
           f'viewBox="0 0 {PLOT_WIDTH} {height}" font-family="sans-serif" font-size="11">\n')
    yield '<rect width="100%" height="100%" fill="white"/>\n'
    for t in _ticks(t0, t1):
        x = px(t)
        yield (f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 4}" stroke="black"/>'
               f'<text x="{x:.2f}" y="{bottom + 16}" text-anchor="middle">{t:.4g}</text>\n')
    for y in _ticks(lo, hi):
        v = py(y)
        yield (f'<line x1="{left - 4}" y1="{v:.2f}" x2="{left}" y2="{v:.2f}" stroke="black"/>'
               f'<text x="{left - 6}" y="{v + 4:.2f}" text-anchor="end">{y:.4g}</text>\n')
    xs = px(times)
    for _, values, color, dash, width in lines:
        style = f' stroke-dasharray="{dash}"' if dash else ""
        yield f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{style} points="'
        ys = py(values)
        # Points are formatted from Python floats, a bounded block at a time.
        for start in range(0, len(xs), _SVG_BLOCK_POINTS):
            block = slice(start, start + _SVG_BLOCK_POINTS)
            yield (" " if start else "") + " ".join(
                map("{:.2f},{:.2f}".format, xs[block].tolist(), ys[block].tolist()))
        yield '"/>\n'
    for y in hlines:
        yield (f'<line x1="{left}" y1="{py(y):.2f}" x2="{right}" y2="{py(y):.2f}" '
               f'stroke="gray" stroke-dasharray="1.5,3"/>\n')
    yield (f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
           f'fill="none" stroke="black"/>\n')
    yield f'<text x="{(left + right) / 2:.2f}" y="{height - 8}" text-anchor="middle">t</text>\n'
    yield (f'<text transform="translate(16,{(top + bottom) / 2:.2f}) rotate(-90)" '
           f'text-anchor="middle">{ylabel}</text>\n')
    for row, (label, _, color, dash, width) in enumerate(lines):
        y = top + 8 + _LEGEND_ROW * row
        style = f' stroke-dasharray="{dash}"' if dash else ""
        yield (f'<line x1="{right + 10}" y1="{y}" x2="{right + 34}" y2="{y}" stroke="{color}" '
               f'stroke-width="{width}"{style}/>'
               f'<text x="{right + 40}" y="{y + 4}">{label}</text>\n')
    yield "</svg>\n"


def write_plots(traj: Trajectory, predicted: list[float] | None, out_dir: Path) -> list[Path]:
    """Position and velocity SVGs, returning those written in full; any
    failure is reported, never raised, and stops the plotting.

    Each agent coordinate is one polyline, the leader (if any) a dashed black
    one, and on the positions plot each component of ``predicted``, the
    closed-form consensus value or None, a dotted horizontal line. Reruns of
    one scenario write byte-identical files."""
    written: list[Path] = []
    try:
        _, n_agents, n_dims = traj.p.shape
        for data, ldata, stem, ylabel in ((traj.p, traj.leader_p, "positions", "position"),
                                          (traj.q, traj.leader_q, "velocities", "velocity")):
            lines = []
            for i in range(n_agents):
                for l in range(n_dims):
                    suffix = f"_{l + 1}" if n_dims > 1 else ""
                    lines.append((f"agent {i + 1}{suffix}", data[:, i, l],
                                  _COLORS[len(lines) % len(_COLORS)], None, 1.2))
            if ldata is not None:
                lines += [("leader", ldata[:, l], "black", "6,3", 1.6) for l in range(n_dims)]
            hlines = np.empty(0)
            if stem == "positions" and predicted is not None:
                hlines = np.atleast_1d(predicted)
            target = out_dir / f"{stem}.svg"
            with open(target, "w") as file:
                file.writelines(_svg_chart(traj.t, lines, hlines, ylabel))
            written.append(target)
    except Exception as exc:  # plotting must never fail the run
        print(f"warning: plotting failed: {exc}", file=sys.stderr)
    return written


def write_outputs(traj: Trajectory, scenario: Scenario, scenario_path, out_dir: Path,
                  plots: bool) -> dict:
    """Write trajectory.csv, report.json and, with ``plots``, the SVGs into
    out_dir, computing the energy and conserved series once for both files
    and the prediction once for the report and the plots. Returns the
    report. Every output file this run did not write in full, a partial one
    or an earlier run's, is removed; a failed CSV or report write, which
    propagates, leaves none."""
    out_dir.mkdir(parents=True, exist_ok=True)
    series = run_series(traj, scenario)
    csv_path, report_path = out_dir / "trajectory.csv", out_dir / "report.json"
    written: list[Path] = []
    try:
        write_trajectory_csv(traj, scenario, csv_path, series)
        report = build_report(traj, scenario, str(scenario_path), series)
        write_report_json(report, report_path)
        written = [csv_path, report_path]
        if plots:
            written += write_plots(traj, report["consensus"]["predicted_value"], out_dir)
    finally:
        for name in ("trajectory.csv", "report.json", "positions.svg", "velocities.svg"):
            if out_dir / name not in written:
                with contextlib.suppress(OSError):
                    (out_dir / name).unlink(missing_ok=True)
    return report


def _not_a_directory(out_dir: Path) -> Path | None:
    """out_dir or its nearest existing ancestor when that is not a directory,
    so that no output could be written under it; None otherwise. Creates
    nothing: a run refused later leaves no directory behind."""
    for place in itertools.chain([out_dir], out_dir.parents):
        if place.exists():
            return None if place.is_dir() else place
    return None


def _cannot_write(out_dir: Path, reason) -> int:
    print(f"error: cannot write outputs to {out_dir}: {reason}", file=sys.stderr)
    return 1


def cmd_run(args) -> int:
    # simulate validates the scenario that actually runs, overrides included.
    path = resolve_scenario_path(args.scenario)
    scenario = parse_scenario(path, validate=False)
    overrides = {key: value for key, value in (("dt", args.dt), ("t_end", args.t_end))
                 if value is not None}
    if overrides:
        scenario = dataclasses.replace(
            scenario, integrator=dataclasses.replace(scenario.integrator, **overrides))

    out_dir = Path(args.out)
    blocker = _not_a_directory(out_dir)
    if blocker is not None:
        return _cannot_write(out_dir, f"{blocker} is not a directory")
    trajectory = simulate(scenario)
    try:
        report = write_outputs(trajectory, scenario, path, out_dir, plots=not args.no_plots)
    except OSError as exc:
        return _cannot_write(out_dir, exc)

    consensus = report["consensus"]
    if consensus["achieved"]:
        print(f"consensus achieved from t={consensus['t_consensus']:g} "
              f"(final spread {consensus['final_spread']:.3e}, "
              f"final speed {consensus['final_speed']:.3e})")
    else:
        print(f"consensus not achieved by t={scenario.integrator.t_end:g} "
              f"(final spread {consensus['final_spread']:.3e}, "
              f"final speed {consensus['final_speed']:.3e})")
    observed = " ".join(f"{v:.6f}" for v in np.atleast_1d(consensus["observed_value"]))
    print(f"observed value: {observed}")
    if consensus["predicted_value"] is not None:
        predicted = " ".join(f"{v:.6f}" for v in np.atleast_1d(consensus["predicted_value"]))
        print(f"predicted value: {predicted} (abs error {consensus['prediction_abs_error']:.3e})")
    print(f"outputs in {out_dir}")
    if args.require_consensus and not consensus["achieved"]:
        return 3
    return 0


def cmd_predict(args) -> int:
    scenario = parse_scenario(resolve_scenario_path(args.scenario))
    prediction = predict_consensus(scenario)
    if not prediction.available:
        print(f"no closed-form consensus value: {prediction.reason}", file=sys.stderr)
        return 4
    print(" ".join(f"{v:.6f}" for v in np.atleast_1d(prediction.value)))
    return 0


def cmd_validate(args) -> int:
    scenario = parse_scenario(resolve_scenario_path(args.scenario), validate=False)
    result = validate_scenario(scenario)
    for message in result.errors:
        print(f"error: {message}")
    for message in result.warnings:
        print(f"warning: {message}")
    report = result.assumptions
    print(f"sector: [{report.sector[0]:.6g}, {report.sector[1]:.6g}]")
    print(f"gain bounds: [{report.gain_bounds[0]:.6g}, {report.gain_bounds[1]:.6g}]")
    print("valid" if result.ok else "invalid")
    return 0 if result.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and never changes it, and every parse starts from its defaults."""
    parser = argparse.ArgumentParser(
        prog="consensim",
        description="Simulate and analyze second-order consensus scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a scenario and write outputs")
    run.add_argument("scenario", help="scenario JSON path or bundled name")
    run.add_argument("--out", default="out", help="output directory (default: out)")
    run.add_argument("--require-consensus", action="store_true",
                     help="exit 3 unless consensus is achieved")
    run.add_argument("--no-plots", action="store_true", help="skip SVG plots")
    run.add_argument("--dt", type=float, default=None, help="override integrator dt")
    run.add_argument("--t-end", type=float, default=None, help="override integration horizon")
    run.set_defaults(func=cmd_run)

    predict = sub.add_parser("predict", help="print the closed-form consensus value")
    predict.add_argument("scenario", help="scenario JSON path or bundled name")
    predict.set_defaults(func=cmd_predict)

    validate = sub.add_parser("validate", help="check a scenario without simulating")
    validate.add_argument("scenario", help="scenario JSON path or bundled name")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        detail = f" (last good t={exc.last_good_time:g})" if exc.last_good_time is not None else ""
        print(f"integration failed: {exc}{detail}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"no closed-form consensus value: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
