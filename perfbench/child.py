"""One benchmark child process: a set-up probe or one pass over a workload.

    python3 perfbench/child.py <request.json>

The request names the scenario files, the job (``setup`` or ``pass``), the
output directory and, for a pass, the tracing mode (``off``, ``spans`` or
``memory``). The result is written as JSON to the request's ``result``
path. The parent starts a fresh interpreter for every job, so each pass
pays the cold caches a user's ``consensim run`` pays.

Only the standard library is imported before the timed ``import
consensim`` of a set-up probe.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(request: dict) -> dict:
    start = time.perf_counter()
    import consensim
    imported = time.perf_counter()
    for path in request["scenarios"]:
        consensim.parse_scenario(path)
    end = time.perf_counter()
    return {"import_s": imported - start, "parse_s": end - imported, "setup_s": end - start}


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _pass(request: dict) -> dict:
    import numpy
    import consensim.cli as cli

    import tracing

    recorder = probe = None
    if request["trace"] == "spans":
        recorder = tracing.SpanRecorder()
        recorder.install()
    elif request["trace"] == "memory":
        probe = tracing.AllocationProbe()
        probe.install()

    out_root = Path(request["out"])
    runs = []
    pass_start = time.perf_counter()
    for index, path in enumerate(request["scenarios"]):
        out = out_root / f"{index:03d}"
        if recorder is not None:
            recorder.scenario = index
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(["run", path, "--out", str(out), "--no-plots"])
        except Exception:  # a crash is one failed run, not a failed pass
            code, error = None, traceback.format_exc()[-2000:]
        runs.append({"seconds": time.perf_counter() - start, "exit": code, "error": error})
    pass_seconds = time.perf_counter() - pass_start

    for index, run in enumerate(runs):
        out = out_root / f"{index:03d}"
        run["csv_sha256"] = _digest(out / "trajectory.csv")
        run["report_sha256"] = _digest(out / "report.json")
    result = {
        "pass_seconds": pass_seconds,
        "runs": runs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["missing"] = recorder.missing
    if probe is not None:
        result["alloc_peaks"] = probe.peaks
        result["missing"] = probe.missing
    return result


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text())
    job = _setup if request["job"] == "setup" else _pass
    result = job(request)
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
