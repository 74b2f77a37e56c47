"""Scenario files: a strict JSON schema, parsing, and serialization.

Schema (all keys shown; (*) marks optional ones):

    {
      "description": str,                        (*)
      "mode": "leaderless" | "leader",
      "n_agents": int,
      "n_dims": int,
      "masses": [number] * n_agents,
      "topology": {
        "edges": [[i, j, weight], ...],          1-based agent indices
        "leader_links": [[i, weight], ...]       (*) leader mode only
      },
      "protocol": {
        "velocity": {"kind": "linear"} | {"kind": "sine_perturbed", "omega": number},
        "coupling": {"kind": "linear"} | {"kind": "linear_plus_cubic"},
        "gains": [{"kind": "constant", "b0": number}
                  | {"kind": "cosine", "b0": number, "amplitude": number}] * n_agents,
        "leader_velocity": <velocity>,           (*) leader mode only
        "leader_gain": <gain>                    (*) leader mode only
      },
      "initial": {
        "p": [coordinate] * n_agents,            coordinate: number (n_dims=1) or [number]*n_dims
        "q": [coordinate] * n_agents,
        "leader": {"p": coordinate, "q": coordinate}   (*) leader mode only
      },
      "integrator": {"dt": number, "t_end": number, "record_every": int},   (*)
      "tolerances": {"position": number, "velocity": number}                (*)
    }

Unknown keys anywhere are an error. Agent indices are 1-based in files and
converted here; everything downstream is 0-based. Parsing a file and
serializing the result back yields a semantically identical scenario.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import (IntegratorSettings, LeaderState, Mode, Scenario, SystemState,
                       validate_scenario)
from .errors import ParseError, TopologyError, ValidationFailed
from .graph import Topology, build_topology
from .protocols import CouplingShape, GainProfile, ProtocolSpec, VelocityShape

_VELOCITY_KEYS = {"linear": set(), "sine_perturbed": {"omega"}}
_GAIN_KEYS = {"constant": {"b0"}, "cosine": {"b0", "amplitude"}}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"{path}: unknown key(s) {sorted(unknown)}")


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{path}: missing required key '{key}'")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _coordinate(value, n_dims: int, path: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if n_dims != 1:
            raise ParseError(f"{path}: scalar coordinate but n_dims={n_dims}")
        return [float(value)]
    if isinstance(value, list):
        if len(value) != n_dims:
            raise ParseError(f"{path}: expected {n_dims} components, got {len(value)}")
        return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]
    raise ParseError(f"{path}: expected a number or a list of numbers")


def _parse_velocity(obj, path: str) -> VelocityShape:
    obj = _require_mapping(obj, path)
    kind = _get(obj, "kind", path)
    if kind not in _VELOCITY_KEYS:
        raise ParseError(f"{path}.kind: unknown velocity kind {kind!r}")
    _reject_unknown(obj, {"kind"} | _VELOCITY_KEYS[kind], path)
    if kind == "linear":
        return VelocityShape("linear")
    return VelocityShape("sine_perturbed", _number(_get(obj, "omega", path), f"{path}.omega"))


def _parse_coupling(obj, path: str) -> CouplingShape:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"kind"}, path)
    kind = _get(obj, "kind", path)
    if kind not in ("linear", "linear_plus_cubic"):
        raise ParseError(f"{path}.kind: unknown coupling kind {kind!r}")
    return CouplingShape(kind)


def _parse_gain(obj, path: str) -> GainProfile:
    obj = _require_mapping(obj, path)
    kind = _get(obj, "kind", path)
    if kind not in _GAIN_KEYS:
        raise ParseError(f"{path}.kind: unknown gain kind {kind!r}")
    _reject_unknown(obj, {"kind"} | _GAIN_KEYS[kind], path)
    b0 = _number(_get(obj, "b0", path), f"{path}.b0")
    if kind == "constant":
        return GainProfile("constant", b0)
    return GainProfile("cosine", b0, _number(_get(obj, "amplitude", path), f"{path}.amplitude"))


def _parse_topology(obj, path: str) -> tuple[list, list]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"edges", "leader_links"}, path)
    edges_raw = _get(obj, "edges", path)
    if not isinstance(edges_raw, list):
        raise ParseError(f"{path}.edges: expected a list")
    edges = []
    for k, entry in enumerate(edges_raw):
        epath = f"{path}.edges[{k}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"{epath}: expected [i, j, weight]")
        edges.append((_integer(entry[0], f"{epath}[0]"), _integer(entry[1], f"{epath}[1]"),
                      _number(entry[2], f"{epath}[2]")))
    links = []
    for k, entry in enumerate(obj.get("leader_links", [])):
        lpath = f"{path}.leader_links[{k}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"{lpath}: expected [i, weight]")
        links.append((_integer(entry[0], f"{lpath}[0]"), _number(entry[1], f"{lpath}[1]")))
    return edges, links


def parse_scenario_dict(data: dict, validate: bool = True) -> Scenario:
    """Build a Scenario from schema-shaped data.

    Structural problems raise ParseError with the offending path; semantic
    rule violations (bad weights, indices, non-positive gains, disconnected
    graphs, ...) raise ValidationFailed naming the broken rule. With
    ``validate=False`` the blocking rule check is skipped, for callers that
    check the scenario themselves: ``validate`` reports every rule, and
    ``run`` leaves it to ``simulate``, after applying its overrides.
    """
    data = _require_mapping(data, "scenario")
    _reject_unknown(data, {"description", "mode", "n_agents", "n_dims", "masses", "topology",
                           "protocol", "initial", "integrator", "tolerances"}, "scenario")
    mode_raw = _get(data, "mode", "scenario")
    if mode_raw not in ("leaderless", "leader"):
        raise ParseError(f"scenario.mode: expected 'leaderless' or 'leader', got {mode_raw!r}")
    mode = Mode(mode_raw)
    n_agents = _integer(_get(data, "n_agents", "scenario"), "scenario.n_agents")
    n_dims = _integer(_get(data, "n_dims", "scenario"), "scenario.n_dims")
    if n_agents < 1:
        raise ValidationFailed(f"n_agents must be >= 1, got {n_agents}")
    if n_dims < 1:
        raise ValidationFailed(f"n_dims must be >= 1, got {n_dims}")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ParseError("scenario.description: expected a string")

    masses_raw = _get(data, "masses", "scenario")
    if not isinstance(masses_raw, list) or len(masses_raw) != n_agents:
        raise ParseError(f"scenario.masses: expected a list of {n_agents} numbers")
    masses = tuple(_number(m, f"scenario.masses[{k}]") for k, m in enumerate(masses_raw))

    edges, links = _parse_topology(_get(data, "topology", "scenario"), "scenario.topology")

    proto_raw = _require_mapping(_get(data, "protocol", "scenario"), "scenario.protocol")
    _reject_unknown(proto_raw, {"velocity", "coupling", "gains", "leader_velocity", "leader_gain"},
                    "scenario.protocol")
    gains_raw = _get(proto_raw, "gains", "scenario.protocol")
    if not isinstance(gains_raw, list) or len(gains_raw) != n_agents:
        raise ParseError(f"scenario.protocol.gains: expected a list of {n_agents} gain objects")

    init_raw = _require_mapping(_get(data, "initial", "scenario"), "scenario.initial")
    _reject_unknown(init_raw, {"p", "q", "leader"}, "scenario.initial")

    def agent_block(key: str) -> np.ndarray:
        block = _get(init_raw, key, "scenario.initial")
        if not isinstance(block, list) or len(block) != n_agents:
            raise ParseError(f"scenario.initial.{key}: expected a list of {n_agents} coordinates")
        return np.array([_coordinate(v, n_dims, f"scenario.initial.{key}[{k}]")
                         for k, v in enumerate(block)])

    positions = agent_block("p")
    velocities = agent_block("q")
    leader = None
    if "leader" in init_raw:
        lobj = _require_mapping(init_raw["leader"], "scenario.initial.leader")
        _reject_unknown(lobj, {"p", "q"}, "scenario.initial.leader")
        leader = LeaderState(
            np.array(_coordinate(_get(lobj, "p", "scenario.initial.leader"), n_dims,
                                 "scenario.initial.leader.p")),
            np.array(_coordinate(_get(lobj, "q", "scenario.initial.leader"), n_dims,
                                 "scenario.initial.leader.q")))

    integ_raw = data.get("integrator", {})
    integ_raw = _require_mapping(integ_raw, "scenario.integrator")
    _reject_unknown(integ_raw, {"dt", "t_end", "record_every"}, "scenario.integrator")
    defaults = IntegratorSettings()
    integrator = IntegratorSettings(
        dt=_number(integ_raw.get("dt", defaults.dt), "scenario.integrator.dt"),
        t_end=_number(integ_raw.get("t_end", defaults.t_end), "scenario.integrator.t_end"),
        record_every=_integer(integ_raw.get("record_every", defaults.record_every),
                              "scenario.integrator.record_every"))

    tol_raw = _require_mapping(data.get("tolerances", {}), "scenario.tolerances")
    _reject_unknown(tol_raw, {"position", "velocity"}, "scenario.tolerances")
    pos_tol = _number(tol_raw.get("position", 1e-3), "scenario.tolerances.position")
    vel_tol = _number(tol_raw.get("velocity", 1e-3), "scenario.tolerances.velocity")

    try:
        topology = build_topology(n_agents, edges, links)
        protocol = ProtocolSpec(
            velocity=_parse_velocity(_get(proto_raw, "velocity", "scenario.protocol"),
                                     "scenario.protocol.velocity"),
            coupling=_parse_coupling(_get(proto_raw, "coupling", "scenario.protocol"),
                                     "scenario.protocol.coupling"),
            gains=tuple(_parse_gain(g, f"scenario.protocol.gains[{k}]")
                        for k, g in enumerate(gains_raw)),
            leader_velocity=_parse_velocity(proto_raw["leader_velocity"],
                                            "scenario.protocol.leader_velocity")
            if "leader_velocity" in proto_raw else None,
            leader_gain=_parse_gain(proto_raw["leader_gain"], "scenario.protocol.leader_gain")
            if "leader_gain" in proto_raw else None)
        initial = SystemState(t=0.0, p=positions, q=velocities, leader=leader)
        scenario = Scenario(mode=mode, masses=masses, topology=topology, protocol=protocol,
                            initial=initial, integrator=integrator, pos_tol=pos_tol,
                            vel_tol=vel_tol, description=description)
    except ParseError:
        raise
    except (TopologyError, ValueError) as exc:
        raise ValidationFailed(f"{type(exc).__name__}: {exc}") from exc

    if validate:
        result = validate_scenario(scenario)
        if not result.ok:
            raise ValidationFailed("; ".join(result.errors))
    return scenario


def parse_scenario(path, validate: bool = True) -> Scenario:
    """Parse a scenario file. See :func:`parse_scenario_dict` for errors."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario_dict(data, validate=validate)


def _coordinate_out(row: np.ndarray, n_dims: int):
    return float(row[0]) if n_dims == 1 else [float(v) for v in row]


def _velocity_out(shape: VelocityShape) -> dict:
    if shape.kind.value == "linear":
        return {"kind": "linear"}
    return {"kind": "sine_perturbed", "omega": shape.omega}


def _gain_out(gain: GainProfile) -> dict:
    if gain.kind.value == "constant":
        return {"kind": "constant", "b0": gain.b0}
    return {"kind": "cosine", "b0": gain.b0, "amplitude": gain.amplitude}


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize back to the file schema (1-based indices); parsing the
    result reproduces the scenario."""
    n_dims = scenario.n_dims
    topo = scenario.topology
    out: dict = {}
    if scenario.description:
        out["description"] = scenario.description
    out["mode"] = scenario.mode.value
    out["n_agents"] = scenario.n_agents
    out["n_dims"] = n_dims
    out["masses"] = [float(m) for m in scenario.masses]
    topology: dict = {"edges": [[i + 1, j + 1, float(w)] for i, j, w in topo.edges]}
    if topo.leader_links:
        topology["leader_links"] = [[i + 1, float(w)] for i, w in topo.leader_links]
    out["topology"] = topology
    spec = scenario.protocol
    protocol = {
        "velocity": _velocity_out(spec.velocity),
        "coupling": {"kind": spec.coupling.kind.value},
        "gains": [_gain_out(g) for g in spec.gains],
    }
    if spec.leader_velocity is not None:
        protocol["leader_velocity"] = _velocity_out(spec.leader_velocity)
        protocol["leader_gain"] = _gain_out(spec.leader_gain)
    out["protocol"] = protocol
    initial = {
        "p": [_coordinate_out(row, n_dims) for row in scenario.initial.p],
        "q": [_coordinate_out(row, n_dims) for row in scenario.initial.q],
    }
    if scenario.initial.leader is not None:
        initial["leader"] = {
            "p": _coordinate_out(scenario.initial.leader.p, n_dims),
            "q": _coordinate_out(scenario.initial.leader.q, n_dims),
        }
    out["initial"] = initial
    iset = scenario.integrator
    out["integrator"] = {"dt": iset.dt, "t_end": iset.t_end, "record_every": iset.record_every}
    out["tolerances"] = {"position": scenario.pos_tol, "velocity": scenario.vel_tol}
    return out


def write_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario ('fig2a', 'fig2b', 'fig3a',
    'fig3b'); raises ParseError for unknown names."""
    candidate = resources.files(__package__) / "scenarios" / f"{name}.json"
    with resources.as_file(candidate) as concrete:
        if not concrete.is_file():
            raise ParseError(f"no bundled scenario named {name!r}; have {list_bundled()}")
        return Path(concrete)


def list_bundled() -> list[str]:
    folder = resources.files(__package__) / "scenarios"
    return sorted(entry.name[:-5] for entry in folder.iterdir() if entry.name.endswith(".json"))
