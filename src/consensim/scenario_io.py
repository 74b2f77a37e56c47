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
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from ._real import shown
from .dynamics import (IntegratorSettings, LeaderState, Mode, Scenario, SystemState,
                       validate_scenario)
from .errors import ParseError, TopologyError, ValidationFailed
from .graph import Topology, build_topology
from .protocols import CouplingShape, GainColumns, GainProfile, ProtocolSpec, VelocityShape

_VELOCITY_KEYS = {"linear": {"kind"}, "sine_perturbed": {"kind", "omega"}}
_GAIN_KEYS = {"constant": {"kind", "b0"}, "cosine": {"kind", "b0", "amplitude"}}


def _at(where) -> str:
    # Error paths are formatted only when an error is raised. ``where`` is a
    # path string, or a (parent, key) pair below one: ``[key]`` for an int
    # key, ``.key`` for a str one.
    if isinstance(where, str):
        return where
    parent, key = where
    return _at(parent) + (f"[{key}]" if isinstance(key, int) else f".{key}")


def _require_mapping(obj, where) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{_at(where)}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set, where) -> None:
    unknown = set(obj) - allowed
    if unknown:
        keys = ", ".join(sorted(map(shown, unknown)))
        raise ParseError(f"{_at(where)}: unknown key(s) [{keys}]")


def _get(obj: dict, key: str, where):
    if key not in obj:
        raise ParseError(f"{_at(where)}: missing required key '{key}'")
    return obj[key]


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{_at(where)}: expected a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{_at(where)}: integer too large for a float") from None


def _integer(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{_at(where)}: expected an integer, got {shown(value)}")
    # Every integer of the schema is a count or an index, which no list or
    # array can take past sys.maxsize; one of more than 4300 digits would
    # not even format into a later error message.
    if not -sys.maxsize <= value <= sys.maxsize:
        raise ParseError(f"{_at(where)}: integer out of range")
    return value


def _coordinate(value, n_dims: int, where) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if n_dims != 1:
            raise ParseError(f"{_at(where)}: scalar coordinate but n_dims={n_dims}")
        return [_number(value, where)]
    if isinstance(value, list):
        if len(value) != n_dims:
            raise ParseError(f"{_at(where)}: expected {n_dims} components, got {len(value)}")
        return [_number(v, (where, k)) for k, v in enumerate(value)]
    raise ParseError(f"{_at(where)}: expected a number or a list of numbers")


# The types json.loads gives numbers; other number types take the
# element-by-element path, which converts them the same way.
_PLAIN_NUMBERS = frozenset((int, float))


def _numbers(values: list, where) -> list[float]:
    """Every element of ``values`` as a float. One type pass and a bulk
    conversion; when that fails, element by element, so the first bad
    element raises with its own path."""
    if _PLAIN_NUMBERS.issuperset(map(type, values)):
        try:
            return list(map(float, values))
        except OverflowError:
            pass
    return [_number(v, (where, k)) for k, v in enumerate(values)]


def _coordinates(block: list, n_dims: int, where) -> np.ndarray:
    """The (len(block), n_dims) array of a list of coordinates; in bulk
    when they are all plain numbers (n_dims=1), otherwise coordinate by
    coordinate."""
    if n_dims == 1 and _PLAIN_NUMBERS.issuperset(map(type, block)):
        try:
            return np.array(list(map(float, block)))[:, None]
        except OverflowError:
            pass
    return np.array([_coordinate(v, n_dims, (where, k)) for k, v in enumerate(block)])


def _list(value, where) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{_at(where)}: expected a list")
    return value


def _kind(obj: dict, kinds, what: str, where) -> str:
    kind = _get(obj, "kind", where)
    if not isinstance(kind, str) or kind not in kinds:
        raise ParseError(f"{_at(where)}.kind: unknown {what} kind {shown(kind)}")
    return kind


def _parse_velocity(obj, path: str) -> VelocityShape:
    obj = _require_mapping(obj, path)
    kind = _kind(obj, _VELOCITY_KEYS, "velocity", path)
    _reject_unknown(obj, _VELOCITY_KEYS[kind], path)
    if kind == "linear":
        return VelocityShape("linear")
    return VelocityShape("sine_perturbed", _number(_get(obj, "omega", path), (path, "omega")))


def _parse_coupling(obj, path: str) -> CouplingShape:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"kind"}, path)
    return CouplingShape(_kind(obj, ("linear", "linear_plus_cubic"), "coupling", path))


def _parse_gain(obj, where) -> GainProfile:
    obj = _require_mapping(obj, where)
    kind = _kind(obj, _GAIN_KEYS, "gain", where)
    _reject_unknown(obj, _GAIN_KEYS[kind], where)
    b0 = _number(_get(obj, "b0", where), (where, "b0"))
    if kind == "constant":
        return GainProfile("constant", b0)
    return GainProfile("cosine", b0,
                       _number(_get(obj, "amplitude", where), (where, "amplitude")))


def _parse_gains(raw: list, where) -> GainColumns | tuple[GainProfile, ...]:
    """The gains of a list of gain objects: straight into their columns when
    every entry is an object with exactly its kind's keys and plain numbers;
    otherwise gain by gain, so the first bad entry raises as it always has."""
    try:
        if {dict}.issuperset(map(type, raw)) and all(g.keys() == _GAIN_KEYS[g["kind"]]
                                                     for g in raw):
            b0, amplitude = [g["b0"] for g in raw], [g.get("amplitude", 0.0) for g in raw]
            if _PLAIN_NUMBERS.issuperset(map(type, b0 + amplitude)):
                return GainColumns([g["kind"] == "cosine" for g in raw], b0, amplitude)
    except (TypeError, KeyError, OverflowError):  # a missing or unhashable kind, a huge integer
        pass
    return tuple(_parse_gain(g, (where, k)) for k, g in enumerate(raw))


def _parse_topology(obj, path: str, n_agents: int) -> Topology:
    """The topology of a topology object. Its entries are checked by
    ``build_topology`` alone; only when it refuses one are they walked, edges
    then leader links in file order, so that an entry of the wrong structure
    is named by its path before a broken rule is."""
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"edges", "leader_links"}, path)
    edges = _list(_get(obj, "edges", path), (path, "edges"))
    links = _list(obj.get("leader_links", []), (path, "leader_links"))
    try:
        return build_topology(n_agents, edges, links)
    except TopologyError as exc:
        for k, entry in enumerate(edges):
            _check_entry(entry, ((path, "edges"), k), ("i", "j", "weight"))
        for k, entry in enumerate(links):
            _check_entry(entry, ((path, "leader_links"), k), ("i", "weight"))
        raise ValidationFailed(f"{type(exc).__name__}: {exc}") from exc


def _check_entry(entry, where, names: tuple[str, ...]) -> None:
    """Raise the ParseError of an entry that is not a list of one value per
    name, agent indices first and a number last."""
    if not isinstance(entry, list) or len(entry) != len(names):
        raise ParseError(f"{_at(where)}: expected [{', '.join(names)}]")
    for k, i in enumerate(entry[:-1]):
        _integer(i, (where, k))
    _number(entry[-1], (where, len(names) - 1))


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
        raise ParseError(
            f"scenario.mode: expected 'leaderless' or 'leader', got {shown(mode_raw)}")
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
    masses = _numbers(masses_raw, "scenario.masses")

    topology = _parse_topology(_get(data, "topology", "scenario"), "scenario.topology", n_agents)

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
        return _coordinates(block, n_dims, ("scenario.initial", key))

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
        protocol = ProtocolSpec(
            velocity=_parse_velocity(_get(proto_raw, "velocity", "scenario.protocol"),
                                     "scenario.protocol.velocity"),
            coupling=_parse_coupling(_get(proto_raw, "coupling", "scenario.protocol"),
                                     "scenario.protocol.coupling"),
            gains=_parse_gains(gains_raw, "scenario.protocol.gains"),
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
    except ValueError as exc:
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
        # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding.
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or arrays and
        # objects nested past the recursion limit.
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario_dict(data, validate=validate)


def _coordinate_out(row: np.ndarray, n_dims: int):
    return float(row[0]) if n_dims == 1 else [float(v) for v in row]


def _velocity_out(shape: VelocityShape) -> dict:
    if shape.kind.value == "linear":
        return {"kind": "linear"}
    return {"kind": "sine_perturbed", "omega": shape.omega}


def _gain_out(cosine: bool, b0: float, amplitude: float) -> dict:
    if cosine:
        return {"kind": "cosine", "b0": b0, "amplitude": amplitude}
    return {"kind": "constant", "b0": b0}


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
    out["masses"] = list(scenario.masses)
    topology: dict = {"edges": [[i + 1, j + 1, w] for i, j, w in topo.edges]}
    if topo.leader_links:
        topology["leader_links"] = [[i + 1, w] for i, w in topo.leader_links]
    out["topology"] = topology
    spec, gains, lead = scenario.protocol, scenario.protocol.gains, scenario.protocol.leader_gain
    protocol = {
        "velocity": _velocity_out(spec.velocity),
        "coupling": {"kind": spec.coupling.kind.value},
        "gains": list(map(_gain_out, gains.cosine.tolist(), gains.b0.tolist(),
                          gains.amplitude.tolist())),
    }
    if spec.leader_velocity is not None:
        protocol["leader_velocity"] = _velocity_out(spec.leader_velocity)
        protocol["leader_gain"] = _gain_out(lead.kind.value == "cosine", lead.b0, lead.amplitude)
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
