"""Scenario configuration: schema, validation and YAML loading.

Configs are human-editable YAML with a mandatory ``schema_version``. All
validation failures carry the offending field path so a bad file is easy to
fix from the CLI error alone.

Each YAML section is one ``_Table`` of ``_Row``s: YAML key, kind (a parser),
bound, dataclass field, required or default, and converter. ``_Table.walk``
reads every section: unknown keys first, then the rows in table order, so a
file's first fault is the one reported. A missing key takes the default its
dataclass declares (an arm's ``ArmSpec`` fields: its ``ARM_CATALOG`` model
row); a row states a default, in YAML, only where the dataclass has none.
Rules that span fields sit between the rows, where their inputs are read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import Callable, NamedTuple

import yaml

from .devices import (ARM_CATALOG, GLOVE_CATALOG, GLOVE_PERIOD_TICKS, ArmSpec,
                      DEVICE_PERIOD_LIMIT_S, GloveSpec, HandCalibration,
                      NUM_FINGERS)
from .docking import (DEFAULT_ANG_TOL_RAD, DEFAULT_BREAKING_FORCE_N,
                      DEFAULT_CONTACT_RADIUS_M, DEFAULT_FRICTION_MU,
                      DEFAULT_POS_TOL_M, DockJointKind, JOINT_KIND_CATALOG)
from .frames import RigidTransform, quat_from_euler_xyz
from .geometry import DT, TICK_RATE_HZ, ZERO6, lerp

SCHEMA_VERSION = 1
# Support-force gap, N, below which the weight oracle cannot tell two cans
# apart: the scenario field's, ``weight_oracle``'s and ``--noise-floor``'s default.
ORACLE_NOISE_FLOOR_N = 0.02


class ConfigError(ValueError):
    """Invalid scenario config; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class Condition(Enum):
    FREE = "free"
    DOCKED = "docked"
    FORCE_FEEDBACK = "force_feedback"


@dataclass(frozen=True, slots=True)
class ArmConfig:
    name: str
    spec: ArmSpec
    park_position: tuple[float, float, float]
    pursuit_speed: float = 1.0


@dataclass(frozen=True, slots=True)
class GloveConfig:
    spec: GloveSpec
    calibration: HandCalibration
    spring_constant: float = 1.0


@dataclass(frozen=True, slots=True)
class DockSettings:
    joint_kind: DockJointKind
    breaking_force: float = DEFAULT_BREAKING_FORCE_N
    friction_mu: float = DEFAULT_FRICTION_MU
    contact_radius: float = DEFAULT_CONTACT_RADIUS_M
    pos_tol: float = DEFAULT_POS_TOL_M
    ang_tol_rad: float = DEFAULT_ANG_TOL_RAD
    magnet_latency_s: float = 0.010
    interception_horizon_s: float = 0.200
    workspace_inflation_m: float = 0.100
    release_slack_m: float = 0.0005
    handover_gap_bound_s: float = 0.250
    reattach_cooldown_s: float = 1.0
    # Plate rides the wrist mount; its +Z is the outward (dorsal) normal.
    plate_offset: RigidTransform = field(
        default_factory=lambda: RigidTransform(
            quat_from_euler_xyz(math.radians(-90.0), 0.0, 0.0), (-0.02, 0.025, 0.0)))
    # Magnet dock frame hangs below the effector pivot, pre-rotated to mate.
    tool_offset: RigidTransform = field(
        default_factory=lambda: RigidTransform(
            quat_from_euler_xyz(math.radians(-90.0), 0.0, 0.0), (0.0, -0.05, 0.0)))


@dataclass(frozen=True, slots=True)
class BodyConfig:
    name: str
    kind: str                      # dynamic | static
    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    mass: float = 0.0
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    collide_with_hand: bool = True


@dataclass(frozen=True, slots=True)
class SceneConfig:
    gravity: tuple[float, float, float] = (0.0, -9.81, 0.0)
    bodies: tuple[BodyConfig, ...] = ()
    surface_stiffness: float = 800.0
    solver_iterations: int = 12
    slop: float = 5.0e-4


class Track(tuple):
    """A ``((t, values), ...)`` track with ``t`` strictly increasing, as the
    loader builds it.

    ``times`` is the tuple of its row times, which ``sample_track`` bisects.
    ``held[i]`` is the value inside segment ``i`` when its two rows hold equal
    values, else None. For equal values, zeros of either sign included,
    ``x0 + a * (x1 - x0)`` adds a zero to ``x0`` for every ``a >= 0``, which
    is ``x0 + 0.0``: the bits of ``x0`` except that -0.0 becomes +0.0.
    """

    def __new__(cls, rows):
        track = super().__new__(cls, rows)
        track.times = tuple(t for t, _ in track)
        track.held = tuple(tuple(x0 + 0.0 for x0 in v0) if v0 == v1 else None
                           for (_, v0), (_, v1) in zip(track, track[1:]))
        return track


@dataclass(frozen=True, slots=True)
class TrajectoryConfig:
    """Scripted hand motion as piecewise-linear waypoint tracks."""

    wrist: Track
    flex: Track
    abduction: Track
    wrist_rotation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def sample(self, t: float):
        return (sample_track(self.wrist, t),
                sample_track(self.flex, t),
                sample_track(self.abduction, t))


def sample_track(track: Track, t: float) -> tuple[float, ...]:
    """Piecewise-linear value of ``track`` at ``t``, held at its ends. A time
    inside a held segment returns that segment's one ``held`` tuple."""
    if t <= track[0][0]:
        return track[0][1]
    if t >= track[-1][0]:
        return track[-1][1]
    i = bisect_right(track.times, t) - 1
    held = track.held[i]
    if held is not None:
        return held
    t0, v0 = track[i]
    t1, v1 = track[i + 1]
    a = (t - t0) / (t1 - t0)
    return lerp(v0, v1, a)


@dataclass(frozen=True, slots=True)
class CoordinatorConfig:
    duration_s: float
    glove_period_ticks: int = GLOVE_PERIOD_TICKS
    filter_cutoff_hz: float = 20.0

    # The one tick length; perfbench reads it from the loaded config.
    @property
    def dt(self) -> float:
        return DT

    @property
    def ticks(self) -> int:
        return int(round(self.duration_s * TICK_RATE_HZ))


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str
    seed: int
    condition: Condition
    coordinator: CoordinatorConfig
    arms: tuple[ArmConfig, ...]
    glove: GloveConfig
    dock: DockSettings
    scene: SceneConfig
    trajectory: TrajectoryConfig
    lift_windows: dict = field(default_factory=dict)
    oracle_noise_floor_n: float = ORACLE_NOISE_FLOOR_N
    injected_load: Track | tuple = ()
    tracking_noise_std_m: float = 0.0

    def sample_injected_load(self, t: float) -> tuple[float, ...]:
        if not self.injected_load:
            return ZERO6
        return sample_track(self.injected_load, t)


# -- kinds: parse(value, path) returns the value read or raises ConfigError ----

def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:               # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    return v


def _typed(ok, message: str):
    """A value ``ok`` accepts, as given; ``message`` may name ``{value!r}``, ``{type}``."""
    def parse(value, path: str):
        if not ok(value):
            raise ConfigError(path, message.format(value=value, type=type(value).__name__))
        return value
    return parse


_integer = _typed(lambda v: isinstance(v, int) and not isinstance(v, bool),
                  "expected an integer, got {type}")
_boolean = _typed(lambda v: isinstance(v, bool), "expected true or false, got {type}")
_string = _typed(lambda v: isinstance(v, str) and v != "", "expected a non-empty string")
_schema_version = _typed(lambda v: type(v) is int and v == SCHEMA_VERSION,
                         "unsupported schema version {value!r}")


def _vec(n: int):
    def parse(value, path: str) -> tuple[float, ...]:
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ConfigError(path, f"expected a sequence of {n} numbers")
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    return parse


def _one_of(table: dict, unknown):
    """A key of ``table``, read as its value; other strings fail with ``unknown(name)``."""
    def parse(value, path: str):
        if _string(value, path) not in table:
            raise ConfigError(path, unknown(value))
        return table[value]
    return parse


def _catalog(table: dict, noun: str):
    return _one_of(table, lambda name: f"unknown {noun} {name!r}; known: {sorted(table)}")


def _track(width: int):
    """``[[t, v_1 .. v_width], ...]`` rows with ``t`` strictly increasing."""
    def parse(value, path: str):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty list of [t, values...] rows")
        track = []
        for i, row in enumerate(value):
            if not isinstance(row, (list, tuple)) or len(row) != width + 1:
                raise ConfigError(f"{path}[{i}]", f"expected [t, {width} values]")
            t = _TIME.read(row[0], f"{path}[{i}][0]")
            if track and t <= track[-1][0]:
                raise ConfigError(f"{path}[{i}][0]", "timestamps must be strictly increasing")
            track.append((t, tuple(_number(v, f"{path}[{i}][{j}]")
                                   for j, v in enumerate(row[1:], 1))))
        return Track(track)
    return parse


def _named(section, noun: str, *, empty_ok: bool):
    """A list of ``section`` mappings with unique names."""
    def parse(value, path: str):
        if not isinstance(value, list) or not (value or empty_ok):
            raise ConfigError(path, "expected a list" if empty_ok else "expected a non-empty list")
        parsed = tuple(section(v, f"{path}[{i}]") for i, v in enumerate(value))
        if len({p.name for p in parsed}) != len(parsed):
            raise ConfigError(path, f"{noun} names must be unique")
        return parsed
    return parse


# -- rows and tables -----------------------------------------------------------

_POSITIVE = "> 0"    # any other bound is a minimum in its field's type: "must be >= 1"


class _Row(NamedTuple):
    key: str                            # YAML name
    kind: Callable                      # parse(value, path)
    bound: object = None                # None, _POSITIVE or a minimum
    field: str | None = None            # dataclass field, if it is not ``key``
    required: bool = False
    default: object = MISSING           # YAML, only where the dataclass has none
    convert: Callable | None = None

    def read(self, value, path: str):
        value = self.kind(value, path)
        numbers = value if isinstance(value, tuple) else (value,)
        if self.bound is _POSITIVE and any(x <= 0.0 for x in numbers):
            raise ConfigError(path, "must be strictly positive")
        if self.bound not in (None, _POSITIVE) and any(x < self.bound for x in numbers):
            raise ConfigError(path, f"must be >= {self.bound}")
        return self.convert(value) if self.convert else value


_TIME = _Row("t", _number, 0.0)         # a track row's timestamp


class _Table(NamedTuple):
    """A section: its rows, and the rules between them, read into ``cls``."""

    cls: type
    rows: tuple
    known: tuple = ()                   # unknown-key message order, if not the rows'

    def walk(self, data, path: str) -> dict:
        """``cls``'s fields read from the mapping ``data`` row by row; a rule
        gets the fields read so far and may rewrite them."""
        if not isinstance(data, dict):
            raise ConfigError(path, "expected a mapping")
        known = self.known or [row.key for row in self.rows if isinstance(row, _Row)]
        for key in data:
            if key not in known:
                raise ConfigError(f"{path}.{key}", f"unknown field; known: {', '.join(known)}")
        declared = {f.name: f.default for f in fields(self.cls) if f.default is not MISSING}
        values = {}
        for row in self.rows:
            if not isinstance(row, _Row):
                row(values, path)
                continue
            name, rpath = row.field or row.key, f"{path}.{row.key}"
            if row.key in data or row.default is not MISSING:
                values[name] = row.read(data.get(row.key, row.default), rpath)
            elif row.required:
                raise ConfigError(rpath, "missing required field")
            elif name in declared:
                values[name] = declared[name]
        return values

    def __call__(self, data, path: str):
        # A plain ValueError from ``cls`` or a rule is reported at the section.
        try:
            return self.cls(**self.walk(data, path))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc


# -- rules that span fields ----------------------------------------------------

def _check(key: str, fails, message: str):
    def rule(v: dict, path: str) -> None:
        if fails(v):
            raise ConfigError(f"{path}.{key}", message)
    return rule


def _arm_spec(v: dict, path: str) -> None:
    # Every field read so far but ``spec``, the model's catalog row, overrides
    # that row. The arm parks at the workspace center unless a park is given.
    spec = replace(v.pop("spec"), **v)
    v.clear()
    v.update(name=spec.name, spec=spec, park_position=spec.workspace_box_world().center)


def _normalized(v: dict, path: str) -> None:
    for label in ("flex", "abduction"):
        for i, (_, values) in enumerate(v[label]):
            if any(not 0.0 <= x <= 1.0 for x in values):
                raise ConfigError(f"{path}.{label}[{i}]", "normalized values must lie in [0, 1]")


def _windows_of_bodies(v: dict, path: str) -> None:
    v["lift_windows"] = lift_windows(v["lift_windows"], f"{path}.lift_windows",
                                     bodies={b.name for b in v["scene"].bodies})


# -- the tables ----------------------------------------------------------------

_COORDINATOR = _Table(CoordinatorConfig, (
    _Row("duration_s", _number, _POSITIVE, required=True),
    _check("duration_s", lambda v: round(v["duration_s"] * TICK_RATE_HZ) < 1,
           f"must round to at least one tick of {DT * 1e3:g} ms"),
    _Row("glove_period_ticks", _integer, 1),
    _check("glove_period_ticks",
           lambda v: v["glove_period_ticks"] < DEVICE_PERIOD_LIMIT_S * TICK_RATE_HZ,
           f"glove commands may not be issued more often than every "
           f"{DEVICE_PERIOD_LIMIT_S * 1e3:.1f} ms"),
    _Row("filter_cutoff_hz", _number, 0.0),
))

_ARM = _Table(ArmConfig, (
    _Row("name", _string, required=True),
    _Row("model", _catalog(ARM_CATALOG, "arm model"), field="spec", default="virtuose_6d"),
    _Row("base_position", _vec(3), field="base_pose", required=True,
         convert=RigidTransform.from_translation),
    *(_Row(key, _vec(3)) for key in ("workspace_center", "workspace_extents",
                                     "rot_range_deg", "max_force", "max_torque")),
    _Row("stiffness", _number, _POSITIVE),
    _arm_spec,
    _Row("park_position", _vec(3)),
    _check("park_position",
           lambda v: not v["spec"].workspace_box_world().contains(v["park_position"]),
           "park pose must lie inside the workspace"),
    _Row("pursuit_speed", _number, _POSITIVE),
))

_GLOVE = _Table(GloveConfig, (
    _Row("model", _catalog(GLOVE_CATALOG, "glove model"), field="spec", default="dexmo"),
    _Row("spring_constant", _number, 0.0),
    _Row("calibration", _Table(HandCalibration, tuple(
        _Row(f.name, _vec(NUM_FINGERS)) for f in fields(HandCalibration))), default={}),
))

_DOCK = _Table(DockSettings, (
    _Row("joint_kind", _catalog(JOINT_KIND_CATALOG, "joint kind"), default="plate_friction"),
    _Row("breaking_force_n", _number, _POSITIVE, field="breaking_force"),
    _Row("friction_mu", _number, 0.0),
    _Row("contact_radius_m", _number, _POSITIVE, field="contact_radius"),
    _Row("pos_tol_m", _number, _POSITIVE, field="pos_tol"),
    _Row("ang_tol_deg", _number, _POSITIVE, field="ang_tol_rad", convert=math.radians),
    _Row("magnet_latency_s", _number, 0.0),
    _Row("interception_horizon_s", _number, 0.0),
    _Row("workspace_inflation_m", _number, 0.0),
    _Row("release_slack_m", _number, _POSITIVE),
    _Row("handover_gap_bound_s", _number, _POSITIVE),
    _Row("reattach_cooldown_s", _number, 0.0),
))

_BODY = _Table(BodyConfig, (
    _Row("name", _string, required=True),
    _Row("kind", _one_of({"dynamic": "dynamic", "static": "static"},
                         lambda _: "must be dynamic or static"), required=True),
    _Row("center", _vec(3), required=True),
    _Row("half_extents", _vec(3), _POSITIVE, required=True),
    _Row("mass", _number, 0.0),
    _check("mass", lambda v: v["kind"] == "dynamic" and v["mass"] <= 0.0,
           "dynamic bodies need a positive mass"),
    _Row("velocity", _vec(3)),
    _Row("collide_with_hand", _boolean),
))

# Bodies are read before gravity; an unknown-key message lists the fields' order.
_SCENE = _Table(SceneConfig, (
    _Row("bodies", _named(_BODY, "body", empty_ok=True)),
    _Row("gravity", _vec(3)),
    _Row("surface_stiffness", _number, _POSITIVE),
    _Row("solver_iterations", _integer, 1),
    _Row("slop", _number, 0.0),
), known=tuple(f.name for f in fields(SceneConfig)))

_TRAJECTORY = _Table(TrajectoryConfig, (
    _Row("wrist", _track(3), required=True),
    _Row("flex", _track(NUM_FINGERS), required=True),
    _Row("abduction", _track(NUM_FINGERS), default=[[0.0] + [0.5] * NUM_FINGERS]),
    _normalized,
    # Stored as given: ``Coordinator.__init__`` normalizes it once with
    # ``from_quat``, and a normalized copy here could shift the logged bits.
    _Row("wrist_rotation", _vec(4)),
    _check("wrist_rotation", lambda v: math.hypot(*v["wrist_rotation"]) < 1e-12,
           "must be a nonzero quaternion"),
))

_SCENARIO = _Table(ScenarioConfig, (
    _Row("schema_version", _schema_version, required=True),
    _Row("name", _string, required=True),
    _Row("seed", _integer, 0, default=0),
    _Row("condition", _one_of({c.value: c for c in Condition},
                              lambda _: f"must be one of {[c.value for c in Condition]}"),
         required=True),
    _Row("coordinator", _COORDINATOR, default={}),
    _Row("arms", _named(_ARM, "arm", empty_ok=False), required=True),
    _Row("glove", _GLOVE, default={}),
    _Row("dock", _DOCK, default={}),
    _Row("scene", _SCENE, default={}),
    _Row("trajectory", _TRAJECTORY, required=True),
    _Row("lift_windows", lambda value, path: value, default={}),    # read by the next rule
    _windows_of_bodies,
    _Row("injected_load", lambda value, path: _track(6)(value, path) if value else ()),
    _Row("tracking_noise_std_m", _number, 0.0),
    _Row("oracle_noise_floor_n", _number, 0.0),
))


def lift_windows(data, path: str, *, bodies=None) -> dict:
    """``data`` as ``{name: (t0, t1)}`` with non-empty string names and
    ``t0 < t1``: a scenario's lift windows or ``hapdock oracle``'s windows
    file. With ``bodies``, a name outside them fails before its window."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a mapping of body -> [t0, t1]")
    windows = {}
    for key, value in data.items():
        wpath = f"{path}.{key}"
        if bodies is not None and key not in bodies:
            raise ConfigError(wpath, f"unknown body {key!r}")
        _string(key, wpath)
        t0, t1 = windows[key] = _vec(2)(value, wpath)
        if not t0 < t1:
            raise ConfigError(wpath, "window must satisfy t0 < t1")
    return windows


def scenario_field(key: str, value, path: str):
    """``value`` read as the top-level scenario field ``key``, errors at ``path``."""
    row, = (r for r in _SCENARIO.rows if isinstance(r, _Row) and r.key == key)
    return row.read(value, path)


def number_arg(text: str, path: str) -> float:
    """A command-line number: ``text`` read as a float and checked like a
    scenario number, errors at ``path``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(path, f"expected a number, got {text!r}") from None
    return _number(value, path)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    values = _SCENARIO.walk(data, "$")
    del values["schema_version"]        # checked, not kept
    return ScenarioConfig(**values)


def read_yaml(path):
    """The YAML document in the file ``path``. A file that cannot be read
    or is not UTF-8, and invalid YAML, fail at ``$``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("$", f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("$", f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("$", f"invalid YAML: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    return scenario_from_dict(read_yaml(path))


def dump_scenario_yaml(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False, default_flow_style=None)
