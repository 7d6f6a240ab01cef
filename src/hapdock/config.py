"""Scenario configuration: schema, validation and YAML loading.

Configs are human-editable YAML with a mandatory ``schema_version``. All
validation failures carry the offending field path so a bad file is easy to
fix from the CLI error alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from operator import itemgetter

import yaml

from .devices import (ARM_CATALOG, GLOVE_CATALOG, GLOVE_PERIOD_TICKS, ArmSpec,
                      DEVICE_PERIOD_LIMIT_S, GloveSpec, HandCalibration,
                      NUM_FINGERS, TICK_RATE_HZ)
from .docking import (DEFAULT_ANG_TOL_RAD, DEFAULT_BREAKING_FORCE_N,
                      DEFAULT_CONTACT_RADIUS_M, DEFAULT_FRICTION_MU,
                      DEFAULT_POS_TOL_M, DockJointKind, JOINT_KIND_CATALOG)
from .frames import RigidTransform, quat_from_euler_xyz

SCHEMA_VERSION = 1


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


def _fields(data, path: str, known: str) -> dict:
    """``data`` as a mapping whose keys are all among the space-separated ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a mapping")
    allowed = known.split()
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}",
                              f"unknown field; known: {', '.join(allowed)}")
    return data


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _number(value, path: str, *, minimum=None, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:               # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if positive and v <= 0.0:
        raise ConfigError(path, "must be strictly positive")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return v


def _integer(value, path: str, *, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {type(value).__name__}")
    return value


def _vec(value, path: str, n: int) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(path, f"expected a sequence of {n} numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "expected a non-empty string")
    return value


def _defaults(cls) -> dict:
    """Field name -> default of a dataclass: the loaders' value for a missing key."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _get(data: dict, key: str, cls):
    """``data[key]``, or the default ``cls`` declares for its field ``key``."""
    return data[key] if key in data else _defaults(cls)[key]


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


@dataclass(frozen=True, slots=True)
class TrajectoryConfig:
    """Scripted hand motion as piecewise-linear waypoint tracks."""

    wrist: tuple[tuple[float, tuple[float, float, float]], ...]
    flex: tuple[tuple[float, tuple[float, ...]], ...]
    abduction: tuple[tuple[float, tuple[float, ...]], ...]
    wrist_rotation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def sample(self, t: float):
        return (sample_track(self.wrist, t),
                sample_track(self.flex, t),
                sample_track(self.abduction, t))


_row_time = itemgetter(0)


def sample_track(track, t: float) -> tuple[float, ...]:
    """Piecewise-linear value of a ``((t, values), ...)`` track, held at its ends."""
    if t <= track[0][0]:
        return track[0][1]
    if t >= track[-1][0]:
        return track[-1][1]
    i = bisect_right(track, t, key=_row_time) - 1
    t0, v0 = track[i]
    t1, v1 = track[i + 1]
    a = (t - t0) / (t1 - t0)
    return tuple(x0 + a * (x1 - x0) for x0, x1 in zip(v0, v1))


@dataclass(frozen=True, slots=True)
class CoordinatorConfig:
    duration_s: float
    glove_period_ticks: int = GLOVE_PERIOD_TICKS
    filter_cutoff_hz: float = 20.0

    @property
    def dt(self) -> float:
        return 1.0 / TICK_RATE_HZ

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
    oracle_noise_floor_n: float = 0.02
    injected_load: tuple[tuple[float, tuple[float, ...]], ...] = ()
    tracking_noise_std_m: float = 0.0

    def sample_injected_load(self, t: float) -> tuple[float, ...]:
        if not self.injected_load:
            return (0.0,) * 6
        return sample_track(self.injected_load, t)


def _arm_from_dict(data, path: str) -> ArmConfig:
    _fields(data, path, "name model base_position workspace_center workspace_extents "
            "rot_range_deg max_force max_torque stiffness park_position pursuit_speed")
    name = _string(_require(data, "name", path), f"{path}.name")
    model = _string(data.get("model", "virtuose_6d"), f"{path}.model")
    if model not in ARM_CATALOG:
        raise ConfigError(f"{path}.model",
                          f"unknown arm model {model!r}; known: {sorted(ARM_CATALOG)}")
    catalog = ARM_CATALOG[model]
    base_position = _vec(_require(data, "base_position", path), f"{path}.base_position", 3)
    workspace_center = _vec(_get(data, "workspace_center", ArmSpec),
                            f"{path}.workspace_center", 3)
    kwargs = dict(
        name=name,
        workspace_extents=_vec(data.get("workspace_extents", catalog.workspace_extents),
                               f"{path}.workspace_extents", 3),
        rot_range_deg=_vec(data.get("rot_range_deg", catalog.rot_range_deg),
                           f"{path}.rot_range_deg", 3),
        max_force=_vec(data.get("max_force", catalog.max_force), f"{path}.max_force", 3),
        max_torque=_vec(data.get("max_torque", catalog.max_torque), f"{path}.max_torque", 3),
        stiffness=_number(data.get("stiffness", catalog.stiffness),
                          f"{path}.stiffness", positive=True),
        base_pose=RigidTransform.from_translation(base_position),
        workspace_center=workspace_center,
    )
    try:
        spec = ArmSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    park = _vec(data.get("park_position", spec.workspace_box_world().center),
                f"{path}.park_position", 3)
    if not spec.workspace_box_world().contains(park):
        raise ConfigError(f"{path}.park_position", "park pose must lie inside the workspace")
    speed = _number(_get(data, "pursuit_speed", ArmConfig), f"{path}.pursuit_speed",
                    positive=True)
    return ArmConfig(name=name, spec=spec, park_position=park, pursuit_speed=speed)


def _glove_from_dict(data, path: str) -> GloveConfig:
    _fields(data, path, "model spring_constant calibration")
    model = _string(data.get("model", "dexmo"), f"{path}.model")
    if model not in GLOVE_CATALOG:
        raise ConfigError(f"{path}.model",
                          f"unknown glove model {model!r}; known: {sorted(GLOVE_CATALOG)}")
    spec = GLOVE_CATALOG[model]
    spring = _number(_get(data, "spring_constant", GloveConfig), f"{path}.spring_constant",
                     minimum=0.0)
    cal = _fields(data.get("calibration", {}), f"{path}.calibration",
                  "flex_min flex_max abd_min abd_max")
    try:
        calibration = HandCalibration(**{
            key: _vec(cal.get(key, default), f"{path}.calibration.{key}", NUM_FINGERS)
            for key, default in _defaults(HandCalibration).items()})
    except ValueError as exc:
        raise ConfigError(f"{path}.calibration", str(exc)) from exc
    return GloveConfig(spec=spec, calibration=calibration, spring_constant=spring)


def _dock_from_dict(data, path: str) -> DockSettings:
    _fields(data, path, "joint_kind breaking_force_n friction_mu contact_radius_m "
            "pos_tol_m ang_tol_deg magnet_latency_s interception_horizon_s "
            "workspace_inflation_m release_slack_m handover_gap_bound_s "
            "reattach_cooldown_s")
    kind_name = _string(data.get("joint_kind", "plate_friction"), f"{path}.joint_kind")
    if kind_name not in JOINT_KIND_CATALOG:
        raise ConfigError(f"{path}.joint_kind",
                          f"unknown joint kind {kind_name!r}; known: {sorted(JOINT_KIND_CATALOG)}")
    defaults = DockSettings(joint_kind=JOINT_KIND_CATALOG[kind_name])
    return DockSettings(
        joint_kind=JOINT_KIND_CATALOG[kind_name],
        breaking_force=_number(data.get("breaking_force_n", defaults.breaking_force),
                               f"{path}.breaking_force_n", positive=True),
        friction_mu=_number(data.get("friction_mu", defaults.friction_mu),
                            f"{path}.friction_mu", minimum=0.0),
        contact_radius=_number(data.get("contact_radius_m", defaults.contact_radius),
                               f"{path}.contact_radius_m", positive=True),
        pos_tol=_number(data.get("pos_tol_m", defaults.pos_tol),
                        f"{path}.pos_tol_m", positive=True),
        ang_tol_rad=math.radians(_number(data.get("ang_tol_deg", math.degrees(defaults.ang_tol_rad)),
                                         f"{path}.ang_tol_deg", positive=True)),
        magnet_latency_s=_number(data.get("magnet_latency_s", defaults.magnet_latency_s),
                                 f"{path}.magnet_latency_s", minimum=0.0),
        interception_horizon_s=_number(
            data.get("interception_horizon_s", defaults.interception_horizon_s),
            f"{path}.interception_horizon_s", minimum=0.0),
        workspace_inflation_m=_number(
            data.get("workspace_inflation_m", defaults.workspace_inflation_m),
            f"{path}.workspace_inflation_m", minimum=0.0),
        release_slack_m=_number(data.get("release_slack_m", defaults.release_slack_m),
                                f"{path}.release_slack_m", positive=True),
        handover_gap_bound_s=_number(
            data.get("handover_gap_bound_s", defaults.handover_gap_bound_s),
            f"{path}.handover_gap_bound_s", positive=True),
        reattach_cooldown_s=_number(
            data.get("reattach_cooldown_s", defaults.reattach_cooldown_s),
            f"{path}.reattach_cooldown_s", minimum=0.0),
    )


def _body_from_dict(data, path: str) -> BodyConfig:
    _fields(data, path, "name kind center half_extents mass velocity collide_with_hand")
    name = _string(_require(data, "name", path), f"{path}.name")
    kind = _string(_require(data, "kind", path), f"{path}.kind")
    if kind not in ("dynamic", "static"):
        raise ConfigError(f"{path}.kind", "must be dynamic or static")
    center = _vec(_require(data, "center", path), f"{path}.center", 3)
    half_extents = _vec(_require(data, "half_extents", path), f"{path}.half_extents", 3)
    if any(h <= 0 for h in half_extents):
        raise ConfigError(f"{path}.half_extents", "must be strictly positive")
    mass = _number(_get(data, "mass", BodyConfig), f"{path}.mass", minimum=0.0)
    if kind == "dynamic" and mass <= 0.0:
        raise ConfigError(f"{path}.mass", "dynamic bodies need a positive mass")
    velocity = _vec(_get(data, "velocity", BodyConfig), f"{path}.velocity", 3)
    collide = _boolean(_get(data, "collide_with_hand", BodyConfig),
                       f"{path}.collide_with_hand")
    return BodyConfig(name=name, kind=kind, center=center, half_extents=half_extents,
                      mass=mass, velocity=velocity, collide_with_hand=collide)


def _scene_from_dict(data, path: str) -> SceneConfig:
    _fields(data, path, "gravity bodies surface_stiffness solver_iterations slop")
    bodies = data.get("bodies", [])
    if not isinstance(bodies, list):
        raise ConfigError(f"{path}.bodies", "expected a list")
    parsed = tuple(_body_from_dict(b, f"{path}.bodies[{i}]") for i, b in enumerate(bodies))
    names = [b.name for b in parsed]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}.bodies", "body names must be unique")
    return SceneConfig(
        gravity=_vec(_get(data, "gravity", SceneConfig), f"{path}.gravity", 3),
        bodies=parsed,
        surface_stiffness=_number(_get(data, "surface_stiffness", SceneConfig),
                                  f"{path}.surface_stiffness", positive=True),
        solver_iterations=_integer(_get(data, "solver_iterations", SceneConfig),
                                   f"{path}.solver_iterations", minimum=1),
        slop=_number(_get(data, "slop", SceneConfig), f"{path}.slop", minimum=0.0),
    )


def _track_from_list(data, path: str, width: int):
    if not isinstance(data, list) or not data:
        raise ConfigError(path, "expected a non-empty list of [t, values...] rows")
    track = []
    last_t = None
    for i, row in enumerate(data):
        if not isinstance(row, (list, tuple)) or len(row) != width + 1:
            raise ConfigError(f"{path}[{i}]", f"expected [t, {width} values]")
        t = _number(row[0], f"{path}[{i}][0]", minimum=0.0)
        if last_t is not None and t <= last_t:
            raise ConfigError(f"{path}[{i}][0]", "timestamps must be strictly increasing")
        last_t = t
        values = tuple(_number(v, f"{path}[{i}][{j + 1}]") for j, v in enumerate(row[1:]))
        track.append((t, values))
    return tuple(track)


def _trajectory_from_dict(data, path: str) -> TrajectoryConfig:
    _fields(data, path, "wrist flex abduction wrist_rotation")
    wrist = _track_from_list(_require(data, "wrist", path), f"{path}.wrist", 3)
    flex = _track_from_list(_require(data, "flex", path), f"{path}.flex", NUM_FINGERS)
    abduction = _track_from_list(data.get("abduction", [[0.0] + [0.5] * NUM_FINGERS]),
                                 f"{path}.abduction", NUM_FINGERS)
    for label, track in (("flex", flex), ("abduction", abduction)):
        for i, (_, values) in enumerate(track):
            if any(not 0.0 <= v <= 1.0 for v in values):
                raise ConfigError(f"{path}.{label}[{i}]",
                                  "normalized values must lie in [0, 1]")
    rotation = _vec(_get(data, "wrist_rotation", TrajectoryConfig),
                    f"{path}.wrist_rotation", 4)
    # Stored as given: ``Coordinator.__init__`` normalizes it once with
    # ``from_quat``, and a normalized copy here could shift the logged bits.
    if math.hypot(*rotation) < 1e-12:
        raise ConfigError(f"{path}.wrist_rotation", "must be a nonzero quaternion")
    return TrajectoryConfig(wrist=wrist, flex=flex, abduction=abduction,
                            wrist_rotation=rotation)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    _fields(data, "$", "schema_version name seed condition coordinator arms glove "
            "dock scene trajectory lift_windows injected_load tracking_noise_std_m "
            "oracle_noise_floor_n")
    version = _require(data, "schema_version", "$")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError("$.schema_version", f"unsupported schema version {version!r}")
    name = _string(_require(data, "name", "$"), "$.name")
    seed = _integer(data.get("seed", 0), "$.seed", minimum=0)
    cond_raw = _string(_require(data, "condition", "$"), "$.condition")
    try:
        condition = Condition(cond_raw)
    except ValueError:
        raise ConfigError("$.condition",
                          f"must be one of {[c.value for c in Condition]}") from None

    coord_raw = _fields(data.get("coordinator", {}), "$.coordinator",
                        "duration_s glove_period_ticks filter_cutoff_hz")
    duration = _number(_require(coord_raw, "duration_s", "$.coordinator"),
                       "$.coordinator.duration_s", positive=True)
    glove_period = _integer(_get(coord_raw, "glove_period_ticks", CoordinatorConfig),
                            "$.coordinator.glove_period_ticks", minimum=1)
    if glove_period / TICK_RATE_HZ < DEVICE_PERIOD_LIMIT_S:
        raise ConfigError("$.coordinator.glove_period_ticks",
                          f"glove commands may not be issued more often than every "
                          f"{DEVICE_PERIOD_LIMIT_S * 1e3:.1f} ms")
    cutoff = _number(_get(coord_raw, "filter_cutoff_hz", CoordinatorConfig),
                     "$.coordinator.filter_cutoff_hz", minimum=0.0)
    coordinator = CoordinatorConfig(duration_s=duration, glove_period_ticks=glove_period,
                                    filter_cutoff_hz=cutoff)

    arms_raw = _require(data, "arms", "$")
    if not isinstance(arms_raw, list) or not arms_raw:
        raise ConfigError("$.arms", "expected a non-empty list")
    arms = tuple(_arm_from_dict(a, f"$.arms[{i}]") for i, a in enumerate(arms_raw))
    if len({a.name for a in arms}) != len(arms):
        raise ConfigError("$.arms", "arm names must be unique")

    glove = _glove_from_dict(data.get("glove", {}), "$.glove")
    dock = _dock_from_dict(data.get("dock", {}), "$.dock")
    scene = _scene_from_dict(data.get("scene", {}), "$.scene")
    trajectory = _trajectory_from_dict(_require(data, "trajectory", "$"), "$.trajectory")

    windows_raw = data.get("lift_windows", {})
    if not isinstance(windows_raw, dict):
        raise ConfigError("$.lift_windows", "expected a mapping of body -> [t0, t1]")
    windows = {}
    body_names = {b.name for b in scene.bodies}
    for key, win in windows_raw.items():
        wpath = f"$.lift_windows.{key}"
        if key not in body_names:
            raise ConfigError(wpath, f"unknown body {key!r}")
        t0, t1 = _vec(win, wpath, 2)
        if not t0 < t1:
            raise ConfigError(wpath, "window must satisfy t0 < t1")
        windows[key] = (t0, t1)

    load_raw = data.get("injected_load", [])
    load = _track_from_list(load_raw, "$.injected_load", 6) if load_raw else ()

    noise = _number(_get(data, "tracking_noise_std_m", ScenarioConfig),
                    "$.tracking_noise_std_m", minimum=0.0)
    floor = _number(_get(data, "oracle_noise_floor_n", ScenarioConfig),
                    "$.oracle_noise_floor_n", minimum=0.0)

    return ScenarioConfig(name=name, seed=seed, condition=condition,
                          coordinator=coordinator, arms=arms, glove=glove,
                          dock=dock, scene=scene, trajectory=trajectory,
                          lift_windows=windows, oracle_noise_floor_n=floor,
                          injected_load=load, tracking_noise_std_m=noise)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError("$", f"invalid YAML: {exc}") from exc
    return scenario_from_dict(data)


def dump_scenario_yaml(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False, default_flow_style=None)
