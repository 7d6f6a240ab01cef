"""Device models: grounded 6-DOF force-feedback arm and hand exoskeleton glove.

The arm runs an admittance loop (position/speed targets at 1 kHz); the glove
runs local contact-drum loops parameterised by normalized stop rotations and
spring constants. Both are modeled at the API level, not the motor level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .frames import (RigidTransform, _qrotate, euler_xyz_from_quat, quat_from_euler_xyz,
                     slerp)
from .geometry import DT, Box, Vec3

# Scheduler rate contract: the coordinator ticks at ``geometry.TICK_RATE_HZ``;
# the glove must not be commanded faster than 30 Hz while the arm must be
# re-targeted at least that often.
DEVICE_PERIOD_LIMIT_S = 1.0 / 30.0
GLOVE_PERIOD_TICKS = 34  # 34 ms >= 33.3 ms minimum spacing
# The arm's tracking loop: hardware cap on the effector's speed, m/s, its
# first-order time constant, s, and the bound on its angular speed, rad/s.
MAX_SPEED = 1.5
TRACK_TAU_S = 0.010
ANGULAR_SPEED_BOUND = 3.0

FINGER_NAMES = ("thumb", "index", "middle", "ring", "pinky")
NUM_FINGERS = 5
# Hand collider names per finger, proximal to distal.
PHALANGE_NAMES = tuple(tuple(f"{name}_{j}" for j in range(3)) for name in FINGER_NAMES)


@dataclass(frozen=True, slots=True)
class ArmSpec:
    """Static description of a grounded arm: reach, limits and control gains."""

    name: str
    workspace_extents: Vec3          # m, axis-aligned box in the base frame
    rot_range_deg: Vec3              # total angular range about each base axis
    max_force: Vec3                  # N per axis
    max_torque: Vec3                 # Nm per axis
    stiffness: float                 # N/m of the admittance control loop
    base_pose: RigidTransform = RigidTransform.identity()
    workspace_center: Vec3 = (0.0, 0.0, 0.0)  # box center, base frame
    _box: Box = field(init=False, repr=False, compare=False)
    _half_range: Vec3 = field(init=False, repr=False, compare=False)
    base_inv: RigidTransform = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for label, vals in (("workspace_extents", self.workspace_extents),
                            ("rot_range_deg", self.rot_range_deg),
                            ("max_force", self.max_force),
                            ("max_torque", self.max_torque)):
            if any(not v > 0.0 for v in vals):
                raise ValueError(f"{self.name}: {label} must be strictly positive")
        if not self.stiffness > 0.0:
            raise ValueError(f"{self.name}: stiffness must be positive")
        # Built once: arm_step reads them on every control tick.
        object.__setattr__(self, "_box",
                           Box.from_extents(self.workspace_center, self.workspace_extents))
        object.__setattr__(self, "_half_range",
                           tuple(math.radians(r) * 0.5 for r in self.rot_range_deg))
        object.__setattr__(self, "base_inv", self.base_pose.inverse())

    def workspace_box_base(self) -> Box:
        return self._box

    def workspace_box_world(self) -> Box:
        """World-frame workspace box; requires a translation-only base pose."""
        if self.base_pose.rotation_angle() > 1e-9:
            raise ValueError(f"{self.name}: world workspace box needs an axis-aligned base")
        return self.workspace_box_base().translate(self.base_pose.translation)


@dataclass(frozen=True, slots=True)
class GloveSpec:
    """Hand exoskeleton capabilities: one actuated DOF per finger, each with
    the same torque limit."""

    name: str = "glove"
    max_joint_torque: float = 0.5    # Nm per actuated DOF

    def __post_init__(self):
        if self.max_joint_torque <= 0.0:
            raise ValueError("glove torque limit must be positive")


# Catalog rows for the two devices the default scenarios are built from.
VIRTUOSE_6D = ArmSpec(
    name="virtuose_6d",
    workspace_extents=(1.330, 0.575, 1.020),
    rot_range_deg=(330.0, 130.0, 270.0),
    max_force=(9.5, 9.5, 9.5),
    max_torque=(1.0, 1.0, 1.0),
    stiffness=1000.0,
)

DEXMO_GLOVE = GloveSpec(name="dexmo")

ARM_CATALOG = {"virtuose_6d": VIRTUOSE_6D}
GLOVE_CATALOG = {"dexmo": DEXMO_GLOVE}


@dataclass(frozen=True, slots=True)
class HandModelParams:
    """Forward-model constants mapping normalized flex to joint angles.

    The distal and middle joints follow the knuckle joint by fixed linear
    ratios; the ratios are calibration constants pinned by tests.
    """

    mcp_min_deg: float = 0.0
    mcp_max_deg: float = 75.0
    pip_ratio: float = 0.85
    dip_ratio: float = 0.55
    abd_min_deg: float = -12.0
    abd_max_deg: float = 12.0

    def joint_angles(self, flex: float) -> tuple[float, float, float]:
        mcp = math.radians(self.mcp_min_deg + (self.mcp_max_deg - self.mcp_min_deg) * flex)
        return (mcp, self.pip_ratio * mcp, self.dip_ratio * mcp)

    def abduction_angle(self, abd: float) -> float:
        return math.radians(self.abd_min_deg + (self.abd_max_deg - self.abd_min_deg) * abd)


DEFAULT_HAND_PARAMS = HandModelParams()


@dataclass(frozen=True, slots=True)
class HandCalibration:
    """Per-user sensor extremes recorded during the power-grasp calibration."""

    flex_min: tuple[float, ...] = (0.0,) * NUM_FINGERS
    flex_max: tuple[float, ...] = (1.0,) * NUM_FINGERS
    abd_min: tuple[float, ...] = (0.0,) * NUM_FINGERS
    abd_max: tuple[float, ...] = (1.0,) * NUM_FINGERS

    def __post_init__(self):
        for lo, hi in zip(self.flex_min + self.abd_min, self.flex_max + self.abd_max):
            if not lo < hi:
                raise ValueError("calibration minimum must be below maximum for every DOF")

    def normalize(self, raw: float, lo: float, hi: float) -> tuple[float, bool]:
        x = (raw - lo) / (hi - lo)
        if x < 0.0:
            return 0.0, True
        if x > 1.0:
            return 1.0, True
        return x, False


@dataclass(frozen=True, slots=True)
class HandState:
    """Normalized finger parameters of the hand; the tracked wrist pose is
    the coordinator's, passed to the readers that place the hand."""

    flex: tuple[float, ...]
    abduction: tuple[float, ...]
    resist_torques: tuple[float, ...] = (0.0,) * NUM_FINGERS
    clamp_flags: tuple[bool, ...] = (False,) * (2 * NUM_FINGERS)
    # (calibration, sensed) objects of a ``hand_forward_model`` result.
    source: tuple = field(default=(None, None), repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class GloveCommand:
    """Contact-drum parameters: normalized stop rotation + spring per finger."""

    stop_angle: tuple[float, ...] = (1.0,) * NUM_FINGERS
    spring_constant: tuple[float, ...] = (0.0,) * NUM_FINGERS

    def __post_init__(self):
        if any(not 0.0 <= s <= 1.0 for s in self.stop_angle):
            raise ValueError("stop_angle components must lie in [0, 1]")
        if any(k < 0.0 for k in self.spring_constant):
            raise ValueError("spring constants must be nonnegative")


@dataclass(frozen=True, slots=True)
class ArmCommand:
    """Admittance target for the effector pivot, expressed in the base frame."""

    target: RigidTransform
    speed_limit: float               # m/s

    def __post_init__(self):
        if self.speed_limit <= 0.0:
            raise ValueError("command speed limit must be positive")


@dataclass(frozen=True, slots=True)
class ArmState:
    """Effector pose (world frame) plus bookkeeping from the last step."""

    pose: RigidTransform
    clamped: bool = False

    # Stored like ``RigidTransform``'s fields.
    def __init__(self, pose: RigidTransform, clamped: bool = False):
        _SET_POSE(self, pose)
        _SET_CLAMPED(self, clamped)


_SET_POSE = ArmState.pose.__set__
_SET_CLAMPED = ArmState.clamped.__set__


def hand_forward_model(sensed, calibration: HandCalibration,
                       last: HandState | None) -> HandState:
    """Map the raw sensor vector to the normalized finger parameters.

    Sensor layout is five flex channels, five spread channels and one spare
    wrist channel that the simplified model ignores. Values outside the
    calibrated range are clamped and flagged.

    The model is pure, so ``last``, an earlier result or None, is returned
    when it came from this ``calibration`` object and this ``sensed``
    object, so a caller hands in a new ``sensed`` whenever a value changes.
    One that hands back its last result and builds a new tuple only when
    the fingers move tells still fingers by identity.
    """
    if len(sensed) != 11:
        raise ValueError(f"expected 11 sensed values, got {len(sensed)}")
    if last is not None and last.source[0] is calibration and last.source[1] is sensed:
        return last
    lo = calibration.flex_min + calibration.abd_min
    hi = calibration.flex_max + calibration.abd_max
    out = [calibration.normalize(float(sensed[i]), lo[i], hi[i])
           for i in range(2 * NUM_FINGERS)]
    values = tuple(v for v, _ in out)
    return HandState(flex=values[:NUM_FINGERS], abduction=values[NUM_FINGERS:],
                     clamp_flags=tuple(c for _, c in out), source=(calibration, sensed))


def glove_apply(cmd: GloveCommand, hand: HandState,
                spec: GloveSpec = DEXMO_GLOVE) -> HandState:
    """Apply contact-drum stops: flex never exceeds the stop rotation.

    When the user pushes past a stop the glove resists with torque
    ``spring * (intended - stop)``, clamped to the per-DOF torque limit.
    """
    new_flex, torques = [], []
    for f, stop, spring in zip(hand.flex, cmd.stop_angle, cmd.spring_constant):
        clamped = min(f, stop)
        new_flex.append(clamped)
        excess = f - stop
        torque = spring * excess if excess > 0.0 else 0.0
        torques.append(min(torque, spec.max_joint_torque))
    return HandState(flex=tuple(new_flex), abduction=hand.abduction,
                     resist_torques=tuple(torques), clamp_flags=hand.clamp_flags)


def arm_step(spec: ArmSpec, state: ArmState, cmd: ArmCommand) -> ArmState:
    """Advance the effector one control tick (``DT``) toward the commanded target.

    The inner loop is a first-order tracker with a hard speed clamp: error
    decays monotonically and the effector arrives exactly once the remaining
    distance fits in one tick. Targets outside the workspace are projected
    onto the box and the clamp is reported on the returned state.
    """
    box = spec.workspace_box_base()
    target_pos = cmd.target.translation
    clamped_pos = box.clamp_point(target_pos)
    clamped = clamped_pos != tuple(target_pos)

    half_range = spec._half_range
    rx, ry, rz = euler_xyz_from_quat(cmd.target.rotation)
    crx = max(-half_range[0], min(half_range[0], rx))
    cry = max(-half_range[1], min(half_range[1], ry))
    crz = max(-half_range[2], min(half_range[2], rz))
    if (crx, cry, crz) != (rx, ry, rz):
        clamped = True
    target_rot = quat_from_euler_xyz(crx, cry, crz)

    target_world = spec.base_pose.compose(RigidTransform(target_rot, clamped_pos))

    cur = state.pose
    dx = tuple(t - c for t, c in zip(target_world.translation, cur.translation))
    dist = math.sqrt(dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2)
    speed = min(cmd.speed_limit, MAX_SPEED, dist / TRACK_TAU_S)
    step = speed * DT
    if step >= dist or dist < 1e-15:
        new_pos = target_world.translation
    else:
        s = step / dist
        new_pos = tuple(c + s * d for c, d in zip(cur.translation, dx))

    angle = cur.rotation_angle_to(target_world)
    if angle < 1e-12:
        new_rot = target_world.rotation
    else:
        omega = min(ANGULAR_SPEED_BOUND, angle / TRACK_TAU_S)
        frac = min(1.0, omega * DT / angle)
        new_rot = slerp(cur.rotation, target_world.rotation, frac)

    # Safety net: the effector itself must never leave the reachable box.
    local = spec.base_inv.compose(RigidTransform(new_rot, new_pos))
    safe_local_pos = box.clamp_point(local.translation)
    pose = spec.base_pose.compose(RigidTransform(local.rotation, safe_local_pos))
    return ArmState(pose=pose, clamped=clamped)


def impedance_displacement(force_cmd, stiffness: float) -> Vec3:
    """Spring-law offset that makes the admittance loop render ``force_cmd``.

    A stiffness that is not positive, a force that is not finite, or a
    displacement that overflows raises ``ValueError`` naming the argument."""
    if not stiffness > 0.0:
        raise ValueError("stiffness must be strictly positive")
    fx, fy, fz = force_cmd
    out = (float(fx) / stiffness, float(fy) / stiffness, float(fz) / stiffness)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"force_cmd / stiffness must be finite, got {force_cmd!r} / "
                         f"{stiffness!r}")
    return out


@dataclass(frozen=True, slots=True)
class HandGeometry:
    """Collider layout of the simplified hand: one palm sphere plus five
    three-phalange finger chains.

    The thumb chain opposes the finger chains (it curls the other way from a
    mirrored base), which is what lets the model pinch. Distances are meters
    in the wrist frame: +X distal, +Y toward the finger side, +Z lateral.
    """

    palm_center: Vec3 = (0.05, 0.0, 0.0)
    palm_radius: float = 0.05
    finger_base_x: float = 0.09
    finger_base_y: float = 0.030
    finger_z: tuple[float, ...] = (0.027, 0.027, 0.009, -0.009, -0.027)
    curl_sign: tuple[float, ...] = (1.0, -1.0, -1.0, -1.0, -1.0)
    phalange_lengths: tuple[float, ...] = (0.042, 0.026, 0.020)
    phalange_radius: float = 0.009

    def finger_base(self, finger: int) -> Vec3:
        y = self.finger_base_y if self.curl_sign[finger] < 0.0 else -self.finger_base_y
        return (self.finger_base_x, y, self.finger_z[finger])


DEFAULT_HAND_GEOMETRY = HandGeometry()


def _finger_offsets(rotation, finger: int, joint_angles: tuple[float, float, float],
                    abd_angle: float) -> list[Vec3]:
    """The default hand's wrist-frame chain, rotated by ``rotation``: each
    phalange center's offset from the wrist, ``joint_angles`` being (mcp, pip,
    dip) in radians.

    Each offset is ``_qrotate(rotation, chain point)`` written out: the same
    expressions in the same order, so the same bits, without a call and a
    tuple per sphere.
    """
    geom = DEFAULT_HAND_GEOMETRY
    mcp, pip, dip = joint_angles
    l0, l1, l2 = geom.phalange_lengths
    ca, sa = math.cos(abd_angle), math.sin(abd_angle)
    curl = geom.curl_sign[finger]
    px, py, pz = geom.finger_base(finger)
    w, x, y, z = rotation
    offsets = []
    for length, theta in ((l0, mcp), (l1, mcp + pip), (l2, mcp + pip + dip)):
        dx = math.cos(theta)
        dy = curl * math.sin(theta)
        px += length * (dx * ca)
        py += length * dy
        pz += length * (-dx * sa)
        tx = 2.0 * (y * pz - z * py)
        ty = 2.0 * (z * px - x * pz)
        tz = 2.0 * (x * py - y * px)
        offsets.append((px + w * tx + (y * tz - z * ty),
                        py + w * ty + (z * tx - x * tz),
                        pz + w * tz + (x * ty - y * tx)))
    return offsets


def finger_sphere_centers(wrist: RigidTransform, finger: int,
                          joint_angles: tuple[float, float, float],
                          abd_angle: float) -> list[Vec3]:
    """World-space phalange sphere centers of one default-hand finger at the
    wrist pose ``wrist``: each is ``wrist.transform_point`` of its chain
    point, bit for bit."""
    ox, oy, oz = wrist.translation
    return [(ox + a, oy + b, oz + c)
            for a, b, c in _finger_offsets(wrist.rotation, finger, joint_angles, abd_angle)]


def hand_offsets(rotation, hand: HandState) -> tuple[Vec3, ...]:
    """Every default-hand sphere center's offset from the wrist for the wrist
    rotation ``rotation``, palm first, then each finger proximal to distal."""
    geom, params = DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS
    offsets = [_qrotate(rotation, geom.palm_center)]
    for k in range(NUM_FINGERS):
        offsets += _finger_offsets(rotation, k, params.joint_angles(hand.flex[k]),
                                   params.abduction_angle(hand.abduction[k]))
    return tuple(offsets)


# (name, radius) of every hand sphere, in ``hand_offsets`` order.
_HAND_SPHERES = (("palm", DEFAULT_HAND_GEOMETRY.palm_radius),) + tuple(
    (name, DEFAULT_HAND_GEOMETRY.phalange_radius) for names in PHALANGE_NAMES
    for name in names)


def hand_collider_spheres(wrist: RigidTransform,
                          offsets: tuple[Vec3, ...]) -> list[tuple[str, Vec3, float]]:
    """All hand collider spheres (name, world center, radius) of the default
    hand at the wrist pose ``wrist``: ``offsets``, ``hand_offsets`` for the
    wrist's rotation, translated to it."""
    ox, oy, oz = wrist.translation
    return [(name, (ox + a, oy + b, oz + c), radius)
            for (name, radius), (a, b, c) in zip(_HAND_SPHERES, offsets)]
