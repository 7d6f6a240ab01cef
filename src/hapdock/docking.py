"""Temporary kinematic joints between devices: joint taxonomy, magnetic
attach/release behaviour, the interception controller and the dock lifecycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .devices import ArmCommand
from .frames import RigidTransform, correction_chain
from .geometry import ZERO6, Vec3

DOF_LABELS = ("tx", "ty", "tz", "rx", "ry", "rz")

# Defaults for the magnet-on-plate dock: 12 V electromagnet, 5 kg peak hold,
# 25 mm face diameter, steel plate.
DEFAULT_BREAKING_FORCE_N = 5.0 * 9.81
DEFAULT_CONTACT_RADIUS_M = 0.0125
DEFAULT_FRICTION_MU = 0.4
DEFAULT_POS_TOL_M = 0.005
DEFAULT_ANG_TOL_RAD = math.radians(5.0)


@dataclass(frozen=True, slots=True)
class DockJointKind:
    """How a dock constrains relative motion.

    Each kind fixes a 6-bit constrained-DOF mask (tx ty tz rx ry rz in the
    plate frame, +Z along the plate normal). ``friction_limited`` DOFs carry
    load only up to the friction capacity of the magnet preload and slip
    beyond it; ``free`` DOFs transmit nothing.
    """

    name: str
    constrained: frozenset
    friction_limited: frozenset = frozenset()
    free: frozenset = field(init=False, repr=False, compare=False)
    # Indices into DOF_LABELS: the free DOFs, the friction-limited ones of
    # tx and ty, and whether rz is friction-limited.
    free_axes: tuple = field(init=False, repr=False, compare=False)
    tangential_axes: tuple = field(init=False, repr=False, compare=False)
    rz_limited: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = (self.constrained | self.friction_limited) - set(DOF_LABELS)
        if bad:
            raise ValueError(f"unknown DOF labels: {sorted(bad)}")
        if self.constrained & self.friction_limited:
            raise ValueError("a DOF cannot be both constrained and friction-limited")
        # Built once: joint_transmit reads them on every docked tick.
        free = frozenset(DOF_LABELS) - self.constrained - self.friction_limited
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "free_axes",
                           tuple(i for i, l in enumerate(DOF_LABELS) if l in free))
        object.__setattr__(self, "tangential_axes",
                           tuple(i for i in (0, 1) if DOF_LABELS[i] in self.friction_limited))
        object.__setattr__(self, "rz_limited", "rz" in self.friction_limited)

    def degraded_dofs(self) -> tuple[str, ...]:
        """DOFs the hybrid device cannot rely on through this joint."""
        return tuple(l for l in DOF_LABELS if l in (self.free | self.friction_limited))


# Magnet slips and turns on the plate under low preload.
PLATE_SLIP = DockJointKind("plate_slip",
                           constrained=frozenset({"tz", "rx", "ry"}),
                           friction_limited=frozenset({"tx", "ty", "rz"}))
# Stronger preload: no in-plane slip, rotation about the normal still resisted
# only by friction.
PLATE_FRICTION = DockJointKind("plate_friction",
                               constrained=frozenset({"tx", "ty", "tz", "rx", "ry"}),
                               friction_limited=frozenset({"rz"}))
# Magnet seats in a holder: precise axis, turns freely about the normal.
PINNED_ROTARY = DockJointKind("pinned_rotary",
                              constrained=frozenset({"tx", "ty", "tz", "rx", "ry"}))
# Teeth on holder and surface make the pair effectively rigid.
TOOTHED = DockJointKind("toothed", constrained=frozenset(DOF_LABELS))
# Plate rides a slider: one in-plane translation stays free.
PRISMATIC = DockJointKind("prismatic",
                          constrained=frozenset({"ty", "tz", "rx", "ry", "rz"}))


JOINT_KIND_CATALOG = {k.name: k for k in
                      (PLATE_SLIP, PLATE_FRICTION, PINNED_ROTARY, TOOTHED, PRISMATIC)}


@dataclass(frozen=True, slots=True)
class DockJoint:
    """A formed dock: joint kind plus the measured relative attach transform."""

    kind: DockJointKind
    breaking_force: float = DEFAULT_BREAKING_FORCE_N
    friction_mu: float = DEFAULT_FRICTION_MU
    contact_radius: float = DEFAULT_CONTACT_RADIUS_M
    attach_pose: RigidTransform = RigidTransform.identity()  # plate -> magnet

    def __post_init__(self):
        if self.breaking_force <= 0.0:
            raise ValueError("breaking_force must be strictly positive")
        if self.friction_mu < 0.0 or self.contact_radius <= 0.0:
            raise ValueError("friction_mu must be >= 0 and contact_radius > 0")

    @property
    def peel_torque(self) -> float:
        # Lever-arm model: peeling happens about the face edge at half the
        # contact radius under the full holding force.
        return self.breaking_force * self.contact_radius * 0.5


class DockState(Enum):
    FREE = "free"
    INTERCEPTING = "intercepting"
    DOCKED = "docked"
    RELEASING = "releasing"


class IllegalDockTransition(RuntimeError):
    """A dock lifecycle transition outside the legal graph was requested."""


def pursue(effector_pose: RigidTransform, target_pose: RigidTransform,
           max_speed: float, *,
           base_pose: RigidTransform = RigidTransform.identity(),
           tool_offset: RigidTransform = RigidTransform.identity()) -> ArmCommand:
    """Pure-pursuit command: chase the target's current pose directly.

    The command is expressed for the effector pivot in the arm base frame; the
    tool offset is folded in through the frame-correction chain so the *tool*
    face lands on the target. Orientation is commanded to the fixed pose that
    mates the tool with the target, not blended.
    """
    if max_speed <= 0.0:
        raise ValueError("max_speed must be positive")
    effect_fwd = base_pose.inverse().compose(effector_pose)
    tool_w = effector_pose.compose(tool_offset)
    chain = correction_chain(base_pose, effector_pose, tool_w, target_pose, effect_fwd)
    return ArmCommand(target=chain.effect_forward_new, speed_limit=max_speed)


def try_attach(magnet_pose: RigidTransform, plate_pose: RigidTransform,
               pos_tol: float, ang_tol: float, joint: DockJoint) -> DockJoint | None:
    """Form ``joint`` if the energized magnet face is on the plate.

    Docking is opportunistic: the formed joint is a copy of ``joint`` that
    records whatever relative transform the faces actually met at, so the
    kinematic chain stays exact without a pose snap. Returns None when the
    faces are too far apart or misaligned.
    """
    gap = magnet_pose.translation_distance_to(plate_pose)
    if gap > pos_tol:
        return None
    mz = magnet_pose.rotate_vector((0.0, 0.0, 1.0))
    pz = plate_pose.rotate_vector((0.0, 0.0, 1.0))
    dot = max(-1.0, min(1.0, mz[0] * pz[0] + mz[1] * pz[1] + mz[2] * pz[2]))
    if math.acos(dot) > ang_tol:
        return None
    return replace(joint, attach_pose=plate_pose.inverse().compose(magnet_pose))


def joint_transmit(joint: DockJoint, wrench) -> tuple[tuple[float, ...], bool, bool]:
    """Pass a plate-frame wrench (six numbers) through the joint.

    Returns (transmitted, slip, released), ``transmitted`` a 6-tuple of
    floats. Free DOFs transmit zero; friction-limited DOFs are truncated to
    the preload capacity with ``slip=True``; tensile axial load beyond the
    breaking force or off-axis peel torque beyond the peel threshold releases
    the joint, transmitting nothing. Axial tension is the +tz component
    (pulling the magnet off the plate along its normal).
    """
    out = [float(v) for v in wrench]
    if len(out) != 6:
        raise ValueError("wrench must be a 6-vector")
    if not all(map(math.isfinite, out)):
        raise ValueError("wrench must be finite")

    tension = out[2]
    if tension > joint.breaking_force or math.hypot(out[3], out[4]) > joint.peel_torque:
        return ZERO6, False, True

    kind = joint.kind
    for i in kind.free_axes:
        out[i] = 0.0

    slip = False
    preload = joint.breaking_force + max(0.0, -tension)
    tang_axes = kind.tangential_axes
    if tang_axes:
        tang = math.sqrt(sum(out[i] ** 2 for i in tang_axes))
        cap = joint.friction_mu * preload
        if tang > cap:
            scale = cap / tang
            for i in tang_axes:
                out[i] *= scale
            slip = True
    if kind.rz_limited:
        cap = joint.friction_mu * preload * joint.contact_radius
        if abs(out[5]) > cap:
            out[5] = math.copysign(cap, out[5])
            slip = True
    return tuple(out), slip, False


@dataclass(frozen=True, slots=True)
class DockContext:
    """Per-tick inputs the lifecycle transition function decides on."""

    intercept_wanted: bool       # predicted hand position inside the inflated reach
    arbitration_winner: bool     # this arm won the nearest-effector tie-break
    magnet_energized: bool       # after the channel latency; False ends RELEASING
    attach_candidate: bool       # faces within attach tolerance
    slot_available: bool         # no arm docked (the coordinator's one dock slot)
    release_demanded: bool       # over-force, peel or workspace exit


# The dock protocol: for each state, its exits in priority order as
# (condition on the DockContext, next state, events). ``dock_step`` takes the
# first exit whose condition holds; an intercepting arm whose trigger stops
# aborts even if it could attach.
DOCK_PROTOCOL = {
    DockState.FREE: (
        (lambda c: c.intercept_wanted and c.arbitration_winner,
         DockState.INTERCEPTING, ("intercept",)),
    ),
    DockState.INTERCEPTING: (
        (lambda c: not c.intercept_wanted, DockState.FREE, ("abort",)),
        (lambda c: c.magnet_energized and c.attach_candidate and c.slot_available,
         DockState.DOCKED, ("attach",)),
    ),
    DockState.DOCKED: (
        (lambda c: c.release_demanded, DockState.RELEASING, ("release",)),
    ),
    DockState.RELEASING: (
        (lambda c: not c.magnet_energized, DockState.FREE, ("demagnetized",)),
    ),
}

LEGAL_TRANSITIONS = frozenset((state, new) for state, exits in DOCK_PROTOCOL.items()
                              for _, new, _ in exits)


def dock_step(state: DockState, ctx: DockContext) -> tuple[DockState, tuple[str, ...]]:
    """One lifecycle tick. Returns the new state and the emitted events."""
    exits = DOCK_PROTOCOL.get(state)
    if exits is None:
        raise IllegalDockTransition(f"unknown dock state {state!r}")
    for condition, new, events in exits:
        if condition(ctx):
            return new, events
    return state, ()


def predict_position(position: Vec3, velocity, horizon_s: float) -> Vec3:
    """Constant-velocity extrapolation used to anticipate interception."""
    px, py, pz = position
    vx, vy, vz = velocity
    return (px + float(vx) * horizon_s, py + float(vy) * horizon_s,
            pz + float(vz) * horizon_s)


@dataclass(slots=True)
class MagnetChannel:
    """Boolean magnet power channel with actuation latency.

    Stands in for the serial link to the magnet's microcontroller: a command
    only becomes effective ``latency_s`` after it is issued.
    """

    latency_s: float = 0.010
    commanded: bool = False
    effective: bool = False
    _switch_time: float | None = None

    def command(self, on: bool, now: float) -> None:
        if on != self.commanded:
            self.commanded = on
            self._switch_time = now + self.latency_s

    def update(self, now: float) -> bool:
        if self._switch_time is not None and now >= self._switch_time:
            self.effective = self.commanded
            self._switch_time = None
        return self.effective
