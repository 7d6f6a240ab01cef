"""Minimal impulse-based rigid-body world: desk, cans and kinematic hand colliders.

Deliberately small: axis-aligned box bodies, sphere hand colliders, zero
restitution, no friction, sequential impulses plus positional projection.
Bodies carry no rotational state (the experiment constrained the cans'
rotation), so only linear dynamics are integrated; penetration is always
resolved by moving dynamic bodies, never the hand. Each hand sphere meets each
box that collides with the hand; three per-axis rejects cull most pairs.

Positions and velocities are lists of three Python floats updated in place.
Every update is element-wise, so it rounds exactly as the equivalent numpy
expression would. The one reduction is the relative normal velocity
``v_rel``: numpy's 3-element ``@`` goes through BLAS ``ddot``, which fuses
multiply and add, while the float sum here rounds each step. For a normal
with one nonzero component both round once and agree bit for bit; every
box-box normal and every hand sphere-box face normal is of that kind. A hand
sphere-box edge or corner contact (normal with several nonzero components)
would round differently, as numpy's own result there already depends on
whether the CPU has FMA.

A world at its fixed point skips the step. A step of ``DT`` reads only the
bodies' positions and velocities, the hand colliders' centers and
velocities, ``params``, ``gravity`` and fields no step changes (extents,
masses, kinds, names and radii). So when a step hands every body back bit for bit, a later
step from an input with the same bits gives the same bodies and the same
report again, and ``step_world`` returns that report without collecting
contacts, solving or projecting. Bits are compared, not floats: ``==`` would
match -0.0 with 0.0, which a step does not treat alike. A fixed point that
the hand did not touch is kept without the hand, so a hand that moves
without touching anything still finds it (see ``step_world``).
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .geometry import DT, ZERO3, Vec3


class BodyKind(Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"


class SimulationDiverged(RuntimeError):
    """Non-finite state reached; the scenario must abort with a diagnostic."""


@dataclass(slots=True)
class RigidBody:
    """A simulated body: an axis-aligned box that never rotates, matching the
    constrained cans."""

    name: str
    kind: BodyKind
    position: list[float]                       # updated in place
    half_extents: Vec3
    velocity: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    mass: float = 0.0
    collide_with_hand: bool = True

    def __post_init__(self):
        self.position = [float(v) for v in self.position]
        self.velocity = [float(v) for v in self.velocity]
        if len(self.position) != 3 or len(self.velocity) != 3:
            raise ValueError(f"{self.name}: position and velocity must be 3-vectors")
        self.half_extents = tuple(float(v) for v in self.half_extents)
        if len(self.half_extents) != 3:
            raise ValueError(f"{self.name}: half_extents must be a 3-vector")
        if any(h <= 0.0 for h in self.half_extents):
            raise ValueError(f"{self.name}: half_extents must be positive")
        if self.kind is BodyKind.DYNAMIC and self.mass <= 0.0:
            raise ValueError(f"{self.name}: dynamic bodies need positive mass")


@dataclass(slots=True)
class HandCollider:
    """Kinematic sphere driven by the hand model; never receives impulses.

    Built once by ``World.set_hand``; ``World.move_hand`` moves it in place.
    """

    name: str
    center: Vec3
    radius: float
    velocity: Vec3


@dataclass(frozen=True, slots=True)
class ContactImpulse:
    """One resolved contact. ``normal`` is the direction of the impulse
    applied to ``body_b``; for hand contacts ``body_a`` is always the hand and
    the reaction on the hand collider is ``-magnitude * normal``."""

    body_a: str
    body_b: str
    point: Vec3
    normal: Vec3
    magnitude: float            # N*s
    hand_collider: str | None = None


@dataclass(frozen=True, slots=True)
class SolverParams:
    iterations: int = 12
    slop: float = 5.0e-4                # allowed resting penetration, m
    surface_stiffness: float = 800.0    # N/m, hand-vs-immovable penalty


_SIX = struct.Struct("<6d")


def _bits(pairs) -> bytes:
    """The bits of ``(a, b)`` 3-vector pairs, as packed doubles: equal bytes
    are equal bits, where ``==`` would also match -0.0 with 0.0."""
    pack = _SIX.pack
    return b"".join([pack(a[0], a[1], a[2], b[0], b[1], b[2]) for a, b in pairs])


@dataclass(slots=True)
class World:
    gravity: Vec3 = (0.0, -9.81, 0.0)
    params: SolverParams = field(default_factory=SolverParams)
    bodies: list[RigidBody] = field(default_factory=list)
    hand: list[HandCollider] = field(default_factory=list)
    # The last step that handed its input back bit for bit, as
    # ``(body bits, hand bits, params, gravity, report)``, the hand bits
    # None when the step was hand-free; see ``step_world``. ``set_hand``
    # clears it.
    fixed_point: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.gravity = tuple(float(g) for g in self.gravity)
        self.set_hand(self.hand)

    def add_body(self, body: RigidBody) -> RigidBody:
        if any(b.name == body.name for b in self.bodies):
            raise ValueError(f"duplicate body name {body.name!r}")
        self.bodies.append(body)
        return body

    def set_hand(self, colliders: list[HandCollider]) -> None:
        self.hand = list(colliders)
        self.fixed_point = None

    def move_hand(self, centers: list[Vec3]) -> None:
        """Move the colliders in place to ``centers``, given in ``set_hand``
        order; each velocity is the move over one tick, ``DT``."""
        hand = self.hand
        if len(centers) != len(hand):
            raise ValueError(f"expected {len(hand)} hand centers, got {len(centers)}")
        for h, c in zip(hand, centers):
            p = h.center
            h.velocity = ((c[0] - p[0]) / DT, (c[1] - p[1]) / DT, (c[2] - p[2]) / DT)
            h.center = c

    def dynamic_bodies(self) -> list[RigidBody]:
        return [b for b in self.bodies if b.kind is BodyKind.DYNAMIC]


def _sphere_box(cx: float, cy: float, cz: float, radius: float,
                bx: float, by: float, bz: float,
                hx: float, hy: float, hz: float):
    """Sphere vs axis-aligned box, plain floats: the one sphere-box rule.

    Returns ``(depth, n_out, point)``. ``depth`` is signed: positive
    penetration, negative clearance, zero at exact touch. ``n_out`` is the
    unit direction from the box surface toward the sphere center and
    ``point`` the contact point; both are None when ``depth <= 0``. The
    radius is positive, so a center inside the box always penetrates.
    """
    rx, ry, rz = cx - bx, cy - by, cz - bz
    qx = -hx if rx < -hx else (hx if rx > hx else rx)
    qy = -hy if ry < -hy else (hy if ry > hy else ry)
    qz = -hz if rz < -hz else (hz if rz > hz else rz)
    dx, dy, dz = rx - qx, ry - qy, rz - qz
    d2 = dx * dx + dy * dy + dz * dz
    if d2 > 0.0:
        dist = math.sqrt(d2)
        depth = radius - dist
        if depth <= 0.0:
            return depth, None, None
        inv = 1.0 / dist
        return depth, (dx * inv, dy * inv, dz * inv), (bx + qx, by + qy, bz + qz)
    # Center inside the box: push out through the nearest face.
    gaps = (hx - abs(rx), hy - abs(ry), hz - abs(rz))
    axis = gaps.index(min(gaps))
    rel = (rx, ry, rz)[axis]
    sign = 1.0 if rel >= 0.0 else -1.0
    n_out = tuple(sign if i == axis else 0.0 for i in range(3))
    point = (cx - n_out[0] * gaps[axis], cy - n_out[1] * gaps[axis],
             cz - n_out[2] * gaps[axis])
    return radius + gaps[axis], n_out, point


class _Contact:
    """One contact for the solver, with what it reads precomputed."""

    __slots__ = ("body", "other", "hand", "normal", "depth", "point",
                 "other_dyn", "other_vel", "inv_mass", "accumulated")

    def __init__(self, body: RigidBody, other: RigidBody | None,
                 hand: HandCollider | None, normal: Vec3, depth: float, point: Vec3):
        self.body = body            # the dynamic body the impulse pushes
        self.other = other          # other rigid body (None for hand)
        self.hand = hand
        self.normal = normal        # pushes ``body`` away
        self.depth = depth
        self.point = point
        self.accumulated = 0.0
        dyn = other if other is not None and other.kind is BodyKind.DYNAMIC else None
        self.other_dyn = dyn
        # A live reference: a dynamic other body's list changes during the solve.
        if hand is not None:
            self.other_vel = hand.velocity
        elif dyn is not None:
            self.other_vel = dyn.velocity
        else:
            self.other_vel = ZERO3
        self.inv_mass = 1.0 / body.mass + (1.0 / dyn.mass if dyn is not None else 0.0)


def _hand_hits(world: World, dynamic: bool):
    """``(body, collider, depth, n_out, point)`` for every hand sphere
    penetrating a box of the given kind that collides with the hand.

    Per sphere, the three separating-axis rejects run before ``_sphere_box``;
    most spheres miss on one of them.
    """
    hand = world.hand
    for body in world.bodies:
        if ((body.kind is BodyKind.DYNAMIC) is not dynamic
                or not body.collide_with_hand):
            continue
        px, py, pz = body.position
        hx, hy, hz = body.half_extents
        for h in hand:
            cx, cy, cz = h.center
            radius = h.radius
            rx = cx - px
            if rx > hx + radius or rx < -hx - radius:
                continue
            ry = cy - py
            if ry > hy + radius or ry < -hy - radius:
                continue
            rz = cz - pz
            if rz > hz + radius or rz < -hz - radius:
                continue
            depth, n_out, point = _sphere_box(cx, cy, cz, radius, px, py, pz, hx, hy, hz)
            if depth > 0.0:
                yield body, h, depth, n_out, point


def _hand_touches(world: World) -> bool:
    """Whether any hand sphere penetrates any box that collides with the hand."""
    return (next(_hand_hits(world, True), None) is not None
            or next(_hand_hits(world, False), None) is not None)


def _collect_contacts(world: World) -> list[_Contact]:
    """Box-box contacts in pair order, then hand contacts on dynamic bodies.

    A box pair's contact normal is its axis of least overlap (on a tie, the
    first such axis) and pushes the dynamic body away; the point is the
    center of the overlap region.
    """
    contacts: list[_Contact] = []
    bodies = world.bodies
    n = len(bodies)
    dynamic = BodyKind.DYNAMIC
    for i in range(n):
        a = bodies[i]
        a_static = a.kind is not dynamic
        ax, ay, az = a.position
        hax, hay, haz = a.half_extents
        for j in range(i + 1, n):
            b = bodies[j]
            b_static = b.kind is not dynamic
            if a_static and b_static:
                continue
            bx, by, bz = b.position
            hbx, hby, hbz = b.half_extents
            dx = bx - ax
            ox = hax + hbx - abs(dx)
            if ox <= 0.0:
                continue
            dy = by - ay
            oy = hay + hby - abs(dy)
            if oy <= 0.0:
                continue
            dz = bz - az
            oz = haz + hbz - abs(dz)
            if oz <= 0.0:
                continue
            # (nx, ny, nz) pushes B away from A.
            if ox <= oy and ox <= oz:
                depth, nx, ny, nz = ox, (1.0 if dx >= 0.0 else -1.0), 0.0, 0.0
            elif oy <= oz:
                depth, nx, ny, nz = oy, 0.0, (1.0 if dy >= 0.0 else -1.0), 0.0
            else:
                depth, nx, ny, nz = oz, 0.0, 0.0, (1.0 if dz >= 0.0 else -1.0)
            point = (0.5 * (max(ax - hax, bx - hbx) + min(ax + hax, bx + hbx)),
                     0.5 * (max(ay - hay, by - hby) + min(ay + hay, by + hby)),
                     0.5 * (max(az - haz, bz - hbz) + min(az + haz, bz + hbz)))
            if not b_static:
                contacts.append(_Contact(b, a, None, (nx, ny, nz), depth, point))
            else:
                contacts.append(_Contact(a, b, None, (-nx, -ny, -nz), depth, point))
    for body, h, depth, n_out, point in _hand_hits(world, dynamic=True):
        # Push the dynamic body away from the hand sphere.
        contacts.append(_Contact(body, None, h, (-n_out[0], -n_out[1], -n_out[2]),
                                 depth, point))
    return contacts


def _penalty_contacts(world: World) -> list[ContactImpulse]:
    """Hand against immovable geometry: reported as spring-law pseudo impulses."""
    k = world.params.surface_stiffness
    # Impulse applied to the body is the hand pressing inward.
    return [ContactImpulse(body_a="hand", body_b=body.name,
                           point=point, normal=(-n_out[0], -n_out[1], -n_out[2]),
                           magnitude=k * depth * DT, hand_collider=h.name)
            for body, h, depth, n_out, point in _hand_hits(world, dynamic=False)]


# A desk-scale body a million kilometers out is as diverged as a NaN.
_RUNAWAY_LIMIT = 1.0e9


def _check_finite(world: World) -> None:
    lo, hi = -_RUNAWAY_LIMIT, _RUNAWAY_LIMIT
    for b in world.bodies:
        if b.kind is not BodyKind.DYNAMIC:
            continue
        # Per component: a sum would let opposite runaways cancel. The
        # comparisons are False for NaN, so NaN fails them too.
        px, py, pz = b.position
        vx, vy, vz = b.velocity
        if not (lo <= px <= hi and lo <= py <= hi and lo <= pz <= hi
                and lo <= vx <= hi and lo <= vy <= hi and lo <= vz <= hi):
            raise SimulationDiverged(f"body {b.name!r} has non-finite or runaway state")


def step_world(world: World) -> tuple[World, Sequence[ContactImpulse]]:
    """Advance the world one tick, ``DT``, and report every contact impulse.

    The returned world is the input advanced in place; it is returned so the
    call reads as a state transition.

    A step that hands every body's position and velocity back bit for bit is
    a fixed point: ``world.fixed_point`` keeps the bits of its input (every
    body's position and velocity, every hand collider's center and
    velocity), the ``params`` and ``gravity`` objects and the report, a
    tuple that this step returns too. A later call with the same bits and
    the same two objects returns that tuple and changes nothing, so a
    caller can key on the report object; that input passed the
    divergence check at the end of the step that recorded it. ``params``
    and ``gravity`` are immutable and keyed by identity, so replacing either
    misses even with an equal value. ``add_body`` lengthens the key and
    ``set_hand`` clears the record, as radii are not in the key; extents,
    masses and kinds are not to be edited between steps.

    A fixed point is *hand-free* when no hand sphere met a box in it: no
    collected contact is a hand contact, no penalty contact was made, and
    no projection pass moved a body. Its record keeps None for the hand
    bits, and a later call with the same body bits, ``params`` and
    ``gravity`` returns its report when ``_hand_touches`` finds no hit at
    the input, whatever the hand's bits. This is exact. Without a
    projection move the step collects contacts at two places only: its
    input, and the integrated positions, which are its output and so its
    input again. The current hand meets nothing there, as the recorded hand
    did, so the contacts are the recorded ones; none of them reads a hand
    velocity, and the solve, integration, projection and report repeat bit
    for bit. A step whose projection moved a body collects at positions
    other than its input, where a hand that misses the input may hit, so
    such a step records the hand's bits.

    Otherwise the hand is packed only when its bits can decide something:
    when the body bits equal a record that holds hand bits, or when this
    step records a new fixed point that is not hand-free. The step never
    writes a hand collider, so after the step they are still the input's
    bits.
    """
    bodies = _bits([(b.position, b.velocity) for b in world.bodies])
    hand = None
    fixed = world.fixed_point
    if (fixed is not None and fixed[0] == bodies
            and fixed[2] is world.params and fixed[3] is world.gravity):
        if fixed[1] is None:
            if not _hand_touches(world):
                return world, fixed[4]
        else:
            hand = _bits([(h.center, h.velocity) for h in world.hand])
            if fixed[1] == hand:
                return world, fixed[4]
    _check_finite(world)

    contacts = _collect_contacts(world)
    penalty = _penalty_contacts(world)
    dynamics = world.dynamic_bodies()

    gx, gy, gz = world.gravity
    for b in dynamics:
        v = b.velocity
        v[0] += gx * DT
        v[1] += gy * DT
        v[2] += gz * DT

    if contacts:
        for _ in range(world.params.iterations):
            settled = True
            for c in contacts:
                v = c.body.velocity
                o = c.other_vel
                nx, ny, nz = c.normal
                v_rel = (v[0] - o[0]) * nx + (v[1] - o[1]) * ny + (v[2] - o[2]) * nz
                acc = c.accumulated
                new_acc = max(0.0, acc + -v_rel / c.inv_mass)
                change = new_acc - acc
                c.accumulated = new_acc
                if change != 0.0:
                    settled = False
                    s = change / c.body.mass
                    v[0] += s * nx
                    v[1] += s * ny
                    v[2] += s * nz
                    other = c.other_dyn
                    if other is not None:
                        s = change / other.mass
                        w = other.velocity
                        w[0] -= s * nx
                        w[1] -= s * ny
                        w[2] -= s * nz
            if settled:
                break

    for b in dynamics:
        p, v = b.position, b.velocity
        p[0] += v[0] * DT
        p[1] += v[1] * DT
        p[2] += v[2] * DT

    # Positional projection: remove residual penetration without injecting
    # momentum, moving dynamic bodies only.
    slop = world.params.slop
    projected = False
    for _ in range(2):
        moved = False
        for c in _collect_contacts(world):
            excess = c.depth - slop
            if excess <= 0.0:
                continue
            moved = True
            nx, ny, nz = c.normal
            p = c.body.position
            other = c.other_dyn
            if other is None:
                s = excess
            else:
                wa = other.mass / (c.body.mass + other.mass)
                s = excess * wa
                q = other.position
                s_other = excess * (1.0 - wa)
                q[0] -= s_other * nx
                q[1] -= s_other * ny
                q[2] -= s_other * nz
            p[0] += s * nx
            p[1] += s * ny
            p[2] += s * nz
        if not moved:
            break
        projected = True

    _check_finite(world)

    report: list[ContactImpulse] = []
    for c in contacts:
        if c.accumulated <= 0.0:
            continue
        if c.hand is not None:
            report.append(ContactImpulse(
                body_a="hand", body_b=c.body.name,
                point=c.point, normal=c.normal,
                magnitude=c.accumulated, hand_collider=c.hand.name))
        else:
            report.append(ContactImpulse(
                body_a=c.other.name,
                body_b=c.body.name,
                point=c.point, normal=c.normal,
                magnitude=c.accumulated, hand_collider=None))
    report.extend(penalty)
    world.fixed_point = None
    if _bits([(b.position, b.velocity) for b in world.bodies]) == bodies:
        if not (penalty or projected) and all(c.hand is None for c in contacts):
            hand = None
        elif hand is None:
            hand = _bits([(h.center, h.velocity) for h in world.hand])
        report = tuple(report)
        world.fixed_point = (bodies, hand, world.params, world.gravity, report)
    return world, report
