"""Minimal impulse-based rigid-body world: desk, cans and kinematic hand colliders.

Deliberately small: axis-aligned boxes and spheres, zero restitution, no
friction, sequential impulses plus positional projection. Bodies carry no
rotational state (the experiment constrained the cans' rotation), so only
linear dynamics are integrated; penetration is always resolved by moving
dynamic bodies, never the hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

Vec3 = tuple[float, float, float]


class BodyKind(Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"


class SimulationDiverged(RuntimeError):
    """Non-finite state reached; the scenario must abort with a diagnostic."""


@dataclass(slots=True)
class RigidBody:
    """A simulated body. Boxes are axis-aligned and never rotate, matching
    the constrained cans."""

    name: str
    kind: BodyKind
    shape: str                                  # "box" | "sphere"
    position: np.ndarray
    half_extents: np.ndarray | None = None      # boxes
    radius: float | None = None                 # spheres
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mass: float = 0.0
    collide_with_hand: bool = True

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.position.shape != (3,) or self.velocity.shape != (3,):
            raise ValueError(f"{self.name}: position and velocity must be 3-vectors")
        if self.shape not in ("box", "sphere"):
            raise ValueError(f"{self.name}: unsupported shape {self.shape!r}")
        if self.shape == "box":
            if self.half_extents is None:
                raise ValueError(f"{self.name}: box bodies need half_extents")
            self.half_extents = np.asarray(self.half_extents, dtype=float)
            if np.any(self.half_extents <= 0.0):
                raise ValueError(f"{self.name}: half_extents must be positive")
        if self.shape == "sphere" and (self.radius is None or self.radius <= 0.0):
            raise ValueError(f"{self.name}: sphere bodies need a positive radius")
        if self.kind is BodyKind.DYNAMIC and self.mass <= 0.0:
            raise ValueError(f"{self.name}: dynamic bodies need positive mass")


@dataclass(frozen=True, slots=True)
class HandCollider:
    """Kinematic sphere driven by the hand model; never receives impulses."""

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


@dataclass(slots=True)
class World:
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, -9.81, 0.0]))
    params: SolverParams = field(default_factory=SolverParams)
    bodies: list[RigidBody] = field(default_factory=list)
    hand: list[HandCollider] = field(default_factory=list)

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=float)

    def add_body(self, body: RigidBody) -> RigidBody:
        if any(b.name == body.name for b in self.bodies):
            raise ValueError(f"duplicate body name {body.name!r}")
        self.bodies.append(body)
        return body

    def body(self, name: str) -> RigidBody:
        for b in self.bodies:
            if b.name == name:
                return b
        raise KeyError(name)

    def set_hand(self, colliders: list[HandCollider]) -> None:
        self.hand = list(colliders)

    def dynamic_bodies(self) -> list[RigidBody]:
        return [b for b in self.bodies if b.kind is BodyKind.DYNAMIC]


def _sphere_box(cx: float, cy: float, cz: float, radius: float,
                bx: float, by: float, bz: float,
                hx: float, hy: float, hz: float):
    """Sphere vs axis-aligned box, plain floats for the per-tick hot path.

    Returns (n_out, depth, point) with ``n_out`` the unit direction from the
    box surface toward the sphere center, or None when separated.
    """
    rx = cx - bx
    if rx > hx + radius or rx < -hx - radius:
        return None
    ry = cy - by
    if ry > hy + radius or ry < -hy - radius:
        return None
    rz = cz - bz
    if rz > hz + radius or rz < -hz - radius:
        return None
    qx = -hx if rx < -hx else (hx if rx > hx else rx)
    qy = -hy if ry < -hy else (hy if ry > hy else ry)
    qz = -hz if rz < -hz else (hz if rz > hz else rz)
    dx, dy, dz = rx - qx, ry - qy, rz - qz
    d2 = dx * dx + dy * dy + dz * dz
    if d2 > 0.0:
        dist = math.sqrt(d2)
        depth = radius - dist
        if depth <= 0.0:
            return None
        inv = 1.0 / dist
        return ((dx * inv, dy * inv, dz * inv), depth, (bx + qx, by + qy, bz + qz))
    # Center inside the box: push out through the nearest face.
    gaps = (hx - abs(rx), hy - abs(ry), hz - abs(rz))
    axis = gaps.index(min(gaps))
    rel = (rx, ry, rz)[axis]
    sign = 1.0 if rel >= 0.0 else -1.0
    n_out = tuple(sign if i == axis else 0.0 for i in range(3))
    point = (cx - n_out[0] * gaps[axis], cy - n_out[1] * gaps[axis],
             cz - n_out[2] * gaps[axis])
    return n_out, radius + gaps[axis], point


def sphere_box_signed_depth(center, radius: float, box_pos, box_half) -> float:
    """Signed depth: positive penetration, negative clearance, zero at touch."""
    cx, cy, cz = (float(v) for v in center)
    bx, by, bz = (float(v) for v in box_pos)
    hx, hy, hz = (float(v) for v in box_half)
    rx, ry, rz = cx - bx, cy - by, cz - bz
    qx = -hx if rx < -hx else (hx if rx > hx else rx)
    qy = -hy if ry < -hy else (hy if ry > hy else ry)
    qz = -hz if rz < -hz else (hz if rz > hz else rz)
    dx, dy, dz = rx - qx, ry - qy, rz - qz
    d2 = dx * dx + dy * dy + dz * dz
    if d2 > 0.0:
        return radius - math.sqrt(d2)
    gaps = (hx - abs(rx), hy - abs(ry), hz - abs(rz))
    return radius + min(gaps)


def _box_box(ax: float, ay: float, az: float, hax: float, hay: float, haz: float,
             bx: float, by: float, bz: float, hbx: float, hby: float, hbz: float):
    """Axis-aligned box pair. Returns (normal pushing B away from A, depth, point)."""
    dx = bx - ax
    ox = hax + hbx - abs(dx)
    if ox <= 0.0:
        return None
    dy = by - ay
    oy = hay + hby - abs(dy)
    if oy <= 0.0:
        return None
    dz = bz - az
    oz = haz + hbz - abs(dz)
    if oz <= 0.0:
        return None
    overlaps = (ox, oy, oz)
    axis = overlaps.index(min(overlaps))
    rel = (dx, dy, dz)[axis]
    sign = 1.0 if rel >= 0.0 else -1.0
    normal = tuple(sign if i == axis else 0.0 for i in range(3))
    point = (0.5 * (max(ax - hax, bx - hbx) + min(ax + hax, bx + hbx)),
             0.5 * (max(ay - hay, by - hby) + min(ay + hay, by + hby)),
             0.5 * (max(az - haz, bz - hbz) + min(az + haz, bz + hbz)))
    return normal, overlaps[axis], point


@dataclass(slots=True)
class _Contact:
    body: RigidBody                     # the dynamic body the impulse pushes
    other: RigidBody | None             # other rigid body (None for hand)
    hand: HandCollider | None
    normal: np.ndarray                  # pushes ``body`` away
    depth: float
    point: tuple[float, float, float]
    accumulated: float = 0.0

    def other_velocity(self):
        if self.hand is not None:
            return self.hand.velocity
        if self.other is not None and self.other.kind is BodyKind.DYNAMIC:
            return self.other.velocity
        return np.zeros(3)

    def other_dynamic(self) -> RigidBody | None:
        if self.other is not None and self.other.kind is BodyKind.DYNAMIC:
            return self.other
        return None


def _snapshot(world: World):
    """Plain-float position/extent snapshot for the narrowphase sweeps."""
    bodies = []
    for b in world.bodies:
        pos = b.position.tolist()
        half = b.half_extents.tolist() if b.half_extents is not None else None
        bodies.append((b, pos, half))
    hand = [(h, h.center) for h in world.hand]
    return bodies, hand


def _pair_hit(a: RigidBody, pa, ha, b: RigidBody, pb, hb):
    """Contact for a body pair, normal pushing ``b`` away from ``a``."""
    if a.shape == "box" and b.shape == "box":
        return _box_box(pa[0], pa[1], pa[2], ha[0], ha[1], ha[2],
                        pb[0], pb[1], pb[2], hb[0], hb[1], hb[2])
    if a.shape == "box" and b.shape == "sphere":
        return _sphere_box(pb[0], pb[1], pb[2], b.radius,
                           pa[0], pa[1], pa[2], ha[0], ha[1], ha[2])
    if a.shape == "sphere" and b.shape == "box":
        hit = _sphere_box(pa[0], pa[1], pa[2], a.radius,
                          pb[0], pb[1], pb[2], hb[0], hb[1], hb[2])
        if hit is None:
            return None
        n_out, depth, point = hit
        return (-n_out[0], -n_out[1], -n_out[2]), depth, point
    dx, dy, dz = pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    depth = a.radius + b.radius - dist
    if depth <= 0.0:
        return None
    if dist > 1e-12:
        n = (dx / dist, dy / dist, dz / dist)
    else:
        n = (0.0, 1.0, 0.0)
    point = (pa[0] + n[0] * a.radius, pa[1] + n[1] * a.radius, pa[2] + n[2] * a.radius)
    return n, depth, point


def _collect_contacts(world: World) -> list[_Contact]:
    contacts: list[_Contact] = []
    bodies, hand = _snapshot(world)
    n = len(bodies)
    for i in range(n):
        a, pa, ha = bodies[i]
        for j in range(i + 1, n):
            b, pb, hb = bodies[j]
            if a.kind is not BodyKind.DYNAMIC and b.kind is not BodyKind.DYNAMIC:
                continue
            hit = _pair_hit(a, pa, ha, b, pb, hb)
            if hit is None:
                continue
            normal, depth, point = hit
            if b.kind is BodyKind.DYNAMIC:
                contacts.append(_Contact(body=b, other=a, hand=None,
                                         normal=np.array(normal), depth=depth,
                                         point=point))
            else:
                contacts.append(_Contact(body=a, other=b, hand=None,
                                         normal=-np.array(normal), depth=depth,
                                         point=point))
    for body, pos, half in bodies:
        if body.kind is not BodyKind.DYNAMIC or not body.collide_with_hand:
            continue
        if body.shape != "box":
            continue
        for h, hc in hand:
            hit = _sphere_box(hc[0], hc[1], hc[2], h.radius,
                              pos[0], pos[1], pos[2], half[0], half[1], half[2])
            if hit is None:
                continue
            n_out, depth, point = hit
            # Push the dynamic body away from the hand sphere.
            contacts.append(_Contact(body=body, other=None, hand=h,
                                     normal=np.array([-n_out[0], -n_out[1], -n_out[2]]),
                                     depth=depth, point=point))
    return contacts


def _penalty_contacts(world: World, dt: float) -> list[ContactImpulse]:
    """Hand against immovable geometry: reported as spring-law pseudo impulses."""
    out: list[ContactImpulse] = []
    k = world.params.surface_stiffness
    for body in world.bodies:
        if body.kind is BodyKind.DYNAMIC or not body.collide_with_hand:
            continue
        if body.shape != "box":
            continue
        pos = body.position.tolist()
        half = body.half_extents.tolist()
        for h in world.hand:
            hc = h.center
            hit = _sphere_box(hc[0], hc[1], hc[2], h.radius,
                              pos[0], pos[1], pos[2], half[0], half[1], half[2])
            if hit is None:
                continue
            n_out, depth, point = hit
            # Impulse applied to the body is the hand pressing inward.
            out.append(ContactImpulse(
                body_a="hand", body_b=body.name,
                point=point, normal=(-n_out[0], -n_out[1], -n_out[2]),
                magnitude=k * depth * dt, hand_collider=h.name))
    return out


# A desk-scale body a million kilometers out is as diverged as a NaN.
_RUNAWAY_LIMIT = 1.0e9


def _check_finite(world: World) -> None:
    for b in world.bodies:
        if b.kind is not BodyKind.DYNAMIC:
            continue
        # Per component: a sum would let opposite runaways cancel. The
        # comparison is False for NaN, so NaN fails it too.
        for v in b.position.tolist() + b.velocity.tolist():
            if not abs(v) <= _RUNAWAY_LIMIT:
                raise SimulationDiverged(f"body {b.name!r} has non-finite or runaway state")


def step_world(world: World, dt: float) -> tuple[World, list[ContactImpulse]]:
    """Advance the world one fixed step and report every contact impulse.

    The returned world is the input advanced in place; it is returned so the
    call reads as a state transition.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    _check_finite(world)

    contacts = _collect_contacts(world)
    penalty = _penalty_contacts(world, dt)
    dynamics = world.dynamic_bodies()

    for b in dynamics:
        b.velocity += world.gravity * dt

    if contacts:
        for _ in range(world.params.iterations):
            settled = True
            for c in contacts:
                other_dyn = c.other_dynamic()
                inv_mass = 1.0 / c.body.mass + (1.0 / other_dyn.mass if other_dyn else 0.0)
                v_rel = float((c.body.velocity - c.other_velocity()) @ c.normal)
                d_lambda = -v_rel / inv_mass
                new_acc = max(0.0, c.accumulated + d_lambda)
                change = new_acc - c.accumulated
                c.accumulated = new_acc
                if change != 0.0:
                    settled = False
                    c.body.velocity += (change / c.body.mass) * c.normal
                    if other_dyn is not None:
                        other_dyn.velocity -= (change / other_dyn.mass) * c.normal
            if settled:
                break

    for b in dynamics:
        b.position += b.velocity * dt

    # Positional projection: remove residual penetration without injecting
    # momentum, moving dynamic bodies only.
    slop = world.params.slop
    for _ in range(2):
        moved = False
        for c in _collect_contacts(world):
            excess = c.depth - slop
            if excess <= 0.0:
                continue
            moved = True
            other_dyn = c.other_dynamic()
            if other_dyn is None:
                c.body.position += excess * c.normal
            else:
                wa = other_dyn.mass / (c.body.mass + other_dyn.mass)
                c.body.position += (excess * wa) * c.normal
                other_dyn.position -= (excess * (1.0 - wa)) * c.normal
        if not moved:
            break

    _check_finite(world)

    report: list[ContactImpulse] = []
    for c in contacts:
        if c.accumulated <= 0.0:
            continue
        if c.hand is not None:
            report.append(ContactImpulse(
                body_a="hand", body_b=c.body.name,
                point=c.point, normal=tuple(c.normal.tolist()),
                magnitude=c.accumulated, hand_collider=c.hand.name))
        else:
            report.append(ContactImpulse(
                body_a=c.other.name if c.other is not None else "world",
                body_b=c.body.name,
                point=c.point, normal=tuple(c.normal.tolist()),
                magnitude=c.accumulated, hand_collider=None))
    report.extend(penalty)
    return world, report


def mechanical_energy(world: World, reference_y: float = 0.0) -> float:
    """Kinetic plus gravitational potential energy of the dynamic bodies."""
    g = float(np.linalg.norm(world.gravity))
    up = -world.gravity / g if g > 0.0 else np.array([0.0, 1.0, 0.0])
    total = 0.0
    for b in world.dynamic_bodies():
        v2 = float(b.velocity @ b.velocity)
        height = float(b.position @ up) - reference_y
        total += 0.5 * b.mass * v2 + b.mass * g * height
    return total
