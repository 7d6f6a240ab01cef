"""Split observed contact impulses into glove and arm feedback.

Forces between opposing hand colliders (a squeeze) cancel and belong to the
glove's local loops; whatever net world-referenced force remains cannot be
driven by palm-fixed actuators and is routed to the docked arm. The glove
stop values themselves come from the de-penetration (contact-drum) search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .devices import (DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS, HandState,
                      finger_sphere_centers)
from .frames import RigidTransform, Vec3
from .sim import ContactImpulse, World, _sphere_box

PAIRING_ANGLE_DEG = 15.0  # opposing-force pairing cone, isolated for replacement


@dataclass(frozen=True, slots=True)
class RoutedForces:
    """Outcome of one routing pass over a step's impulses."""

    residual: tuple[float, ...]     # unroutable 6-vector, world frame (zeros if docked)
    net_force: Vec3                 # world frame, total over hand colliders
    net_torque: Vec3                # world frame, about the reference point
    paired_magnitude: float         # |force| attributed to canceling squeeze pairs
    hand_contact_count: int


def _hand_forces(impulses: list[ContactImpulse], dt: float):
    """Per-collider reaction forces on the hand as (source body, force, point)."""
    out = []
    for imp in impulses:
        if imp.hand_collider is None:
            continue
        scale = imp.magnitude / dt
        nx, ny, nz = imp.normal
        out.append((imp.body_b, (-scale * nx, -scale * ny, -scale * nz), imp.point))
    return out


def _paired_magnitude(forces, angle_deg: float) -> float:
    """Greedy opposing-pair detection: forces on hand colliders against the
    same body whose lines of action oppose within the cone pair off; the
    common magnitude counts as glove-internal squeeze.

    Norms and dot products are plain float sums, left to right. The result is
    logged, and numpy's 3-element ``norm`` and ``@`` (BLAS ``ddot``, which may
    fuse multiply and add) would round differently in general. Here they
    agree bit for bit: a hand force is ``-scale * normal``, and every
    box-box and hand sphere-box face normal has one nonzero component, so
    each sum has one nonzero term and both forms round it once. Only a hand
    sphere-box edge or corner contact would differ (see ``sim``).
    """
    cos_limit = math.cos(math.radians(angle_deg))
    norms = [math.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2]) for _, f, _ in forces]
    used = [False] * len(forces)
    paired = 0.0
    for i in range(len(forces)):
        ni = norms[i]
        if used[i] or ni < 1e-12:
            continue
        body_i, fi, _ = forces[i]
        for j in range(i + 1, len(forces)):
            nj = norms[j]
            if used[j] or nj < 1e-12:
                continue
            body_j, fj, _ = forces[j]
            if body_j != body_i:
                continue
            dot = fi[0] * fj[0] + fi[1] * fj[1] + fi[2] * fj[2]
            if dot / (ni * nj) <= -cos_limit:
                paired += min(ni, nj)
                used[i] = used[j] = True
                break
    return paired


def route_forces(impulses: list[ContactImpulse], docked: bool, dt: float, *,
                 reference_point: Vec3) -> RoutedForces:
    """Route one step's hand-contact impulses.

    The vector sum over all hand colliders is the net world-referenced force,
    with its torque taken about ``reference_point`` (the attachment plate).
    When docked the arm renders it; when not docked it is logged as residual
    and discarded.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    forces = _hand_forces(impulses, dt)
    rx, ry, rz = reference_point

    fx = fy = fz = tx = ty = tz = 0.0
    for _, f, p in forces:
        fx += f[0]
        fy += f[1]
        fz += f[2]
        ax, ay, az = p[0] - rx, p[1] - ry, p[2] - rz
        tx += ay * f[2] - az * f[1]
        ty += az * f[0] - ax * f[2]
        tz += ax * f[1] - ay * f[0]
    net_force = (fx, fy, fz)
    net_torque = (tx, ty, tz)

    return RoutedForces(residual=(0.0,) * 6 if docked else net_force + net_torque,
                        net_force=net_force, net_torque=net_torque,
                        paired_magnitude=_paired_magnitude(forces, PAIRING_ANGLE_DEG),
                        hand_contact_count=len(forces))


def _finger_penetration(world: World, wrist: RigidTransform, finger: int,
                        abd_angle: float, flex: float) -> float:
    """Worst signed depth of the finger's phalange spheres at a given flex.

    Positive means penetrating, negative means clear; zero is exact touch.
    """
    centers = finger_sphere_centers(wrist, finger, DEFAULT_HAND_PARAMS.joint_angles(flex),
                                    abd_angle)
    radius = DEFAULT_HAND_GEOMETRY.phalange_radius
    worst = -math.inf
    for body in world.bodies:
        if not body.collide_with_hand:
            continue
        px, py, pz = body.position
        hx, hy, hz = body.half_extents
        for cx, cy, cz in centers:
            depth = _sphere_box(cx, cy, cz, radius, px, py, pz, hx, hy, hz)[0]
            if depth > worst:
                worst = depth
    return worst


def contact_drum_param(wrist: RigidTransform, hand: HandState, finger: int,
                       world: World) -> float:
    """Normalized stop rotation that would just resolve the penetration of
    the finger of ``hand`` at the wrist pose ``wrist``.

    Evaluates the hypothetical de-penetration pose by moving the phalanges
    (not the world) back along the flex interpolant and bisecting, to a
    flex tolerance of 1e-4, for the first-contact flex. Returns 1.0
    (unrestricted) when nothing touches and the current flex when the finger
    is exactly at the surface.
    """
    flex_now = hand.flex[finger]
    abd_angle = DEFAULT_HAND_PARAMS.abduction_angle(hand.abduction[finger])
    pen_now = _finger_penetration(world, wrist, finger, abd_angle, flex_now)
    if pen_now < 0.0:
        return 1.0
    if pen_now == 0.0:
        return flex_now
    if _finger_penetration(world, wrist, finger, abd_angle, 0.0) > 0.0:
        return 0.0
    lo, hi = 0.0, flex_now
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if _finger_penetration(world, wrist, finger, abd_angle, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


class LowPassFilter:
    """First-order low-pass on a fixed-rate vector signal, held as a float tuple."""

    def __init__(self, cutoff_hz: float, dt: float, size: int = 6):
        if cutoff_hz < 0.0:
            raise ValueError("cutoff must be nonnegative")
        self.enabled = cutoff_hz > 0.0
        self.alpha = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt) if self.enabled else 1.0
        self.state = (0.0,) * size

    def update(self, x) -> tuple[float, ...]:
        x = tuple(float(v) for v in x)
        if len(x) != len(self.state):
            raise ValueError(f"expected a {len(self.state)}-vector, got {len(x)} values")
        if self.enabled:
            a = self.alpha
            x = tuple(s + a * (v - s) for s, v in zip(self.state, x))
        self.state = x
        return x
