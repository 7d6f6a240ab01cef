"""Split observed contact impulses into glove and arm feedback.

Forces between opposing hand colliders (a squeeze) cancel and belong to the
glove's local loops; whatever net world-referenced force remains cannot be
driven by palm-fixed actuators and is routed to the docked arm. The glove
stop values themselves come from the de-penetration (contact-drum) search.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

from .devices import (DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS, HandState,
                      finger_sphere_centers)
from .frames import RigidTransform
from .geometry import DT, ZERO3, ZERO6, Vec3, lerp
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


# A step without hand contacts, routed about any reference point, docked or
# not: every sum is +0.0 and nothing pairs.
_NO_CONTACT = RoutedForces(residual=ZERO6, net_force=ZERO3, net_torque=ZERO3,
                           paired_magnitude=0.0, hand_contact_count=0)


def _hand_forces(impulses: Sequence[ContactImpulse]):
    """Per-collider reaction forces on the hand as (source body, force, point)."""
    out = []
    for imp in impulses:
        if imp.hand_collider is None:
            continue
        scale = imp.magnitude / DT
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


def route_forces(impulses: Sequence[ContactImpulse], docked: bool, *,
                 reference_point: Vec3) -> RoutedForces:
    """Route one step's hand-contact impulses.

    The vector sum over all hand colliders is the net world-referenced force,
    with its torque taken about ``reference_point`` (the attachment plate).
    When docked the arm renders it; when not docked it is logged as residual
    and discarded. A step without hand contacts returns one shared
    ``RoutedForces`` object.
    """
    forces = _hand_forces(impulses)
    if not forces:
        return _NO_CONTACT
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


_WRENCH_BITS = struct.Struct("<6d")


@dataclass(slots=True)
class LowPassFilter:
    """First-order low-pass on a wrench (six numbers) sampled every tick,
    held as a float tuple.

    An update that changes no bit of the state keeps the state object, so a
    caller can key on it. Its input is then a fixed point of that state: the
    same input bits (packed, not ``==``, so a zero's sign counts) return the
    state again without arithmetic until the state moves.
    """

    cutoff_hz: float
    enabled: bool = field(init=False)
    alpha: float = field(init=False)
    state: tuple = field(default=ZERO6, init=False)
    # A state object and the bits of an input that left it as it is.
    _still: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cutoff_hz < 0.0:
            raise ValueError("cutoff must be nonnegative")
        self.enabled = self.cutoff_hz > 0.0
        self.alpha = 1.0 - math.exp(-2.0 * math.pi * self.cutoff_hz * DT) if self.enabled else 1.0

    def update(self, x) -> tuple[float, ...]:
        x = tuple(map(float, x))
        state = self.state
        if len(x) != len(state):
            raise ValueError(f"expected a {len(state)}-vector, got {len(x)} values")
        key = _WRENCH_BITS.pack(*x)
        still_state, still_key = self._still
        if state is still_state and key == still_key:
            return state
        if self.enabled:
            x = lerp(state, x, self.alpha)
        if _WRENCH_BITS.pack(*x) == _WRENCH_BITS.pack(*state):
            self._still = (state, key)
            return state
        self.state = x
        return x
