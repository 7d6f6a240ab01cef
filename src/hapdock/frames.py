"""Rigid-transform algebra and the coordinate-frame correction used for docking.

Transforms are unit-quaternion rotations plus translations, stored as plain
float tuples so every operation is allocation-light and bit-deterministic.
Composition follows the usual pose-chaining convention: ``a.compose(b)`` is
the motion ``a`` followed by ``b`` expressed in ``a``'s local frame (matrix
product A*B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Vec3

Quat = tuple[float, float, float, float]  # (w, x, y, z)


def _qmul(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _qnormalize(q: Quat) -> Quat:
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero quaternion")
    if n == 1.0:
        return q
    inv = 1.0 / n
    return (w * inv, x * inv, y * inv, z * inv)


def _finite(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats; one that is not finite raises
    ``ValueError`` naming the argument ``name``."""
    out = tuple(float(c) for c in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


def _point_distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance of two points, summed in this order: the one
    distance expression (``math.dist`` rounds differently)."""
    ax, ay, az = a
    bx, by, bz = b
    return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)


def _qrotate(q: Quat, v: Vec3) -> Vec3:
    # v' = v + w*(2 qv x v) + qv x (2 qv x v)
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """A rigid motion: unit quaternion rotation followed by a translation."""

    rotation: Quat = (1.0, 0.0, 0.0, 0.0)
    translation: Vec3 = (0.0, 0.0, 0.0)

    # Stores through the slots' descriptors (bound below the class): the
    # frozen ``__setattr__`` is only for callers that try to assign.
    def __init__(self, rotation: Quat = (1.0, 0.0, 0.0, 0.0),
                 translation: Vec3 = (0.0, 0.0, 0.0)):
        _SET_ROTATION(self, rotation)
        _SET_TRANSLATION(self, translation)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform()

    # The constructors below take outside input: a value that is not finite,
    # or a rotation whose norm is zero or overflows, raises ``ValueError``
    # naming its argument instead of becoming a NaN, zero or identity rotation.
    @classmethod
    def from_quat(cls, rotation, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        q = _finite(rotation, "rotation")
        if not 1e-12 <= math.sqrt(sum(c * c for c in q)) < math.inf:
            raise ValueError(f"rotation must be a nonzero quaternion of finite norm, "
                             f"got {q!r}")
        return cls(_qnormalize(q), _finite(translation, "translation"))

    @classmethod
    def from_translation(cls, translation) -> "RigidTransform":
        return cls((1.0, 0.0, 0.0, 0.0), _finite(translation, "translation"))

    @classmethod
    def from_axis_angle(cls, axis, angle_rad: float,
                        translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        ax, ay, az = _finite(axis, "axis")
        n = math.sqrt(ax * ax + ay * ay + az * az)
        if not 1e-12 <= n < math.inf:
            raise ValueError(f"axis must be non-zero with a finite norm, got "
                             f"{(ax, ay, az)!r}")
        angle = float(angle_rad)
        if not math.isfinite(angle):
            raise ValueError(f"angle_rad must be finite, got {angle!r}")
        half = 0.5 * angle
        s = math.sin(half) / n
        q = (math.cos(half), ax * s, ay * s, az * s)
        return cls(_qnormalize(q), _finite(translation, "translation"))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """This motion followed by ``other`` in this motion's local frame."""
        q = _qnormalize(_qmul(self.rotation, other.rotation))
        ox, oy, oz = _qrotate(self.rotation, other.translation)
        tx, ty, tz = self.translation
        return RigidTransform(q, (tx + ox, ty + oy, tz + oz))

    def inverse(self) -> "RigidTransform":
        w, x, y, z = self.rotation
        qc = _qnormalize((w, -x, -y, -z))
        ix, iy, iz = _qrotate(qc, self.translation)
        return RigidTransform(qc, (-ix, -iy, -iz))

    def transform_point(self, p: Vec3) -> Vec3:
        rx, ry, rz = _qrotate(self.rotation, p)
        tx, ty, tz = self.translation
        return (tx + rx, ty + ry, tz + rz)

    def rotate_vector(self, v: Vec3) -> Vec3:
        return _qrotate(self.rotation, v)

    def rotation_angle(self) -> float:
        """Magnitude of the rotation in radians, in [0, pi]."""
        w = min(1.0, abs(self.rotation[0]))
        return 2.0 * math.acos(w)

    def rotation_angle_to(self, other: "RigidTransform") -> float:
        return self.inverse().compose(other).rotation_angle()

    def translation_distance_to(self, other: "RigidTransform") -> float:
        return _point_distance(self.translation, other.translation)


_SET_ROTATION = RigidTransform.rotation.__set__
_SET_TRANSLATION = RigidTransform.translation.__set__


def slerp(a: Quat, b: Quat, fraction: float) -> Quat:
    """Shortest-arc spherical interpolation between two unit quaternions."""
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    if dot < 0.0:
        b = (-b[0], -b[1], -b[2], -b[3])
        dot = -dot
    if dot > 1.0 - 1e-12:
        # Nearly parallel: renormalized lerp avoids the degenerate sin term.
        out = tuple(a[i] + fraction * (b[i] - a[i]) for i in range(4))
        return _qnormalize(out)
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    wa = math.sin((1.0 - fraction) * theta) / s
    wb = math.sin(fraction * theta) / s
    return _qnormalize(tuple(wa * a[i] + wb * b[i] for i in range(4)))


def euler_xyz_from_quat(q: Quat) -> tuple[float, float, float]:
    """Intrinsic X-Y-Z Euler angles (radians) of a unit quaternion."""
    w, x, y, z = q
    sinp = 2.0 * (w * y + x * z)
    sinp = max(-1.0, min(1.0, sinp))
    rx = math.atan2(2.0 * (w * x - y * z), 1.0 - 2.0 * (x * x + y * y))
    ry = math.asin(sinp)
    rz = math.atan2(2.0 * (w * z - x * y), 1.0 - 2.0 * (y * y + z * z))
    return (rx, ry, rz)


def quat_from_euler_xyz(rx: float, ry: float, rz: float) -> Quat:
    qx = (math.cos(0.5 * rx), math.sin(0.5 * rx), 0.0, 0.0)
    qy = (math.cos(0.5 * ry), 0.0, math.sin(0.5 * ry), 0.0)
    qz = (math.cos(0.5 * rz), 0.0, 0.0, math.sin(0.5 * rz))
    return _qnormalize(_qmul(_qmul(qx, qy), qz))


@dataclass(frozen=True, slots=True)
class CorrectionChain:
    """Intermediate products of the docking frame-correction pipeline."""

    effector_to_tool: RigidTransform
    effect_local_new: RigidTransform
    correction: RigidTransform
    effect_forward_new: RigidTransform


def correction_chain(base_w: RigidTransform, effect_w: RigidTransform,
                     tool_w: RigidTransform, target_w: RigidTransform,
                     effect_fwd: RigidTransform) -> CorrectionChain:
    """Compute the corrected effector transform that puts the tool on target.

    All the world-frame inputs come from external tracking; ``effect_fwd`` is
    the controller-side effector estimate the correction is applied to. The
    chain solves for the effector pose whose rigidly attached tool coincides
    with the target, working entirely in the arm-base frame so the result is
    independent of where the world origin sits.
    """
    base_inv = base_w.inverse()
    effect_local = base_inv.compose(effect_w)
    target_local = base_inv.compose(target_w)
    effect_local_inv = effect_local.inverse()
    effector_to_tool = effect_local_inv.compose(base_inv.compose(tool_w))
    tool_to_effector = effector_to_tool.inverse()
    effect_local_new = target_local.compose(tool_to_effector)
    correction = effect_local_inv.compose(effect_local_new)
    effect_forward_new = effect_fwd.compose(correction)
    return CorrectionChain(effector_to_tool, effect_local_new, correction,
                           effect_forward_new)
