"""Axis-aligned box helpers and the tick length, shared by every layer."""

from __future__ import annotations

from dataclasses import dataclass

Vec3 = tuple[float, float, float]
ZERO3: Vec3 = (0.0, 0.0, 0.0)
ZERO6 = (0.0,) * 6  # a zero wrench

# The coordinator's one tick rate, and its tick length in seconds.
TICK_RATE_HZ = 1000.0
DT = 1.0 / TICK_RATE_HZ


def lerp(v0, v1, a: float) -> tuple[float, ...]:
    """``v0 + a * (v1 - v0)`` component by component, as a tuple."""
    return tuple([x0 + a * (x1 - x0) for x0, x1 in zip(v0, v1)])


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box given by center and half extents."""

    center: Vec3
    half_extents: Vec3

    def __post_init__(self):
        if any(not h > 0.0 for h in self.half_extents):
            raise ValueError("box half extents must be strictly positive")

    @classmethod
    def from_extents(cls, center, extents) -> "Box":
        return cls(tuple(float(c) for c in center),
                   tuple(0.5 * float(e) for e in extents))

    @property
    def extents(self) -> Vec3:
        return tuple(2.0 * h for h in self.half_extents)

    def min_corner(self) -> Vec3:
        (cx, cy, cz), (hx, hy, hz) = self.center, self.half_extents
        return (cx - hx, cy - hy, cz - hz)

    def max_corner(self) -> Vec3:
        (cx, cy, cz), (hx, hy, hz) = self.center, self.half_extents
        return (cx + hx, cy + hy, cz + hz)

    def contains(self, p) -> bool:
        (cx, cy, cz), (hx, hy, hz) = self.center, self.half_extents
        return abs(p[0] - cx) <= hx and abs(p[1] - cy) <= hy and abs(p[2] - cz) <= hz

    def clamp_point(self, p) -> Vec3:
        (cx, cy, cz), (hx, hy, hz) = self.center, self.half_extents
        return (min(cx + hx, max(cx - hx, float(p[0]))),
                min(cy + hy, max(cy - hy, float(p[1]))),
                min(cz + hz, max(cz - hz, float(p[2]))))

    def inflate(self, margin: float) -> "Box":
        return Box(self.center, tuple(h + margin for h in self.half_extents))

    def translate(self, offset) -> "Box":
        return Box(tuple(c + float(o) for c, o in zip(self.center, offset)),
                   self.half_extents)
