"""Axis-aligned box helpers shared by the workspace, capability and physics code."""

from __future__ import annotations

from dataclasses import dataclass

Vec3 = tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box given by center and half extents."""

    center: Vec3
    half_extents: Vec3

    def __post_init__(self):
        if any(h <= 0.0 for h in self.half_extents):
            raise ValueError("box half extents must be strictly positive")

    @classmethod
    def from_extents(cls, center, extents) -> "Box":
        return cls(tuple(float(c) for c in center),
                   tuple(0.5 * float(e) for e in extents))

    @property
    def extents(self) -> Vec3:
        return tuple(2.0 * h for h in self.half_extents)

    def min_corner(self) -> Vec3:
        return tuple(c - h for c, h in zip(self.center, self.half_extents))

    def max_corner(self) -> Vec3:
        return tuple(c + h for c, h in zip(self.center, self.half_extents))

    def contains(self, p, margin: float = 0.0) -> bool:
        return all(abs(p[i] - self.center[i]) <= self.half_extents[i] + margin
                   for i in range(3))

    def clamp_point(self, p) -> Vec3:
        out = []
        for i in range(3):
            lo = self.center[i] - self.half_extents[i]
            hi = self.center[i] + self.half_extents[i]
            out.append(min(hi, max(lo, float(p[i]))))
        return tuple(out)

    def inflate(self, margin: float) -> "Box":
        return Box(self.center, tuple(h + margin for h in self.half_extents))

    def translate(self, offset) -> "Box":
        return Box(tuple(c + float(o) for c, o in zip(self.center, offset)),
                   self.half_extents)

    def intersection(self, other: "Box") -> "Box | None":
        """Overlap box, or None when the interiors do not intersect."""
        lo = [max(a, b) for a, b in zip(self.min_corner(), other.min_corner())]
        hi = [min(a, b) for a, b in zip(self.max_corner(), other.max_corner())]
        if any(h - l <= 1e-12 for l, h in zip(lo, hi)):
            return None
        return Box(tuple(0.5 * (l + h) for l, h in zip(lo, hi)),
                   tuple(0.5 * (h - l) for l, h in zip(lo, hi)))
