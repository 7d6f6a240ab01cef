"""Capability algebra: what a hybrid of docked devices can do, and where.

Composing grounded arms with a worn glove yields pose-dependent envelopes:
inside an arm's reach the hybrid can render ground-referenced force, outside
it degrades to the glove alone. Regions where two arms overlap stack their
force contributions. The force envelope is the largest such stack; a sweep
over the reach boxes' lower corners finds it in O(n^4) for n arms (see
``_max_force_over_cells``).

A stacked force is a bound of the layout, not something a run renders: the
coordinator docks one arm at a time (its one dock slot, ``Coordinator.dock``
in the harness), so ``hapdock run`` renders at most one arm's force at any tick.

``capability_at`` answers from a per-axis interval index that a capability
builds on its first query and keeps in a field that equality, hashing and
``repr`` never see. Each region's interval ends on an axis are the first and
last floats where the closed-box test ``abs(p - c) <= h`` itself holds, so a
lookup reaches exactly the regions that test would, shared faces included.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .devices import NUM_FINGERS, ArmSpec, GloveSpec
from .docking import (DEFAULT_BREAKING_FORCE_N, DEFAULT_FRICTION_MU,
                      DockJointKind)
from .geometry import Box, Vec3


class _Unbounded:
    """Explicit marker for an unlimited range; never a sentinel float."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unbounded"


UNBOUNDED = _Unbounded()

ROT_AXES = ("rx", "ry", "rz")


class CapabilityError(ValueError):
    """Invalid device topology for capability composition."""


@dataclass(frozen=True, slots=True)
class DockLink:
    """Declares that a grounded arm can dock the given glove via a joint kind."""

    arm_index: int
    glove_index: int
    kind: DockJointKind
    breaking_force: float = DEFAULT_BREAKING_FORCE_N
    friction_mu: float = DEFAULT_FRICTION_MU

    def __post_init__(self):
        if self.breaking_force <= 0.0:
            raise CapabilityError("breaking_force must be strictly positive")
        if self.friction_mu < 0.0:
            raise CapabilityError("friction_mu must be >= 0")


@dataclass(frozen=True, slots=True)
class ForceRegion:
    """One arm's reach box with the per-axis force it contributes inside it."""

    arm_name: str
    box: Box
    force: Vec3
    torque: tuple[tuple[str, float], ...]


@dataclass(frozen=True, slots=True)
class HybridCapability:
    """Envelope description of a composed device set.

    Translation is enhanced inside the ``force_regions`` boxes and, with a
    glove present, unbounded outside them.
    """

    rotation_volume: tuple          # per base axis: degrees or UNBOUNDED
    force_envelope: Vec3            # per-axis max over the whole volume
    torque_envelope: tuple[tuple[str, float], ...]
    degraded_dofs: tuple[str, ...]
    force_regions: tuple[ForceRegion, ...]
    glove_torques: tuple[tuple[str, float], ...]
    glove_present: bool
    # Built by the first ``capability_at`` (see ``_build_index``).
    _index: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class PointCapability:
    """Envelope available at one specific hand pose."""

    force: Vec3
    torque: tuple[tuple[str, float], ...]
    reachable_by: tuple[str, ...]
    grounded: bool


def _validate_topology(arms: Sequence[ArmSpec], gloves: Sequence[GloveSpec],
                       links: Sequence[DockLink]) -> None:
    for i, link in enumerate(links):
        if not 0 <= link.arm_index < len(arms):
            raise CapabilityError(f"links[{i}]: arm index {link.arm_index} out of range")
        if not 0 <= link.glove_index < len(gloves):
            raise CapabilityError(f"links[{i}]: glove index {link.glove_index} out of range")
    # Parents must be grounded and children worn, so the dock graph is a
    # forest rooted at the arms by construction; anything else would cycle.
    seen = set()
    for i, link in enumerate(links):
        key = (link.arm_index, link.glove_index)
        if key in seen:
            raise CapabilityError(f"links[{i}]: duplicate dock edge {key}")
        seen.add(key)


def _arm_force_through_joint(spec: ArmSpec, link: DockLink) -> Vec3:
    force = list(spec.max_force)
    for i, label in enumerate(("tx", "ty", "tz")):
        if label in link.kind.free:
            force[i] = 0.0
        elif label in link.kind.friction_limited:
            force[i] = min(force[i], link.friction_mu * link.breaking_force)
    return tuple(force)


def _arm_torque_through_joint(spec: ArmSpec, name: str, degraded: tuple[str, ...]
                              ) -> tuple[tuple[str, float], ...]:
    return tuple((f"{name}:{axis}", spec.max_torque[i])
                 for i, axis in enumerate(ROT_AXES) if axis not in degraded)


def _glove_torques(glove: GloveSpec) -> tuple[tuple[str, float], ...]:
    return tuple((f"{glove.name}:finger{i}", glove.max_joint_torque)
                 for i in range(NUM_FINGERS))


def _max_force_over_cells(regions: Sequence[ForceRegion]) -> Vec3:
    """Per-axis maximum of summed contributions over the box arrangement.

    Only boxes whose interiors overlap by more than 1e-12 m on every axis
    stack their force; touching boxes do not. A set of boxes overlaps in this
    sense exactly when, at its lower corner ``c`` (the per-axis max of its
    lower bounds), every box has ``lo <= c`` and ``hi - c > 1e-12``. The sweep
    therefore visits the corners whose x, y and z are lower bounds of some
    box, one axis at a time, and sums in region order the forces of the
    boxes live there. Every contribution is >= 0, so a live set's sum bounds
    that of each of its subsets: the result is the maximum over all
    overlapping subsets, and a set whose sum raises no axis of the best so
    far is not swept further. O(n^4) in the worst case.
    """
    boxes = [(r.box.min_corner(), r.box.max_corner(), r.force) for r in regions]
    # A lone box counts however thin it is: the 1e-12 rule only decides stacking.
    best = [max(col) for col in zip((0.0, 0.0, 0.0), *(r.force for r in regions))]

    def sweep(group, axis):
        totals = [sum(col) for col in zip(*(f for _, _, f in group))]
        if not any(t > m for t, m in zip(totals, best)):
            return
        if axis == 3:
            best[:] = map(max, best, totals)
            return
        for c in {lo[axis] for lo, _, _ in group}:
            sweep([b for b in group if b[0][axis] <= c and b[1][axis] - c > 1e-12],
                  axis + 1)

    sweep(boxes, 0)
    return tuple(best)


def compose_capability(arms: Sequence[ArmSpec], gloves: Sequence[GloveSpec],
                       links: Sequence[DockLink],
                       arm_names: Sequence[str] | None = None) -> HybridCapability:
    """Compose device specs and dock links into the hybrid envelope.

    Link the same glove to several arms to describe multi-arm layouts: arms
    with overlapping reach stack their force where they overlap, adjacent
    arms extend the enhanced region instead (handover).
    """
    _validate_topology(arms, gloves, links)
    arm_names = list(arm_names or (a.name for a in arms))

    linked_arms = sorted({l.arm_index for l in links})
    if links:
        active = [(i, next(l for l in links if l.arm_index == i)) for i in linked_arms]
    else:
        active = [(i, None) for i in range(len(arms))]

    regions = []
    torques: list[tuple[str, float]] = []
    degraded: list[str] = []
    degraded_axes = set()
    for i, link in active:
        spec = arms[i]
        name = arm_names[i]
        if link is None:
            force, dofs = tuple(spec.max_force), ()
        else:
            dofs = link.kind.degraded_dofs()
            force = _arm_force_through_joint(spec, link)
        arm_torque = _arm_torque_through_joint(spec, name, dofs)
        degraded.extend(f"{name}:{d}" for d in dofs)
        degraded_axes.update(d for d in dofs if d in ROT_AXES)
        regions.append(ForceRegion(arm_name=name, box=spec.workspace_box_world(),
                                   force=force, torque=arm_torque))
        torques.extend(arm_torque)

    glove_torques: list[tuple[str, float]] = []
    for g in gloves:
        glove_torques.extend(_glove_torques(g))
    torques.extend(glove_torques)

    rotation: list = [UNBOUNDED, UNBOUNDED, UNBOUNDED]
    if active and arms:
        for j, axis in enumerate(ROT_AXES):
            if axis not in degraded_axes:
                rotation[j] = max(arms[i].rot_range_deg[j] for i, _ in active)
    elif not gloves:
        rotation = [0.0, 0.0, 0.0]

    return HybridCapability(
        rotation_volume=tuple(rotation),
        force_envelope=_max_force_over_cells(regions),
        torque_envelope=tuple(torques),
        degraded_dofs=tuple(degraded),
        force_regions=tuple(regions),
        glove_torques=tuple(glove_torques),
        glove_present=bool(gloves),
    )


_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_TOP = 0x7FF0000000000000         # float-order key of +inf; -_TOP is -inf's


def _key(f: float) -> int:
    """Position of ``f`` in float order, one integer step per float; -0.0 and
    0.0 share 0, as they do for every comparison."""
    bits = _I64.unpack(_F64.pack(f))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _float(k: int) -> float:
    return _F64.unpack(_I64.pack(k if k >= 0 else -k | -0x8000000000000000))[0]


def _last_inside(c: float, h: float, start: int) -> int:
    """Key of the last float ``p`` with ``abs(p - c) <= h``, searching up
    from key ``start``, where the test holds.

    The floats passing the test are contiguous in float order, because
    ``p - c`` rounds monotonically. The search gallops up from ``c + h``,
    where the end usually lies within an ulp or two, then bisects. An end
    near 0.0 can lie far from ``c + h`` in float steps (about 4.4e18 for
    c = -0.5, h = 0.5, whose end is 5.55e-17), and takes about 120 tests.
    """
    def inside(k):
        return k <= _TOP and abs(_float(k) - c) <= h

    lo = start
    hi = max(_key(c + h), lo)
    step = 1
    while inside(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _interval(c: float, h: float) -> tuple[int, int] | None:
    """Keys of the first and last float ``p`` with ``abs(p - c) <= h``, or
    None when no float passes.

    The test holds at ``c`` itself unless ``c`` or ``h`` is not finite; only
    an infinite ``c`` with ``h`` = inf then passes anything, 0.0 among it.
    The lower end mirrors the upper one: ``abs(p - c)`` equals
    ``abs(-p - -c)`` bit for bit.
    """
    for anchor in (c, 0.0):
        if abs(anchor - c) <= h:
            a = _key(anchor)
            return -_last_inside(-c, h, -a), _last_inside(c, h, a)
    return None


def _build_index(cap: HybridCapability) -> tuple:
    """Per axis, the sorted interval starts and floats after each interval
    end, and for each slot between them the bitmask of the regions (bit k
    for ``force_regions[k]``) that reach it. Then an empty map from a
    reached mask to its ``PointCapability``, filled as queries reach masks."""
    index = []
    for axis in range(3):
        spans = []
        for bit, region in enumerate(cap.force_regions):
            ends = _interval(region.box.center[axis], region.box.half_extents[axis])
            if ends is not None:
                lo, hi = ends
                # A region reaching +inf has no float after its end.
                after = _float(hi + 1) if hi < _TOP else None
                spans.append((1 << bit, _float(lo), after))
        cuts = sorted({v for _, lo, after in spans for v in (lo, after) if v is not None})
        # Slot i holds the points p with cuts[i - 1] <= p < cuts[i].
        masks = [0] + [sum(bit for bit, lo, after in spans
                           if lo <= v and (after is None or v < after)) for v in cuts]
        index += [cuts, masks]
    index.append({})
    object.__setattr__(cap, "_index", tuple(index))
    return cap._index


def _answer(cap: HybridCapability, mask: int) -> PointCapability:
    force = [0.0, 0.0, 0.0]
    torque: list[tuple[str, float]] = []
    reachable = []
    for bit, region in enumerate(cap.force_regions):
        if mask >> bit & 1:
            reachable.append(region.arm_name)
            for axis in range(3):
                force[axis] += region.force[axis]
            torque.extend(region.torque)
    torque.extend(cap.glove_torques)
    return PointCapability(force=tuple(force), torque=tuple(torque),
                           reachable_by=tuple(reachable), grounded=bool(reachable))


def capability_at(cap: HybridCapability, point) -> PointCapability:
    """Envelope available at a world point (three numbers): sum of the arms
    that reach it.

    Reach is a closed box, so a point on a face two boxes share sums both
    arms, although the boxes share no interior and ``force_envelope`` does
    not stack them there. Away from every face the sum never exceeds the
    envelope.

    The first query builds the capability's index (``_build_index``): the
    exact float interval each region's closed-box test passes on each axis.
    A query is then one ``bisect_right`` per axis and the intersection of
    three bitmasks, and points that reach the same regions share one
    ``PointCapability``, its force summed in region order as the box test
    would. The index is never compared, hashed or printed.
    """
    x, y, z = point
    x, y, z = float(x), float(y), float(z)
    xs, xm, ys, ym, zs, zm, answers = cap._index or _build_index(cap)
    mask = xm[bisect_right(xs, x)] & ym[bisect_right(ys, y)] & zm[bisect_right(zs, z)]
    # NaN sorts past every cut, into +inf's slot, which only a region with
    # an infinite half extent reaches; no box holds NaN.
    if mask and (x != x or y != y or z != z):
        mask = 0
    found = answers.get(mask)
    if found is None:
        found = answers[mask] = _answer(cap, mask)
    return found


def _fmt_mm(meters: float) -> int:
    return round(meters * 1000.0)


def _fmt_rotation(rotation) -> str:
    parts = []
    for r in rotation:
        parts.append("inf" if r is UNBOUNDED else f"{r:g} deg")
    return " x ".join(parts)


def capability_to_dict(cap: HybridCapability) -> dict:
    """Machine-readable capability report."""
    boxes = []
    for region in cap.force_regions:
        boxes.append({
            "arm": region.arm_name,
            "center_m": list(region.box.center),
            "extents_m": list(region.box.extents),
            "extents_mm": [_fmt_mm(e) for e in region.box.extents],
            "force_n": list(region.force),
        })
    return {
        "translation": {
            "boxes": boxes,
            "unbounded_outside": cap.glove_present,
        },
        "rotation_deg": [None if r is UNBOUNDED else r for r in cap.rotation_volume],
        "force_envelope_n": list(cap.force_envelope),
        "torque_envelope_nm": [[label, value] for label, value in cap.torque_envelope],
        "degraded_dofs": list(cap.degraded_dofs),
        "glove_present": cap.glove_present,
    }


def capability_report(cap: HybridCapability) -> str:
    """Human-readable capability report."""
    lines = ["hybrid capability"]
    for region in cap.force_regions:
        e = region.box.extents
        lines.append(f"  reach[{region.arm_name}]: "
                     f"{_fmt_mm(e[0])} x {_fmt_mm(e[1])} x {_fmt_mm(e[2])} mm "
                     f"at {tuple(round(c, 4) for c in region.box.center)}")
    if cap.glove_present:
        lines.append("  translation outside enhanced regions: unbounded (worn device only)")
    lines.append(f"  rotation: {_fmt_rotation(cap.rotation_volume)}")
    fx, fy, fz = cap.force_envelope
    lines.append(f"  force: {fx:g} / {fy:g} / {fz:g} N (zero where ungrounded)")
    if len(cap.force_regions) > 1:
        lines.append("  force where reaches overlap is a layout bound: "
                     "a run docks one arm at a time")
    torque_txt = ", ".join(f"{label}={value:g} Nm" for label, value in cap.torque_envelope)
    lines.append(f"  torque: {torque_txt}")
    if cap.degraded_dofs:
        lines.append(f"  degraded DOFs: {', '.join(cap.degraded_dofs)}")
    return "\n".join(lines)
