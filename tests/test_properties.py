"""Property tests: invariants that must hold for every input, not just the
hand-picked cases of the unit tests."""

import copy
import itertools
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hapdock.capability import (DockLink, ForceRegion, PointCapability, capability_at,
                                compose_capability)
from hapdock.config import ConfigError, Track, sample_track, scenario_from_dict
from hapdock import harness
from hapdock.devices import (DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS, DEXMO_GLOVE,
                             NUM_FINGERS, PHALANGE_NAMES, VIRTUOSE_6D, ArmCommand,
                             ArmSpec, ArmState, HandCalibration, HandState, arm_step,
                             finger_sphere_centers, hand_collider_spheres,
                             hand_forward_model, hand_offsets, impedance_displacement)
from hapdock.docking import (DOF_LABELS, JOINT_KIND_CATALOG, LEGAL_TRANSITIONS,
                             PINNED_ROTARY, PLATE_FRICTION, PLATE_SLIP, PRISMATIC,
                             TOOTHED, DockContext, DockJoint, DockState, dock_step,
                             joint_transmit)
from hapdock.frames import RigidTransform
from hapdock.geometry import DT, Box
from hapdock.harness import Coordinator, _point_distance, _same_bits
from hapdock.routing import LowPassFilter, _paired_magnitude
from hapdock.sim import (BodyKind, HandCollider, RigidBody, World, _collect_contacts,
                         _sphere_box, step_world)
from shipped import NAMES, as_dict
from test_sim import fresh_copy, step_bits

joints = st.builds(
    DockJoint,
    kind=st.sampled_from(sorted(JOINT_KIND_CATALOG.values(), key=lambda k: k.name)),
    breaking_force=st.floats(1.0, 200.0),
    friction_mu=st.floats(0.0, 1.5),
    contact_radius=st.floats(1e-3, 0.05),
)
components = st.one_of(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                       st.integers(-1000, 1000))
wrenches = st.lists(components, min_size=6, max_size=6)


@settings(max_examples=500, deadline=None)
@given(joint=joints, wrench=wrenches)
def test_joint_transmit_invariants(joint, wrench):
    out, slip, released = joint_transmit(joint, wrench)

    assert type(out) is tuple and len(out) == 6
    assert all(type(v) is float for v in out)
    assert released == (wrench[2] > joint.breaking_force
                        or math.hypot(wrench[3], wrench[4]) > joint.peel_torque)
    if released:
        assert out == (0.0,) * 6 and not slip
    # The magnet never holds more tension than it is rated for.
    assert out[2] <= joint.breaking_force
    for i, label in enumerate(DOF_LABELS):
        assert abs(out[i]) <= abs(wrench[i])
        if label in joint.kind.free:
            assert out[i] == 0.0


def reference_joint_transmit(joint: DockJoint, wrench):
    """``joint_transmit`` as it scanned ``DOF_LABELS`` on every call."""
    out = [float(v) for v in wrench]
    tension = out[2]
    if tension > joint.breaking_force:
        return (0.0,) * 6, False, True
    peel = math.hypot(out[3], out[4])
    if peel > joint.peel_torque:
        return (0.0,) * 6, False, True
    free = joint.kind.free
    for i, label in enumerate(DOF_LABELS):
        if label in free:
            out[i] = 0.0
    slip = False
    preload = joint.breaking_force + max(0.0, -tension)
    fl = joint.kind.friction_limited
    tang_axes = [i for i in (0, 1) if DOF_LABELS[i] in fl]
    if tang_axes:
        tang = math.sqrt(sum(out[i] ** 2 for i in tang_axes))
        cap = joint.friction_mu * preload
        if tang > cap:
            scale = cap / tang
            for i in tang_axes:
                out[i] *= scale
            slip = True
    if "rz" in fl:
        cap = joint.friction_mu * preload * joint.contact_radius
        if abs(out[5]) > cap:
            out[5] = math.copysign(cap, out[5])
            slip = True
    return tuple(out), slip, False


signed_components = st.one_of(st.sampled_from((0.0, -0.0)), components,
                              st.floats(-50.0, 50.0, allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(joint=joints, wrench=st.lists(signed_components, min_size=6, max_size=6))
@example(joint=DockJoint(PLATE_SLIP), wrench=[-0.0, 0.0, -0.0, -0.0, 0.0, -0.0])
@example(joint=DockJoint(PLATE_SLIP, friction_mu=0.0), wrench=[3.0, -4.0, 0.0, 0.0, 0.0, -1.0])
def test_joint_transmit_matches_the_scanning_body(joint, wrench):
    out, slip, released = joint_transmit(joint, wrench)
    ref, ref_slip, ref_released = reference_joint_transmit(joint, wrench)
    assert [bits(v) for v in out] == [bits(v) for v in ref]
    assert (slip, released) == (ref_slip, ref_released)


def test_joint_kind_axes_cover_the_catalog():
    seen = {}
    for kind in JOINT_KIND_CATALOG.values():
        assert kind.free_axes == tuple(i for i, l in enumerate(DOF_LABELS) if l in kind.free)
        assert kind.tangential_axes == tuple(i for i in (0, 1)
                                             if DOF_LABELS[i] in kind.friction_limited)
        assert kind.rz_limited == ("rz" in kind.friction_limited)
        seen[kind.name] = (kind.free_axes, kind.tangential_axes, kind.rz_limited)
    # Every branch of joint_transmit is taken by some catalog kind.
    assert seen == {
        "plate_slip": ((), (0, 1), True),
        "plate_friction": ((), (), True),
        "pinned_rotary": ((5,), (), False),
        "toothed": ((), (), False),
        "prismatic": ((0,), (), False),
    }


# -- contact path ------------------------------------------------------------

def bits(x: float) -> bytes:
    return struct.pack("<d", x)


NEAR_ONE = (1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))
speeds = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
velocities = st.tuples(speeds, speeds, speeds)


@st.composite
def single_axis_normals(draw):
    """Unit normals with one nonzero component: signed (1 - ulp, 1, 1 + ulp)
    and what ``dx * (1 / dist)`` gives for a one-axis offset, as in ``_sphere_box``."""
    axis = draw(st.integers(0, 2))
    if draw(st.booleans()):
        value = draw(st.sampled_from(NEAR_ONE)) * draw(st.sampled_from((1.0, -1.0)))
    else:
        dx = draw(st.floats(-0.1, 0.1, allow_nan=False).filter(lambda x: x * x > 0.0))
        value = dx * (1.0 / math.sqrt(dx * dx))
    return tuple(value if i == axis else 0.0 for i in range(3))


@settings(max_examples=2000, deadline=None)
@given(v=velocities, o=velocities, n=single_axis_normals())
def test_single_axis_v_rel_matches_numpy_bits(v, o, n):
    # The solver's float form against the numpy expression it replaced.
    nx, ny, nz = n
    v_rel = (v[0] - o[0]) * nx + (v[1] - o[1]) * ny + (v[2] - o[2]) * nz
    expected = float((np.array(v) - np.array(o)) @ np.array(n))
    if expected != 0.0:
        assert bits(v_rel) == bits(expected)
        return
    # A zero may carry the other sign (-0.0 + -0.0 stays -0.0, numpy's sum
    # starts from +0.0), but the clamped accumulation the solver feeds it to
    # comes out the same.
    assert v_rel == 0.0
    for acc, inv_mass in ((0.0, 2.0), (0.25, 3.0)):
        assert (bits(max(0.0, acc + -v_rel / inv_mass))
                == bits(max(0.0, acc + -expected / inv_mass)))


BOX_KINDS = (BodyKind.DYNAMIC, BodyKind.STATIC)
coords = st.floats(-0.2, 0.2, allow_nan=False)
halves = st.floats(0.005, 0.1, allow_nan=False)
radii = st.floats(0.002, 0.06, allow_nan=False)


def reference_sphere_box(cx, cy, cz, radius, bx, by, bz, hx, hy, hz):
    """The solver's sphere-box test before the merge: ``(n_out, depth,
    point)``, or None when separated, with its own separating-axis rejects."""
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
    gaps = (hx - abs(rx), hy - abs(ry), hz - abs(rz))
    axis = gaps.index(min(gaps))
    rel = (rx, ry, rz)[axis]
    sign = 1.0 if rel >= 0.0 else -1.0
    n_out = tuple(sign if i == axis else 0.0 for i in range(3))
    point = (cx - n_out[0] * gaps[axis], cy - n_out[1] * gaps[axis],
             cz - n_out[2] * gaps[axis])
    return n_out, radius + gaps[axis], point


def reference_signed_depth(center, radius, box_pos, box_half) -> float:
    """The contact-drum search's signed depth before the merge."""
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


# Per axis, where a sphere center sits relative to the box center, as a
# function of the half extent h and the radius r: on the face, at exact
# face touch and 1e-13 m either side of it, and at the per-axis offset of an
# edge or corner touch.
AXIS_OFFSETS = (lambda h, r: h, lambda h, r: h + r, lambda h, r: h + r + 1e-13,
                lambda h, r: h + r - 1e-13, lambda h, r: h + r / math.sqrt(2.0),
                lambda h, r: h + r / math.sqrt(3.0))


@st.composite
def sphere_box_cases(draw):
    """A box and a sphere whose center is, per axis, inside the box, at one
    of ``AXIS_OFFSETS`` on either side, or anywhere nearby."""
    box = draw(st.tuples(coords, coords, coords))
    half = draw(st.tuples(halves, halves, halves))
    r = draw(radii)
    center = []
    for b, h in zip(box, half):
        kind = draw(st.integers(0, len(AXIS_OFFSETS) + 1))
        if kind < len(AXIS_OFFSETS):
            side = draw(st.sampled_from((1.0, -1.0)))
            center.append(b + side * AXIS_OFFSETS[kind](h, r))
        elif kind == len(AXIS_OFFSETS):
            center.append(b + draw(st.floats(-1.0, 1.0)) * h)
        else:
            center.append(b + draw(st.floats(-0.3, 0.3)))
    return tuple(center), r, box, half


@settings(max_examples=3000, deadline=None)
@given(case=sphere_box_cases())
def test_merged_sphere_box_matches_both_old_forms(case):
    center, r, box, half = case
    depth, n_out, point = _sphere_box(*center, r, *box, *half)
    assert bits(depth) == bits(reference_signed_depth(center, r, box, half))
    old = reference_sphere_box(*center, r, *box, *half)
    if old is None:
        assert depth <= 0.0 and n_out is None and point is None
    else:
        old_n, old_depth, old_point = old
        assert bits(depth) == bits(old_depth)
        assert [bits(v) for v in n_out + point] == [bits(v) for v in old_n + old_point]


@st.composite
def hand_worlds(draw):
    """Boxes of both kinds plus hand spheres, some placed exactly on a box
    face or within 1e-12 m of it. Half the hands are built elsewhere by
    ``set_hand`` and brought to these centers by ``move_hand``."""
    world = World()
    n_boxes = draw(st.integers(1, 4))
    for i in range(n_boxes):
        kind = draw(st.sampled_from(BOX_KINDS))
        world.add_body(RigidBody(
            name=f"box{i}", kind=kind,
            position=draw(st.tuples(coords, coords, coords)),
            half_extents=draw(st.tuples(halves, halves, halves)),
            mass=1.0 if kind is BodyKind.DYNAMIC else 0.0,
            collide_with_hand=draw(st.booleans())))
    spheres = []
    for j in range(draw(st.integers(1, 16))):
        r = draw(radii)
        if draw(st.booleans()):
            center = draw(st.tuples(coords, coords, coords))
        else:
            body = world.bodies[draw(st.integers(0, n_boxes - 1))]
            axis = draw(st.integers(0, 2))
            side = draw(st.sampled_from((1.0, -1.0)))
            gap = draw(st.sampled_from((0.0, 1e-12, -1e-12)))
            center = []
            for k in range(3):
                p, h = body.position[k], body.half_extents[k]
                if k == axis:
                    center.append(p + side * (h + r + gap))
                else:
                    center.append(p + draw(st.floats(-1.0, 1.0)) * h)
        spheres.append(HandCollider(f"s{j}", tuple(center), r, (0.0, 0.0, 0.0)))
    if draw(st.booleans()):
        centers = [h.center for h in spheres]
        for h in spheres:
            h.center = draw(st.tuples(coords, coords, coords))
        world.set_hand(spheres)
        world.move_hand(centers)
    else:
        world.set_hand(spheres)
    return world


def brute_force_hand_hits(world: World, dynamic: bool) -> list:
    """Every hand sphere against every hand-colliding box of one kind, by the
    pre-merge sphere-box test."""
    hits = []
    for body in world.bodies:
        if (body.kind is BodyKind.DYNAMIC) is not dynamic or not body.collide_with_hand:
            continue
        for h in world.hand:
            hit = reference_sphere_box(*h.center, h.radius, *body.position,
                                       *body.half_extents)
            if hit is not None:
                n_out, depth, point = hit
                hits.append((body.name, h.name, tuple(-c for c in n_out), depth, point))
    return hits


@settings(max_examples=500, deadline=None)
@given(world=hand_worlds())
def test_hand_broadphase_culls_no_contact(world):
    # One collection yields both kinds: the solver's hand contacts on dynamic
    # boxes and the penalty contacts on static ones.
    collected, impulses = _collect_contacts(world)
    contacts = [(c.body.name, c.hand.name, c.normal, c.depth, c.point)
                for c in collected if c.hand is not None]
    assert contacts == brute_force_hand_hits(world, dynamic=True)
    k = world.params.surface_stiffness
    penalty = [(imp.body_b, imp.hand_collider, imp.normal, imp.magnitude, imp.point)
               for imp in impulses]
    assert penalty == [(b, h, n, k * depth * DT, p)
                       for b, h, n, depth, p in brute_force_hand_hits(world, dynamic=False)]


@settings(max_examples=300, deadline=None)
@given(world=hand_worlds(), data=st.data())
def test_moved_hand_matches_a_hand_set_there(world, data):
    before = [h.center for h in world.hand]
    objects = list(world.hand)
    centers = [data.draw(st.tuples(coords, coords, coords)) for _ in before]
    world.move_hand(centers)
    assert all(h is o for h, o in zip(world.hand, objects))
    for h, c, p in zip(world.hand, centers, before):
        assert h.center == c
        assert ([bits(v) for v in h.velocity]
                == [bits((a - b) / DT) for a, b in zip(c, p)])


@st.composite
def box_worlds(draw):
    """Boxes of both kinds, some placed with a face exactly on another box's
    face or 1e-13 m off it (apart or overlapping)."""
    world = World()
    n_boxes = draw(st.integers(2, 5))
    for i in range(n_boxes):
        kind = draw(st.sampled_from(BOX_KINDS))
        half = draw(st.tuples(halves, halves, halves))
        if i and draw(st.booleans()):
            other = world.bodies[draw(st.integers(0, i - 1))]
            axis = draw(st.integers(0, 2))
            side = draw(st.sampled_from((1.0, -1.0)))
            gap = draw(st.sampled_from((0.0, 1e-13, -1e-13)))
            position = []
            for k in range(3):
                p, h = other.position[k], other.half_extents[k]
                if k == axis:
                    position.append(p + side * (h + half[k] + gap))
                else:
                    position.append(p + draw(st.floats(-1.0, 1.0)) * (h + half[k]))
        else:
            position = draw(st.tuples(coords, coords, coords))
        world.add_body(RigidBody(name=f"box{i}", kind=kind, position=position,
                                 half_extents=half,
                                 mass=1.0 if kind is BodyKind.DYNAMIC else 0.0))
    return world


def brute_force_box_hits(world: World) -> list:
    """``reference_box_box`` on every pair with a dynamic body, in pair order."""
    hits = []
    bodies = world.bodies
    for i, a in enumerate(bodies):
        for b in bodies[i + 1:]:
            if a.kind is not BodyKind.DYNAMIC and b.kind is not BodyKind.DYNAMIC:
                continue
            hit = reference_box_box(*a.position, *a.half_extents,
                                    *b.position, *b.half_extents)
            if hit is None:
                continue
            normal, depth, point = hit
            if b.kind is BodyKind.DYNAMIC:
                hits.append((b.name, a.name, normal, depth, point))
            else:
                hits.append((a.name, b.name, tuple(-c for c in normal), depth, point))
    return hits


@settings(max_examples=500, deadline=None)
@given(world=box_worlds())
def test_hoisted_box_reject_culls_exactly_the_misses(world):
    contacts = [(c.body.name, c.other.name, c.normal, c.depth, c.point)
                for c in _collect_contacts(world)[0] if c.hand is None]
    assert contacts == brute_force_box_hits(world)


def reference_box_box(ax, ay, az, hax, hay, haz, bx, by, bz, hbx, hby, hbz):
    """The box-box test as it was written before its axis pick was unrolled:
    (normal pushing B away from A, depth, point), or None."""
    dx, dy, dz = bx - ax, by - ay, bz - az
    overlaps = (hax + hbx - abs(dx), hay + hby - abs(dy), haz + hbz - abs(dz))
    if min(overlaps) <= 0.0:
        return None
    axis = overlaps.index(min(overlaps))
    sign = 1.0 if (dx, dy, dz)[axis] >= 0.0 else -1.0
    normal = tuple(sign if i == axis else 0.0 for i in range(3))
    point = (0.5 * (max(ax - hax, bx - hbx) + min(ax + hax, bx + hbx)),
             0.5 * (max(ay - hay, by - hby) + min(ay + hay, by + hby)),
             0.5 * (max(az - haz, bz - hbz) + min(az + haz, bz + hbz)))
    return normal, overlaps[axis], point


# Few distinct values, so equal overlaps on two or three axes are common.
grid = st.sampled_from((-0.02, -0.01, 0.0, 0.01, 0.02))
grid_halves = st.sampled_from((0.01, 0.015, 0.02))


@settings(max_examples=1000, deadline=None)
@given(a=st.tuples(grid, grid, grid), ha=st.tuples(grid_halves, grid_halves, grid_halves),
       b=st.tuples(grid, grid, grid), hb=st.tuples(grid_halves, grid_halves, grid_halves))
def test_box_box_picks_the_axis_index_min_picks(a, ha, b, hb):
    world = World()
    world.add_body(RigidBody(name="a", kind=BodyKind.STATIC, position=a, half_extents=ha))
    world.add_body(RigidBody(name="b", kind=BodyKind.DYNAMIC, position=b, half_extents=hb,
                             mass=1.0))
    got = [(c.normal, c.depth, c.point) for c in _collect_contacts(world)[0]]
    got = got[0] if got else None
    expected = reference_box_box(*a, *ha, *b, *hb)
    assert got == expected
    if got is not None:
        assert [bits(v) for v in got[0]] == [bits(v) for v in expected[0]]


# -- fixed-point step ----------------------------------------------------------

@st.composite
def still_hand_runs(draw):
    """A desk, 1-3 dynamic boxes resting on it, dropped onto it or sunk into
    it, 0-16 hand spheres around them, and the hand's centers for each tick:
    stretches where the hand stands still between stretches where it moves.
    Half the runs give the centers as numpy arrays."""
    world = World()
    world.add_body(RigidBody("desk", BodyKind.STATIC, [0.0, -0.03, 0.0], (0.5, 0.03, 0.5),
                             collide_with_hand=draw(st.booleans())))
    for i in range(draw(st.integers(1, 3))):
        half = draw(st.tuples(halves, halves, halves))
        drop = draw(st.sampled_from((0.0, 1e-4, -1e-4)) | st.floats(-1e-3, 1e-3))
        world.add_body(RigidBody(f"box{i}", BodyKind.DYNAMIC,
                                 [draw(coords), half[1] + drop, draw(coords)], half,
                                 mass=draw(st.floats(0.01, 1.0))))
    spheres = []
    for j in range(draw(st.integers(0, 16))):
        r = draw(radii)
        body = world.bodies[draw(st.integers(1, len(world.bodies) - 1))]
        # Anywhere around the box, or on a face: up to 1 mm off it or sunk
        # less than the solver's slop.
        axis = draw(st.integers(-1, 2))
        side = draw(st.sampled_from((1.0, -1.0)))
        center = tuple(p + side * (h + r - draw(st.floats(-1e-3, 4e-4))) if k == axis
                       else p + draw(st.floats(-1.0, 1.0)) * (h + r * (axis < 0))
                       for k, (p, h) in enumerate(zip(body.position, body.half_extents)))
        spheres.append(HandCollider(f"s{j}", center, r, (0.0, 0.0, 0.0)))
    world.set_hand(spheres)
    as_array = np.array if draw(st.booleans()) else tuple
    centers = [h.center for h in spheres]
    frames = []
    for k in range(draw(st.integers(1, 4))):
        # The first stretch is still, the others move or stand still.
        step = (0.0, 0.0, 0.0)
        if k and draw(st.booleans()):
            step = draw(st.tuples(*[st.floats(-5e-4, 5e-4)] * 3))
        for _ in range(draw(st.integers(1, 12))):
            centers = [tuple(c + d for c, d in zip(center, step)) for center in centers]
            frames.append([as_array(c) for c in centers])
    return world, frames


@settings(max_examples=150, deadline=None)
@given(run=still_hand_runs())
def test_fixed_point_step_matches_a_fresh_world(run):
    # The reference world is a new copy every tick, so it never has a
    # fixed point to repeat.
    world, frames = run
    reference = fresh_copy(world)
    for centers in frames:
        world.move_hand(centers)
        reference.move_hand(centers)
        reference = fresh_copy(reference)
        report = step_world(world)[1]
        assert step_bits(world, report) == step_bits(reference, step_world(reference)[1])


@st.composite
def clear_hand_runs(draw):
    """A desk, 1-3 dynamic boxes side by side resting on it, dropped onto it
    or sunk into it, 1-16 hand spheres above them, and the hand's centers
    for each tick: every sphere moves on every tick and never comes down,
    so none ever touches a box. Half the runs give the centers as numpy
    arrays."""
    world = World()
    world.add_body(RigidBody("desk", BodyKind.STATIC, [0.0, -0.03, 0.0], (0.5, 0.03, 0.5),
                             collide_with_hand=draw(st.booleans())))
    for i in range(draw(st.integers(1, 3))):
        half = draw(st.tuples(halves, halves, halves))
        drop = draw(st.sampled_from((0.0, 1e-4, -1e-4)) | st.floats(-1e-3, 1e-3))
        world.add_body(RigidBody(f"box{i}", BodyKind.DYNAMIC,
                                 [0.25 * (i - 1), half[1] + drop, draw(coords)], half,
                                 mass=draw(st.floats(0.01, 1.0))))
    # A box settles less than 1 mm above where it starts.
    floor = max(b.position[1] + b.half_extents[1] for b in world.bodies) + 1e-3
    spheres = []
    for j in range(draw(st.integers(1, 16))):
        r = draw(radii)
        center = (draw(st.floats(-0.4, 0.4)), floor + r + draw(st.floats(0.0, 1e-3)),
                  draw(coords))
        spheres.append(HandCollider(f"s{j}", center, r, (0.0, 0.0, 0.0)))
    world.set_hand(spheres)
    as_array = np.array if draw(st.booleans()) else tuple
    centers = [h.center for h in spheres]
    frames = []
    for _ in range(draw(st.integers(1, 40))):
        step = draw(st.tuples(st.floats(-5e-4, 5e-4), st.floats(1e-6, 5e-4),
                              st.floats(-5e-4, 5e-4)))
        centers = [tuple(c + d for c, d in zip(center, step)) for center in centers]
        frames.append([as_array(c) for c in centers])
    return world, frames


@settings(max_examples=150, deadline=None)
@given(run=clear_hand_runs())
def test_hand_free_fixed_point_step_matches_a_fresh_world(run):
    # The hand moves on every tick, so only a hand-free record can repeat.
    world, frames = run
    reference = fresh_copy(world)
    for centers in frames:
        world.move_hand(centers)
        reference.move_hand(centers)
        reference = fresh_copy(reference)
        record = world.fixed_point
        report = step_world(world)[1]
        assert step_bits(world, report) == step_bits(reference, step_world(reference)[1])
        if record is not None and record[1] is None:
            assert world.fixed_point is record


# -- hand chains ---------------------------------------------------------------

def reference_finger_centers(geom, wrist, finger, joint_angles, abd_angle):
    """The chain as it was written before ``_qrotate`` was inlined."""
    mcp, pip, dip = joint_angles
    cum = (mcp, mcp + pip, mcp + pip + dip)
    ca, sa = math.cos(abd_angle), math.sin(abd_angle)
    curl = geom.curl_sign[finger]
    px, py, pz = geom.finger_base(finger)
    centers = []
    for length, theta in zip(geom.phalange_lengths, cum):
        dx = math.cos(theta)
        dy = curl * math.sin(theta)
        px += length * (dx * ca)
        py += length * dy
        pz += length * (-dx * sa)
        centers.append(wrist.transform_point((px, py, pz)))
    return centers


quat_parts = st.floats(-1.0, 1.0, allow_nan=False)
unit_quats = (st.tuples(quat_parts, quat_parts, quat_parts, quat_parts)
              .filter(lambda q: math.hypot(*q) > 1e-3))
translations = st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3)
poses = st.builds(RigidTransform.from_quat, unit_quats, translations)
unit_floats = st.floats(0.0, 1.0, allow_nan=False)


def reference_hand_spheres(wrist: RigidTransform, state: HandState) -> list:
    """Every hand sphere at ``wrist`` through the unmemoized reference chain."""
    geom, params = DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS
    out = [("palm", wrist.transform_point(geom.palm_center), geom.palm_radius)]
    for k in range(NUM_FINGERS):
        centers = reference_finger_centers(
            geom, wrist, k, params.joint_angles(state.flex[k]),
            params.abduction_angle(state.abduction[k]))
        out += [(name, c, geom.phalange_radius)
                for name, c in zip(PHALANGE_NAMES[k], centers)]
    return out


def assert_same_spheres(got, expected) -> None:
    # Tuple equality treats 0.0 and -0.0 alike; compare the bits too.
    assert got == expected
    assert ([bits(v) for _, c, _ in got for v in c]
            == [bits(v) for _, c, _ in expected for v in c])


@settings(max_examples=500, deadline=None)
@given(wrist=poses, flex=st.tuples(*[unit_floats] * NUM_FINGERS),
       abd=st.tuples(*[unit_floats] * NUM_FINGERS))
def test_inlined_hand_chain_matches_transform_point_bits(wrist, flex, abd):
    geom, params = DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS
    for k in range(NUM_FINGERS):
        angles = params.joint_angles(flex[k])
        abd_angle = params.abduction_angle(abd[k])
        centers = finger_sphere_centers(wrist, k, angles, abd_angle)
        expected = reference_finger_centers(geom, wrist, k, angles, abd_angle)
        assert [bits(v) for c in centers for v in c] == [bits(v) for c in expected for v in c]
    state = HandState(flex=flex, abduction=abd)
    assert_same_spheres(hand_collider_spheres(wrist, hand_offsets(wrist.rotation, state)),
                        reference_hand_spheres(wrist, state))


IDENTITY = RigidTransform()
# One coordinator for every example below; each starts with cold slots and
# no colliders.
LIFT = Coordinator(scenario_from_dict({**as_dict("single_lift_force_feedback"),
                                       "coordinator": {"duration_s": 0.01}}))


@settings(max_examples=500, deadline=None)
# A state that differs only in the sign of a zero gets its own offsets; one
# with the same bits in another object keeps them.
@example(wrist=IDENTITY, flex=(0.0,) * 5, abd=(0.0,) * 5, which=0, value=-0.0)
@example(wrist=IDENTITY, flex=(0.0,) * 5, abd=(0.0,) * 5, which=5, value=-0.0)
@example(wrist=RigidTransform((0.0, 0.0, 1.0, 0.0), (-0.0, -0.0, -0.0)),
         flex=(0.5,) * 5, abd=(0.5,) * 5, which=9, value=0.5)
@given(wrist=poses, flex=st.tuples(*[unit_floats] * NUM_FINGERS),
       abd=st.tuples(*[unit_floats] * NUM_FINGERS), which=st.integers(0, 9),
       value=st.one_of(unit_floats, st.just(-0.0)))
def test_hand_memo_returns_no_stale_entry(wrist, flex, abd, which, value):
    # The coordinator keeps the sphere offsets while the wrist alone moves
    # (its rotation is a scenario constant) and for another ``HandState``
    # with the same finger bits; a state that differs in one flex (0-4) or
    # abduction (5-9) bit gets its own. Every move matches the reference
    # chain bit for bit.
    coord = LIFT
    coord.reuse = harness._Reuse()
    coord.world.set_hand([])
    coord.wrist_rotation = wrist.rotation
    key = list(flex + abd)
    key[which] = value
    first = HandState(flex=flex, abduction=abd)
    moved = HandState(flex=tuple(key[:5]), abduction=tuple(key[5:]))
    shifted = RigidTransform(wrist.rotation, tuple(t + 0.01 for t in wrist.translation))
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "hand_offsets", lambda *a: built.append(a) or hand_offsets(*a))
        for pose, state in ((wrist, first), (shifted, first), (shifted, moved), (wrist, moved)):
            coord._update_hand_colliders(state, pose)
            assert_same_spheres([(h.name, h.center, h.radius) for h in coord.world.hand],
                                reference_hand_spheres(pose, state))
    same_bits = [bits(v) for v in flex + abd] == [bits(v) for v in key]
    assert [state for _, state in built] == [first] + [moved] * (not same_bits)
    assert all(state is want for (_, state), want in zip(built, (first, moved)))


# -- still hand --------------------------------------------------------------

def hand_state_bits(state: HandState) -> tuple:
    return ([bits(v) for v in state.flex + state.abduction + state.resist_torques],
            state.clamp_flags)


sensor_values = st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats(-0.5, 1.5))
calibrations = st.builds(
    lambda lo, width: HandCalibration(flex_min=lo[:5], flex_max=tuple(
        a + w for a, w in zip(lo[:5], width[:5])), abd_min=lo[5:], abd_max=tuple(
        a + w for a, w in zip(lo[5:], width[5:]))),
    st.tuples(*[st.one_of(st.just(0.0), st.floats(-0.5, 0.5))] * 10),
    st.tuples(*[st.one_of(st.just(1.0), st.floats(0.1, 2.0))] * 10))


@settings(max_examples=150, deadline=None)
@example(sensed=[0.0] * 11, cal=HandCalibration())
@example(sensed=[-0.0] * 11, cal=HandCalibration())
@given(sensed=st.lists(sensor_values, min_size=11, max_size=11), cal=calibrations)
def test_forward_model_memo_hit_matches_a_fresh_evaluation(sensed, cal):
    sensed = tuple(sensed)
    first = hand_forward_model(sensed, cal, None)
    # The same sensed object returns the last result handed back.
    assert hand_forward_model(sensed, cal, first) is first
    # The same bits in a new list or tuple are evaluated afresh, to the same
    # bits.
    for again in (list(sensed), tuple(list(sensed))):
        fresh = hand_forward_model(again, cal, first)
        assert fresh is not first
        assert hand_state_bits(fresh) == hand_state_bits(first)
    # So does an equal calibration in another object.
    twin = replace(cal)
    fresh = hand_forward_model(sensed, twin, first)
    assert fresh is not first
    assert hand_state_bits(fresh) == hand_state_bits(first)
    # And a sensed value whose zero changed its sign.
    for i, v in enumerate(sensed):
        if v == 0.0:
            flipped = sensed[:i] + (-v,) + sensed[i + 1:]
            got = hand_forward_model(flipped, twin, fresh)
            assert got is not fresh
            assert hand_state_bits(got) == hand_state_bits(
                hand_forward_model(flipped, replace(cal), None))
    # A state the model did not compute is never handed back.
    applied = HandState(first.flex, first.abduction, clamp_flags=first.clamp_flags)
    assert hand_forward_model(sensed, cal, applied) is not applied


@pytest.mark.parametrize("which", range(13))
@pytest.mark.parametrize("zero, then", [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.5)])
def test_changed_sample_is_recomputed(which, zero, then):
    # A trajectory whose sample at tick 1 differs from tick 0's only at
    # ``which`` (wrist 0-2, flex 3-7, abduction 8-12), if only in a zero's
    # sign, gives the hand of a run held at tick 1's sample from the start.
    def config(first):
        values = [0.0, 0.3, 0.0] + [0.25] * 10
        held = values[:which] + [then] + values[which + 1:]
        values[which] = first
        raw = as_dict("single_lift_force_feedback")
        raw["coordinator"] = {**raw["coordinator"], "duration_s": 0.002}
        raw["trajectory"] = {**raw["trajectory"], **{
            key: [[0.0, *values[lo:hi]], [DT, *held[lo:hi]]]
            for key, lo, hi in (("wrist", 0, 3), ("flex", 3, 8), ("abduction", 8, 13))}}
        return scenario_from_dict(raw)

    changed, held = Coordinator(config(zero)), Coordinator(config(then))
    for coord in (changed, held):
        coord._tick(0)
    sample = changed.reuse.sample
    for coord in (changed, held):
        coord._tick(1)
    assert changed.reuse.sample is not sample
    got, want = changed.log.records[1], held.log.records[1]
    for key in ("wrist", "flex", "resist"):
        assert [bits(v) for v in got[key]] == [bits(v) for v in want[key]]
    assert ([bits(v) for h in changed.world.hand for v in h.center]
            == [bits(v) for h in held.world.hand for v in h.center])


# -- force pairing -----------------------------------------------------------

def reference_paired_magnitude(forces, angle_deg: float) -> float:
    """The numpy form ``_paired_magnitude`` had before it moved to floats."""
    cos_limit = math.cos(math.radians(angle_deg))
    bodies = [body for body, _, _ in forces]
    vecs = [np.array(f) for _, f, _ in forces]
    used = [False] * len(forces)
    paired = 0.0
    for i in range(len(forces)):
        if used[i]:
            continue
        body_i, fi = bodies[i], vecs[i]
        ni = float(np.linalg.norm(fi))
        if ni < 1e-12:
            continue
        for j in range(i + 1, len(forces)):
            if used[j]:
                continue
            body_j, fj = bodies[j], vecs[j]
            if body_j != body_i:
                continue
            nj = float(np.linalg.norm(fj))
            if nj < 1e-12:
                continue
            if float(fi @ fj) / (ni * nj) <= -cos_limit:
                paired += min(ni, nj)
                used[i] = used[j] = True
                break
    return paired


@st.composite
def single_axis_forces(draw):
    """Hand forces as ``route_forces`` builds them, ``-scale * normal``, on a
    few bodies; half the time a force is followed by its opposite."""
    forces = []
    for _ in range(draw(st.integers(0, 8))):
        body = draw(st.sampled_from(("can", "post", "desk")))
        scale = draw(st.floats(0.0, 50.0, allow_nan=False))
        n = draw(single_axis_normals())
        force = tuple(-scale * c for c in n)
        forces.append((body, force, (0.0, 0.0, 0.0)))
        if draw(st.booleans()):
            other = draw(st.floats(0.0, 50.0, allow_nan=False))
            forces.append((body, tuple(other * c for c in n), (0.0, 0.0, 0.0)))
    return forces


@settings(max_examples=500, deadline=None)
@given(forces=single_axis_forces(), angle=st.sampled_from((15.0, 0.0, 45.0, 90.0)))
def test_float_pairing_matches_numpy_bits(forces, angle):
    assert (bits(_paired_magnitude(forces, angle))
            == bits(reference_paired_magnitude(forces, angle)))


# -- rigid transforms --------------------------------------------------------

# Worst quaternion component or translation (m) error allowed after a few
# composes of unit rotations and translations within 2 m of the origin: a few
# hundred ulps of the inputs. Quaternions are compared by component, as q and
# -q; an angle from acos(w) near w = 1 would magnify one ulp to 1e-8 rad.
FRAME_TOL = 1e-12


def assert_same_pose(a: RigidTransform, b: RigidTransform) -> None:
    same = max(abs(p - q) for p, q in zip(a.rotation, b.rotation))
    flipped = max(abs(p + q) for p, q in zip(a.rotation, b.rotation))
    assert min(same, flipped) < FRAME_TOL
    assert a.translation_distance_to(b) < FRAME_TOL


@settings(max_examples=500, deadline=None)
@given(a=poses)
def test_compose_with_inverse_is_identity(a):
    assert_same_pose(a.compose(a.inverse()), RigidTransform.identity())
    assert_same_pose(a.inverse().compose(a), RigidTransform.identity())


@settings(max_examples=500, deadline=None)
@given(a=poses)
def test_inverse_of_inverse_is_original(a):
    assert_same_pose(a.inverse().inverse(), a)


@settings(max_examples=500, deadline=None)
@given(a=poses, b=poses, c=poses)
def test_compose_is_associative(a, b, c):
    assert_same_pose(a.compose(b).compose(c), a.compose(b.compose(c)))


# -- workspace clamp and parked arm ------------------------------------------

def reference_clamp_point(box: Box, p) -> tuple:
    """``Box.clamp_point`` as the loop it was written as."""
    out = []
    for i in range(3):
        lo = box.center[i] - box.half_extents[i]
        hi = box.center[i] + box.half_extents[i]
        out.append(min(hi, max(lo, float(p[i]))))
    return tuple(out)


def typed_bits(values) -> list:
    return [(type(v), bits(float(v))) for v in values]


@st.composite
def clamp_cases(draw):
    """A box, int-valued or not, and a point, tuple or list, whose coordinates
    lie inside, on a face, just past one, far out, or are signed zeros, ints,
    infinities or NaN."""
    if draw(st.booleans()):
        center = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        half = draw(st.tuples(*[st.integers(1, 3)] * 3))
    else:
        center = draw(st.tuples(*[st.one_of(st.sampled_from((0.0, -0.0)),
                                            st.floats(-5.0, 5.0))] * 3))
        half = draw(st.tuples(*[st.floats(1e-9, 5.0)] * 3))
    box = Box(center, half)
    point = []
    for c, h in zip(center, half):
        lo, hi = c - h, c + h
        point.append(draw(st.one_of(
            st.sampled_from((lo, hi, c, 0.0, -0.0, math.nextafter(lo, -math.inf),
                             math.nextafter(hi, math.inf), math.inf, -math.inf, math.nan)),
            st.floats(min(lo, hi), max(lo, hi)),
            st.floats(-1e6, 1e6),
            st.integers(-10, 10))))
    return box, draw(st.sampled_from((tuple, list)))(point)


@settings(max_examples=500, deadline=None)
@given(case=clamp_cases())
@example(case=(Box((0.0, -0.0, 1.0), (1.0, 1.0, 1.0)), (-0.0, 0.0, 2)))
@example(case=(Box((0, 0, 0), (1, 1, 1)), [5, -0.0, 0]))
@example(case=(Box((0.0, 0.5, -1.0), (1.0, 2.0, 0.25)), (math.nan, math.nan, math.nan)))
@example(case=(Box((0.0, 0.5, -1.0), (1.0, 2.0, 0.25)), [math.inf, -math.inf, -0.75]))
def test_unrolled_clamp_matches_the_loop_bits(case):
    box, point = case
    assert typed_bits(box.clamp_point(point)) == typed_bits(reference_clamp_point(box, point))


def state_bits(state: ArmState) -> list:
    pose = state.pose
    return [bits(v) for v in pose.rotation + pose.translation] + [state.clamped]


PARK_STEPS = 3000
BASE_ROTATIONS = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0),
                  (math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0), (0.9, 0.1, -0.3, 0.2))


@st.composite
def park_cases(draw):
    """An arm spec, its park command (target inside or outside the
    workspace, base frame) and a start pose near the target."""
    spec = ArmSpec(
        name="arm",
        workspace_extents=draw(st.tuples(*[st.floats(0.2, 2.0)] * 3)),
        rot_range_deg=draw(st.tuples(*[st.floats(20.0, 360.0)] * 3)),
        max_force=(9.5, 9.5, 9.5), max_torque=(1.0, 1.0, 1.0), stiffness=1000.0,
        base_pose=RigidTransform.from_quat(draw(st.sampled_from(BASE_ROTATIONS)),
                                           draw(translations)),
        workspace_center=draw(st.tuples(*[st.sampled_from((0.0, 0.25, -0.5))] * 3)))
    target = spec.workspace_box_base().center
    if draw(st.booleans()):
        target = tuple(t + draw(st.floats(-1.5, 1.5)) for t in target)
    park = RigidTransform.from_quat(draw(st.sampled_from(BASE_ROTATIONS[:2]) | unit_quats),
                                    target)
    cmd = ArmCommand(target=park, speed_limit=draw(st.floats(0.5, 3.0)))
    world = spec.base_pose.compose(park)
    start = RigidTransform.from_quat(
        draw(st.sampled_from((world.rotation,)) | unit_quats),
        tuple(w + draw(st.floats(-0.2, 0.2)) for w in world.translation))
    return spec, cmd, ArmState(pose=start)


def signed_zero_twins(state: ArmState) -> list:
    """``state`` with the sign of one zero pose component flipped, for each
    zero component: equal under ``==``, different in bits."""
    values = state.pose.rotation + state.pose.translation
    twins = []
    for i, v in enumerate(values):
        if v == 0.0:
            flipped = values[:i] + (-v,) + values[i + 1:]
            twins.append(ArmState(RigidTransform(flipped[:4], flipped[4:]), state.clamped))
    return twins


# The identity-base catalog arm parked at (0.0, 0.1, -0.2), started at that
# fixed point with the zero components' signs flipped: the first step returns
# a state equal to its input under ``==`` but not in bits.
TWIN_START = ArmState(RigidTransform((1.0, -0.0, -0.0, -0.0), (-0.0, 0.1, -0.2)))


@settings(max_examples=60, deadline=None)
@given(case=park_cases())
@example(case=(VIRTUOSE_6D,
               ArmCommand(RigidTransform.from_translation((0.0, 0.1, -0.2)), 0.5),
               TWIN_START))
def test_parked_arm_stays_at_its_fixed_point(case):
    spec, cmd, state = case
    for _ in range(PARK_STEPS):
        out = arm_step(spec, state, cmd)
        fixed = state_bits(out) == state_bits(state)
        # The coordinator's test is bits, never ``==``.
        assert _same_bits(out, state) is fixed
        if fixed:
            break
        state = out
    else:
        # Never settles bit for bit: the coordinator steps it every tick.
        return
    # ``arm_step`` is pure: the kept input and the equal output both stay put.
    for kept in (state, out):
        for _ in range(5):
            assert state_bits(arm_step(spec, kept, cmd)) == state_bits(state)
    for twin in signed_zero_twins(state):
        stepped = arm_step(spec, twin, cmd)
        assert stepped == twin and state_bits(stepped) == state_bits(state)
        assert not _same_bits(stepped, twin)


# -- impedance displacement ----------------------------------------------------

def generator_displacement(force_cmd, stiffness):
    """``impedance_displacement`` as it was, converting through a generator."""
    fx, fy, fz = (float(c) for c in force_cmd)
    return (fx / stiffness, fy / stiffness, fz / stiffness)


force_components = st.one_of(st.floats(), st.integers(-10**20, 10**20),
                             st.floats().map(np.float64))


@settings(max_examples=300, deadline=None)
@given(force=st.lists(force_components, min_size=2, max_size=4),
       container=st.sampled_from((list, tuple)),
       stiffness=st.one_of(st.floats(1e-6, 1e9), st.integers(1, 10**6)))
def test_impedance_unpack_keeps_the_generator_bits(force, container, stiffness):
    force = container(force)
    if len(force) != 3:
        with pytest.raises(ValueError):
            impedance_displacement(force, stiffness)
        return
    got = impedance_displacement(force, stiffness)
    assert [bits(v) for v in got] == [bits(v) for v in generator_displacement(force, stiffness)]


# -- docked chain ------------------------------------------------------------

def pose_bits(pose: RigidTransform) -> list:
    return [bits(v) for v in pose.rotation + pose.translation]


def reference_docked_chain(wrist_rotation, wrist, noise, dock, spec, joint, filtered, load):
    """The docked tick as the compose chain it was written as, under force
    feedback."""
    limits = spec.max_force + spec.max_torque
    cmd_world = tuple(min(hi, max(-hi, f)) + l for f, hi, l in zip(filtered, limits, load))
    truth = RigidTransform(wrist_rotation, wrist).compose(dock.plate_offset)
    plate = RigidTransform(truth.rotation,
                           tuple(p + n for p, n in zip(truth.translation, noise)))
    follow = plate.compose(joint.attach_pose).compose(dock.tool_offset.inverse())
    local = spec.base_inv.compose(follow)
    clamped = spec.workspace_box_base().clamp_point(local.translation)
    pinned = spec.base_pose.compose(RigidTransform(local.rotation, clamped))
    disp = impedance_displacement(cmd_world[:3], spec.stiffness)
    target = RigidTransform(pinned.rotation,
                            tuple(p + d for p, d in zip(pinned.translation, disp)))
    plate_inv = plate.inverse()
    cmd_plate = plate_inv.rotate_vector(cmd_world[:3]) + plate_inv.rotate_vector(cmd_world[3:])
    out, slip, released = joint_transmit(joint, cmd_plate)
    release = released or math.dist(local.translation, clamped) > dock.release_slack_m
    transmitted = ((0.0,) * 6 if release else
                   plate.rotate_vector(out[:3]) + plate.rotate_vector(out[3:]))
    return {"cmd_world": cmd_world, "plate_truth": truth, "plate": plate,
            "local": local.translation,
            "clamped": clamped, "pinned": pinned, "clamp_flag": clamped != local.translation,
            "target": target, "tool_point": pinned.compose(dock.tool_offset).translation,
            "cmd_plate": cmd_plate, "transmitted": transmitted,
            "slip": slip and not release}


def signed_vecs(reach: float):
    """3-vectors within ``reach`` whose components are often signed zeros."""
    part = st.one_of(st.sampled_from((0.0, -0.0)),
                     st.floats(-reach, reach, allow_nan=False))
    return st.tuples(part, part, part)


signed_quats = (st.tuples(*[st.one_of(st.sampled_from((0.0, -0.0, 1.0)), quat_parts)] * 4)
                .filter(lambda q: math.hypot(*q) > 1e-3))
# Offsets of a few centimetres, as on the wrist mount and the magnet holder,
# so that the follow pose often lies inside the workspace and transmits.
offset_poses = st.builds(RigidTransform.from_quat, signed_quats, signed_vecs(0.1))
# Forces up to 20 N and torques around the peel threshold (0.3 Nm).
commands = st.tuples(*[signed_vecs(20.0), signed_vecs(0.5)]).map(lambda fm: fm[0] + fm[1])
HANDOVER = scenario_from_dict({**as_dict("handover_sweep"),
                               "coordinator": {"duration_s": 0.01}})


@settings(max_examples=200, deadline=None)
@given(wrist_rotation=signed_quats, plate_offset=offset_poses, tool_offset=offset_poses,
       base=st.builds(RigidTransform.from_quat, signed_quats, signed_vecs(0.3)),
       attach=offset_poses, wrist=signed_vecs(0.4), noise=signed_vecs(0.001),
       kind=st.sampled_from(sorted(JOINT_KIND_CATALOG.values(), key=lambda k: k.name)),
       filtered=commands, load=commands)
def test_docked_chain_matches_the_compose_chain(wrist_rotation, plate_offset, tool_offset,
                                                base, attach, wrist, noise, kind, filtered,
                                                load):
    """The constants built at attach plus a tick's additions give the bits of
    the old compose chain: plate, follow, clamp, pinned pose, command,
    target, tool point, plate-frame command and transmitted wrench, on the
    attach tick and on a docked tick."""
    cfg = replace(HANDOVER,
                  trajectory=replace(HANDOVER.trajectory, wrist_rotation=wrist_rotation),
                  dock=replace(HANDOVER.dock, plate_offset=plate_offset,
                               tool_offset=tool_offset, joint_kind=kind))
    coord = Coordinator(cfg)
    u = coord.units[0]
    # A rotated base: the coordinator builds its trigger box from the
    # shipped, axis-aligned one, and a docked arm never reads it.
    u.cfg = replace(u.cfg, spec=replace(u.cfg.spec, base_pose=base))
    spec = u.cfg.spec
    joint = replace(coord.unattached_joint, attach_pose=attach)
    ref = reference_docked_chain(coord.wrist_rotation, wrist, noise, cfg.dock, spec,
                                 joint, filtered, load)

    truth = coord._plate_truth(wrist)
    assert pose_bits(truth) == pose_bits(ref["plate_truth"])
    plate = RigidTransform(truth.rotation,
                           tuple(p + n for p, n in zip(truth.translation, noise)))
    assert pose_bits(plate) == pose_bits(ref["plate"])

    follow = coord._attach(u, joint, plate)
    local, clamped = follow
    u.dock_state = DockState.DOCKED
    assert [bits(v) for v in local] == [bits(v) for v in ref["local"]]
    assert [bits(v) for v in clamped] == [bits(v) for v in ref["clamped"]]

    sent, displaced = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "joint_transmit",
                   lambda j, w: sent.append(w) or joint_transmit(j, w))
        mp.setattr(harness, "impedance_displacement",
                   lambda f, k: displaced.append(f) or impedance_displacement(f, k))
        # The attach tick: the new dock has no command yet, so the arm
        # displaces by the tick's own (a handover tick's is the releasing
        # dock's), here one with the command's bits.
        targets = [coord._control(u, follow, plate, tuple(list(ref["cmd_world"])))]
        states = [u.state]
        # A docked tick: the command keeps its transmit and displacement,
        # and the arm takes that displacement.
        cmd_world, transmit = coord._command(coord.dock, filtered, load)
        kept = coord._command(coord.dock, filtered, load)
        assert kept[0] is cmd_world and kept[1] is transmit
        targets.append(coord._control(u, follow, plate, cmd_world))
        states.append(u.state)
        transmitted, slip, follow = coord._lifecycle(u, True, False, 0.5, plate,
                                                     transmit, [])
    assert len(displaced) == 2 and len(sent) == 1
    assert [bits(v) for v in cmd_world] == [bits(v) for v in ref["cmd_world"]]
    for target, state in zip(targets, states):
        assert pose_bits(state.pose) == pose_bits(ref["pinned"])
        assert state.clamped == ref["clamp_flag"]
        assert pose_bits(target) == pose_bits(ref["target"])
        tool_point = state.pose.transform_point(tool_offset.translation)
        assert [bits(v) for v in tool_point] == [bits(v) for v in ref["tool_point"]]
    assert [bits(v) for v in sent[0]] == [bits(v) for v in ref["cmd_plate"]]
    assert [bits(v) for v in transmitted] == [bits(v) for v in ref["transmitted"]]
    assert slip == ref["slip"]
    assert follow[0] == local and follow[1] == clamped


@settings(max_examples=200, deadline=None)
@given(pose=st.builds(RigidTransform.from_quat, signed_quats, signed_vecs(1.0)),
       tool_offset=offset_poses, plate=signed_vecs(1.0))
@example(pose=RigidTransform((1.0, -0.0, 0.0, -0.0), (-0.0, 0.0, -0.0)),
         tool_offset=RigidTransform((1.0, 0.0, -0.0, 0.0), (-0.0, -0.0, 0.0)),
         plate=(0.0, -0.0, -0.0))
@example(pose=RigidTransform((0.0, -0.0, 1.0, -0.0), (0.0, -0.0, 0.5)),
         tool_offset=RigidTransform((0.0, 0.0, 0.0, 1.0), (0.0, -0.0, 0.05)),
         plate=(-0.0, 0.0, 0.55))
def test_tool_dist_from_the_tool_point_matches_the_tool_pose(pose, tool_offset, plate):
    """A record's ``tool_dist``, from the tool point ``pose.transform_point``
    of the tool offset's translation, has the bits of the distance from the
    composed tool pose to the plate, its squares summed x, y, z from the left."""
    point = pose.transform_point(tool_offset.translation)
    (tx, ty, tz), (px, py, pz) = pose.compose(tool_offset).translation, plate
    reference = math.sqrt(((tx - px) ** 2 + (ty - py) ** 2) + (tz - pz) ** 2)
    assert bits(_point_distance(point, plate)) == bits(reference)


@pytest.mark.parametrize("a, b, digits", [
    # Each of these rounds differently when summed in any other order, or
    # through ``math.dist`` or ``math.hypot``.
    ((0.127, -0.034, 0.179), (-0.147, 0.207, 0.238), "0x1.7a846c22bab9ap-2"),
    ((-0.19, -0.277, 0.304), (-0.261, -0.313, -0.065), "0x1.828c7ed732108p-2"),
    ((-0.408, -0.401, 0.38), (-0.321, -0.477, 0.342), "0x1.f21d5c85ef102p-4"),
])
def test_tool_dist_keeps_its_summation_order(a, b, digits):
    assert _point_distance(a, b).hex() == digits


# -- force path fixed points --------------------------------------------------

# Wrench components: often signed zeros, sometimes the smallest subnormals.
wrench_parts = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
                         st.floats(-50.0, 50.0, allow_nan=False))


def with_zero_signs(draw, values):
    """``values`` with each zero's sign drawn anew: equal to it by ``==``."""
    return tuple(draw(st.sampled_from((0.0, -0.0))) if v == 0.0 else v for v in values)


@st.composite
def filter_runs(draw):
    """A cutoff and one input per tick: runs of repeats of 1-3 wrenches and
    of copies of them that differ only in a zero's sign."""
    cutoff = draw(st.sampled_from((0.0, 20.0, 1000.0)) | st.floats(0.0, 2000.0))
    pool = draw(st.lists(st.tuples(*[wrench_parts] * 6), min_size=1, max_size=3))
    pool += [with_zero_signs(draw, w) for w in pool]
    inputs = []
    for _ in range(draw(st.integers(1, 8))):
        inputs += [draw(st.sampled_from(pool))] * draw(st.integers(1, 40))
    return cutoff, inputs


@settings(max_examples=150, deadline=None)
@given(run=filter_runs())
def test_filter_fixed_point_matches_a_fresh_filter(run):
    # The reference is a new filter every tick, so it has no fixed point to
    # repeat. An output with last tick's bits is last tick's object.
    cutoff, inputs = run
    filt = LowPassFilter(cutoff)
    state = last = filt.state
    for x in inputs:
        reference = LowPassFilter(cutoff)
        reference.state = state
        state = reference.update(x)
        out = filt.update(x)
        assert [bits(v) for v in out] == [bits(v) for v in state]
        assert (out is last) == ([bits(v) for v in out] == [bits(v) for v in last])
        last = out


def reference_sample(rows, t):
    """``sample_track`` before held segments: ends held, the interpolation
    formula inside."""
    if t <= rows[0][0]:
        return rows[0][1]
    if t >= rows[-1][0]:
        return rows[-1][1]
    i = max(k for k, (tk, _) in enumerate(rows) if tk <= t)
    (t0, v0), (t1, v1) = rows[i], rows[i + 1]
    a = (t - t0) / (t1 - t0)
    return tuple(x0 + a * (x1 - x0) for x0, x1 in zip(v0, v1))


@st.composite
def held_tracks(draw):
    """Rows of a 2-4 row track, one segment of which is held: its second
    row repeats the first with each zero's sign drawn anew."""
    times = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=4,
                                 unique=True)))
    values = [draw(st.tuples(*[wrench_parts] * 3)) for _ in times]
    k = draw(st.integers(0, len(times) - 2))
    values[k + 1] = with_zero_signs(draw, values[k])
    return list(zip(times, values)), k


@settings(max_examples=200, deadline=None)
@given(track=held_tracks(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(track=([(0.0, (0.0, -0.0, 1.0)), (1.0, (-0.0, 0.0, 1.0))], 0), fractions=[0.5])
@example(track=([(0.0, (-0.0, -0.0, 0.0)), (1.0, (-0.0, -0.0, 0.0))], 0), fractions=[0.0, 0.25])
def test_held_segment_has_the_bits_of_the_interpolation(track, fractions):
    rows, k = track
    (t0, _), (t1, _) = rows[k], rows[k + 1]
    loaded = Track(rows)
    inside = set()
    for f in fractions:
        t = t0 + f * (t1 - t0)
        value = sample_track(loaded, t)
        assert [bits(v) for v in value] == [bits(v) for v in reference_sample(rows, t)]
        if t0 < t < t1:
            inside.add(id(value))
    # Every time inside the held segment returns its one tuple.
    assert len(inside) <= 1


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5, unique=True),
       data=st.data())
def test_sample_track_bisects_its_row_times(times, data):
    # ``sample_track`` bisects ``Track.times``: at each row time, between
    # rows and past both ends it picks the row the reference picks.
    times = sorted(times)
    rows = [(t, data.draw(st.tuples(*[wrench_parts] * 3))) for t in times]
    loaded = Track(rows)
    assert loaded.times == tuple(times)
    for t in times + data.draw(st.lists(st.floats(-1.0, 11.0), max_size=4)):
        assert [bits(v) for v in sample_track(loaded, t)] == [
            bits(v) for v in reference_sample(rows, t)]


# -- force envelope ----------------------------------------------------------

def reference_intersection(a: Box, b: Box) -> Box | None:
    """Overlap box, or None when the interiors do not intersect (the former
    ``Box.intersection``)."""
    lo = [max(p, q) for p, q in zip(a.min_corner(), b.min_corner())]
    hi = [min(p, q) for p, q in zip(a.max_corner(), b.max_corner())]
    if any(h - l <= 1e-12 for l, h in zip(lo, hi)):
        return None
    return Box(tuple(0.5 * (l + h) for l, h in zip(lo, hi)),
               tuple(0.5 * (h - l) for l, h in zip(lo, hi)))


def reference_force_envelope(regions):
    """The 2^n subset enumeration the lower-corner sweep replaced."""
    if not regions:
        return (0.0, 0.0, 0.0)
    best = [0.0, 0.0, 0.0]
    n = len(regions)
    for mask in range(1, 1 << n):
        chosen = [regions[i] for i in range(n) if mask & (1 << i)]
        inter = chosen[0].box
        for r in chosen[1:]:
            inter = reference_intersection(inter, r.box)
            if inter is None:
                break
        if inter is None:
            continue
        for axis in range(3):
            total = sum(r.force[axis] for r in chosen)
            best[axis] = max(best[axis], total)
    return tuple(best)


# Reach faces on a 0.25 m grid, shifted by gaps around the 1e-12 m stacking
# rule, so that faces touch, nearly touch or barely overlap.
FACE_GAPS = (0.0, 1e-13, -1e-13, 2e-12, -2e-12)
box_coords = st.builds(lambda g, e: g + e, st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
                       st.sampled_from(FACE_GAPS))
reach_arms = st.tuples(
    st.tuples(box_coords, box_coords, box_coords),               # box centre
    st.tuples(*[st.sampled_from((0.5, 1.0, 1.5, 2.0))] * 3),     # extents
    st.tuples(*[st.sampled_from((0.1, 2.5, 9.5, 40.0))] * 3),    # max force
    st.sampled_from((PLATE_FRICTION, PLATE_SLIP, PRISMATIC, TOOTHED, PINNED_ROTARY)),
    st.sampled_from((0.0, 0.4, 1.0)),                            # friction_mu
    st.booleans())                                               # linked
reach_layouts = st.lists(reach_arms, max_size=10)


def compose_layout(layout):
    """Arms whose world reach box is exactly the drawn centre and extents.
    With no arm linked every arm renders its full force."""
    arms = [replace(VIRTUOSE_6D, name=f"arm{k}", workspace_center=(0.0, 0.0, 0.0),
                    workspace_extents=extents, max_force=force,
                    base_pose=RigidTransform.from_translation(center))
            for k, (center, extents, force, *_) in enumerate(layout)]
    links = [DockLink(k, 0, kind, friction_mu=mu)
             for k, (*_, kind, mu, linked) in enumerate(layout) if linked]
    return compose_capability(arms, [DEXMO_GLOVE], links)


def unit_arm(center, extents, force=(9.5, 9.5, 9.5)):
    return (center, extents, force, PLATE_FRICTION, 0.4, True)


@settings(max_examples=400, deadline=None)
@given(layout=reach_layouts)
# Overlap of exactly 1e-12 m (exact in binary at these coordinates): no stack.
@example(layout=[unit_arm((0.0, 0.0, 0.0), (2e-12, 1.0, 1.0)),
                 unit_arm((0.5, 0.0, 0.0), (1.0, 1.0, 1.0))])
# Overlap of 2e-12 m: the two arms stack.
@example(layout=[unit_arm((0.0, 0.0, 0.0), (4e-12, 1.0, 1.0)),
                 unit_arm((0.5, 0.0, 0.0), (1.0, 1.0, 1.0))])
# A box thinner than the rule still counts on its own.
@example(layout=[unit_arm((0.0, 0.0, 0.0), (1e-12, 1.0, 1.0), (40.0, 40.0, 40.0)),
                 unit_arm((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])
def test_force_envelope_matches_subset_enumeration(layout):
    cap = compose_layout(layout)
    assert cap.force_envelope == reference_force_envelope(cap.force_regions)


def test_force_envelope_of_forty_identical_arms():
    # The enumeration would visit 2^40 subsets; finishing is the guard.
    layout = [unit_arm((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))] * 40
    assert compose_layout(layout).force_envelope == (380.0, 380.0, 380.0)


@settings(max_examples=200, deadline=None)
@given(layout=reach_layouts,
       point=st.tuples(*[st.floats(-2.5, 2.5, allow_nan=False)] * 3))
def test_point_force_away_from_faces_within_envelope(layout, point):
    # On a face two boxes share, the closed-box lookup may exceed the envelope.
    cap = compose_layout(layout)
    assume(all(abs(point[i] - face[i]) > 1e-9 for r in cap.force_regions
               for face in (r.box.min_corner(), r.box.max_corner()) for i in range(3)))
    force = capability_at(cap, point).force
    assert all(f <= e for f, e in zip(force, cap.force_envelope))


# -- capability index --------------------------------------------------------

def reference_capability_at(cap, point):
    """The per-region closed-box scan the interval index replaced."""
    x, y, z = point
    point = (float(x), float(y), float(z))
    force = [0.0, 0.0, 0.0]
    torque, reachable = [], []
    for region in cap.force_regions:
        if region.box.contains(point):
            reachable.append(region.arm_name)
            for axis in range(3):
                force[axis] += region.force[axis]
            torque.extend(region.torque)
    torque.extend(cap.glove_torques)
    return PointCapability(force=tuple(force), torque=tuple(torque),
                           reachable_by=tuple(reachable), grounded=bool(reachable))


def assert_same_answer(cap, point):
    got, want = capability_at(cap, point), reference_capability_at(cap, point)
    assert [bits(f) for f in got.force] == [bits(f) for f in want.force], point
    assert (got.reachable_by, got.torque, got.grounded) == (
        want.reachable_by, want.torque, want.grounded), point


GLOVE_ONLY = compose_capability([], [DEXMO_GLOVE], [])


def capability_of(boxes):
    """A capability over the given (centre, half extents, force) regions."""
    regions = tuple(ForceRegion(f"arm{k}", Box(c, h), force, ((f"arm{k}:rx", 1.0),))
                    for k, (c, h, force) in enumerate(boxes))
    return replace(GLOVE_ONLY, force_regions=regions)


# Faces on a 0.5 m grid that includes 0.0, and boxes thinner than 1e-12 m.
index_centres = st.integers(-3, 3).map(lambda k: 0.5 * k)
index_halves = st.one_of(st.integers(1, 3).map(lambda k: 0.5 * k),
                         st.sampled_from((1e-13, 4e-13, 5e-16)))
index_boxes = st.tuples(st.tuples(*[index_centres] * 3), st.tuples(*[index_halves] * 3),
                        st.tuples(*[st.floats(0.1, 40.0)] * 3))


@st.composite
def index_layouts(draw):
    # Drawing from a small pool makes identical boxes common.
    pool = draw(st.lists(index_boxes, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=14))


def near(v: float) -> list:
    """``v`` and the floats one and two ulps either side of it."""
    out = [v]
    for toward in (-math.inf, math.inf):
        w = v
        for _ in range(2):
            w = math.nextafter(w, toward)
            out.append(w)
    return out


SPECIAL_COORDS = (0.0, -0.0, math.inf, -math.inf, math.nan, 0, 1, np.float64(0.5))


@settings(max_examples=80, deadline=None)
@given(boxes=index_layouts(), data=st.data())
def test_index_answers_as_the_region_scan(boxes, data):
    cap = capability_of(boxes)
    # Per axis: every face and the floats +-1 and +-2 ulps from it.
    coords = [sorted({w for c, h, _ in boxes for face in (c[a] - h[a], c[a] + h[a])
                      for w in near(face)} or {0.0})
              for a in range(3)]
    for c, h, _ in set(boxes):
        for a in range(3):
            for v in coords[a]:
                point = list(c)
                point[a] = v
                assert_same_answer(cap, point)
    for special in SPECIAL_COORDS:
        for a in range(3):
            point = [0.5, 0.5, 0.5]
            point[a] = special
            assert_same_answer(cap, point)
    # Corners and edges: faces of different boxes combined across axes,
    # some given as ints or numpy floats.
    kinds = st.sampled_from((float, np.float64, lambda v: int(v) if v == int(v) else v))
    for _ in range(30):
        point = [data.draw(kinds)(data.draw(st.sampled_from(coords[a]))) for a in range(3)]
        assert_same_answer(cap, point)


def test_index_end_far_from_its_face_in_float_steps():
    # The low face of c = 0.5, h = 0.5 ends just below 0.0, some 4.4e18
    # floats from c - h = 0.0: a search that steps one ulp at a time never
    # finishes, so finishing is the guard.
    cap = capability_of([((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (9.5, 9.5, 9.5))])
    inside = -5.551115123125783e-17
    outside = math.nextafter(inside, -1.0)
    assert capability_at(cap, (inside, 0.5, 0.5)).grounded
    assert not capability_at(cap, (outside, 0.5, 0.5)).grounded
    for v in near(inside) + near(0.0) + near(1.0):
        assert_same_answer(cap, (v, v, 0.5))


def test_index_of_an_infinite_box():
    # +inf passes the box test of an infinite half extent and NaN never
    # does, though both sort past every finite cut. An infinite centre with
    # a finite half extent passes no float at all.
    cap = capability_of([((0.0, 0.0, 0.0), (math.inf, 1.0, 1.0), (9.5, 9.5, 9.5)),
                         ((math.inf, 0.0, 0.0), (math.inf, 1.0, 1.0), (1.0, 1.0, 1.0)),
                         ((math.inf, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))])
    assert capability_at(cap, (math.inf, 0.0, 0.0)).reachable_by == ("arm0",)
    assert not capability_at(cap, (math.nan, 0.0, 0.0)).grounded
    for x in (math.inf, -math.inf, math.nan, 0.0, -1e308, 1e308, 1.0):
        assert_same_answer(cap, (x, 0.0, 0.0))


# -- dock lifecycle ----------------------------------------------------------

def test_dock_step_only_takes_legal_transitions():
    flags = [f.name for f in fields(DockContext)]
    assert len(flags) == 6
    seen = set()
    for state in DockState:
        for bits in itertools.product((False, True), repeat=len(flags)):
            new, events = dock_step(state, DockContext(**dict(zip(flags, bits))))
            assert new is state or (state, new) in LEGAL_TRANSITIONS
            assert (new is state) == (events == ())
            seen.add((state, new))
    # Every legal transition is reachable from some context.
    assert LEGAL_TRANSITIONS <= seen


# -- config ------------------------------------------------------------------

SHIPPED = {name: as_dict(name) for name in NAMES}
# Values of another type than a field expects, and vectors of a wrong length.
ALIEN_VALUES = (None, "text", [], {}, {"key": 1.0}, True, math.nan, math.inf, 10**30,
                10**400, [1.0], [1.0, 2.0], [1.0] * 4, [1.0] * 7)


def value_paths(node, prefix=()):
    """The key or index path of every value nested in ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


@settings(max_examples=2000, deadline=None)
@given(data=st.data())
def test_mutated_config_loads_or_raises_config_error(data):
    d = copy.deepcopy(SHIPPED[data.draw(st.sampled_from(NAMES))])
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, key = data.draw(st.sampled_from(list(value_paths(d))))
        node = d
        for step in parents:
            node = node[step]
        node[key] = copy.deepcopy(data.draw(st.sampled_from(ALIEN_VALUES)))
    try:
        scenario_from_dict(d)
    except ConfigError:
        pass
