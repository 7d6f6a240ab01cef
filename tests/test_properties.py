"""Property tests: invariants that must hold for every input, not just the
hand-picked cases of the unit tests."""

import copy
import itertools
import math
import struct
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hapdock.config import ConfigError, scenario_from_dict
from hapdock.docking import (DOF_LABELS, JOINT_KIND_CATALOG, LEGAL_TRANSITIONS,
                             DockContext, DockJoint, DockState, dock_step,
                             joint_transmit)
from hapdock.sim import (BodyKind, HandCollider, RigidBody, World, _collect_contacts,
                         _penalty_contacts, _sphere_box)
from shipped import NAMES, as_dict

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


@st.composite
def hand_worlds(draw):
    """Boxes of both kinds plus hand spheres, some placed exactly on a box
    face or within 1e-12 m of it."""
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
    world.set_hand(spheres)
    return world


def brute_force_hand_hits(world: World, dynamic: bool) -> list:
    """Every hand sphere against every hand-colliding box of one kind."""
    hits = []
    for body in world.bodies:
        if (body.kind is BodyKind.DYNAMIC) is not dynamic or not body.collide_with_hand:
            continue
        for h in world.hand:
            hit = _sphere_box(*h.center, h.radius, *body.position, *body.half_extents)
            if hit is not None:
                n_out, depth, point = hit
                hits.append((body.name, h.name, tuple(-c for c in n_out), depth, point))
    return hits


@settings(max_examples=500, deadline=None)
@given(world=hand_worlds())
def test_hand_broadphase_culls_no_contact(world):
    dt = 0.001
    contacts = [(c.body.name, c.hand.name, c.normal, c.depth, c.point)
                for c in _collect_contacts(world) if c.hand is not None]
    assert contacts == brute_force_hand_hits(world, dynamic=True)
    k = world.params.surface_stiffness
    penalty = [(imp.body_b, imp.hand_collider, imp.normal, imp.magnitude, imp.point)
               for imp in _penalty_contacts(world, dt)]
    assert penalty == [(b, h, n, k * depth * dt, p)
                       for b, h, n, depth, p in brute_force_hand_hits(world, dynamic=False)]


# -- dock lifecycle ----------------------------------------------------------

def test_dock_step_only_takes_legal_transitions():
    flags = [f.name for f in fields(DockContext)]
    assert len(flags) == 7
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
