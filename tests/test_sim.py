import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from hapdock import sim
from hapdock.geometry import DT
from hapdock.sim import (BodyKind, HandCollider, RigidBody, SimulationDiverged,
                         World, _collect_contacts, _sphere_box, step_world)

G = 9.81


def mechanical_energy(world: World) -> float:
    """Kinetic plus gravitational potential energy of the dynamic bodies."""
    g = math.hypot(*world.gravity)
    up = tuple(-c / g for c in world.gravity)
    total = 0.0
    for b in world.dynamic_bodies():
        v2 = sum(v * v for v in b.velocity)
        height = sum(p * u for p, u in zip(b.position, up))
        total += 0.5 * b.mass * v2 + b.mass * g * height
    return total


def plain_floats(vec) -> bool:
    return type(vec) is list and len(vec) == 3 and all(type(v) is float for v in vec)


def desk() -> RigidBody:
    return RigidBody(name="desk", kind=BodyKind.STATIC,
                     position=[0.0, -0.03, 0.0], half_extents=[0.5, 0.03, 0.5],
                     collide_with_hand=False)


def can(name="can", mass=0.3, y=0.055, x=0.0) -> RigidBody:
    return RigidBody(name=name, kind=BodyKind.DYNAMIC,
                     position=[x, y, 0.0], half_extents=[0.033, 0.055, 0.033],
                     mass=mass)


def world_with(*bodies) -> World:
    w = World()
    for b in bodies:
        w.add_body(b)
    return w


def box_pair_contact(a, ha, b, hb):
    """(normal pushing B away from A, depth, point) of a static box A and a
    dynamic box B, or None when they do not overlap."""
    contacts, _ = _collect_contacts(world_with(
        RigidBody(name="a", kind=BodyKind.STATIC, position=a, half_extents=ha),
        RigidBody(name="b", kind=BodyKind.DYNAMIC, position=b, half_extents=hb, mass=1.0)))
    if not contacts:
        return None
    (c,) = contacts
    return c.normal, c.depth, c.point


class TestNarrowphase:
    def test_sphere_box_face_contact(self):
        depth, n_out, point = _sphere_box(0.0, 0.06, 0.0, 0.02,
                                          0.0, 0.0, 0.0, 0.05, 0.05, 0.05)
        assert n_out == pytest.approx((0.0, 1.0, 0.0))
        assert depth == pytest.approx(0.01)
        assert point == pytest.approx((0.0, 0.05, 0.0))

    def test_sphere_box_separated(self):
        depth, n_out, point = _sphere_box(0.0, 0.08, 0.0, 0.02,
                                          0.0, 0.0, 0.0, 0.05, 0.05, 0.05)
        assert depth == pytest.approx(-0.01)
        assert n_out is None and point is None

    def test_sphere_center_inside_box(self):
        depth, n_out, _ = _sphere_box(0.0, 0.04, 0.0, 0.02,
                                      0.0, 0.0, 0.0, 0.05, 0.05, 0.05)
        assert n_out == (0.0, 1.0, 0.0)
        assert depth == pytest.approx(0.03)

    def test_signed_depth_sign_convention(self):
        def depth(y):
            return _sphere_box(0.0, y, 0.0, 0.02, 0.0, 0.0, 0.0, 0.05, 0.05, 0.05)[0]

        assert depth(0.08) < 0.0
        assert depth(0.07) == pytest.approx(0.0)
        assert depth(0.06) == pytest.approx(0.01)

    def test_box_box_min_axis(self):
        hit = box_pair_contact([0.0, 0.0, 0.0], (0.5, 0.05, 0.5),
                               [0.0, 0.09, 0.0], (0.05, 0.05, 0.05))
        assert hit is not None
        normal, depth, _ = hit
        assert normal == (0.0, 1.0, 0.0)
        assert depth == pytest.approx(0.01)

    def test_box_box_separated(self):
        assert box_pair_contact([0.0, 0.0, 0.0], (0.5, 0.05, 0.5),
                                [0.0, 0.2, 0.0], (0.05, 0.05, 0.05)) is None


class TestDynamics:
    def test_resting_can_support_impulse(self):
        # Static equilibrium: the desk supplies m*g*dt upward every step.
        body = can()
        w = world_with(desk(), body)
        for _ in range(50):
            _, impulses = step_world(w)
        assert len(impulses) == 1
        imp = impulses[0]
        assert imp.body_b == "can"
        assert imp.normal == pytest.approx((0.0, 1.0, 0.0))
        assert all(type(v) is float for v in imp.normal)
        assert imp.magnitude == pytest.approx(0.3 * G * DT, rel=1e-9)
        assert body.velocity[:3] == pytest.approx((0, 0, 0), abs=1e-12)

    def test_free_fall_velocity(self):
        body = can(y=5.0)
        w = world_with(body)
        for _ in range(1000):
            step_world(w)
        assert plain_floats(body.velocity)
        assert body.velocity[1] == pytest.approx(-9.81, abs=1e-9)

    def test_hand_sweep_displaces_can(self):
        # Golden mini-scene: palm sphere pushing a can sideways.
        body = can()
        w = world_with(desk(), body)
        x0 = float(body.position[0])
        impulse_normals = []
        for i in range(300):
            x = -0.12 + 0.2 * (i * DT)  # sphere sweeping in +x
            w.set_hand([HandCollider(name="palm", center=np.array([x, 0.055, 0.0]),
                                     radius=0.05, velocity=np.array([0.2, 0.0, 0.0]))])
            for imp in step_world(w)[1]:
                if imp.hand_collider == "palm":
                    impulse_normals.append(imp.normal)
        assert float(body.position[0]) > x0 + 0.005
        assert impulse_normals, "the sweep never touched the can"
        # Contact normal pushes the can away from the hand, i.e. +x.
        assert all(n[0] > 0.9 for n in impulse_normals)

    def test_kinematic_hand_never_receives_impulses(self):
        w = world_with(desk(), can())
        w.set_hand([HandCollider(name="palm", center=np.array([0.0, 0.11, 0.0]),
                                 radius=0.05, velocity=np.zeros(3))])
        before = w.hand[0].center.copy()
        step_world(w)
        assert np.array_equal(w.hand[0].center, before)

    def test_move_hand_takes_one_center_per_collider(self):
        w = world_with(desk(), can())
        w.set_hand([HandCollider(name="palm", center=(0.0, 0.2, 0.0), radius=0.05,
                                 velocity=(0.0, 0.0, 0.0))])
        with pytest.raises(ValueError):
            w.move_hand([(0.0, 0.3, 0.0), (0.0, 0.4, 0.0)])
        assert w.hand[0].center == (0.0, 0.2, 0.0)

    def test_supported_can_rides_rising_palm(self):
        body = can()
        w = world_with(desk(), body)
        y_palm = -0.06
        for i in range(1200):
            y_palm = -0.06 + 0.25 * (i * DT)
            w.set_hand([HandCollider(name="palm",
                                     center=np.array([0.0, y_palm, 0.0]),
                                     radius=0.05,
                                     velocity=np.array([0.0, 0.25, 0.0]))])
            step_world(w)
        # After 1.2 s the palm top is ~0.29: the can must be airborne on it.
        can_bottom = float(body.position[1]) - 0.055
        palm_top = y_palm + 0.05
        assert can_bottom == pytest.approx(palm_top, abs=2e-3)

    def test_energy_non_increasing_without_hand(self):
        body = can(y=0.3)  # dropped from 19 cm up
        w = world_with(desk(), body)
        assert plain_floats(body.position)
        last = mechanical_energy(w)
        for _ in range(1500):
            step_world(w)
            e = mechanical_energy(w)
            assert e <= last + 1e-9
            last = e

    def test_newton_bookkeeping(self):
        # Impulses attributed to hand colliders are exactly the negatives of
        # what the dynamic bodies received.
        w = world_with(desk(), can())
        w.set_hand([HandCollider(name="palm", center=np.array([0.0, 0.002, 0.0]),
                                 radius=0.05, velocity=np.array([0.0, 0.3, 0.0]))])
        _, report = step_world(w)
        impulses = [i for i in report if i.hand_collider is not None]
        assert impulses
        on_body = np.zeros(3)
        on_hand = np.zeros(3)
        for imp in impulses:
            on_body += imp.magnitude * np.asarray(imp.normal)
            on_hand += -imp.magnitude * np.asarray(imp.normal)
        assert on_body == pytest.approx(-on_hand)

    def test_dynamic_pair_stacking(self):
        lower = can(name="lower", y=0.055)
        upper = can(name="upper", mass=0.1, y=0.166)
        w = world_with(desk(), lower, upper)
        for _ in range(400):
            _, impulses = step_world(w)
        pair = [i for i in impulses if {i.body_a, i.body_b} == {"lower", "upper"}]
        assert len(pair) == 1
        assert pair[0].magnitude == pytest.approx(0.1 * G * DT, rel=1e-6)
        desk_contact = [i for i in impulses if i.body_a == "desk"]
        assert desk_contact[0].magnitude == pytest.approx(0.4 * G * DT, rel=1e-6)

    def test_step_determinism(self):
        def run():
            body = can(y=0.2)
            w = world_with(desk(), body)
            out = []
            for _ in range(500):
                step_world(w)
            out.extend(body.position)
            out.extend(body.velocity)
            return out
        first = run()
        assert all(type(v) is float for v in first)
        assert first == run()


def fresh_copy(world: World) -> World:
    """A new world in the same state, without the original's fixed-point
    record."""
    return World(
        gravity=world.gravity, params=world.params,
        bodies=[RigidBody(b.name, b.kind, list(b.position), b.half_extents,
                          list(b.velocity), b.mass, b.collide_with_hand)
                for b in world.bodies],
        hand=[HandCollider(h.name, h.center, h.radius, h.velocity) for h in world.hand])


def _pack(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def step_bits(world: World, report) -> tuple:
    """Every body's position and velocity and every impulse, as bits."""
    return ([_pack(*b.position, *b.velocity) for b in world.bodies],
            [(i.body_a, i.body_b, i.hand_collider, _pack(*i.point, *i.normal, i.magnitude))
             for i in report])


def settle(world: World, limit: int = 2000) -> tuple:
    """Step until a step hands its input back; return the world's record."""
    for _ in range(limit):
        step_world(world)
        if world.fixed_point is not None:
            return world.fixed_point
    raise AssertionError("the world never reached a fixed point")


@pytest.fixture
def collects(monkeypatch) -> list:
    """One entry per ``_collect_contacts`` call."""
    calls = []
    original = sim._collect_contacts

    def counting(world):
        calls.append(world)
        return original(world)

    monkeypatch.setattr(sim, "_collect_contacts", counting)
    return calls


def held_can() -> World:
    """A can held still on a palm sphere, 9 cm above the desk."""
    w = world_with(desk(), can(y=0.2))
    w.set_hand([HandCollider("palm", (0.0, 0.145 - 0.02 + 1e-4, 0.0), 0.02,
                             (0.0, 0.0, 0.0))])
    return w


class TestFixedPoint:
    def test_repeat_returns_the_report_without_a_step(self, collects):
        # The step that records the fixed point and every hit return the one
        # recorded report object, so a caller can key on it.
        w = held_can()
        for _ in range(2000):
            recorded = step_world(w)[1]
            if w.fixed_point is not None:
                break
        record = w.fixed_point
        assert isinstance(recorded, tuple) and recorded is record[-1]
        before = step_bits(w, recorded)
        collects.clear()
        reports = [step_world(w)[1] for _ in range(3)]
        assert collects == []
        assert w.fixed_point is record
        assert all(report is recorded for report in reports)
        assert any(i.hand_collider == "palm" for i in recorded)
        assert step_bits(w, recorded) == before

    @pytest.mark.parametrize("change", [
        "signed_zero", "radius", "add_body", "position", "params", "gravity"])
    def test_changed_input_misses(self, collects, change):
        w = held_can()
        settle(w)
        body = w.bodies[-1]
        position = body.position
        if change == "signed_zero":
            assert position[0] == 0.0 and math.copysign(1.0, position[0]) == 1.0
            position[0] = -0.0
        elif change == "radius":
            w.set_hand([HandCollider("palm", w.hand[0].center, 0.03, (0.0, 0.0, 0.0))])
        elif change == "add_body":
            w.add_body(can(name="dropped", y=0.3, x=0.3))
        elif change == "position":
            body.position = [position[0], position[1] + 1e-3, position[2]]
        elif change == "params":
            w.params = replace(w.params)   # an equal, new object
        else:
            w.gravity = tuple(list(w.gravity))
        copy = fresh_copy(w)
        collects.clear()
        report = step_world(w)[1]
        assert collects and collects[0] is w
        assert step_bits(w, report) == step_bits(copy, step_world(copy)[1])


def sandwich() -> World:
    """A weightless box held between two static slabs that both sink 62.5 mm
    into it, and one palm sphere 0.5 m away. Each projection pass pushes the
    box up and back down by the same excess, which returns its exact bits."""
    w = World(gravity=(0.0, 0.0, 0.0))
    w.add_body(RigidBody("floor", BodyKind.STATIC, [0.0, -1.0, 0.0], (0.5625, 0.5625, 0.5625)))
    w.add_body(RigidBody("box", BodyKind.DYNAMIC, [0.0, 0.0, 0.0], (0.5, 0.5, 0.5), mass=1.0))
    w.add_body(RigidBody("lid", BodyKind.STATIC, [0.0, 1.0, 0.0], (0.5625, 0.5625, 0.5625)))
    w.set_hand([HandCollider("palm", (1.5, 0.0, 0.0), 0.02, (0.0, 0.0, 0.0))])
    return w


class TestHandFreeFixedPoint:
    def test_record_repeats_while_the_hand_moves_clear(self, collects):
        # The can rests on the desk; the palm passes above it, never touching.
        w = world_with(desk(), can())
        w.set_hand([HandCollider("palm", (0.0, 0.2, 0.0), 0.02, (0.0, 0.0, 0.0))])
        record = settle(w)
        assert record[1] is None
        for k in range(1, 4):
            w.move_hand([(0.01 * k, 0.2 - 0.001 * k, 0.0)])
            copy = fresh_copy(w)
            collects.clear()
            report = step_world(w)[1]
            assert collects == [] and w.fixed_point is record
            assert step_bits(w, report) == step_bits(copy, step_world(copy)[1])

    def test_a_touching_hand_steps(self, collects):
        w = world_with(desk(), can())
        w.set_hand([HandCollider("palm", (0.0, 0.2, 0.0), 0.02, (0.0, 0.0, 0.0))])
        record = settle(w)
        collects.clear()
        # Resting on the can's top face, 0.1 mm deep.
        w.move_hand([(0.0, 0.11 + 0.02 - 1e-4, 0.0)])
        copy = fresh_copy(w)
        report = step_world(w)[1]
        assert collects and w.fixed_point is not record
        assert any(i.hand_collider == "palm" for i in report)
        assert step_bits(w, report) == step_bits(copy, step_world(copy)[1])

    def test_projected_fixed_point_keeps_the_hand_bits(self, collects):
        w = sandwich()
        box = w.bodies[1]
        step_world(w)
        # Both passes moved the box, and the step handed it back.
        assert len(collects) == 3
        assert box.position == [0.0, 0.0, 0.0] and box.velocity == [0.0, 0.0, 0.0]
        record = w.fixed_point
        assert record is not None and record[1] is not None
        # The same hand repeats the record; a moved hand, touching nothing,
        # does not.
        collects.clear()
        step_world(w)
        assert collects == [] and w.fixed_point is record
        w.move_hand([(1.5, 0.001, 0.0)])
        copy = fresh_copy(w)
        report = step_world(w)[1]
        assert len(collects) == 3
        assert step_bits(w, report) == step_bits(copy, step_world(copy)[1])


class TestDivergence:
    def test_nonfinite_state_halts(self):
        body = can()
        w = world_with(body)
        body.velocity[1] = float("nan")
        with pytest.raises(SimulationDiverged):
            step_world(w)

    def test_runaway_state_halts(self):
        body = can()
        w = world_with(body)
        body.velocity[1] = 1.0e200
        with pytest.raises(SimulationDiverged):
            for _ in range(10):
                step_world(w)

    @pytest.mark.parametrize("attr", ["position", "velocity"])
    def test_opposite_runaway_components_halt(self, attr):
        # The components sum to zero, so only a per-component check sees them.
        body = can()
        w = world_with(body)
        getattr(body, attr)[:3] = (1.0e12, -1.0e12, 0.0)
        with pytest.raises(SimulationDiverged):
            step_world(w)


class TestValidation:
    def test_dynamic_body_needs_mass(self):
        with pytest.raises(ValueError):
            RigidBody(name="bad", kind=BodyKind.DYNAMIC,
                      position=[0, 0, 0], half_extents=[0.1, 0.1, 0.1], mass=0.0)

    def test_vectors_must_have_three_components(self):
        # Velocity is linear only; a 6-vector from the old layout is refused.
        with pytest.raises(ValueError):
            RigidBody(name="bad", kind=BodyKind.DYNAMIC, mass=1.0,
                      position=[0, 0, 0], half_extents=[0.1, 0.1, 0.1],
                      velocity=np.zeros(6))

    def test_duplicate_names_rejected(self):
        w = world_with(can())
        with pytest.raises(ValueError):
            w.add_body(can())
