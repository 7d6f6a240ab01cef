import math

import numpy as np
import pytest

from hapdock.devices import (DEFAULT_HAND_GEOMETRY, DEFAULT_HAND_PARAMS,
                             HandCalibration, finger_sphere_centers,
                             hand_forward_model)
from hapdock.frames import RigidTransform
from hapdock.routing import (LowPassFilter, _finger_penetration, contact_drum_param,
                             route_forces)
from hapdock.sim import (BodyKind, ContactImpulse, HandCollider, RigidBody,
                         World, step_world)

DT = 0.001
CAL = HandCalibration()
IDENTITY = RigidTransform.identity()


def hand_at(flex=0.0):
    sensed = [flex] * 5 + [0.5] * 5 + [0.0]
    return hand_forward_model(sensed, CAL)


def impulse(collider, body, normal, magnitude, point=(0.0, 0.0, 0.0)):
    return ContactImpulse(body_a="hand", body_b=body, point=point,
                          normal=normal, magnitude=magnitude,
                          hand_collider=collider)


class TestRouteForces:
    def test_symmetric_squeeze_cancels(self):
        # Equal-and-opposite pair on the same body: glove-only, zero net.
        imp = [impulse("index_2", "post", (0.0, -1.0, 0.0), 0.02 * DT),
               impulse("thumb_2", "post", (0.0, 1.0, 0.0), 0.02 * DT)]
        routed = route_forces(imp, True, DT, reference_point=(0, 0, 0))
        assert routed.net_force == (0.0, 0.0, 0.0)
        assert routed.paired_magnitude == pytest.approx(0.02)

    def test_support_reaction_goes_to_arm_when_docked(self):
        # Hand statically supporting 0.3 kg: arm feels (0, -2.943, 0) N.
        imp = [impulse("palm", "can", (0.0, 1.0, 0.0), 0.3 * 9.81 * DT,
                       point=(0.0, 0.1, 0.0))]
        routed = route_forces(imp, True, DT, reference_point=(0.0, 0.1, 0.0))
        assert routed.net_force == pytest.approx((0.0, -2.943, 0.0), rel=1e-9)
        assert routed.residual == (0.0,) * 6
        assert routed.paired_magnitude == 0.0

    def test_undocked_net_force_is_discarded_to_residual(self):
        imp = [impulse("palm", "can", (0.0, 1.0, 0.0), 0.3 * 9.81 * DT)]
        routed = route_forces(imp, False, DT, reference_point=(0.0, 0.0, 0.0))
        assert routed.residual[:3] == pytest.approx((0.0, -2.943, 0.0), rel=1e-9)
        assert routed.residual == routed.net_force + routed.net_torque

    def test_bookkeeping_identity(self):
        # The net force is the sum of every hand-contact force; the residual
        # carries it exactly when no arm is docked.
        rng = np.random.default_rng(40)
        imps = []
        for i in range(6):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            imps.append(impulse(f"c{i}", "body", tuple(n),
                                float(rng.uniform(0, 1e-3)),
                                point=tuple(rng.uniform(-0.1, 0.1, 3))))
        total = -sum(np.asarray(i.normal) * i.magnitude / DT for i in imps)
        for docked in (True, False):
            routed = route_forces(imps, docked, DT, reference_point=(0, 0, 0))
            assert routed.net_force == pytest.approx(total, abs=1e-12)
            assert routed.residual == ((0.0,) * 6 if docked
                                       else routed.net_force + routed.net_torque)

    def test_torque_about_reference_point(self):
        imp = [impulse("palm", "can", (0.0, 1.0, 0.0), 1.0 * DT,
                       point=(0.1, 0.0, 0.0))]
        routed = route_forces(imp, True, DT, reference_point=(0.0, 0.0, 0.0))
        # The hand feels the 1 N reaction downward at +10 cm x: -0.1 Nm about z.
        assert routed.net_torque == pytest.approx((0.0, 0.0, -0.1), abs=1e-12)

    def test_opposing_cone_respected(self):
        # 30 degrees apart from anti-parallel: outside the 15 degree cone.
        n2 = (math.sin(math.radians(30)), math.cos(math.radians(30)), 0.0)
        imp = [impulse("a", "post", (0.0, -1.0, 0.0), 1e-3),
               impulse("b", "post", n2, 1e-3)]
        routed = route_forces(imp, False, DT, reference_point=(0.0, 0.0, 0.0))
        assert routed.paired_magnitude == 0.0

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            route_forces([], False, 0.0, reference_point=(0.0, 0.0, 0.0))


def pinch_world() -> World:
    w = World()
    w.add_body(RigidBody(name="post", kind=BodyKind.STATIC,
                         position=[0.16, 0.0, 0.027],
                         half_extents=[0.04, 0.004, 0.008]))
    return w


def first_contact_flex(world: World, finger: int, step=1e-4) -> float:
    """Grid-scan oracle for the flex where the finger first touches."""
    hand = hand_at()
    abd = DEFAULT_HAND_PARAMS.abduction_angle(hand.abduction[finger])
    f = 0.0
    while f <= 1.0:
        pen = _finger_penetration(world, IDENTITY, finger, abd, f)
        if pen > 0.0:
            return f
        f += step
    raise AssertionError("finger never touches")


class TestContactDrum:
    def test_no_contact_returns_unrestricted(self):
        w = World()  # empty scene
        assert contact_drum_param(IDENTITY, hand_at(flex=0.5), 1, w) == 1.0

    def test_far_finger_unrestricted(self):
        assert contact_drum_param(IDENTITY, hand_at(flex=0.5), 4, pinch_world()) == 1.0

    def test_exact_touch_returns_current_flex(self):
        # Build a plate whose face exactly touches the index distal sphere.
        hand = hand_at(flex=0.3)
        abd = DEFAULT_HAND_PARAMS.abduction_angle(hand.abduction[1])
        tip = finger_sphere_centers(IDENTITY, 1,
                                    DEFAULT_HAND_PARAMS.joint_angles(hand.flex[1]), abd)[2]
        r = DEFAULT_HAND_GEOMETRY.phalange_radius
        w = World()
        w.add_body(RigidBody(name="plate", kind=BodyKind.STATIC,
                             position=[tip[0], tip[1] - r - 0.004, tip[2]],
                             half_extents=[0.05, 0.004, 0.05]))
        assert contact_drum_param(IDENTITY, hand, 1, w) == pytest.approx(0.3, abs=1e-12)

    def test_past_contact_recovers_first_contact_flex(self):
        # Driven well past first touch: the stop must come back to the
        # first-contact flex within the search tolerance.
        w = pinch_world()
        oracle = first_contact_flex(w, 1)
        stop = contact_drum_param(IDENTITY, hand_at(flex=oracle + 0.1), 1, w)
        assert abs(stop - oracle) <= 1e-3
        # The returned stop always sits on the penetrating side of the
        # boundary so the glove holds a real (if tiny) contact.
        hand = hand_at()
        abd = DEFAULT_HAND_PARAMS.abduction_angle(hand.abduction[1])
        assert _finger_penetration(w, IDENTITY, 1, abd, stop) > 0.0

    def test_thumb_and_index_stops_identical_by_symmetry(self):
        w = pinch_world()
        hand = hand_at(flex=0.4)
        assert (contact_drum_param(IDENTITY, hand, 0, w)
                == contact_drum_param(IDENTITY, hand, 1, w))

    def test_full_ride_through_supported_mass(self):
        # Closed-loop sanity: a palm-supported can routes ~m*g while two
        # lighter vs heavier runs keep the 1:2 force ratio.
        def support_force(mass):
            w = World()
            w.add_body(RigidBody(name="desk", kind=BodyKind.STATIC,
                                 position=[0.0, -0.03, 0.0],
                                 half_extents=[0.5, 0.03, 0.5],
                                 collide_with_hand=False))
            w.add_body(RigidBody(name="can", kind=BodyKind.DYNAMIC,
                                 position=[0.0, 0.055, 0.0],
                                 half_extents=[0.033, 0.055, 0.033], mass=mass))
            forces = []
            y_prev = -0.06
            for i in range(900):
                y = -0.06 + min(0.25 * i * DT, 0.15)
                vy = (y - y_prev) / DT
                y_prev = y
                w.set_hand([HandCollider(name="palm",
                                         center=np.array([0.0, y, 0.0]),
                                         radius=0.05,
                                         velocity=np.array([0.0, vy, 0.0]))])
                _, impulses = step_world(w, DT)
                routed = route_forces(impulses, True, DT,
                                      reference_point=(0.0, 0.0, 0.0))
                if i > 700:
                    forces.append(-routed.net_force[1])
            return sum(forces) / len(forces)

        f_light = support_force(0.15)
        f_heavy = support_force(0.3)
        assert f_heavy == pytest.approx(0.3 * 9.81, rel=0.02)
        assert f_light / f_heavy == pytest.approx(0.5, rel=0.05)


class TestLowPass:
    def test_step_response_converges(self):
        f = LowPassFilter(cutoff_hz=20.0, dt=DT, size=3)
        target = np.array([1.0, -2.0, 0.5])
        for _ in range(500):  # 0.5 s >> the 8 ms time constant
            out = f.update(target)
        assert out == pytest.approx(target, rel=1e-3)

    def test_disabled_filter_passes_through(self):
        f = LowPassFilter(cutoff_hz=0.0, dt=DT, size=2)
        assert f.update([3.0, 4.0]) == pytest.approx([3.0, 4.0])

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            LowPassFilter(cutoff_hz=-1.0, dt=DT)
