import math

import numpy as np
import pytest

from hapdock.devices import (ArmCommand, ArmSpec, ArmState, DEFAULT_HAND_PARAMS,
                             DEVICE_PERIOD_LIMIT_S, DEXMO_GLOVE, GLOVE_PERIOD_TICKS,
                             GloveCommand, GloveSpec, HandCalibration,
                             VIRTUOSE_6D, arm_step, glove_apply,
                             hand_collider_spheres, hand_forward_model,
                             impedance_displacement)
from hapdock.frames import RigidTransform

IDENTITY = RigidTransform.identity()
CAL = HandCalibration(flex_min=(10.0,) * 5, flex_max=(90.0,) * 5,
                      abd_min=(-1.0,) * 5, abd_max=(1.0,) * 5)


def sensed(flex_raw, abd_raw=0.0):
    return [flex_raw] * 5 + [abd_raw] * 5 + [0.0]


def joint_angles(hand):
    """(mcp, pip, dip) per finger, as the collider chains evaluate them."""
    return [DEFAULT_HAND_PARAMS.joint_angles(f) for f in hand.flex]


class TestForwardModel:
    def test_calibration_minimum_gives_extension(self):
        hand = hand_forward_model(sensed(10.0), CAL)
        assert hand.flex == (0.0,) * 5
        mcp = math.radians(DEFAULT_HAND_PARAMS.mcp_min_deg)
        assert all(j[0] == pytest.approx(mcp, abs=1e-12) for j in joint_angles(hand))
        assert not any(hand.clamp_flags)

    def test_calibration_maximum_gives_full_flex(self):
        hand = hand_forward_model(sensed(90.0), CAL)
        assert hand.flex == (1.0,) * 5
        mcp = math.radians(DEFAULT_HAND_PARAMS.mcp_max_deg)
        assert all(j[0] == pytest.approx(mcp, abs=1e-12) for j in joint_angles(hand))

    def test_midpoint_and_fixed_ratios(self):
        # Oracle: direct interpolation of the pinned constants.
        hand = hand_forward_model(sensed(50.0), CAL)
        assert hand.flex == pytest.approx((0.5,) * 5, abs=1e-12)
        p = DEFAULT_HAND_PARAMS
        expected_mcp = math.radians(p.mcp_min_deg + 0.5 * (p.mcp_max_deg - p.mcp_min_deg))
        for mcp, pip, dip in joint_angles(hand):
            assert mcp == pytest.approx(expected_mcp, rel=1e-12)
            assert pip == pytest.approx(p.pip_ratio * mcp, rel=1e-12)
            assert dip == pytest.approx(p.dip_ratio * mcp, rel=1e-12)

    def test_out_of_range_clamps_and_flags(self):
        hand = hand_forward_model(sensed(200.0), CAL)
        assert hand.flex == (1.0,) * 5
        assert all(hand.clamp_flags[:5])
        hand = hand_forward_model(sensed(-5.0), CAL)
        assert hand.flex == (0.0,) * 5

    def test_abduction_passthrough(self):
        hand = hand_forward_model(sensed(50.0, abd_raw=0.5), CAL)
        assert hand.abduction == pytest.approx((0.75,) * 5, abs=1e-12)

    def test_wrong_sensor_count_rejected(self):
        with pytest.raises(ValueError):
            hand_forward_model([0.0] * 10, CAL)

    def test_bad_calibration_rejected(self):
        with pytest.raises(ValueError):
            HandCalibration(flex_min=(1.0,) * 5, flex_max=(1.0,) * 5)


class TestGloveApply:
    def _hand(self, flex):
        return hand_forward_model(sensed(10.0 + 80.0 * flex), CAL)

    def test_full_stop_is_noop(self):
        hand = self._hand(0.7)
        out = glove_apply(GloveCommand(), hand)
        assert out.flex == hand.flex
        assert out.resist_torques == (0.0,) * 5

    def test_stop_clamps_flex(self):
        cmd = GloveCommand(stop_angle=(0.5,) * 5, spring_constant=(0.0,) * 5)
        out = glove_apply(cmd, self._hand(0.8))
        assert out.flex == pytest.approx((0.5,) * 5, abs=1e-9)

    def test_resistance_matches_spring_law(self):
        # Same kinematic clamp, torque = spring * (intended - stop).
        hand = self._hand(0.8)
        soft = glove_apply(GloveCommand(stop_angle=(0.5,) * 5,
                                        spring_constant=(0.0,) * 5), hand)
        stiff = glove_apply(GloveCommand(stop_angle=(0.5,) * 5,
                                         spring_constant=(1.2,) * 5), hand)
        assert stiff.flex == soft.flex
        expected = 1.2 * (0.8 - 0.5)
        assert stiff.resist_torques == pytest.approx((expected,) * 5, rel=1e-9)
        assert soft.resist_torques == (0.0,) * 5

    def test_torque_clamped_to_device_limit(self):
        hand = self._hand(1.0)
        out = glove_apply(GloveCommand(stop_angle=(0.0,) * 5,
                                       spring_constant=(50.0,) * 5), hand)
        assert out.resist_torques == (DEXMO_GLOVE.max_joint_torque,) * 5

    def test_command_validation(self):
        with pytest.raises(ValueError):
            GloveCommand(stop_angle=(1.5,) * 5)
        with pytest.raises(ValueError):
            GloveCommand(spring_constant=(-1.0,) * 5)


def small_arm(**over) -> ArmSpec:
    kwargs = dict(name="test_arm", workspace_extents=(1.0, 1.0, 1.0),
                  rot_range_deg=(330.0, 130.0, 270.0),
                  max_force=(9.5,) * 3, max_torque=(1.0,) * 3, stiffness=1000.0)
    kwargs.update(over)
    return ArmSpec(**kwargs)


class TestArmStep:
    def test_fixed_point(self):
        spec = small_arm()
        state = ArmState(pose=RigidTransform.from_translation((0.1, 0.2, 0.0)))
        cmd = ArmCommand(target=state.pose, speed_limit=1.0)
        out = arm_step(spec, state, cmd, 0.001)
        assert out.pose.translation_distance_to(state.pose) < 1e-12
        assert out.pose.rotation_angle_to(state.pose) < 1e-12

    def test_reaches_static_target_within_time_bound(self):
        # 0.10 m at 1 m/s: inside the 5 mm capture tolerance after <= 100 ms
        # plus a small first-order tail.
        spec = small_arm()
        state = ArmState(pose=IDENTITY)
        cmd = ArmCommand(target=RigidTransform.from_translation((0.1, 0.0, 0.0)),
                         speed_limit=1.0)
        ticks_to_tol = None
        for i in range(1, 201):
            state = arm_step(spec, state, cmd, 0.001)
            if math.dist(state.pose.translation, (0.1, 0.0, 0.0)) <= 0.005:
                ticks_to_tol = i
                break
        assert ticks_to_tol is not None and ticks_to_tol <= 105

    def test_target_outside_box_rests_on_face(self):
        spec = small_arm()
        state = ArmState(pose=IDENTITY)
        cmd = ArmCommand(target=RigidTransform.from_translation((2.0, 0.0, 0.0)),
                         speed_limit=5.0)
        for _ in range(3000):
            state = arm_step(spec, state, cmd, 0.001)
        assert state.clamped
        assert state.pose.translation == pytest.approx((0.5, 0.0, 0.0), abs=1e-9)

    def test_error_monotonically_decreases(self):
        rng = np.random.default_rng(20)
        spec = small_arm()
        for _ in range(10):
            state = ArmState(pose=RigidTransform.from_translation(
                rng.uniform(-0.4, 0.4, size=3)))
            target = RigidTransform.from_translation(rng.uniform(-0.4, 0.4, size=3))
            cmd = ArmCommand(target=target, speed_limit=1.0)
            last = math.dist(state.pose.translation, target.translation)
            for _ in range(300):
                state = arm_step(spec, state, cmd, 0.001)
                d = math.dist(state.pose.translation, target.translation)
                assert d <= last + 1e-12
                last = d

    def test_workspace_safety_invariant(self):
        # Even while chasing an outside target the effector stays in the box.
        spec = small_arm()
        state = ArmState(pose=IDENTITY)
        cmd = ArmCommand(target=RigidTransform.from_translation((3.0, 3.0, 3.0)),
                         speed_limit=10.0)
        box = spec.workspace_box_base().inflate(1e-6)
        for _ in range(1000):
            state = arm_step(spec, state, cmd, 0.001)
            assert box.contains(state.pose.translation)

    def test_rotation_range_clamped(self):
        spec = small_arm(rot_range_deg=(40.0, 40.0, 40.0))
        state = ArmState(pose=IDENTITY)
        cmd = ArmCommand(target=RigidTransform.from_axis_angle((0, 0, 1), 1.0),
                         speed_limit=1.0, angular_speed_limit=10.0)
        for _ in range(2000):
            state = arm_step(spec, state, cmd, 0.001)
        assert state.pose.rotation_angle() == pytest.approx(math.radians(20.0), abs=1e-6)
        assert state.clamped


class TestImpedance:
    def test_zero_force(self):
        assert impedance_displacement((0, 0, 0), 1000.0) == (0.0, 0.0, 0.0)

    def test_hookes_law_offset(self):
        disp = impedance_displacement((0.0, -2.943, 0.0), 1000.0)
        assert disp == pytest.approx((0.0, -0.002943, 0.0), abs=1e-15)

    def test_round_trip(self):
        force = (1.3, -4.2, 0.7)
        disp = impedance_displacement(force, 850.0)
        back = tuple(850.0 * d for d in disp)
        assert back == pytest.approx(force, abs=1e-12)

    def test_nonpositive_stiffness_rejected(self):
        with pytest.raises(ValueError):
            impedance_displacement((1, 0, 0), 0.0)
        with pytest.raises(ValueError):
            impedance_displacement((1, 0, 0), -5.0)


class TestSpecsAndRates:
    def test_catalog_rows(self):
        assert VIRTUOSE_6D.workspace_extents == (1.330, 0.575, 1.020)
        assert VIRTUOSE_6D.rot_range_deg == (330.0, 130.0, 270.0)
        assert VIRTUOSE_6D.max_force == (9.5, 9.5, 9.5)
        assert VIRTUOSE_6D.max_torque == (1.0, 1.0, 1.0)
        assert DEXMO_GLOVE.actuated_dofs == 5
        assert DEXMO_GLOVE.sensed_dofs == 11
        assert DEXMO_GLOVE.joint_range_deg == 165.0
        assert DEXMO_GLOVE.max_joint_torque == 0.5

    def test_glove_rate_respects_device_limit(self):
        assert GLOVE_PERIOD_TICKS * 0.001 >= DEVICE_PERIOD_LIMIT_S

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            small_arm(workspace_extents=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            GloveSpec(actuated_dofs=12, sensed_dofs=11)

    def test_hand_colliders_layout(self):
        hand = hand_forward_model(sensed(10.0), CAL)
        spheres = hand_collider_spheres(IDENTITY, hand)
        names = [s[0] for s in spheres]
        assert names[0] == "palm"
        assert len(spheres) == 16
        # The thumb chain mirrors the index chain across the palm plane.
        by_name = {n: c for n, c, _ in spheres}
        for j in range(3):
            ti = by_name[f"thumb_{j}"]
            ix = by_name[f"index_{j}"]
            assert ti[0] == ix[0] and ti[2] == ix[2]
            assert ti[1] == -ix[1]
