import math
from dataclasses import replace

import numpy as np
import pytest

from hapdock.devices import ArmSpec, ArmState, arm_step
from hapdock.docking import (DOF_LABELS, LEGAL_TRANSITIONS, DockContext, DockJoint,
                             DockJointKind, DockState, MagnetChannel,
                             PINNED_ROTARY, PLATE_FRICTION, PLATE_SLIP,
                             PRISMATIC, TOOTHED, dock_step, joint_transmit,
                             predict_position, pursue, try_attach)
from hapdock.frames import RigidTransform
from hapdock.geometry import DT

ALL_KINDS = (PLATE_SLIP, PLATE_FRICTION, PINNED_ROTARY, TOOTHED, PRISMATIC)
BREAK = 5.0 * 9.81  # magnet rated hold: 5 kg


def plate_joint(kind=PLATE_FRICTION) -> DockJoint:
    return DockJoint(kind=kind)


class TestJointKinds:
    def test_every_kind_partitions_six_dofs(self):
        for kind in ALL_KINDS:
            labels = set(kind.constrained) | set(kind.friction_limited) | set(kind.free)
            assert labels == set(DOF_LABELS)
            assert not kind.free & (kind.constrained | kind.friction_limited)

    def test_custom_kind_from_constrained_set(self):
        kind = DockJointKind("custom", constrained=frozenset({"tx", "ty", "tz"}))
        assert kind.free == frozenset({"rx", "ry", "rz"})
        assert kind.free is kind.free  # built once, not per read
        with pytest.raises(ValueError):
            DockJointKind("custom", constrained=frozenset({"bogus"}))

    def test_degraded_dofs(self):
        assert PLATE_FRICTION.degraded_dofs() == ("rz",)
        assert TOOTHED.degraded_dofs() == ()
        assert PRISMATIC.degraded_dofs() == ("tx",)


class TestJointTransmit:
    def test_compressive_axial_passes(self):
        out, slip, released = joint_transmit(plate_joint(),
                                             [0.0, 0.0, -10.0, 0.0, 0.0, 0.0])
        assert not released and not slip
        assert out == pytest.approx([0, 0, -10.0, 0, 0, 0])

    def test_breaking_force_releases_within_call(self):
        # 5 kg x 9.81 of tension holds; a hair more lets go with zero output.
        hold, _, released = joint_transmit(plate_joint(),
                                           [0, 0, BREAK, 0, 0, 0])
        assert not released and hold[2] == pytest.approx(BREAK)
        out, _, released = joint_transmit(plate_joint(),
                                          [0, 0, BREAK + 1e-6, 0, 0, 0])
        assert released
        assert out == (0.0,) * 6

    def test_pinned_rotary_transmits_no_normal_torque(self):
        out, slip, released = joint_transmit(plate_joint(PINNED_ROTARY),
                                             [0, 0, 0, 0, 0, 0.8])
        assert not released
        assert out[5] == 0.0

    def test_free_dof_soundness(self):
        # Unit load on any free DOF of any joint kind transmits exactly zero.
        for kind in ALL_KINDS:
            joint = plate_joint(kind)
            for i, label in enumerate(DOF_LABELS):
                if label not in kind.free:
                    continue
                wrench = np.zeros(6)
                wrench[i] = 1.0
                out, _, released = joint_transmit(joint, wrench)
                assert not released
                assert out[i] == 0.0

    def test_tangential_friction_truncates_with_slip(self):
        joint = plate_joint(PLATE_SLIP)
        cap = joint.friction_mu * joint.breaking_force
        out, slip, released = joint_transmit(joint, [cap * 2.0, 0, 0, 0, 0, 0])
        assert slip and not released
        assert out[0] == pytest.approx(cap)
        out, slip, _ = joint_transmit(joint, [cap * 0.5, 0, 0, 0, 0, 0])
        assert not slip
        assert out[0] == pytest.approx(cap * 0.5)

    def test_compression_raises_friction_capacity(self):
        joint = plate_joint(PLATE_SLIP)
        cap0 = joint.friction_mu * joint.breaking_force
        load = cap0 * 1.3  # slips alone, holds once 20 N of compression is added
        _, slip, _ = joint_transmit(joint, [load, 0, 0, 0, 0, 0])
        assert slip
        pressed, slip, _ = joint_transmit(joint, [load, 0, -20.0, 0, 0, 0])
        assert not slip
        assert pressed[0] == pytest.approx(load)

    def test_normal_torque_friction_cap(self):
        joint = plate_joint(PLATE_FRICTION)
        cap = joint.friction_mu * joint.breaking_force * joint.contact_radius
        out, slip, _ = joint_transmit(joint, [0, 0, 0, 0, 0, cap * 3.0])
        assert slip
        assert out[5] == pytest.approx(cap)

    def test_peel_torque_releases(self):
        joint = plate_joint()
        peel = joint.peel_torque
        assert peel == pytest.approx(BREAK * joint.contact_radius / 2.0)
        out, _, released = joint_transmit(joint, [0, 0, 0, peel * 1.01, 0, 0])
        assert released and out == (0.0,) * 6

    def test_nonfinite_wrench_rejected(self):
        with pytest.raises(ValueError):
            joint_transmit(plate_joint(), [0, 0, float("nan"), 0, 0, 0])
        with pytest.raises(ValueError):
            joint_transmit(plate_joint(), [0, 0, 0, 0])


class TestTryAttach:
    def test_coincident_aligned_gives_identity(self):
        pose = RigidTransform.from_translation((0.3, 0.1, 0.0))
        unattached = DockJoint(kind=TOOTHED, breaking_force=10.0, friction_mu=0.2,
                               contact_radius=0.01)
        joint = try_attach(pose, pose, 0.005, math.radians(5), unattached)
        assert joint is not None
        assert joint.attach_pose.rotation_angle() <= 1e-9
        assert math.hypot(*joint.attach_pose.translation) <= 1e-9
        # Everything but the attach pose comes from the joint passed in.
        assert replace(joint, attach_pose=unattached.attach_pose) == unattached

    def test_gap_beyond_tolerance_refuses(self):
        plate = RigidTransform.identity()
        magnet = RigidTransform.from_translation((0.0, 0.0, 0.010))
        assert try_attach(magnet, plate, 0.005, math.radians(5), plate_joint()) is None

    def test_misalignment_beyond_tolerance_refuses(self):
        plate = RigidTransform.identity()
        magnet = RigidTransform.from_axis_angle((1, 0, 0), math.radians(10))
        assert try_attach(magnet, plate, 0.005, math.radians(5), plate_joint()) is None

    def test_offset_attach_records_measured_relative_pose(self):
        # Oracle: compose the relative transform independently and compare.
        plate = RigidTransform.from_axis_angle((0, 1, 0), 0.4, (0.2, 0.05, -0.1))
        offset = RigidTransform.from_axis_angle((0, 0, 1), math.radians(2.5),
                                                (0.002, -0.001, 0.001))
        magnet = plate.compose(offset)
        joint = try_attach(magnet, plate, 0.005, math.radians(5), plate_joint())
        assert joint is not None
        assert joint.attach_pose.rotation_angle_to(offset) < 1e-9
        assert joint.attach_pose.translation_distance_to(offset) < 1e-9


class TestPursue:
    SPEC = ArmSpec(name="test", workspace_extents=(2.0, 2.0, 2.0),
                   rot_range_deg=(330.0, 130.0, 270.0), max_force=(9.5,) * 3,
                   max_torque=(1.0,) * 3, stiffness=1000.0)

    def test_on_target_is_zero_motion(self):
        eff = RigidTransform.from_translation((0.2, 0.0, 0.0))
        cmd = pursue(eff, eff, 1.0)
        assert cmd.target.translation_distance_to(eff) < 1e-9
        out = arm_step(self.SPEC, ArmState(pose=eff), cmd)
        assert out.pose.translation_distance_to(eff) < 1e-12

    def test_static_capture_time_bound(self):
        # Closed form: distance / max_speed plus a few control ticks.
        target = RigidTransform.from_translation((0.5, 0.0, 0.0))
        state = ArmState(pose=RigidTransform.identity())
        captured_at = None
        for i in range(1, 700):
            cmd = pursue(state.pose, target, 1.0)
            state = arm_step(self.SPEC, state, cmd)
            if state.pose.translation_distance_to(target) <= 0.005:
                captured_at = i
                break
        assert captured_at is not None
        assert captured_at <= int(0.5 / 1.0 * 1000) + 3

    def test_moving_target_distance_strictly_decreases(self):
        state = ArmState(pose=RigidTransform.identity())
        for i in range(1200):
            t = i * DT
            target = RigidTransform.from_translation((0.4 + 0.3 * t, 0.2, 0.0))
            d_before = state.pose.translation_distance_to(target)
            if d_before <= 0.005:
                break
            cmd = pursue(state.pose, target, 1.0)
            state = arm_step(self.SPEC, state, cmd)
            assert state.pose.translation_distance_to(target) < d_before
        else:
            pytest.fail("moving target was never captured")

    def test_tool_offset_fold_in(self):
        # The command must place the *tool*, not the pivot, on the target.
        tool_offset = RigidTransform.from_translation((0.0, -0.05, 0.0))
        eff = RigidTransform.from_translation((0.1, 0.3, 0.0))
        target = RigidTransform.from_translation((0.4, 0.2, 0.1))
        cmd = pursue(eff, target, 1.0, tool_offset=tool_offset)
        implied_tool = cmd.target.compose(tool_offset)
        assert implied_tool.translation_distance_to(target) < 1e-9

    def test_argument_validation(self):
        eff = RigidTransform.identity()
        with pytest.raises(ValueError):
            pursue(eff, eff, 0.0)


def ctx(**over) -> DockContext:
    base = dict(intercept_wanted=False, arbitration_winner=False,
                magnet_energized=False, attach_candidate=False,
                slot_available=True, release_demanded=False)
    base.update(over)
    return DockContext(**base)


class TestLifecycle:
    def test_golden_sequence(self):
        state = DockState.FREE
        history = [state]
        state, evs = dock_step(state, ctx(intercept_wanted=True,
                                          arbitration_winner=True))
        history.append(state)
        assert evs == ("intercept",)
        state, evs = dock_step(state, ctx(intercept_wanted=True,
                                          magnet_energized=True,
                                          attach_candidate=True))
        history.append(state)
        assert evs == ("attach",)
        state, evs = dock_step(state, ctx(release_demanded=True))
        history.append(state)
        assert evs == ("release",)
        state, evs = dock_step(state, ctx(magnet_energized=False))
        history.append(state)
        assert history == [DockState.FREE, DockState.INTERCEPTING,
                           DockState.DOCKED, DockState.RELEASING, DockState.FREE]

    def test_hand_outside_region_stays_free(self):
        state, evs = dock_step(DockState.FREE, ctx())
        assert state is DockState.FREE and evs == ()

    def test_over_force_releases_within_one_step(self):
        state, evs = dock_step(DockState.DOCKED, ctx(release_demanded=True))
        assert state is DockState.RELEASING and evs == ("release",)

    def test_intercept_abort(self):
        state, evs = dock_step(DockState.INTERCEPTING, ctx(intercept_wanted=False))
        assert state is DockState.FREE and evs == ("abort",)

    def test_attach_blocked_without_slot(self):
        state, evs = dock_step(DockState.INTERCEPTING,
                               ctx(intercept_wanted=True, magnet_energized=True,
                                   attach_candidate=True, slot_available=False))
        assert state is DockState.INTERCEPTING and evs == ()

    def test_illegal_transition_rejected(self):
        # Docking needs an interception first, and a releasing arm only frees.
        assert (DockState.FREE, DockState.DOCKED) not in LEGAL_TRANSITIONS
        assert (DockState.RELEASING, DockState.DOCKED) not in LEGAL_TRANSITIONS

    def test_magnet_latency(self):
        magnet = MagnetChannel(latency_s=0.010)
        magnet.command(True, now=0.0)
        assert magnet.update(0.005) is False
        assert magnet.update(0.010) is True
        magnet.command(False, now=0.010)
        assert magnet.update(0.015) is True
        assert magnet.update(0.020) is False

    def test_prediction(self):
        assert predict_position((1.0, 0.0, 0.0), (0.5, 0.0, 0.0), 0.2) == \
            pytest.approx((1.1, 0.0, 0.0))
