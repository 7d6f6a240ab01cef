"""The coordinator's intercept step against its reference: ``pursue``, then
``arm_step`` of its command, then the command's target in the world frame.

Every shipped arm intercepts with the identity rotation, so these draw what
the shipped scenes never reach: rotated effectors (the slerp), commands
beyond the rotation range (the Euler clamp), targets outside the workspace
(the position and safety clamps), an arm already at its goal, rotated arm
bases, tool offsets and plate rotations, and rotation keys that differ from
the kept one only in the sign of a zero.
"""

import math
import struct
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from hapdock.config import scenario_from_dict
from hapdock.devices import MAX_SPEED, TRACK_TAU_S, ArmState, arm_step
from hapdock.docking import DockState, pursue
from hapdock.frames import RigidTransform, euler_xyz_from_quat, quat_from_euler_xyz
from hapdock.geometry import DT, ZERO6
from hapdock.harness import Coordinator
from shipped import as_dict

HANDOVER = scenario_from_dict({**as_dict("handover_sweep"),
                               "coordinator": {"duration_s": 0.01}})
BRANCHES = {"slerp", "rotation clamp", "position clamp", "safety clamp", "arrive"}


def pose_bits(pose: RigidTransform) -> bytes:
    return struct.pack("<7d", *pose.rotation, *pose.translation)


def reference(spec, state, plate, speed, tool_offset):
    """The intercept step as ``pursue`` and ``arm_step`` take it: the new
    state, the target in the world frame, and the ``BRANCHES`` of
    ``arm_step`` it went through."""
    cmd = pursue(state.pose, plate, speed, base_pose=spec.base_pose, tool_offset=tool_offset)
    out = arm_step(spec, state, cmd)
    target = spec.base_pose.compose(cmd.target)
    box, half = spec.workspace_box_base(), spec._half_range
    euler = euler_xyz_from_quat(cmd.target.rotation)
    clamped = tuple(max(-h, min(h, r)) for r, h in zip(euler, half))
    pos = box.clamp_point(cmd.target.translation)
    goal = spec.base_pose.compose(RigidTransform(quat_from_euler_xyz(*clamped), pos))
    cur = state.pose.translation
    dx = tuple(g - c for g, c in zip(goal.translation, cur))
    dist = math.sqrt(dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2)
    arrive = min(speed, MAX_SPEED, dist / TRACK_TAU_S) * DT >= dist or dist < 1e-15
    moved = (goal.translation if arrive else
             tuple(c + min(speed, MAX_SPEED, dist / TRACK_TAU_S) * DT / dist * d
                   for c, d in zip(cur, dx)))
    local = spec.base_inv.transform_point(moved)
    taken = {"slerp": state.pose.rotation_angle_to(goal) >= 1e-12,
             "rotation clamp": clamped != euler,
             "position clamp": pos != cmd.target.translation,
             "safety clamp": box.clamp_point(local) != local,
             "arrive": arrive}
    return out, target, {name for name, hit in taken.items() if hit}, goal


def intercepting(wrist_rotation, plate_offset, tool_offset, base, speed):
    """A coordinator whose first arm intercepts, on a base of pose ``base``
    (its trigger box is the shipped axis-aligned one, which the step never
    reads)."""
    cfg = replace(HANDOVER,
                  trajectory=replace(HANDOVER.trajectory, wrist_rotation=wrist_rotation),
                  dock=replace(HANDOVER.dock, plate_offset=plate_offset,
                               tool_offset=tool_offset))
    coord = Coordinator(cfg)
    u = coord.units[0]
    u.cfg = replace(u.cfg, spec=replace(u.cfg.spec, base_pose=base), pursuit_speed=speed)
    u.dock_state = DockState.INTERCEPTING
    return coord, u


def check_steps(coord, u, effector, plate_pos, arrive=False) -> set:
    """Step ``u`` from ``effector`` four times, each against the reference,
    and return the branches taken: a rotation the arm has not seen, the
    same rotation again (which builds ``u.turn``), a copy of it with the
    same bits (which keeps it) and, when the rotation has a zero component,
    its signed-zero twin (which must miss). With ``arrive`` the effector
    starts at the reference's goal."""
    spec, tool_offset = u.cfg.spec, coord.cfg.dock.tool_offset
    plate = RigidTransform(coord.plate_rotation, plate_pos)
    state = ArmState(effector)
    if arrive:
        goal = reference(spec, state, plate, u.cfg.pursuit_speed, tool_offset)[3]
        state = ArmState(RigidTransform(effector.rotation, goal.translation))
    rotation = state.pose.rotation
    copy = ArmState(RigidTransform(tuple(struct.unpack("<4d", struct.pack("<4d", *rotation))),
                                   state.pose.translation))
    starts = [state, state, copy]
    flips = [i for i, c in enumerate(rotation) if c == 0.0]
    if flips:
        i = flips[0]
        twin = rotation[:i] + (-rotation[i],) + rotation[i + 1:]
        starts.append(ArmState(RigidTransform(twin, state.pose.translation)))
    u.turn = (None, None, None)                # the cold value
    taken = set()
    for n, start in enumerate(starts):
        want, want_target, branches, _ = reference(spec, start, plate, u.cfg.pursuit_speed,
                                                   tool_offset)
        u.state = start
        target = coord._control(u, None, plate, ZERO6)
        assert pose_bits(u.state.pose) == pose_bits(want.pose), n
        assert u.state.clamped is want.clamped, n
        assert pose_bits(target) == pose_bits(want_target), n
        # The first step and the twin's only key the rotation's bits; the
        # second builds the rotations, the copy keeps them.
        kept = u.turn[2] is not None
        assert kept is (n in (1, 2)), n
        assert u.turn[1] == struct.pack("<4d", *start.pose.rotation), n
        if kept and pose_bits(want.pose)[:32] == u.turn[1]:
            # A rotation that holds its bits is handed back as the kept object.
            assert u.state.pose.rotation is u.turn[0]
        taken |= branches
    return taken


def quats():
    """Quaternions whose components are often 0.0, -0.0 or 1.0."""
    part = st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats(-1.0, 1.0, allow_nan=False))
    return st.tuples(part, part, part, part).filter(lambda q: math.hypot(*q) > 1e-3)


def vecs(reach: float):
    part = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-reach, reach, allow_nan=False))
    return st.tuples(part, part, part)


poses = st.builds(RigidTransform.from_quat, quats(), vecs(0.1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(wrist_rotation=quats(), plate_offset=poses, tool_offset=poses,
       base=st.builds(RigidTransform.from_quat, quats(), vecs(0.3)),
       effector=st.builds(RigidTransform.from_quat, quats(), vecs(1.0)),
       plate=vecs(2.0), speed=st.floats(0.05, 3.0), arrive=st.booleans())
def test_intercept_step_matches_pursue_and_arm_step(wrist_rotation, plate_offset, tool_offset,
                                                    base, effector, plate, speed, arrive):
    coord, u = intercepting(wrist_rotation, plate_offset, tool_offset, base, speed)
    check_steps(coord, u, effector, plate, arrive)


def test_intercept_step_reaches_every_branch():
    # Hand-picked steps that together take every branch of ``arm_step`` on
    # both paths of the intercept step.
    quarter = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), math.pi / 2)
    tilted = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), 1.4)
    identity = RigidTransform()
    taken = set()
    # The shipped case: identity rotations and a plate beyond the workspace.
    coord, u = intercepting((1.0, 0.0, 0.0, 0.0), identity, identity, identity, 1.0)
    taken |= check_steps(coord, u, RigidTransform(), (0.0, 2.0, 0.0))
    # A tilted plate and a rotated effector outside the workspace, on a
    # rotated base with a rotated tool.
    coord, u = intercepting(tilted.rotation, identity, quarter, quarter, 0.5)
    taken |= check_steps(coord, u, RigidTransform(quarter.rotation, (0.0, 0.9, 0.0)),
                         (0.1, 0.0, 0.1))
    # An arm already at its goal.
    coord, u = intercepting((1.0, 0.0, 0.0, 0.0), identity, identity, identity, 1.0)
    taken |= check_steps(coord, u, RigidTransform(), (0.1, 0.05, 0.0), arrive=True)
    assert taken == BRANCHES
