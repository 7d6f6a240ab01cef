import dataclasses
import math
import pickle

import numpy as np
import pytest

from hapdock.devices import ArmState
from hapdock.frames import (RigidTransform, correction_chain, euler_xyz_from_quat,
                            quat_from_euler_xyz, slerp)

ROT_Z_90 = RigidTransform.from_axis_angle((0, 0, 1), math.pi / 2)


def matrix_of(t: RigidTransform) -> np.ndarray:
    """Independent 4x4 homogeneous form used as the test-side oracle."""
    w, x, y, z = t.rotation
    m = np.eye(4)
    m[:3, :3] = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    m[:3, 3] = t.translation
    return m


def pose_error(m: np.ndarray, t: RigidTransform) -> tuple[float, float]:
    """(rotation angle, translation distance) between a matrix and a transform.

    The angle uses atan2 of the skew/trace pair, which stays well conditioned
    near zero where acos(trace) loses half the available precision.
    """
    mt = matrix_of(t)
    r_rel = m[:3, :3].T @ mt[:3, :3]
    sin_angle = float(np.linalg.norm(r_rel - r_rel.T)) / math.sqrt(8.0)
    cos_angle = (float(np.trace(r_rel)) - 1.0) / 2.0
    angle = math.atan2(sin_angle, cos_angle)
    return angle, float(np.linalg.norm(m[:3, 3] - mt[:3, 3]))


def random_transform(rng) -> RigidTransform:
    q = rng.normal(size=4)
    t = rng.uniform(-2.0, 2.0, size=3)
    return RigidTransform.from_quat(q, t)


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(1)
        t = random_transform(rng)
        out = t.compose(RigidTransform.identity())
        assert out.rotation_angle_to(t) < 1e-12
        assert out.translation_distance_to(t) < 1e-12
        out = RigidTransform.identity().compose(t)
        assert out.translation_distance_to(t) < 1e-12

    def test_rotz_then_local_translation(self):
        # A quarter turn followed by a unit local x-offset lands at +y.
        out = ROT_Z_90.compose(RigidTransform.from_translation((1, 0, 0)))
        assert out.translation == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        assert out.transform_point((0.0, 0.0, 0.0)) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_point_rotation(self):
        assert ROT_Z_90.transform_point((1.0, 0.0, 0.0)) == pytest.approx(
            (0.0, 1.0, 0.0), abs=1e-12)

    def test_inverse_law(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = random_transform(rng)
            for closed in (t.compose(t.inverse()), t.inverse().compose(t)):
                assert closed.rotation_angle() <= 1e-9
                assert math.hypot(*closed.translation) <= 1e-9

    def test_quaternion_stays_normalized(self):
        rng = np.random.default_rng(3)
        t = random_transform(rng)
        for _ in range(2000):
            t = t.compose(ROT_Z_90)
            assert abs(math.hypot(*t.rotation) - 1.0) < 1e-9

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = random_transform(rng), random_transform(rng)
            expected = matrix_of(a) @ matrix_of(b)
            angle, dist = pose_error(expected, a.compose(b))
            assert angle < 1e-9 and dist < 1e-9

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform.from_quat((0, 0, 0, 0))


class TestEffectorCorrection:
    def test_tool_on_target_is_noop(self):
        rng = np.random.default_rng(5)
        base, effect, tool = (random_transform(rng) for _ in range(3))
        fwd = random_transform(rng)
        out = correction_chain(base, effect, tool, tool, fwd).effect_forward_new
        assert out.rotation_angle_to(fwd) < 1e-9
        assert out.translation_distance_to(fwd) < 1e-9

    def test_closure_places_tool_on_target(self):
        # Oracle: forward-substitute the corrected local pose through the
        # kinematic chain in independent matrix arithmetic.
        rng = np.random.default_rng(6)
        for _ in range(300):
            base, effect, tool, target = (random_transform(rng) for _ in range(4))
            fwd = base.inverse().compose(effect)
            chain = correction_chain(base, effect, tool, target, fwd)
            predicted = (matrix_of(base)
                         @ matrix_of(chain.effect_local_new)
                         @ matrix_of(chain.effector_to_tool))
            angle, dist = pose_error(predicted, target)
            assert angle < 1e-9
            assert dist < 1e-9

    def test_pure_translation_offset(self):
        d = (0.3, -0.2, 0.15)
        effect = RigidTransform.from_translation((0.5, 0.1, 0.0))
        tool = RigidTransform.from_translation((0.6, 0.1, 0.0))
        target = RigidTransform.from_translation(tuple(a + b for a, b in
                                                       zip(tool.translation, d)))
        chain = correction_chain(RigidTransform.identity(), effect, tool, target, effect)
        corr = chain.correction
        assert corr.rotation_angle() < 1e-12
        assert math.dist(corr.translation, (0, 0, 0)) == pytest.approx(
            math.dist(d, (0, 0, 0)), abs=1e-12)

    def test_frame_independence(self):
        # Re-expressing every world input in a shifted world frame must not
        # change the local-frame correction.
        rng = np.random.default_rng(7)
        for _ in range(50):
            base, effect, tool, target = (random_transform(rng) for _ in range(4))
            fwd = random_transform(rng)
            g = random_transform(rng)
            plain = correction_chain(base, effect, tool, target, fwd).correction
            moved = correction_chain(g.compose(base), g.compose(effect),
                                     g.compose(tool), g.compose(target),
                                     fwd).correction
            assert plain.rotation_angle_to(moved) < 1e-9
            assert plain.translation_distance_to(moved) < 1e-9

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(8)
        args = [random_transform(rng) for _ in range(5)]
        a = correction_chain(*args).effect_forward_new
        b = correction_chain(*args).effect_forward_new
        assert a.rotation == b.rotation
        assert a.translation == b.translation


class TestHelpers:
    def test_euler_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rx, ry, rz = rng.uniform(-1.2, 1.2, size=3)
            q = quat_from_euler_xyz(rx, ry, rz)
            back = euler_xyz_from_quat(q)
            assert back == pytest.approx((rx, ry, rz), abs=1e-9)

    def test_slerp_endpoints(self):
        a = ROT_Z_90.rotation
        b = RigidTransform.from_axis_angle((0, 1, 0), 0.7).rotation
        assert slerp(a, b, 0.0) == pytest.approx(a, abs=1e-12)
        assert slerp(a, b, 1.0) == pytest.approx(b, abs=1e-12)

    def test_slerp_halfway_angle(self):
        a = RigidTransform.identity().rotation
        b = RigidTransform.from_axis_angle((0, 0, 1), 1.0).rotation
        mid = RigidTransform(slerp(a, b, 0.5), (0, 0, 0))
        assert mid.rotation_angle() == pytest.approx(0.5, abs=1e-9)


# Both value types store their fields through an explicit ``__init__``; the
# dataclass still generates everything else.
POSE = RigidTransform((1.0, -0.0, 0.0, 0.0), (0.25, -0.0, 1.5))
VALUES = [
    (POSE, "RigidTransform(rotation=(1.0, -0.0, 0.0, 0.0), translation=(0.25, -0.0, 1.5))",
     {"translation": (0.0, 0.0, 0.0)}),
    (ArmState(POSE, True), f"ArmState(pose={POSE!r}, clamped=True)", {"clamped": False}),
]


class TestValueTypes:
    @pytest.mark.parametrize("value, text, change", VALUES,
                             ids=["RigidTransform", "ArmState"])
    def test_still_a_frozen_slotted_dataclass(self, value, text, change):
        cls = type(value)
        names = [f.name for f in dataclasses.fields(cls)]
        items = tuple(getattr(value, n) for n in names)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
        assert repr(value) == text
        # ``==`` and ``hash`` read the fields as a tuple, and only equal types.
        twin = cls(*items)
        assert twin == value and hash(twin) == hash(value) == hash(items)
        assert value != items
        # Keyword construction stores the objects it is handed.
        built = cls(**dict(zip(names, items)))
        assert built == value and all(getattr(built, n) is v for n, v in zip(names, items))
        changed = dataclasses.replace(value, **change)
        assert type(changed) is cls and changed != value
        assert [getattr(changed, n) for n in names] == [change.get(n, v)
                                                        for n, v in zip(names, items)]
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value and repr(restored) == text

    def test_defaults(self):
        identity = RigidTransform()
        assert (identity.rotation, identity.translation) == ((1.0, 0.0, 0.0, 0.0),
                                                             (0.0, 0.0, 0.0))
        assert [f.default for f in dataclasses.fields(RigidTransform)] == [
            identity.rotation, identity.translation]
        assert RigidTransform(translation=(1.0, 2.0, 3.0)).rotation == identity.rotation
        assert ArmState(pose=POSE).clamped is False
        assert dataclasses.fields(ArmState)[1].default is False
        with pytest.raises(TypeError):
            ArmState()
