from dataclasses import replace

import numpy as np
import pytest

from hapdock import capability
from hapdock.capability import (CapabilityError, DockLink, UNBOUNDED,
                                capability_at, capability_report,
                                capability_to_dict, compose_capability)
from hapdock.devices import DEXMO_GLOVE, VIRTUOSE_6D, ArmSpec
from hapdock.docking import PLATE_FRICTION, PLATE_SLIP, PRISMATIC, TOOTHED
from hapdock.frames import RigidTransform


def arm_at(x: float, name: str = "arm") -> ArmSpec:
    return replace(VIRTUOSE_6D, name=name,
                   base_pose=RigidTransform.from_translation((x, 0.0, 0.0)))


PROTOTYPE = compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE],
                               [DockLink(0, 0, PLATE_FRICTION)])


class TestPrototypeRow:
    def test_translation_volume(self):
        d = capability_to_dict(PROTOTYPE)
        assert d["translation"]["boxes"][0]["extents_mm"] == [1330, 575, 1020]
        assert d["translation"]["unbounded_outside"] is True

    def test_rotation_volume(self):
        assert PROTOTYPE.rotation_volume[0] == 330.0
        assert PROTOTYPE.rotation_volume[1] == 130.0
        assert PROTOTYPE.rotation_volume[2] is UNBOUNDED

    def test_force_envelope(self):
        assert PROTOTYPE.force_envelope == (9.5, 9.5, 9.5)

    def test_torque_envelope(self):
        values = [v for _, v in PROTOTYPE.torque_envelope]
        assert sorted(values) == [0.5] * 5 + [1.0, 1.0]

    def test_one_degraded_rotational_dof(self):
        assert len(PROTOTYPE.degraded_dofs) == 1
        assert PROTOTYPE.degraded_dofs[0].endswith(":rz")

    def test_report_text(self):
        text = capability_report(PROTOTYPE)
        assert "1330 x 575 x 1020 mm" in text
        assert "unbounded" in text


class TestSingleDeviceRows:
    def test_glove_alone(self):
        cap = compose_capability([], [DEXMO_GLOVE], [])
        assert cap.force_regions == ()
        assert cap.glove_present is True
        assert cap.force_envelope == (0.0, 0.0, 0.0)
        assert all(r is UNBOUNDED for r in cap.rotation_volume)
        assert [v for _, v in cap.torque_envelope] == [0.5] * 5

    def test_arm_alone(self):
        cap = compose_capability([VIRTUOSE_6D], [], [])
        assert cap.glove_present is False
        assert cap.force_envelope == (9.5, 9.5, 9.5)
        assert cap.rotation_volume == (330.0, 130.0, 270.0)
        assert [v for _, v in cap.torque_envelope] == [1.0, 1.0, 1.0]


class TestMultiArm:
    def test_adjacent_arms_double_reach_not_force(self):
        # Handover layout: side-by-side boxes extend reach to 2X x Y x Z.
        arms = [arm_at(0.0, "arm_a"), arm_at(1.33, "arm_b")]
        cap = compose_capability(arms, [DEXMO_GLOVE],
                                 [DockLink(0, 0, PLATE_FRICTION),
                                  DockLink(1, 0, PLATE_FRICTION)])
        lo = min(r.box.min_corner()[0] for r in cap.force_regions)
        hi = max(r.box.max_corner()[0] for r in cap.force_regions)
        assert hi - lo == pytest.approx(2 * 1.330, abs=1e-12)
        # Touching boxes share no interior: force does not stack.
        assert cap.force_envelope == (9.5, 9.5, 9.5)

    def test_overlapping_arms_double_force(self):
        arms = [arm_at(0.0, "arm_a"), arm_at(0.0, "arm_b")]
        cap = compose_capability(arms, [DEXMO_GLOVE],
                                 [DockLink(0, 0, PLATE_FRICTION),
                                  DockLink(1, 0, PLATE_FRICTION)])
        assert cap.force_envelope == (19.0, 19.0, 19.0)
        point = capability_at(cap, (0.0, 0.0, 0.0))
        assert point.force == (19.0, 19.0, 19.0)
        assert set(point.reachable_by) == {"arm_a", "arm_b"}
        # A run docks one arm at a time, so the stacked figure is a bound.
        assert "layout bound" in capability_report(cap)
        assert "layout bound" not in capability_report(PROTOTYPE)

    def test_pointwise_lookup(self):
        arms = [arm_at(0.0, "arm_a"), arm_at(1.33, "arm_b")]
        cap = compose_capability(arms, [DEXMO_GLOVE],
                                 [DockLink(0, 0, PLATE_FRICTION),
                                  DockLink(1, 0, PLATE_FRICTION)])
        inside_a = capability_at(cap, (-0.3, 0.0, 0.0))
        assert inside_a.force == (9.5, 9.5, 9.5)
        assert inside_a.reachable_by == ("arm_a",)
        outside = capability_at(cap, (5.0, 0.0, 0.0))
        assert outside.force == (0.0, 0.0, 0.0)
        assert outside.grounded is False
        assert [v for _, v in outside.torque] == [0.5] * 5

    def test_adding_an_arm_never_reduces_envelopes(self):
        one = compose_capability([arm_at(0.0, "arm_a")], [DEXMO_GLOVE],
                                 [DockLink(0, 0, PLATE_FRICTION)])
        rng = np.random.default_rng(30)
        for _ in range(20):
            x = float(rng.uniform(-1.0, 2.0))
            two = compose_capability([arm_at(0.0, "arm_a"), arm_at(x, "arm_b")],
                                     [DEXMO_GLOVE],
                                     [DockLink(0, 0, PLATE_FRICTION),
                                      DockLink(1, 0, PLATE_FRICTION)])
            for axis in range(3):
                assert two.force_envelope[axis] >= one.force_envelope[axis]
            assert len(two.torque_envelope) >= len(one.torque_envelope)

    def test_union_membership_monte_carlo(self):
        # Grounded force is available iff the pose lies in some arm's box.
        arms = [arm_at(0.0, "arm_a"), arm_at(1.33, "arm_b")]
        cap = compose_capability(arms, [DEXMO_GLOVE],
                                 [DockLink(0, 0, PLATE_FRICTION),
                                  DockLink(1, 0, PLATE_FRICTION)])
        boxes = [a.workspace_box_world() for a in arms]
        rng = np.random.default_rng(31)
        for _ in range(2000):
            p = rng.uniform((-1.5, -0.6, -1.0), (3.0, 0.6, 1.0))
            grounded = capability_at(cap, tuple(p)).grounded
            assert grounded == any(b.contains(tuple(p)) for b in boxes)



def three_arms():
    """arm_a and arm_b side by side (one shared face), arm_c across both."""
    arms = [arm_at(0.0, "arm_a"), arm_at(1.33, "arm_b"), arm_at(0.6, "arm_c")]
    return compose_capability(arms, [DEXMO_GLOVE],
                              [DockLink(k, 0, PLATE_FRICTION) for k in range(3)])


def views(cap):
    return (hash(cap), repr(cap), capability_to_dict(cap), capability_report(cap))


class TestQueryIndex:
    def test_a_query_changes_no_view_of_the_capability(self):
        cap, fresh = three_arms(), three_arms()
        before = views(cap)
        capability_at(cap, (0.665, 0.0, 0.0))
        assert views(cap) == before == views(fresh)
        assert cap == fresh

    def test_replace_answers_from_its_own_regions(self):
        cap = three_arms()
        assert capability_at(cap, (1.0, 0.0, 0.0)).reachable_by == ("arm_b", "arm_c")
        alone = replace(cap, force_regions=cap.force_regions[:1])
        assert capability_at(alone, (1.0, 0.0, 0.0)).grounded is False
        assert capability_at(alone, (0.0, 0.0, 0.0)).reachable_by == ("arm_a",)

    def test_points_reaching_the_same_arms_share_one_answer(self):
        cap = three_arms()
        one = capability_at(cap, (-0.5, 0.0, 0.0))
        assert capability_at(cap, (-0.4, 0.1, -0.2)) is one
        assert one.reachable_by == ("arm_a",)

    def test_one_index_and_one_answer_per_reached_set(self, monkeypatch):
        built = {"index": 0, "answer": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                built[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(capability, "_build_index",
                            counting("index", capability._build_index))
        monkeypatch.setattr(capability, "PointCapability",
                            counting("answer", capability.PointCapability))
        cap = three_arms()
        xs = [*np.linspace(-1.0, 2.5, 351), 0.665]   # and the face arm_a and arm_b share
        points = [(float(x), 0.0, 0.0) for x in xs]
        answers = [capability_at(cap, p) for p in points]
        # The cold reference: the arms a per-region box test reaches.
        reference = [tuple(r.arm_name for r in cap.force_regions if r.box.contains(p))
                     for p in points]
        assert [a.reachable_by for a in answers] == reference
        assert len(set(reference)) == 6
        assert built == {"index": 1, "answer": 6}

class TestJointEffects:
    def test_toothed_keeps_all_torques(self):
        cap = compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE],
                                 [DockLink(0, 0, TOOTHED)])
        assert cap.degraded_dofs == ()
        arm_torques = [v for label, v in cap.torque_envelope if "finger" not in label]
        assert arm_torques == [1.0, 1.0, 1.0]

    def test_prismatic_loses_slide_axis_force(self):
        cap = compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE],
                                 [DockLink(0, 0, PRISMATIC)])
        assert cap.force_envelope[0] == 0.0
        assert cap.force_envelope[1] == 9.5

    def test_slipping_plate_caps_tangential_force(self):
        # A weak magnet slips before the arm saturates: tangential axes are
        # friction-capped, the normal axis keeps the full arm force.
        link = DockLink(0, 0, PLATE_SLIP, breaking_force=10.0, friction_mu=0.4)
        cap = compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE], [link])
        assert cap.force_envelope[0] == pytest.approx(4.0)
        assert cap.force_envelope[1] == pytest.approx(4.0)
        assert cap.force_envelope[2] == 9.5


class TestValidation:
    def test_bad_indices_rejected(self):
        with pytest.raises(CapabilityError):
            compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE],
                               [DockLink(3, 0, PLATE_FRICTION)])
        with pytest.raises(CapabilityError):
            compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE],
                               [DockLink(0, 2, PLATE_FRICTION)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(CapabilityError):
            compose_capability([VIRTUOSE_6D], [DEXMO_GLOVE],
                               [DockLink(0, 0, PLATE_FRICTION),
                                DockLink(0, 0, TOOTHED)])

    @pytest.mark.parametrize("values", [{"breaking_force": 0.0},
                                        {"breaking_force": -5.0},
                                        {"friction_mu": -1.0}])
    def test_bad_link_values_rejected(self, values):
        # A negative friction cap would compose a negative force.
        with pytest.raises(CapabilityError):
            DockLink(0, 0, PLATE_SLIP, **values)
