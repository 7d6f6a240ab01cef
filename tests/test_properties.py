"""Property tests: invariants that must hold for every input, not just the
hand-picked cases of the unit tests."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hapdock.docking import DOF_LABELS, JOINT_KIND_CATALOG, DockJoint, joint_transmit

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
