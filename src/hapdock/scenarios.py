"""Canonical shipped scenarios: weight-sorting lifts, squeeze, handover and
interception captures. Builders return plain config dicts so the same content
can be dumped to YAML, versioned and loaded back unchanged.
"""

from __future__ import annotations

from .config import ScenarioConfig, dump_scenario_yaml, scenario_from_dict

# Widely spaced masses so the rendered weights (m*g) are easy to rank.
CAN_MASSES = {"can_a": 0.01, "can_b": 0.15, "can_c": 0.3}
# Cans sit 22 cm apart: the outstretched finger chain reaches ~13 cm past the
# wrist and must clear the neighboring can while one is being lifted.
CAN_X = {"can_a": 0.0, "can_b": 0.22, "can_c": 0.44}

# Lift script timing (s): settle before the grab, rise, hold, lower, shift.
DOCK_LEAD = 1.2
RISE = 0.5
HOLD = 1.4
LOWER = 0.5
SHIFT = 0.4
CYCLE = RISE + HOLD + LOWER + SHIFT

WRIST_LOW_Y = -0.08
WRIST_HIGH_Y = 0.055
WRIST_X_OFFSET = -0.05   # palm center sits 5 cm distal of the wrist


def _desk_and_cans() -> list[dict]:
    bodies = [{
        "name": "desk", "kind": "static", "shape": "box",
        "center": [0.15, -0.03, 0.0], "half_extents": [0.45, 0.03, 0.25],
        "collide_with_hand": False,
    }]
    for name, mass in CAN_MASSES.items():
        bodies.append({
            "name": name, "kind": "dynamic", "shape": "box",
            "center": [CAN_X[name], 0.055, 0.0],
            "half_extents": [0.033, 0.055, 0.033],
            "mass": mass,
        })
    return bodies


def _main_arm(name: str = "arm_main", base=(0.15, 0.25, 0.0)) -> dict:
    return {"name": name, "model": "virtuose_6d", "base_position": list(base)}


def _lift_trajectory() -> dict:
    wrist = [[0.0, CAN_X["can_a"] + WRIST_X_OFFSET, WRIST_LOW_Y, 0.0]]
    order = ["can_a", "can_b", "can_c"]
    for i, name in enumerate(order):
        t0 = DOCK_LEAD + i * CYCLE
        x = CAN_X[name] + WRIST_X_OFFSET
        wrist.append([t0, x, WRIST_LOW_Y, 0.0])
        wrist.append([t0 + RISE, x, WRIST_HIGH_Y, 0.0])
        wrist.append([t0 + RISE + HOLD, x, WRIST_HIGH_Y, 0.0])
        wrist.append([t0 + RISE + HOLD + LOWER, x, WRIST_LOW_Y, 0.0])
        if i + 1 < len(order):
            nxt = CAN_X[order[i + 1]] + WRIST_X_OFFSET
            wrist.append([t0 + CYCLE, nxt, WRIST_LOW_Y, 0.0])
    # First waypoint repeats the hold position so t=0..lead stays put.
    dedup = [wrist[0]]
    for row in wrist[1:]:
        if row[0] > dedup[-1][0]:
            dedup.append(row)
    return {
        "wrist": dedup,
        "flex": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        "abduction": [[0.0, 0.5, 0.5, 0.5, 0.5, 0.5]],
    }


def lift_windows() -> dict:
    """Measurement window per can: mid-hold, after the support has settled."""
    out = {}
    for i, name in enumerate(("can_a", "can_b", "can_c")):
        t0 = DOCK_LEAD + i * CYCLE + RISE
        out[name] = [t0 + 0.5, t0 + HOLD - 0.05]
    return out


def build_single_lift(condition: str) -> dict:
    """Sequentially lift the three cans; the oracle windows cover each hold."""
    duration = DOCK_LEAD + 3 * CYCLE - SHIFT + 0.1
    return {
        "schema_version": 1,
        "name": f"single_lift_{condition}",
        "seed": 7,
        "condition": condition,
        "coordinator": {"duration_s": round(duration, 3)},
        "arms": [_main_arm()],
        "glove": {"model": "dexmo", "spring_constant": 1.0},
        "dock": {"joint_kind": "plate_friction"},
        "scene": {"bodies": _desk_and_cans()},
        "trajectory": _lift_trajectory(),
        "lift_windows": lift_windows(),
    }


def build_squeeze() -> dict:
    """Pinch a fixed post between the opposing thumb/index pair.

    The post is centered on the hand's mirror plane so the two contact forces
    cancel exactly; only the glove stops should engage.
    """
    return {
        "schema_version": 1,
        "name": "squeeze_cancellation",
        "seed": 7,
        "condition": "force_feedback",
        "coordinator": {"duration_s": 4.0},
        "arms": [_main_arm(base=(0.0, 0.2, 0.0))],
        "glove": {"model": "dexmo", "spring_constant": 1.0},
        "dock": {"joint_kind": "plate_friction"},
        "scene": {"bodies": [{
            "name": "pinch_post", "kind": "static", "shape": "box",
            "center": [0.16, 0.0, 0.027], "half_extents": [0.04, 0.004, 0.008],
        }]},
        "trajectory": {
            "wrist": [[0.0, 0.0, 0.0, 0.0]],
            "flex": [
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [1.5, 0.45, 0.45, 0.0, 0.0, 0.0],
                [3.4, 0.45, 0.45, 0.0, 0.0, 0.0],
                [3.8, 0.0, 0.0, 0.0, 0.0, 0.0],
            ],
        },
    }


def build_handover() -> dict:
    """Carry a constant virtual payload across two adjacent arm workspaces."""
    return {
        "schema_version": 1,
        "name": "handover_sweep",
        "seed": 7,
        "condition": "force_feedback",
        "coordinator": {"duration_s": 8.0},
        "arms": [
            _main_arm(name="arm_a", base=(0.0, 0.25, 0.0)),
            _main_arm(name="arm_b", base=(1.33, 0.25, 0.0)),
        ],
        "glove": {"model": "dexmo"},
        "dock": {"joint_kind": "plate_friction", "handover_gap_bound_s": 0.25},
        "scene": {"bodies": []},
        "trajectory": {
            "wrist": [
                [0.0, 0.22, 0.2, 0.0],
                [1.0, 0.22, 0.2, 0.0],
                [7.667, 1.22, 0.2, 0.0],
            ],
            "flex": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        },
        "injected_load": [
            [0.0, 0.0, -2.943, 0.0, 0.0, 0.0, 0.0],
            [8.0, 0.0, -2.943, 0.0, 0.0, 0.0, 0.0],
        ],
    }


def build_pursuit_static() -> dict:
    """Hand parked 0.5 m from the arm's rest pose; the arm must intercept."""
    return {
        "schema_version": 1,
        "name": "pursuit_static",
        "seed": 7,
        "condition": "force_feedback",
        "coordinator": {"duration_s": 1.0},
        "arms": [_main_arm()],
        "glove": {"model": "dexmo"},
        "dock": {"joint_kind": "plate_friction"},
        "scene": {"bodies": []},
        "trajectory": {
            # Effector dock pose = wrist + (-0.02, +0.075, 0): 0.5 m from park.
            "wrist": [[0.0, 0.67, 0.175, 0.0]],
            "flex": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        },
    }


def build_pursuit_moving() -> dict:
    """Hand crossing the workspace at 0.3 m/s; capture must close monotonically."""
    return {
        "schema_version": 1,
        "name": "pursuit_moving",
        "seed": 7,
        "condition": "force_feedback",
        "coordinator": {"duration_s": 2.0},
        "arms": [_main_arm()],
        "glove": {"model": "dexmo"},
        "dock": {"joint_kind": "plate_friction"},
        "scene": {"bodies": []},
        "trajectory": {
            "wrist": [
                [0.0, -0.1, 0.175, 0.0],
                [2.0, 0.5, 0.175, 0.0],
            ],
            "flex": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        },
    }


def build_decouple_sweep() -> dict:
    """Docked hand under a ramping tensile load until the magnet lets go."""
    return {
        "schema_version": 1,
        "name": "decouple_sweep",
        "seed": 7,
        "condition": "force_feedback",
        "coordinator": {"duration_s": 2.5},
        "arms": [_main_arm()],
        "glove": {"model": "dexmo"},
        "dock": {"joint_kind": "plate_friction"},
        "scene": {"bodies": []},
        "trajectory": {
            "wrist": [[0.0, 0.15, 0.1, 0.0]],
            "flex": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        },
        "injected_load": [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [2.2, 0.0, 60.0, 0.0, 0.0, 0.0, 0.0],
        ],
    }


SHIPPED_BUILDERS = {
    "single_lift_free": lambda: build_single_lift("free"),
    "single_lift_docked": lambda: build_single_lift("docked"),
    "single_lift_force_feedback": lambda: build_single_lift("force_feedback"),
    "squeeze_cancellation": build_squeeze,
    "handover_sweep": build_handover,
    "pursuit_static": build_pursuit_static,
    "pursuit_moving": build_pursuit_moving,
    "decouple_sweep": build_decouple_sweep,
}


def build(name: str) -> ScenarioConfig:
    if name not in SHIPPED_BUILDERS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SHIPPED_BUILDERS)}")
    return scenario_from_dict(SHIPPED_BUILDERS[name]())


def write_shipped(directory) -> list[str]:
    """Dump every canonical scenario to <directory>/<name>.yaml."""
    import os

    written = []
    for name, builder in SHIPPED_BUILDERS.items():
        path = os.path.join(str(directory), f"{name}.yaml")
        dump_scenario_yaml(builder(), path)
        written.append(path)
    return written
