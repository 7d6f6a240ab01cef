"""Seeded workload inputs.

Tick workloads start from the shipped scenario YAML and vary its physical
inputs with a seed. Seed 0 leaves the scenario untouched, so the generated
file equals the shipped one byte for byte and the pinned log digests apply.
Every other seed stays inside ranges where the workload's output checks hold.

The envelope workload draws multi-arm layouts and query points.
"""

from __future__ import annotations

import random

import yaml

DEFAULT_SEED = 0
G = 9.81

# workload -> shipped scenario it replays
SCENARIOS = {
    "lift": "single_lift_force_feedback",
    "handover": "handover_sweep",
    "squeeze": "squeeze_cancellation",
}

# Mass bands (kg) for the light, middle and heavy can. The bands are far
# apart so the oracle always separates them, and every mass in them renders
# within the 2% fidelity bound.
LIFT_MASS_BANDS = ((0.02, 0.05), (0.12, 0.18), (0.25, 0.35))
HANDOVER_PAYLOAD_KG = (0.2, 0.4)
HANDOVER_SWEEP_END_S = (7.0, 7.8)       # wrist reaches the far arm at this time
SQUEEZE_FLEX = (0.42, 0.48)             # pinch depth of thumb and index
SQUEEZE_POST_X = (0.155, 0.165)         # post's distal position, m

ENVELOPE_ARM_COUNTS = tuple(range(2, 15))
ENVELOPE_JITTER_M = 0.05
ENVELOPE_QUERIES = 100_000
ENVELOPE_CHAINS = 10_000


def _round(x: float) -> float:
    return round(x, 4)


def _lift(data: dict, rng: random.Random) -> None:
    cans = [b for b in data["scene"]["bodies"] if b["kind"] == "dynamic"]
    slots = [c["center"] for c in cans]
    windows = data["lift_windows"]
    slot_windows = [windows[c["name"]] for c in cans]
    masses = [_round(rng.uniform(lo, hi)) for lo, hi in LIFT_MASS_BANDS]
    rng.shuffle(masses)
    order = list(range(len(cans)))
    rng.shuffle(order)
    # Can i moves to slot order[i]; its lift window moves with it.
    for can, mass, slot in zip(cans, masses, order):
        can["mass"] = mass
        can["center"] = list(slots[slot])
        windows[can["name"]] = list(slot_windows[slot])


def _handover(data: dict, rng: random.Random) -> None:
    weight = _round(rng.uniform(*HANDOVER_PAYLOAD_KG) * G)
    for row in data["injected_load"]:
        row[2] = -weight
    end = _round(rng.uniform(*HANDOVER_SWEEP_END_S))
    data["trajectory"]["wrist"][-1][0] = end


def _squeeze(data: dict, rng: random.Random) -> None:
    depth = _round(rng.uniform(*SQUEEZE_FLEX))
    for row in data["trajectory"]["flex"]:
        if row[1] > 0.0:
            row[1] = row[2] = depth
    post = data["scene"]["bodies"][0]
    post["center"][0] = _round(rng.uniform(*SQUEEZE_POST_X))


_VARIANTS = {"lift": _lift, "handover": _handover, "squeeze": _squeeze}


def scenario_dict(workload: str, shipped_yaml: bytes, seed: int) -> dict:
    """The scenario for `workload` and `seed`, as a plain config mapping."""
    data = yaml.safe_load(shipped_yaml)
    if seed != DEFAULT_SEED:
        _VARIANTS[workload](data, random.Random(f"{workload}:{seed}"))
    return data


def envelope_layouts(seed: int) -> list[list[tuple[float, float, float]]]:
    """One layout per arm count: arm bases on a 7 x 2 grid, jittered.

    Grid neighbours are 0.5 m apart along x and 0.6 m along z, so the
    1.33 m x 1.02 m workspaces overlap in chains. The jitter of at most
    `ENVELOPE_JITTER_M` never changes which workspaces overlap, so the cost
    of composing a layout depends on its arm count, not on the seed.
    """
    rng = random.Random(f"envelope:{seed}")
    sites = [(0.5 * i, 0.25, 0.6 * k) for i in range(7) for k in range(2)]
    layouts = []
    for n in ENVELOPE_ARM_COUNTS:
        bases = [tuple(_round(c + rng.uniform(-ENVELOPE_JITTER_M, ENVELOPE_JITTER_M))
                       for c in site) for site in sites[:n]]
        layouts.append(bases)
    return layouts


def envelope_points(seed: int, n: int, lo, hi) -> list[tuple[float, float, float]]:
    rng = random.Random(f"envelope-points:{seed}")
    return [tuple(rng.uniform(lo[a], hi[a]) for a in range(3)) for _ in range(n)]


def chain_inputs(seed: int, n: int) -> list[tuple]:
    """`n` random (quaternion, translation) quadruples in the AC1 shape."""
    rng = random.Random(f"chains:{seed}")
    out = []
    for _ in range(n):
        quad = []
        for _ in range(4):
            q = tuple(rng.gauss(0.0, 1.0) for _ in range(4))
            t = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
            quad.append((q, t))
        out.append(tuple(quad))
    return out
