"""Envelope workload: capability composition, point queries and frame chains.

None of this runs in the tick loop. One pass composes one seeded layout per
arm count (2..14), answers `ENVELOPE_QUERIES` `capability_at` queries spread
over those layouts, and closes `ENVELOPE_CHAINS` frame-correction chains in
the shape of acceptance criterion AC1.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
from array import array
from time import perf_counter_ns

import numpy as np

import generate
import speed

CLOSURE_TOL = 1e-9
WINDOW_CALLS = 5000               # queries or chains between speed measurements


class CheckFailed(Exception):
    """A pass produced output that breaks one of the workload's checks."""


def prepare(hd, seed: int) -> dict:
    """Arm specs, dock links, query points and chain inputs for `seed`."""
    devices, frames, cap = hd.devices, hd.frames, hd.capability
    arm = devices.ARM_CATALOG["virtuose_6d"]
    glove = devices.GLOVE_CATALOG["dexmo"]
    kind = hd.docking.PLATE_FRICTION
    half = 0.5 * np.asarray(arm.workspace_extents)
    layouts = []
    per_layout = generate.ENVELOPE_QUERIES // len(generate.ENVELOPE_ARM_COUNTS)
    for i, bases in enumerate(generate.envelope_layouts(seed)):
        arms = [dataclasses.replace(arm, name=f"arm{k}",
                                    base_pose=frames.RigidTransform.from_translation(b))
                for k, b in enumerate(bases)]
        links = [cap.DockLink(arm_index=k, glove_index=0, kind=kind)
                 for k in range(len(arms))]
        centers = np.asarray(bases) + np.asarray(arm.workspace_center)
        lo = (centers - half).min(axis=0) - 0.2
        hi = (centers + half).max(axis=0) + 0.2
        points = generate.envelope_points(seed * 100 + i, per_layout, lo, hi)
        p = np.asarray(points)
        inside = (np.abs(p[:, None, :] - centers[None, :, :]) <= half).all(axis=2)
        layouts.append({"arms": arms, "links": links, "points": points,
                        "grounded": inside.any(axis=1).tolist()})
    chains = []
    for quad in generate.chain_inputs(seed, generate.ENVELOPE_CHAINS):
        chains.append(tuple(frames.RigidTransform.from_quat(q, t) for q, t in quad))
    return {"layouts": layouts, "glove": glove, "chains": chains}


def run_pass(hd, prep: dict, calibrate: bool = True) -> dict:
    """One pass, timing every call at reference speed (see speed.py).

    With `calibrate` the speed is measured before every composition and
    every WINDOW_CALLS queries or chains, outside the timed calls; otherwise
    the speed before and after the pass scales all of it. Raises CheckFailed
    if any output is wrong.
    """
    cap, frames = hd.capability, hd.frames
    ns = perf_counter_ns
    gloves = [prep["glove"]]
    gc.collect()
    first = speed.scale()
    scales = {"compose": [], "query": [], "chain": []}

    def calibrate_every(kind: str, i: int, window: int) -> None:
        if calibrate and i % window == 0:
            scales[kind].append(speed.scale())

    caps, compose_ns = [], array("q")
    for i, layout in enumerate(prep["layouts"]):
        calibrate_every("compose", i, 1)
        c0 = ns()
        caps.append(cap.compose_capability(layout["arms"], gloves, layout["links"]))
        compose_ns.append(ns() - c0)
    query_ns, answers = array("q"), []
    points = [(c, p) for c, layout in zip(caps, prep["layouts"]) for p in layout["points"]]
    for i, (c, point) in enumerate(points):
        calibrate_every("query", i, WINDOW_CALLS)
        q0 = ns()
        pc = cap.capability_at(c, point)
        query_ns.append(ns() - q0)
        answers.append(pc.grounded)
    chain_ns, closed = array("q"), []
    for i, (b, e, tool, target) in enumerate(prep["chains"]):
        calibrate_every("chain", i, WINDOW_CALLS)
        c0 = ns()
        chain = frames.correction_chain(b, e, tool, target, b.inverse().compose(e))
        chain_ns.append(ns() - c0)
        closed.append((chain.effect_local_new, chain.effector_to_tool))
    if not calibrate:
        whole = 0.5 * (first + speed.scale())
        scales = {k: [whole] for k in scales}

    expected = [g for layout in prep["layouts"] for g in layout["grounded"]]
    wrong = sum(a != g for a, g in zip(answers, expected))
    if wrong:
        raise CheckFailed(f"{wrong} of {len(expected)} queries disagree with box membership")
    worst = _worst_closure(prep["chains"], closed)
    if not worst < CLOSURE_TOL:
        raise CheckFailed(f"frame-correction closure error {worst:.2e}")

    def scaled(kind, raw, window):
        return speed.rescale(raw, scales[kind], window if calibrate else len(raw))

    return {"raw_ns": sum(compose_ns) + sum(query_ns) + sum(chain_ns),  # not scaled
            "compose_ns": scaled("compose", compose_ns, 1),
            "query_ns": scaled("query", query_ns, WINDOW_CALLS),
            "chain_ns": scaled("chain", chain_ns, WINDOW_CALLS),
            "scale": statistics.mean(v for values in scales.values() for v in values)}


def _matrices(transforms) -> np.ndarray:
    """Homogeneous 4x4 matrices from unit quaternions, independent of hapdock."""
    q = np.array([t.rotation for t in transforms])
    w, x, y, z = q.T
    out = np.zeros((len(transforms), 4, 4))
    out[:, 0, :3] = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], 1)
    out[:, 1, :3] = np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], 1)
    out[:, 2, :3] = np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], 1)
    out[:, :3, 3] = np.array([t.translation for t in transforms])
    out[:, 3, 3] = 1.0
    return out


def _worst_closure(chains, closed) -> float:
    """Largest rotation (rad) or offset (m) between base*local*tool and target."""
    bases, _, _, targets = zip(*chains)
    local_new, eff_to_tool = zip(*closed)
    predicted = _matrices(bases) @ _matrices(local_new) @ _matrices(eff_to_tool)
    expected = _matrices(targets)
    rel = np.einsum("nij,nik->njk", predicted[:, :3, :3], expected[:, :3, :3])
    sin_a = np.linalg.norm(rel - np.transpose(rel, (0, 2, 1)), axis=(1, 2)) / math.sqrt(8.0)
    cos_a = (np.trace(rel, axis1=1, axis2=2) - 1.0) / 2.0
    angle = np.arctan2(sin_a, cos_a).max()
    offset = np.linalg.norm(predicted[:, :3, 3] - expected[:, :3, 3], axis=1).max()
    return float(max(angle, offset))
