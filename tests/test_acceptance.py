"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL
line. Scenario runs are cached for the session (``shipped.cached_run``) so
each scenario executes once (plus a second, fresh run where reproducibility
itself is the criterion).
"""

import json
import math
import time

import numpy as np

from hapdock.cli import main
from hapdock.frames import RigidTransform, correction_chain
from hapdock.harness import run_scenario, weight_oracle
from shipped import NAMES, RUNTIME as _RUNTIME, build, cached_run

G = 9.81
CAN_MASS = {"can_a": 0.01, "can_b": 0.15, "can_c": 0.3}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def quat_matrices(transforms) -> np.ndarray:
    """Batched independent 4x4 matrices (the verification-side oracle)."""
    n = len(transforms)
    out = np.tile(np.eye(4), (n, 1, 1))
    q = np.array([t.rotation for t in transforms])
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - z * w)
    out[:, 0, 2] = 2 * (x * z + y * w)
    out[:, 1, 0] = 2 * (x * y + z * w)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - x * w)
    out[:, 2, 0] = 2 * (x * z - y * w)
    out[:, 2, 1] = 2 * (y * z + x * w)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    out[:, :3, 3] = np.array([t.translation for t in transforms])
    return out


def test_ac1_frame_correction_closure():
    """10,000 random rigid chains: corrected effector puts the tool on target
    to 1e-9 (rotation rad / translation m) in under a second."""
    rng = np.random.default_rng(42)
    n = 10_000
    quats = rng.normal(size=(4 * n, 4))
    trans = rng.uniform(-2.0, 2.0, size=(4 * n, 3))
    inputs = [RigidTransform.from_quat(quats[i], trans[i]) for i in range(4 * n)]
    bases = inputs[0::4]
    effects = inputs[1::4]
    tools = inputs[2::4]
    targets = inputs[3::4]

    t0 = time.perf_counter()
    locals_new, eff_to_tool = [], []
    for b, e, tl, tg in zip(bases, effects, tools, targets):
        chain = correction_chain(b, e, tl, tg, b.inverse().compose(e))
        locals_new.append(chain.effect_local_new)
        eff_to_tool.append(chain.effector_to_tool)
    predicted = (quat_matrices(bases)
                 @ quat_matrices(locals_new)
                 @ quat_matrices(eff_to_tool))
    expected = quat_matrices(targets)
    elapsed = time.perf_counter() - t0

    rel = np.einsum("nij,nik->njk", predicted[:, :3, :3], expected[:, :3, :3])
    sin_a = np.linalg.norm(rel - np.transpose(rel, (0, 2, 1)),
                           axis=(1, 2)) / math.sqrt(8.0)
    cos_a = (np.trace(rel, axis1=1, axis2=2) - 1.0) / 2.0
    angles = np.arctan2(sin_a, cos_a)
    dists = np.linalg.norm(predicted[:, :3, 3] - expected[:, :3, 3], axis=1)

    worst_angle = float(angles.max())
    worst_dist = float(dists.max())
    ok = worst_angle < 1e-9 and worst_dist < 1e-9 and elapsed < 1.0
    report("AC1 frame-correction closure", ok,
           f"(n={n}, worst angle {worst_angle:.2e} rad, "
           f"worst offset {worst_dist:.2e} m, {elapsed:.2f} s)")


def test_ac2_capability_prototype_row(tmp_path, capsys):
    """The shipped arm+glove config reproduces the prototype capability row."""
    out = tmp_path / "cap.json"
    code = main(["capability", "scenarios/single_lift_force_feedback.yaml",
                 "--json", str(out)])
    capsys.readouterr()
    data = json.loads(out.read_text())
    torques = sorted(v for _, v in data["torque_envelope_nm"])
    ok = (code == 0
          and data["translation"]["boxes"][0]["extents_mm"] == [1330, 575, 1020]
          and data["rotation_deg"] == [330.0, 130.0, None]
          and data["force_envelope_n"] == [9.5, 9.5, 9.5]
          and torques == [0.5] * 5 + [1.0, 1.0]
          and len(data["degraded_dofs"]) == 1
          and data["degraded_dofs"][0].endswith(":rz")
          and data["translation"]["unbounded_outside"] is True)
    report("AC2 capability prototype row", ok,
           "(1330x575x1020 mm, 330x130 deg, 3x9.5 N, 2x1 + 5x0.5 Nm, 1 degraded DOF)")


def test_ac3_weight_fidelity_and_oracle():
    """Rendered support force within 2% of m*g per can; the oracle orders the
    cans correctly; free and docked runs render zero and are indistinguishable."""
    cfg = build("single_lift_force_feedback")
    log = cached_run("single_lift_force_feedback")
    details = []
    ok = _RUNTIME["single_lift_force_feedback"] < 10.0
    details.append(f"runtime {_RUNTIME['single_lift_force_feedback']:.1f}s")

    for name, (t0, t1) in cfg.lift_windows.items():
        samples = [-sum(a["rendered"][1] for a in r["arms"])
                   for r in log.records if t0 <= r["t"] <= t1]
        mean = sum(samples) / len(samples)
        expected = CAN_MASS[name] * G
        err = abs(mean - expected) / expected
        details.append(f"{name} {mean:.4f}N err {err * 100:.2f}%")
        ok = ok and err < 0.02

    res = weight_oracle(log, cfg.lift_windows, cfg.oracle_noise_floor_n)
    ok = ok and res.verdict == "ordered"
    ok = ok and res.order == ("can_a", "can_b", "can_c")
    ok = ok and res.confidence >= 0.4
    details.append(f"oracle {res.order} conf {res.confidence:.2f}")

    for other in ("single_lift_free", "single_lift_docked"):
        olog = cached_run(other)
        cfg_o = build(other)
        ok = ok and _RUNTIME[other] < 10.0
        worst = max(abs(v) for r in olog.records
                    for a in r["arms"] for v in a["rendered"])
        ok = ok and worst < 1e-12
        ores = weight_oracle(olog, cfg_o.lift_windows, cfg_o.oracle_noise_floor_n)
        ok = ok and ores.verdict == "indistinguishable"
        details.append(f"{other.rsplit('_', 1)[1]}: zero force, {ores.verdict}")

    # Docking alone gives no weight benefit: free and docked runs differ only
    # in dock state, never in rendered force.
    free_log, docked_log = cached_run("single_lift_free"), cached_run("single_lift_docked")
    same_force = all(
        rf["arms"][0]["rendered"] == rd["arms"][0]["rendered"]
        for rf, rd in zip(free_log.records, docked_log.records))
    was_docked = any(r["docked_arm"] for r in docked_log.records)
    never_docked = not any(r["docked_arm"] for r in free_log.records)
    ok = ok and same_force and was_docked and never_docked

    report("AC3 weight fidelity + oracle", ok, "(" + ", ".join(details) + ")")


def test_ac4_squeeze_cancellation():
    """Squeezing a fixed post: |net arm force| < 1e-6 N on every tick while
    the glove stops engage."""
    log = cached_run("squeeze_cancellation")
    worst = max(math.sqrt(sum(x * x for x in r["net_force"])) for r in log.records)
    window = [r for r in log.records if 2.0 <= r["t"] <= 3.3]
    stops_engaged = all(r["stops"][0] < 1.0 and r["stops"][1] < 1.0 and
                        r["resist"][0] > 0.0 and r["resist"][1] > 0.0
                        for r in window)
    contacts_present = all(r["contacts"] >= 2 for r in window)
    ok = worst < 1e-6 and stops_engaged and contacts_present
    report("AC4 squeeze cancellation", ok,
           f"(worst |net| {worst:.2e} N, stops engaged with live contacts)")


def test_ac5_decoupling_safety():
    """Tensile load sweep: release within one tick of exceeding 49.05 N and no
    tick ever transmits more."""
    log = cached_run("decouple_sweep")
    threshold = 5.0 * G
    exceed_tick = next(r["tick"] for r in log.records
                       if r["cmd_wrench"][1] > threshold)
    release_tick = next(r["tick"] for r in log.records
                        if any(e.startswith("release:") for e in r["events"]))
    max_tension = max(sum(a["rendered"][1] for a in r["arms"])
                      for r in log.records)
    releases = sum(1 for r in log.records
                   for e in r["events"] if e.startswith("release:"))
    ok = (release_tick - exceed_tick <= 1
          and max_tension <= threshold + 1e-9
          and releases == 1)
    report("AC5 decoupling safety", ok,
           f"(exceed@{exceed_tick}ms release@{release_tick}ms, "
           f"max tension {max_tension:.3f} N <= {threshold} N)")


def test_ac6_pursuit_capture():
    """Static target 0.5 m away docks within 0.55 s; a 0.3 m/s target is
    captured with strictly decreasing distance. Both read from logs."""
    static_log = cached_run("pursuit_static")
    attach_t = next(r["t"] for r in static_log.records
                    if any(e.startswith("attach:") for e in r["events"]))
    ok = attach_t <= 0.55

    moving_log = cached_run("pursuit_moving")
    attach_tick = next(r["tick"] for r in moving_log.records
                       if any(e.startswith("attach:") for e in r["events"]))
    dists = [r["arms"][0]["tool_dist"] for r in moving_log.records[:attach_tick + 1]]
    strictly_decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    ok = ok and strictly_decreasing
    report("AC6 pursuit capture", ok,
           f"(static dock at {attach_t:.3f} s <= 0.55 s; moving capture at "
           f"{attach_tick} ms, {len(dists)} strictly-decreasing samples)")


def test_ac7_handover():
    """Sweep across adjacent workspaces: exactly one release plus one attach,
    bounded force dropout, and the union region checks out by Monte Carlo."""
    cfg = build("handover_sweep")
    log = cached_run("handover_sweep")
    sweep = [r for r in log.records if r["t"] >= 1.0]
    attaches = [e for r in sweep for e in r["events"] if e.startswith("attach:")]
    releases = [e for r in sweep for e in r["events"] if e.startswith("release:")]
    ok = attaches == ["attach:arm_b"] and releases == ["release:arm_a"]

    payload = 2.943
    low = [r["t"] for r in sweep
           if abs(sum(a["rendered"][1] for a in r["arms"])) < 0.5 * payload]
    dropout = 0.0
    if low:
        start = prev = low[0]
        for t in low[1:]:
            if t - prev > 0.0015:
                dropout = max(dropout, prev - start)
                start = t
            prev = t
        dropout = max(dropout, prev - start)
    ok = ok and dropout <= cfg.dock.handover_gap_bound_s

    # Monte Carlo union membership: grounded capability iff inside the
    # combined 2X x Y x Z region.
    from hapdock.capability import DockLink, capability_at, compose_capability
    from hapdock.docking import PLATE_FRICTION
    arms = [a.spec for a in cfg.arms]
    cap = compose_capability(arms, [cfg.glove.spec],
                             [DockLink(0, 0, PLATE_FRICTION),
                              DockLink(1, 0, PLATE_FRICTION)],
                             arm_names=[a.name for a in cfg.arms])
    lo = np.array([-0.665, 0.25 - 0.2875, -0.51]) + np.array([0, 0, 0])
    hi = np.array([1.995, 0.25 + 0.2875, 0.51])
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rng = np.random.default_rng(77)
    samples = rng.uniform(center - 1.6 * half, center + 1.6 * half,
                          size=(10_000, 3))
    mis = 0
    for p in samples:
        inside = bool(np.all(np.abs(p - center) <= half))
        grounded = capability_at(cap, tuple(p)).grounded
        if inside != grounded:
            mis += 1
    ok = ok and mis == 0
    report("AC7 handover", ok,
           f"(1 release + 1 attach, dropout {dropout * 1000:.0f} ms <= "
           f"{cfg.dock.handover_gap_bound_s * 1000:.0f} ms, "
           f"{mis}/10000 membership misclassifications)")


def test_ac8_determinism():
    """Every shipped scenario replays byte-identically."""
    mismatched = []
    for name in sorted(NAMES):
        first = cached_run(name).to_bytes()
        second = run_scenario(build(name)).to_bytes()
        if first != second:
            mismatched.append(name)
    report("AC8 determinism", not mismatched,
           f"({len(NAMES)} scenarios byte-identical)"
           if not mismatched else f"(mismatch: {mismatched})")


def test_ac9_rate_contract_audit():
    """Every shipped log honors the rate contract: glove >= 33.3 ms spacing,
    arm targets <= 33.3 ms spacing, control tick exactly 1 ms."""
    bad = []
    for name in sorted(NAMES):
        log = cached_run(name)
        glove_t = [r["t"] for r in log.records if "glove_cmd" in r["events"]]
        if any(b - a < 1.0 / 30.0 - 1e-9 for a, b in zip(glove_t, glove_t[1:])):
            bad.append(f"{name}: glove too fast")
        for arm in log.header["arms"]:
            target_t = [r["t"] for r in log.records
                        if f"arm_target:{arm}" in r["events"]]
            if len(target_t) != len(log.records):
                bad.append(f"{name}: arm {arm} under-commanded")
            if any(b - a > 1.0 / 30.0 + 1e-9 for a, b in zip(target_t, target_t[1:])):
                bad.append(f"{name}: arm {arm} target gap too long")
        for i, rec in enumerate(log.records):
            if rec["tick"] != i or rec["dt"] != 0.001 or rec["t"] != i * 0.001:
                bad.append(f"{name}: tick structure broken at {i}")
                break
    report("AC9 rate contract audit", not bad,
           f"({len(NAMES)} scenario logs audited)" if not bad
           else f"({bad})")
