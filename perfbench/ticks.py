"""Tick workloads: replay a generated scenario the way `hapdock run` does.

One replay is load YAML -> `run_scenario` -> `MetricLog.to_bytes` ->
`summarize` (plus `weight_oracle` when the scenario has lift windows). Tick
boundaries come from a one-line hook on the harness's `hand_forward_model`
binding, which the coordinator calls first in every tick.
"""

from __future__ import annotations

import gc
import hashlib
import math
from array import array
from time import perf_counter_ns

import speed
from generate import DEFAULT_SEED, G

# SHA-256 of the log bytes of the shipped scenarios, which the default seed
# reproduces; `hapdock run scenarios/<name>.yaml` writes the same bytes.
PINNED_DIGESTS = {
    "lift": "a63544d660e784b86e1bcc04c3ffd24c9da43a7f95f02ea3de3d462375be1769",
    "handover": "163f18d800820335cfe53702a1facabebb5de969c16f6eebc63bfbb5706516af",
    "squeeze": "ce6e60c773be268f0ccee8b57fe6153374659d6e60c726fead20e3b7b063252f",
}
FIDELITY_LIMIT_PCT = 2.0
SQUEEZE_NET_LIMIT_N = 1e-6
SQUEEZE_HOLD_S = (2.0, 3.3)      # flex plateau, after the pinch has closed
SWEEP_START_S = 1.0
WINDOW_TICKS = 200               # ticks between speed measurements


class CheckFailed(Exception):
    """A replay produced output that breaks one of the workload's checks."""


def replay(hd, path, calibrate: bool = True, after_loop=None) -> dict:
    """One timed replay. Returns timings and the outputs the checks read.

    Times are at reference speed (see speed.py). With `calibrate`, the tick
    hook measures the speed every WINDOW_TICKS ticks and leaves that time
    out; otherwise the speed before and after the replay scales the whole
    replay. `after_loop` is called as soon as the tick loop returns.
    """
    harness = hd.harness
    ns = perf_counter_ns
    marks = array("q")
    scales: list[float] = []
    paused = 0
    entry = harness.hand_forward_model

    def mark(*args, **kwargs):
        nonlocal paused
        if calibrate and len(marks) % WINDOW_TICKS == 0:
            t = ns()
            scales.append(speed.scale())
            paused += ns() - t
        marks.append(ns() - paused)
        return entry(*args, **kwargs)

    gc.collect()
    pre_scale = speed.scale()
    t0 = ns()
    cfg = hd.config.load_scenario(path)
    harness.hand_forward_model = mark
    try:
        log = harness.run_scenario(cfg)
    finally:
        harness.hand_forward_model = entry
    t_loop = ns() - paused
    if after_loop is not None:
        after_loop()
    blob = log.to_bytes()
    summary = harness.summarize(log)
    oracle = None
    if cfg.lift_windows:
        oracle = harness.weight_oracle(log, cfg.lift_windows, cfg.oracle_noise_floor_n)
    t_end = ns() - paused
    post_scale = speed.scale()

    ticks = cfg.coordinator.ticks
    if len(marks) != ticks:
        raise CheckFailed(f"tick hook saw {len(marks)} ticks, expected {ticks}")
    marks.append(t_loop)
    raw = [b - a for a, b in zip(marks, marks[1:])]
    if not calibrate:
        scales = [0.5 * (pre_scale + post_scale)]
    return {
        "cfg": cfg, "log": log, "summary": summary, "oracle": oracle,
        "digest": hashlib.sha256(blob).hexdigest(), "log_bytes": len(blob),
        "finite": b"NaN" not in blob and b"Infinity" not in blob,
        "ticks": ticks,
        "tick_ns": speed.rescale(raw, scales, WINDOW_TICKS if calibrate else ticks),
        "pre_ns": (marks[0] - t0) * pre_scale,      # load, build the Coordinator
        "post_ns": (t_end - t_loop) * post_scale,   # serialize, summarize, oracle
        "scale": sum(scales) / len(scales),
        "raw_loop_ns": sum(raw),                    # host time, not scaled
    }


def compose_scenario(hd, cfg) -> None:
    """The scenario's own capability, composed as `hapdock capability` does."""
    cap = hd.capability
    links = [cap.DockLink(arm_index=i, glove_index=0, kind=cfg.dock.joint_kind,
                          breaking_force=cfg.dock.breaking_force,
                          friction_mu=cfg.dock.friction_mu)
             for i in range(len(cfg.arms))]
    cap.compose_capability([a.spec for a in cfg.arms], [cfg.glove.spec], links,
                           arm_names=[a.name for a in cfg.arms])


# -- output checks ------------------------------------------------------


def lift_fidelity_pct(log, cfg) -> float:
    """Worst relative error over cans of mean rendered support vs m*g, in %."""
    masses = {b.name: b.mass for b in cfg.scene.bodies if b.kind == "dynamic"}
    worst = 0.0
    for name, (t0, t1) in cfg.lift_windows.items():
        samples = [-sum(a["rendered"][1] for a in r["arms"])
                   for r in log.records if t0 <= r["t"] <= t1]
        expected = masses[name] * G
        worst = max(worst, abs(sum(samples) / len(samples) - expected) / expected)
    return 100.0 * worst


def _check_lift(out: dict) -> dict:
    cfg, oracle = out["cfg"], out["oracle"]
    masses = {b.name: b.mass for b in cfg.scene.bodies if b.kind == "dynamic"}
    expected = tuple(sorted(masses, key=masses.get))
    if oracle.verdict != "ordered" or oracle.order != expected:
        raise CheckFailed(f"oracle {oracle.verdict} {oracle.order}, expected {expected}")
    fidelity = lift_fidelity_pct(out["log"], cfg)
    if not fidelity < FIDELITY_LIMIT_PCT:
        raise CheckFailed(f"fidelity error {fidelity:.3f}% >= {FIDELITY_LIMIT_PCT}%")
    return {"fidelity_err_pct": fidelity}


def _check_squeeze(out: dict) -> dict:
    records = out["log"].records
    worst = max(math.sqrt(sum(x * x for x in r["net_force"])) for r in records)
    if not worst < SQUEEZE_NET_LIMIT_N:
        raise CheckFailed(f"|net force| reached {worst:.3e} N")
    t0, t1 = SQUEEZE_HOLD_S
    for r in records:
        if t0 <= r["t"] <= t1 and not (
                r["stops"][0] < 1.0 and r["stops"][1] < 1.0
                and r["resist"][0] > 0.0 and r["resist"][1] > 0.0
                and r["contacts"] >= 2):
            raise CheckFailed(f"stops not engaged at t={r['t']:.3f} s")
    return {"worst_net_force_n": worst}


def _check_handover(out: dict) -> dict:
    cfg = out["cfg"]
    sweep = [r for r in out["log"].records if r["t"] >= SWEEP_START_S]
    attaches = [e for r in sweep for e in r["events"] if e.startswith("attach:")]
    releases = [e for r in sweep for e in r["events"] if e.startswith("release:")]
    if len(attaches) != 1 or len(releases) != 1:
        raise CheckFailed(f"attaches {attaches}, releases {releases}")
    payload = abs(cfg.injected_load[0][1][1])
    low = [r["t"] for r in sweep
           if abs(sum(a["rendered"][1] for a in r["arms"])) < 0.5 * payload]
    dropout = 0.0
    if low:
        start = prev = low[0]
        for t in low[1:]:
            if t - prev > 1.5 * cfg.coordinator.dt:
                dropout = max(dropout, prev - start)
                start = t
            prev = t
        dropout = max(dropout, prev - start)
    if dropout > cfg.dock.handover_gap_bound_s:
        raise CheckFailed(f"force dropout {dropout:.3f} s > "
                          f"{cfg.dock.handover_gap_bound_s} s")
    return {"dropout_s": dropout}


CHECKS = {"lift": _check_lift, "squeeze": _check_squeeze, "handover": _check_handover}


def check(workload: str, seed: int, out: dict, first_digest: str | None) -> dict:
    """Raise CheckFailed unless the replay's output is right; return findings."""
    if out["summary"]["ticks"] != out["ticks"]:
        raise CheckFailed(f"log has {out['summary']['ticks']} ticks, expected {out['ticks']}")
    if not out["finite"]:
        raise CheckFailed("log holds a non-finite number")
    if seed == DEFAULT_SEED and out["digest"] != PINNED_DIGESTS[workload]:
        raise CheckFailed(f"log digest {out['digest'][:16]}... differs from the pinned one")
    if first_digest is not None and out["digest"] != first_digest:
        raise CheckFailed("log bytes differ from the first replay of this run")
    return CHECKS[workload](out)
