import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter

import pytest

from hapdock import geometry, harness, routing, sim
from hapdock.config import Condition, scenario_from_dict
from hapdock.devices import ArmState
from hapdock.docking import DockContext, DockState
from hapdock.frames import RigidTransform
from hapdock.harness import (Coordinator, GloveRateViolation, MetricLog,
                             run_scenario, summarize, weight_oracle)
from shipped import CALLS, FULL_STEPS, NAMES, as_dict, build, cached_run
from test_golden import GOLDEN_SHA256, VARIANT_SHA256


def synthetic_log(force_by_can: dict, ticks_per_window: int = 100) -> tuple:
    """Build a log whose rendered vertical force steps through the cans."""
    log = MetricLog({"record": "header", "schema": 1, "scenario": "synthetic",
                     "condition": "force_feedback"})
    windows = {}
    t = 0.0
    for name, force in force_by_can.items():
        start = t
        for _ in range(ticks_per_window):
            log.append({
                "t": t,
                "arms": [{"name": "arm", "rendered":
                          [0.0, -force, 0.0, 0.0, 0.0, 0.0]}],
            })
            t += geometry.DT
        windows[name] = (start, t - geometry.DT)
    return log, windows


class TestWeightOracle:
    def test_orders_by_force_with_confidence(self):
        log, windows = synthetic_log({"a": 0.0981, "b": 1.4715, "c": 2.943})
        res = weight_oracle(log, windows)
        assert res.verdict == "ordered"
        assert res.order == ("a", "b", "c")
        # Smallest adjacent relative gap: (2.943 - 1.4715) / 2.943 = 0.5.
        assert res.confidence == pytest.approx(0.5, abs=1e-9)

    def test_zero_forces_are_indistinguishable(self):
        log, windows = synthetic_log({"a": 0.0, "b": 0.0, "c": 0.0})
        res = weight_oracle(log, windows)
        assert res.verdict == "indistinguishable"
        assert res.confidence == 0.0

    def test_equal_masses_reported_as_tie(self):
        log, windows = synthetic_log({"a": 1.4715, "b": 1.4715, "c": 2.943})
        res = weight_oracle(log, windows)
        assert res.verdict == "tie"
        assert ("a", "b") in res.ties or ("b", "a") in res.ties

    def test_empty_windows_rejected(self):
        log, _ = synthetic_log({"a": 1.0})
        with pytest.raises(ValueError):
            weight_oracle(log, {})
        with pytest.raises(ValueError):
            weight_oracle(log, {"a": (5.0, 6.0)})  # no records in range
        with pytest.raises(ValueError):
            weight_oracle(log, {"a": (1.0, 0.5)})
        with pytest.raises(ValueError, match="at least two lift windows"):
            weight_oracle(log, {"a": (0.0, 0.05)}, noise_floor_n=0.0)  # nothing to rank

    def test_equal_means_are_a_tie_at_a_zero_floor(self):
        for force in (0.0, 1.4715):
            log, windows = synthetic_log({"a": force, "b": force})
            res = weight_oracle(log, windows, noise_floor_n=0.0)
            assert res.verdict == "tie"
            assert res.ties == (("a", "b"),)

    @pytest.mark.parametrize("forces, window", [
        ({"a": 0.0, "b": -0.5}, "a"),
        ({"a": -1.0, "b": -0.5}, "b"),
        # A zero mean below a positive top would still divide by zero.
        ({"a": -1.0, "b": 0.0, "c": 1.0}, "b"),
    ])
    def test_ranking_above_a_non_positive_mean_rejected(self, forces, window):
        log, windows = synthetic_log(forces)
        with pytest.raises(ValueError, match=f"window for '{window}' ranks above"):
            weight_oracle(log, windows)


class TestMetricLog:
    def test_write_read_round_trip(self, tmp_path):
        cfg = build("pursuit_static")
        log = run_scenario(cfg)
        path = tmp_path / "log.ndjson"
        log.write(path)
        loaded = MetricLog.read(path)
        assert loaded.header == log.header
        # A record in memory is what its JSON line decodes to, with its
        # tuples read as lists.
        assert loaded.records == [json.loads(json.dumps(r)) for r in log.records]

    def test_bad_log_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"record": "tick"}\n')
        with pytest.raises(ValueError):
            MetricLog.read(path)

    @pytest.mark.parametrize("name", ["handover_sweep", None],
                             ids=["handover_sweep", "header-only"])
    def test_file_holds_the_bytes(self, tmp_path, name):
        if name is None:
            log = MetricLog({"record": "header", "scenario": "s", "condition": "free"})
        else:
            log = cached_run(name)
        path = tmp_path / "log.ndjson"
        log.write(path)
        blob = path.read_bytes()
        assert blob == log.to_bytes()
        assert blob.count(b"\n") == len(log.records) + 1 and blob.endswith(b"}\n")

    def test_to_bytes_holds_one_buffer(self):
        # The lines go straight into one buffer, and the bytes returned are
        # that buffer: no list of lines or joined copy is held beside it.
        log = cached_run("pursuit_static")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blob = log.to_bytes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.25 * len(blob)

    def test_unencodable_record_raises(self, tmp_path):
        log = MetricLog({"record": "header", "scenario": "s", "condition": "free"})
        log.append({"tick": 0, "bad": object()})
        with pytest.raises(TypeError):
            log.to_bytes()
        with pytest.raises(TypeError):
            log.write(tmp_path / "log.ndjson")

    def test_line_separator_inside_a_string_is_no_line_break(self, tmp_path):
        # U+2028, U+2029 and U+0085 are valid raw inside a JSON string; only
        # a newline ends an NDJSON line.
        path = tmp_path / "log.ndjson"
        header = '{"record":"header","scenario":"s\u2028x\u2029y\x85z","condition":"free"}'
        path.write_text(header + '\n{"tick":0}\n', encoding="utf-8")
        log = MetricLog.read(path)
        assert log.header["scenario"] == "s\u2028x\u2029y\x85z"
        assert log.records == [{"tick": 0}]

    def test_crlf_log_reads_like_lf(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_bytes(b'{"record":"header"}\r\n\r\n{"tick":0}\r\n5\r\n')
        with pytest.raises(ValueError, match=r":4: expected a JSON object, got int$"):
            MetricLog.read(path)
        path.write_bytes(b'{"record":"header"}\r\n\r\n{"tick":0}\r\n')
        assert MetricLog.read(path).records == [{"tick": 0}]

    @pytest.mark.parametrize("name", NAMES)
    def test_summary_matches_the_two_pass_form(self, name):
        log = cached_run(name)
        s = summarize(log)
        assert s["attach_events"] == [(r["t"], e) for r in log.records
                                      for e in r["events"] if e.startswith("attach:")]
        assert s["release_events"] == [(r["t"], e) for r in log.records
                                       for e in r["events"] if e.startswith("release:")]
        top = max(math.sqrt(sum(x * x for x in a["rendered"][:3]))
                  for r in log.records for a in r["arms"])
        assert s["max_rendered_force_n"].hex() == max(0.0, top).hex()


class TestCoordinator:
    def test_free_condition_never_docks(self):
        d = build("pursuit_static")
        cfg = scenario_from_dict({**as_dict("pursuit_static"),
                                  "condition": "free"})
        log = run_scenario(cfg)
        assert all(r["docked_arm"] is None for r in log.records)
        assert all(a["state"] == "free"
                   for r in log.records for a in r["arms"])
        assert all(not a["magnet"] for r in log.records for a in r["arms"])

    def test_tick_structure(self):
        log = run_scenario(build("pursuit_static"))
        for i, rec in enumerate(log.records):
            assert rec["tick"] == i
            assert rec["dt"] == geometry.DT
            assert rec["t"] == i * geometry.DT

    def test_glove_and_arm_rate_contract(self):
        log = run_scenario(build("pursuit_static"))
        glove_ticks = [r["tick"] for r in log.records if "glove_cmd" in r["events"]]
        assert glove_ticks[0] == 0
        gaps = [b - a for a, b in zip(glove_ticks, glove_ticks[1:])]
        assert all(g * geometry.DT >= 1.0 / 30.0 for g in gaps)
        for rec in log.records:
            assert any(e.startswith("arm_target:") for e in rec["events"])

    def test_injected_load_sampling(self):
        cfg = build("decouple_sweep")
        assert cfg.sample_injected_load(0.5) == (0.0,) * 6
        mid = cfg.sample_injected_load(1.6)
        assert mid[1] == pytest.approx(30.0)
        assert cfg.sample_injected_load(2.4)[1] == pytest.approx(60.0)

    def test_tracking_noise_stays_deterministic(self):
        raw = as_dict("pursuit_static")
        raw["tracking_noise_std_m"] = 0.0005
        a = run_scenario(scenario_from_dict(raw)).to_bytes()
        b = run_scenario(scenario_from_dict(raw)).to_bytes()
        assert a == b

    def test_tracking_noise_does_not_make_the_free_arm_flicker(self):
        # Differencing the tracked plate would scale 0.5 mm of noise by
        # 1/dt into the interception's velocity estimate.
        raw = as_dict("handover_sweep")
        raw["tracking_noise_std_m"] = 0.0005
        events = [e for r in run_scenario(scenario_from_dict(raw)).records
                  for e in r["events"]]
        assert sum(e.startswith("intercept:") for e in events) <= 10

    def test_summary_fields(self):
        log = run_scenario(build("pursuit_static"))
        s = summarize(log)
        assert s["scenario"] == "pursuit_static"
        assert len(s["attach_events"]) == 1

    def test_max_renderable_force_matches_capability(self):
        # Holding a deliberately over-heavy can saturates the arm exactly at
        # the pointwise capability envelope.
        from hapdock.capability import DockLink, capability_at, compose_capability
        from hapdock.docking import PLATE_FRICTION

        raw = as_dict("single_lift_force_feedback")
        raw["name"] = "overload_lift"
        raw["coordinator"] = {"duration_s": 3.2}
        raw["scene"]["bodies"] = [b for b in raw["scene"]["bodies"]
                                  if b["name"] in ("desk", "can_a")]
        for b in raw["scene"]["bodies"]:
            if b["name"] == "can_a":
                b["mass"] = 5.0  # 49 N of weight vs a 9.5 N envelope
        raw["trajectory"]["wrist"] = [
            [0.0, -0.05, -0.08, 0.0],
            [1.2, -0.05, -0.08, 0.0],
            [1.7, -0.05, 0.055, 0.0],
            [3.2, -0.05, 0.055, 0.0],
        ]
        raw["lift_windows"] = {}
        cfg = scenario_from_dict(raw)
        log = run_scenario(cfg)

        steady = [-sum(a["rendered"][1] for a in r["arms"])
                  for r in log.records if r["t"] >= 2.6]
        rendered = sum(steady) / len(steady)
        cap = compose_capability([a.spec for a in cfg.arms], [cfg.glove.spec],
                                 [DockLink(0, 0, PLATE_FRICTION)])
        hold_pose = (-0.05, 0.055, 0.0)
        envelope = capability_at(cap, hold_pose).force[1]
        assert abs(rendered - envelope) < 1e-6
        assert envelope == 9.5


class TestDockingPipeline:
    def test_golden_state_sequence_with_monotone_timestamps(self):
        # Hand starts outside the interception region and walks in: the log
        # must show the full free -> intercepting -> docked progression.
        raw = as_dict("pursuit_static")
        raw["coordinator"] = {"duration_s": 2.0}
        raw["trajectory"]["wrist"] = [
            [0.0, 1.10, 0.175, 0.0],
            [0.5, 1.10, 0.175, 0.0],
            [1.5, 0.60, 0.175, 0.0],
            [2.0, 0.60, 0.175, 0.0],
        ]
        log = run_scenario(scenario_from_dict(raw))
        seen = []
        for rec in log.records:
            state = rec["arms"][0]["state"]
            if not seen or seen[-1][1] != state:
                seen.append((rec["t"], state))
        states = [s for _, s in seen]
        assert states == ["free", "intercepting", "docked"]
        times = [t for t, _ in seen]
        assert times == sorted(times)

    def test_attach_consistency_within_tolerances(self):
        # Right after docking, the arm chain composed through the measured
        # attach pose reproduces the tracked plate pose within the attach
        # tolerances (tool_dist logs the magnet-face-to-plate gap).
        cfg = build("pursuit_static")
        log = run_scenario(cfg)
        attach_tick = next(r["tick"] for r in log.records
                           if any(e.startswith("attach:") for e in r["events"]))
        for rec in log.records[attach_tick:attach_tick + 50]:
            assert rec["arms"][0]["tool_dist"] <= cfg.dock.pos_tol + 1e-9

    def test_workspace_safety_across_handover(self):
        # Even through the boundary release, no effector ever leaves its
        # reachable box by more than the integration tolerance.
        cfg = build("handover_sweep")
        log = run_scenario(cfg)
        boxes = {a.name: a.spec.workspace_box_world().inflate(1e-6) for a in cfg.arms}
        for rec in log.records:
            for arm in rec["arms"]:
                assert boxes[arm["name"]].contains(arm["pos"])

    def test_sensor_clamp_telemetry(self):
        # Scripted trajectories stay in range; nothing should be flagged.
        log = run_scenario(build("pursuit_static"))
        assert all(rec["sensor_clamps"] == 0 for rec in log.records)

    def test_attach_applies_no_pose_snap(self):
        # The joint absorbs the residual offset: the effector trajectory is
        # continuous through the attach tick.
        cfg = build("pursuit_static")
        log = run_scenario(cfg)
        attach_tick = next(r["tick"] for r in log.records
                           if any(e.startswith("attach:") for e in r["events"]))
        prev = log.records[attach_tick - 1]["arms"][0]["pos"]
        cur = log.records[attach_tick]["arms"][0]["pos"]
        step = math.dist(prev, cur)
        assert step <= cfg.arms[0].pursuit_speed * geometry.DT + 1e-9


class TestDockSlot:
    def test_handover_release_frees_the_slot_for_a_later_arm_in_the_same_tick(self):
        ticks = [r["events"] for r in cached_run("handover_sweep").records
                 if "attach:arm_b" in r["events"]]
        assert ticks
        events = ticks[0]
        assert "release:arm_a" in events
        assert events.index("release:arm_a") < events.index("attach:arm_b")

    @pytest.mark.parametrize("name", NAMES)
    def test_at_most_one_docked_arm_and_only_it_renders(self, name):
        for rec in cached_run(name).records:
            docked = [a["name"] for a in rec["arms"] if a["state"] == "docked"]
            assert len(docked) <= 1
            for arm in rec["arms"]:
                if arm["name"] not in docked:
                    assert list(arm["rendered"]) == [0.0] * 6
                    assert arm["slip"] is False

    @pytest.mark.parametrize("tick, docked_arm, states", [
        (199, None, ["docked", "free"]),
        (4134, "arm_a", ["releasing", "docked"]),
    ])
    def test_docked_arm_is_read_before_the_lifecycle_and_states_after(
            self, tick, docked_arm, states):
        # ``docked_arm`` is the arm docked when the tick starts; the arm
        # states are read after the tick's dock lifecycle ran.
        rec = cached_run("handover_sweep").records[tick]
        assert rec["docked_arm"] == docked_arm
        assert [a["state"] for a in rec["arms"]] == states


def _short(name: str, duration_s: float, **over):
    raw = as_dict(name)
    raw["coordinator"] = {**raw["coordinator"], "duration_s": duration_s}
    raw.update(over)
    return scenario_from_dict(raw)


# Test ids of the scenes whose pinned counts are parametrized: named, so that a
# re-pinned count does not rename a test.
HOT_PATH_SCENES = ["single_lift_force_feedback", "squeeze_cancellation", "handover_sweep"]


def _lines(records) -> list[str]:
    """The records' log lines."""
    return [json.dumps(r, separators=(",", ":")) for r in records]


# The fields of the coordinator's slot classes that hold the run's state or
# constants, not a kept result. ``_cold`` sets every other field to its
# default, the cold value.
RUN_STATE = {
    harness._Reuse: (),
    harness._Dock: ("unit", "joint", "c1", "c2", "rotation"),
    harness._ArmUnit: ("cfg", "state", "dock_state", "magnet", "trigger_box", "park",
                       "park_cmd", "cooldown_until"),
    sim.World: ("gravity", "params", "bodies", "hand"),
    routing.LowPassFilter: ("cutoff_hz", "enabled", "alpha", "state"),
}


def _slot_objects(coord: Coordinator) -> list:
    """The objects of ``coord`` whose classes ``RUN_STATE`` names."""
    return [s for s in (coord.reuse, coord.dock, *coord.units, coord.world, coord.filter)
            if s is not None]


def _cold(coord: Coordinator) -> None:
    """Clear every kept result of ``coord``: each field of its slot objects
    that ``RUN_STATE`` does not name."""
    for slots in _slot_objects(coord):
        for f in dataclasses.fields(slots):
            if f.name not in RUN_STATE[type(slots)]:
                setattr(slots, f.name, f.default)


def _reattach(raw: dict) -> None:
    """decouple_sweep with the load falling back to zero after its joint
    breaks (1.982 s) and a 0.3 s cooldown: the arm docks a second time."""
    raw["dock"] = {**raw["dock"], "reattach_cooldown_s": 0.3}
    raw["injected_load"] = [*raw["injected_load"], [2.25] + [0.0] * 6]


def _variant(rotation, noise):
    def edit(raw: dict) -> None:
        raw["trajectory"]["wrist_rotation"] = list(rotation)
        raw["tracking_noise_std_m"] = noise
    return edit


def _pebble(raw: dict) -> None:
    """squeeze_cancellation without gravity and with a small hand-colliding
    pebble sliding down z at 0.1 m/s across the index finger's curl path:
    it reaches the finger after the pinch holds still (1.5 s)."""
    raw["scene"] = {**raw["scene"], "gravity": [0.0, 0.0, 0.0]}
    raw["scene"]["bodies"] = [*raw["scene"]["bodies"], {
        "name": "pebble", "kind": "dynamic", "center": [0.175, 0.012, 0.2],
        "half_extents": [0.004, 0.002, 0.004], "velocity": [0.0, 0.0, -0.1],
        "mass": 0.01}]


# (scene, seconds, test id suffix, edit of the scene's mapping) of the cold
# reference runs: the hot-path scenes, the free condition, squeeze past its held pinch's first
# kept glove stops (1.564 s) and with a pebble moving under that pinch,
# handover up to its second attach (tick 4135); decouple_sweep's ramp through
# its joint break at 1.982 s, and with a second dock of the same arm; the
# rotated and noisy golden variants.
COLD_RUNS = [
    ("single_lift_force_feedback", 2.0, "", None),
    ("single_lift_free", 1.5, "", None),
    ("squeeze_cancellation", 2.2, "", None),
    ("squeeze_cancellation", 2.2, "-pebble", _pebble),
    ("handover_sweep", 4.2, "", None),
    ("decouple_sweep", 2.5, "", None),
    ("decouple_sweep", 2.6, "-reattach", _reattach),
] + [(name, seconds, "-variant", _variant(rotation, noise))
     for (name, rotation, noise, _), seconds in zip(VARIANT_SHA256, (1.0, 2.0, 1.5))]


class TestHotPath:
    def test_glove_rate_contract_raises(self):
        coord = Coordinator(build("pursuit_static"))
        coord._tick(0)
        with pytest.raises(GloveRateViolation):
            coord._tick(0)  # a second glove command in the same period

    def test_ticks_build_no_box(self, monkeypatch):
        coord = Coordinator(_short("handover_sweep", 0.5))
        built = []
        original = geometry.Box.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(geometry.Box, "__post_init__", counting)
        log = coord.run()
        assert {r["arms"][0]["state"] for r in log.records} >= {"intercepting", "docked"}
        assert built == []

    def test_one_follow_pose_per_docked_tick(self, monkeypatch):
        calls = []
        original = Coordinator._follow

        def counting(self, dock, plate):
            calls.append(dock.unit.cfg.name)
            return original(self, dock, plate)

        monkeypatch.setattr(Coordinator, "_follow", counting)
        log = run_scenario(_short("handover_sweep", 0.5))
        docked = sum(a["state"] == "docked" for r in log.records for a in r["arms"])
        assert docked > 0
        assert len(calls) == docked

    def test_docked_tick_beside_a_parked_arm_composes_nothing(self, monkeypatch):
        # The dock chain's rotations are built at attach; a docked tick whose
        # other arm is parked at its fixed point composes and inverts nothing.
        calls = []
        for name in ("compose", "inverse"):
            original = getattr(RigidTransform, name)

            def counting(*args, _original=original):
                calls.append(True)
                return _original(*args)

            monkeypatch.setattr(RigidTransform, name, counting)
        coord = Coordinator(_short("handover_sweep", 5.0))
        quiet = attach = 0
        for tick in range(coord.cfg.coordinator.ticks):
            parked = [u for u in coord.units if u.state is u.parked]
            calls.clear()
            coord._tick(tick)
            rec = coord.log.records[-1]
            states = sorted(a["state"] for a in rec["arms"])
            if any(e.startswith("attach:") for e in rec["events"]):
                attach += 1
                assert 0 < len(calls) <= 12
            elif (states == ["docked", "free"] and rec["docked_arm"] is not None
                  and len(parked) == 1 and parked[0] is not coord.dock.unit):
                quiet += 1
                assert calls == [], tick
        # Both arms attach once; arm_a docks beside parked arm_b for about 3 s.
        assert attach == 2 and quiet > 3000

    def test_records_compose_no_tool_pose(self, monkeypatch):
        # A record's tool distance reads the tool point, not a composed tool
        # pose: the tick itself composes nothing, its callees still do.
        callers = []
        original = RigidTransform.compose

        def counting(self, other):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(self, other)

        monkeypatch.setattr(RigidTransform, "compose", counting)
        log = run_scenario(_short("handover_sweep", 0.5))
        assert {a["state"] for r in log.records for a in r["arms"]} >= {
            "free", "intercepting", "docked"}
        assert "_tick" not in callers and "pursue" in callers

    def test_no_hand_colliders_without_hand_bodies(self, monkeypatch):
        # No handover body collides with the hand, so nothing reads colliders.
        calls = []
        monkeypatch.setattr(harness, "hand_collider_spheres",
                            lambda *a: calls.append(a))
        coord = Coordinator(_short("handover_sweep", 0.5))
        coord.run()
        assert calls == []
        assert coord.world.hand == []

    def test_lift_tick_builds_sixteen_colliders(self, monkeypatch):
        # Built on the first tick, then moved in place.
        built = []
        original = harness.HandCollider

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "HandCollider", counting)
        # The lift scene with the wrist rising and the fingers closing from
        # t = 0, so tick 1 moves every sphere.
        trajectory = {**as_dict("single_lift_force_feedback")["trajectory"],
                      "wrist": [[0.0, -0.05, -0.08, 0.0], [0.5, -0.05, 0.055, 0.0]],
                      "flex": [[0.0] + [0.0] * 5, [0.5] + [0.8] * 5]}
        coord = Coordinator(_short("single_lift_force_feedback", 0.01,
                                   trajectory=trajectory))
        coord._tick(0)
        assert len(built) == 16
        hand = list(coord.world.hand)
        assert [h.velocity for h in hand] == [(0.0, 0.0, 0.0)] * 16
        prev = [h.center for h in hand]
        coord._tick(1)
        assert len(built) == 16
        assert len(coord.world.hand) == 16
        assert all(h is old for h, old in zip(coord.world.hand, hand))
        # Velocities come from the same sphere one tick earlier.
        for h, p in zip(coord.world.hand, prev):
            assert h.center != p
            expected = tuple((c - q) / geometry.DT for c, q in zip(h.center, p))
            assert [v.hex() for v in h.velocity] == [v.hex() for v in expected]

    def test_handover_steps_no_parked_arm_and_keeps_its_bytes(self, monkeypatch):
        entered = set()
        tick = 0
        original = harness.arm_step

        def counting(*args):
            entered.add(tick)
            return original(*args)

        monkeypatch.setattr(harness, "arm_step", counting)
        coord = Coordinator(build("handover_sweep"))
        ticks = coord.cfg.coordinator.ticks
        for tick in range(ticks):
            coord._tick(tick)
        assert ticks == 8000
        # Each arm parks until its interception and after its release.
        assert 0 < len(entered) < 2100
        digest = hashlib.sha256(coord.log.to_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256["handover_sweep"]

    def test_signed_zero_twin_of_a_parked_state_is_stepped(self, monkeypatch):
        coord = Coordinator(_short("handover_sweep", 0.5))
        arm_b = coord.units[1]
        tick = 0
        while arm_b.parked is None:
            coord._tick(tick)
            tick += 1
        assert arm_b.state is arm_b.parked and arm_b.dock_state is DockState.FREE
        parked = arm_b.state
        values = parked.pose.rotation + parked.pose.translation
        zero = values.index(0.0)
        flipped = values[:zero] + (-values[zero],) + values[zero + 1:]
        twin = ArmState(RigidTransform(flipped[:4], flipped[4:]), parked.clamped)
        assert twin == parked

        stepped = []
        original = harness.arm_step

        def counting(spec, *args):
            stepped.append(spec.name)
            return original(spec, *args)

        monkeypatch.setattr(harness, "arm_step", counting)
        arm_b.state = twin
        plate = RigidTransform.identity()
        coord._control(arm_b, None, plate, (0.0,) * 6)
        # Stepped, and the step's bits replace the twin's.
        assert stepped.count("arm_b") == 1
        assert arm_b.state is not twin and arm_b.parked is not twin
        assert [v.hex() for v in arm_b.state.pose.rotation + arm_b.state.pose.translation
                ] == [v.hex() for v in values]
        # The stepped state is the fixed point again: one more step finds
        # it, and then parking skips the call.
        coord._control(arm_b, None, plate, (0.0,) * 6)
        assert stepped.count("arm_b") == 2 and arm_b.parked is arm_b.state
        coord._control(arm_b, None, plate, (0.0,) * 6)
        assert stepped.count("arm_b") == 2

    @pytest.mark.parametrize("name, ticks, full", [
        # A hand-free fixed point repeats while the hand touches nothing.
        ("single_lift_force_feedback", 9300, 2513),
        ("squeeze_cancellation", 4000, 62),
        # No bodies and no hand: the first step is already a fixed point.
        ("handover_sweep", 8000, 1),
    ], ids=HOT_PATH_SCENES)
    def test_physics_steps_only_off_its_fixed_point(self, name, ticks, full):
        assert len(cached_run(name).records) == ticks
        assert FULL_STEPS[name] == full

    @pytest.mark.parametrize("name, collections, walks", [
        # A full step collects at its input and in each projection pass, one
        # walk over the hand each; a repeat of a hand-free fixed point walks
        # it once to find the hand clear.
        ("single_lift_force_feedback", 5026, 7789),
        ("squeeze_cancellation", 124, 1513),
        # Every step after the first is a hand-free fixed point.
        ("handover_sweep", 2, 8001),
    ], ids=HOT_PATH_SCENES)
    def test_each_collection_walks_the_hand_once(self, name, collections, walks):
        cached_run(name)
        calls = CALLS[name]
        assert [calls["_collect_contacts"], calls["_hand_hits"]] == [collections, walks]

    @pytest.mark.parametrize("name, ticks, misses, glove, spheres, offsets, moves", [
        # Lift's and handover's fingers never move; only their wrists do.
        ("single_lift_force_feedback", 9300, 1, 274, 4130, 1, 4129),
        ("squeeze_cancellation", 4000, 901, 992, 1085, 229, 1084),
        # No body collides with the hand, so no collider is built.
        ("handover_sweep", 8000, 1, 236, 0, 0, 0),
    ], ids=HOT_PATH_SCENES)
    def test_still_hand_skips_its_work(self, name, ticks, misses, glove, spheres, offsets,
                                       moves):
        # The forward model is called once per tick and misses its memo only
        # when the sensed bits moved, not when the wrist alone moved. The
        # glove reruns on those ticks and on a new glove command; the
        # colliders move when the fingers or the wrist moved, and once more
        # after the hand stops (tick 0 builds them instead); their offsets
        # are rebuilt only when the finger bits moved.
        cached_run(name)
        calls = CALLS[name]
        assert [calls[key] for key in ("hand_forward_model", "forward_model_misses",
                                       "glove_apply", "hand_collider_spheres", "hand_offsets",
                                       "move_hand")] == [ticks, misses, glove, spheres, offsets,
                                                         moves]

    @pytest.mark.parametrize("name, docked, transmits, displacements, routed", [
        # Lift's command moves with its contacts and its filter's decay.
        ("single_lift_force_feedback", 8965, 4814, 4815, 2174),
        # Squeeze's pairs cancel: its command moves once, on the first
        # docked tick.
        ("squeeze_cancellation", 3875, 1, 2, 60),
        # No hand contacts: nothing is routed, and each attach transmits
        # once with its new joint.
        ("handover_sweep", 7800, 2, 4, 0),
    ], ids=HOT_PATH_SCENES)
    def test_force_path_runs_only_when_its_inputs_move(self, name, docked, transmits,
                                                       displacements, routed):
        # The joint transmits and the displacement is rebuilt when the
        # command is a new object or the dock is new (a new attach),
        # and a report is routed in full only when it has hand contacts and
        # it, the plate or the docked flag is new.
        log = cached_run(name)
        assert sum(r["docked_arm"] is not None for r in log.records) == docked
        calls = CALLS[name]
        assert [calls[key] for key in ("joint_transmit", "impedance_displacement",
                                       "_paired_magnitude")] == [transmits, displacements,
                                                                 routed]

    @pytest.mark.parametrize("name, counts", [
        # Lift's wrist moves on 3802 ticks; the prediction reruns once more
        # each time it stops, as the velocity turns back into ``ZERO3``.
        ("single_lift_force_feedback", [3803, 3807, 3977, 2513, 3803, 4927, 5260]),
        # Squeeze's wrist never moves: routing reruns for a new report only.
        ("squeeze_cancellation", [1, 1, 63, 62, 1, 3, 126]),
        # Handover's wrist moves on 6667 ticks; physics has no bodies.
        ("handover_sweep", [6668, 6669, 6669, 1, 6668, 6681, 8720]),
    ], ids=HOT_PATH_SCENES)
    def test_plate_work_runs_only_when_the_wrist_moves(self, name, counts):
        # The true plate and the follow pose are rebuilt for a new wrist
        # object; the prediction when the plate position or velocity is a
        # new object; routing when the plate position, the report or the
        # docked flag is; ``support`` when the report is; the docked arm's
        # state when its follow pose or displacement is (plus one parked
        # state per arm at start and the releasing states); a tool point for
        # a new arm state object.
        cached_run(name)
        calls = CALLS[name]
        assert [calls[key] for key in ("_plate_truth", "predict_position", "route_forces",
                                       "support", "follow", "ArmState", "tool")] == counts

    def test_routing_gets_the_recorded_report(self, monkeypatch):
        # At a physics fixed point ``step_world`` returns the recorded report
        # object, and that object is what routing gets; a report that repeats
        # under a still plate is not routed again.
        stepped, routed = [], []
        step, route = harness.step_world, harness.route_forces

        def stepping(world):
            out = step(world)
            stepped.append((out[1], world.fixed_point))
            return out

        def routing(impulses, *args, **kwargs):
            routed.append((len(stepped), impulses))
            return route(impulses, *args, **kwargs)

        monkeypatch.setattr(harness, "step_world", stepping)
        monkeypatch.setattr(harness, "route_forces", routing)
        run_scenario(_short("squeeze_cancellation", 1.0))
        hits = [report for report, fixed in stepped if fixed is not None]
        assert len(hits) > 900
        assert all(report is fixed[-1] for report, fixed in stepped if fixed is not None)
        assert all(impulses is stepped[n - 1][0] for n, impulses in routed)
        assert 0 < len(routed) < 100

    def test_interleaved_runs_keep_their_own_state(self, monkeypatch):
        # Two coordinators stepped alternately in one process share no reuse
        # slot: the whole squeeze and the lift's first 4000 ticks each get
        # the bytes and the hand-layer counts they get alone.
        keys = ("glove_apply", "forward_model_misses", "hand_collider_spheres")
        cached_run("squeeze_cancellation")
        assert [CALLS["squeeze_cancellation"][k] for k in keys] == [992, 901, 1085]
        alone = cached_run("single_lift_force_feedback").records[:4000]
        squeeze = Coordinator(build("squeeze_cancellation"))
        lift = Coordinator(_short("single_lift_force_feedback", 4.0))
        calls = {squeeze: Counter(), lift: Counter()}
        last = {}
        turn = squeeze

        def counting(key, fn):
            def wrapper(*args):
                calls[turn][key] += 1
                return fn(*args)
            return wrapper

        model = harness.hand_forward_model

        def forward(*args):
            hand = model(*args)
            calls[turn]["forward_model_misses"] += hand is not last.get(turn)
            last[turn] = hand
            return hand

        monkeypatch.setattr(harness, "hand_forward_model", forward)
        for key in ("glove_apply", "hand_collider_spheres"):
            monkeypatch.setattr(harness, key, counting(key, getattr(harness, key)))
        for tick in range(4000):
            for turn in (squeeze, lift):
                turn._tick(tick)
        assert [calls[squeeze][k] for k in keys] == [992, 901, 1085]
        assert [calls[lift][k] for k in keys] == [118, 1, 1555]
        digest = hashlib.sha256(squeeze.log.to_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256["squeeze_cancellation"]
        assert _lines(lift.log.records) == _lines(alone)

    @pytest.mark.parametrize("name, ticks, stepped", [
        ("single_lift_force_feedback", 9300, 334),
        ("squeeze_cancellation", 4000, 124),
        # Two arms: each parks until its interception and after its release.
        ("handover_sweep", 8000, 2052),
    ], ids=HOT_PATH_SCENES)
    def test_parked_arms_are_not_stepped(self, name, ticks, stepped):
        assert len(cached_run(name).records) == ticks
        assert CALLS[name]["arm_step"] == stepped

    # ``dock_step`` calls per shipped run, one ``DockContext`` each. One dock
    # is five: the intercept, the tick after it, the magnet coming on, the
    # attach and the tick after it; the cold run steps each arm every tick.
    DOCK_STEPS = {
        "decouple_sweep": 9,             # a dock, its release and demagnetizing
        "handover_sweep": 17,            # two arms, two docks, one handover
        "pursuit_moving": 5,
        "pursuit_static": 5,
        "single_lift_docked": 5,
        "single_lift_force_feedback": 5,
        "single_lift_free": 0,           # the free condition runs no lifecycle
        "squeeze_cancellation": 5,
    }

    # ``contact_drum_param`` calls and their probes per shipped run. A glove
    # pass searches again, five calls, only for a new wrist or intended hand
    # object or moved hand-box bits; a scene without a hand box probes
    # nothing. Lift's fingers are clear, one probe a call; squeeze bisects.
    DRUM = {
        "decouple_sweep": (5, 0),
        "handover_sweep": (990, 0),
        "pursuit_moving": (295, 0),
        "pursuit_static": (5, 0),
        "single_lift_docked": (610, 610),
        "single_lift_force_feedback": (610, 610),
        "single_lift_free": (610, 610),
        "squeeze_cancellation": (145, 711),
    }

    @pytest.mark.parametrize("name", sorted(DRUM))
    def test_glove_searches_only_when_their_inputs_move(self, name):
        cached_run(name)
        assert (CALLS[name]["contact_drum_param"], CALLS[name]["_probe"]) == self.DRUM[name]

    @pytest.mark.parametrize("name", sorted(DOCK_STEPS))
    def test_dock_transitions_rerun_only_when_their_inputs_flip(self, name):
        cached_run(name)
        assert [CALLS[name]["dock_step"], CALLS[name]["DockContext"]] == [
            self.DOCK_STEPS[name]] * 2

    def test_a_new_dock_state_steps_again_under_the_same_flags(self, monkeypatch):
        stepped = []
        original = harness.dock_step

        def counting(state, ctx):
            stepped.append((state, ctx))
            return original(state, ctx)

        monkeypatch.setattr(harness, "dock_step", counting)
        coord = Coordinator(_short("handover_sweep", 0.1))
        arm_b = coord.units[1]
        plate = RigidTransform.identity()
        events = []
        for _ in range(2):
            coord._lifecycle(arm_b, False, False, 0.0, plate, geometry.ZERO6, events)
        assert [state for state, _ in stepped] == [DockState.FREE] and events == []
        # The same six flags under a releasing state: its magnet is off, so
        # it turns free.
        arm_b.dock_state = DockState.RELEASING
        coord._lifecycle(arm_b, False, False, 0.0, plate, geometry.ZERO6, events)
        assert [state for state, _ in stepped] == [DockState.FREE, DockState.RELEASING]
        assert stepped[1][1] == stepped[0][1]
        assert events == ["demagnetized:arm_b"] and arm_b.dock_state is DockState.FREE
        # One slot: free again under those flags steps again.
        coord._lifecycle(arm_b, False, False, 0.0, plate, geometry.ZERO6, events)
        assert len(stepped) == 3 and events == ["demagnetized:arm_b"]

    def test_a_stepped_transition_keys_on_every_context_field(self, monkeypatch):
        # A ``DockContext`` field the key left out would let a kept result
        # stand for another context: each context is built with every field,
        # and its unit's key is the dock state and those fields in order.
        names = [f.name for f in dataclasses.fields(DockContext)]
        built, stepped = [], []
        context, step = harness.DockContext, harness.dock_step

        def building(*args):
            built.append(len(args))
            return context(*args)

        def stepping(state, ctx):
            result = step(state, ctx)
            stepped.append((state, ctx, result))
            return result

        monkeypatch.setattr(harness, "DockContext", building)
        monkeypatch.setattr(harness, "dock_step", stepping)
        coord = Coordinator(build("handover_sweep"))
        for tick in range(coord.cfg.coordinator.ticks):
            del stepped[:]
            coord._tick(tick)
            for state, ctx, result in stepped:
                [unit] = [u for u in coord.units if u.step[1] is result]
                assert unit.step[0] == (state, *(getattr(ctx, n) for n in names))
        assert built == [len(names)] * 17

    @pytest.mark.parametrize("name, seconds, suffix, edit", COLD_RUNS,
                             ids=[f"{name}-{seconds}s{suffix}"
                                  for name, seconds, suffix, _ in COLD_RUNS])
    def test_cold_run_keeps_the_bytes(self, monkeypatch, name, seconds, suffix, edit):
        # The cold reference: the run again with every kept result cleared
        # before each tick, so nothing of an earlier tick is reused.
        raw = as_dict(name)
        raw["coordinator"] = {**raw["coordinator"], "duration_s": seconds}
        if edit is not None:
            edit(raw)
        cfg = scenario_from_dict(raw)
        applied = []
        original = harness.glove_apply
        monkeypatch.setattr(harness, "glove_apply",
                            lambda *args: applied.append(True) or original(*args))
        coord = Coordinator(cfg)
        ticks = cfg.coordinator.ticks
        for tick in range(ticks):
            _cold(coord)
            coord._tick(tick)
        # Nothing was left to reuse: the glove ran on every tick.
        assert len(applied) == ticks
        monkeypatch.undo()
        if edit is None:
            warm = cached_run(name).records[:ticks]
        else:
            warm = run_scenario(cfg).records
        attaches = Counter(e for r in warm for e in r["events"] if e.startswith("attach:"))
        docks = 0 if cfg.condition is Condition.FREE else 2 if edit is _reattach else 1
        assert max(attaches.values(), default=0) == docks
        assert _lines(coord.log.records) == _lines(warm)

    def test_a_moving_hand_box_alone_reruns_the_glove_searches(self):
        # Under the held pinch the wrist and the intended hand are the same
        # objects pass after pass, so a glove pass that searches again does
        # so for the pebble's moved bits alone, and its stops follow it.
        raw = as_dict("squeeze_cancellation")
        raw["coordinator"] = {**raw["coordinator"], "duration_s": 2.2}
        _pebble(raw)
        coord = Coordinator(scenario_from_dict(raw))
        kept, moved = 0, []
        for tick in range(coord.cfg.coordinator.ticks):
            before = coord.reuse.stops
            coord._tick(tick)
            after = coord.reuse.stops
            # Tick 1530 is the held pinch's first glove pass.
            if tick <= 1530 or tick % coord.glove_period:
                continue
            if after is before:
                kept += 1
            else:
                assert after[0] is before[0] and after[1] is before[1]
                assert after[2] != before[2]
                moved.append(after[3] != before[3])
        assert kept > 0 and any(moved)

    def test_cold_clears_every_field_but_the_run_state(self):
        # Each field of the slot classes is run state, named in
        # ``RUN_STATE`` and kept by ``_cold``, or a kept result that ``_cold``
        # sets back to its default: a new field without a default fails
        # here until it is named, and one with a default is cleared.
        coord = Coordinator(_short("handover_sweep", 0.3))
        coord.run()
        slot_objects = _slot_objects(coord)
        assert {type(slots) for slots in slot_objects} == set(RUN_STATE)
        marker = object()
        before = []
        for slots in slot_objects:
            fields = dataclasses.fields(slots)
            run_state = RUN_STATE[type(slots)]
            assert set(run_state) <= {f.name for f in fields}
            for f in fields:
                if f.name not in run_state:
                    assert f.default is not dataclasses.MISSING, f.name
                    setattr(slots, f.name, marker)
            before.append({f.name: getattr(slots, f.name) for f in fields})
        _cold(coord)
        for slots, values in zip(slot_objects, before):
            run_state = RUN_STATE[type(slots)]
            for f in dataclasses.fields(slots):
                want = values[f.name] if f.name in run_state else f.default
                assert getattr(slots, f.name) is want, f.name

    def test_wrist_sweep_enters_the_glove_only_on_its_commands(self, monkeypatch):
        # Handover's wrist sweeps under still fingers: the glove step reruns
        # only for a new glove command, tick 0's included.
        entered = []
        tick = 0
        original = harness.glove_apply

        def counting(*args):
            entered.append(tick)
            return original(*args)

        monkeypatch.setattr(harness, "glove_apply", counting)
        coord = Coordinator(build("handover_sweep"))
        for tick in range(coord.cfg.coordinator.ticks):
            coord._tick(tick)
        commands = [r["tick"] for r in coord.log.records if "glove_cmd" in r["events"]]
        assert entered == commands
        assert entered[0] == 0 and len(entered) == 236
        wrists = {tuple(r["wrist"]) for r in coord.log.records}
        assert len(wrists) > 6000

    def test_records_hold_only_plain_values(self):
        # Docked force feedback with hand contacts and tracking noise: every
        # per-tick vector source reaches the record.
        log = run_scenario(_short("single_lift_force_feedback", 1.5,
                                  tracking_noise_std_m=0.0005))
        assert any(r["contacts"] for r in log.records)
        assert any(r["docked_arm"] for r in log.records)

        def plain(v) -> bool:
            if isinstance(v, (list, tuple)):
                return all(plain(x) for x in v)
            if isinstance(v, dict):
                return all(isinstance(k, str) and plain(x) for k, x in v.items())
            return type(v) in (float, int, bool, str, type(None))

        bad = [(r["tick"], k) for r in log.records for k, v in r.items() if not plain(v)]
        assert bad == []
