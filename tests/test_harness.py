import hashlib
import math

import pytest

from hapdock import geometry, harness
from hapdock.config import scenario_from_dict
from hapdock.devices import ArmState
from hapdock.docking import DockState
from hapdock.frames import RigidTransform
from hapdock.harness import (Coordinator, GloveRateViolation, MetricLog,
                             run_scenario, summarize, weight_oracle)
from shipped import FULL_STEPS, HAND_CALLS, NAMES, as_dict, build, cached_run
from test_golden import GOLDEN_SHA256


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
            t += 0.001
        windows[name] = (start, t - 0.001)
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
        assert loaded.records == log.records

    def test_bad_log_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"record": "tick"}\n')
        with pytest.raises(ValueError):
            MetricLog.read(path)


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
            assert rec["dt"] == 0.001
            assert rec["t"] == i * 0.001

    def test_glove_and_arm_rate_contract(self):
        log = run_scenario(build("pursuit_static"))
        glove_ticks = [r["tick"] for r in log.records if "glove_cmd" in r["events"]]
        assert glove_ticks[0] == 0
        gaps = [b - a for a, b in zip(glove_ticks, glove_ticks[1:])]
        assert all(g * 0.001 >= 1.0 / 30.0 for g in gaps)
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
        assert step <= cfg.arms[0].pursuit_speed * 0.001 + 1e-9


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
                    assert arm["rendered"] == [0.0] * 6
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

        def counting(self, u, plate):
            calls.append(u.cfg.name)
            return original(self, u, plate)

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
                  and len(parked) == 1 and parked[0] is not coord.docked):
                quiet += 1
                assert calls == [], tick
        # Both arms attach once; arm_a docks beside parked arm_b for about 3 s.
        assert attach == 2 and quiet > 3000

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
            expected = tuple((c - q) / coord.dt for c, q in zip(h.center, p))
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
    ])
    def test_physics_steps_only_off_its_fixed_point(self, name, ticks, full):
        assert len(cached_run(name).records) == ticks
        assert FULL_STEPS[name] == full

    @pytest.mark.parametrize("name, ticks, misses, glove, spheres, moves", [
        # Lift's and handover's fingers never move; only their wrists do.
        ("single_lift_force_feedback", 9300, 1, 274, 4130, 4129),
        ("squeeze_cancellation", 4000, 901, 992, 1085, 1084),
        # No body collides with the hand, so no collider is built.
        ("handover_sweep", 8000, 1, 236, 0, 0),
    ])
    def test_still_hand_skips_its_work(self, name, ticks, misses, glove, spheres, moves):
        # The forward model is called once per tick and misses its memo only
        # when the sensed bits moved, not when the wrist alone moved. The
        # glove reruns on those ticks and on a new glove command; the
        # colliders move when the fingers or the wrist moved, and once more
        # after the hand stops (tick 0 builds them instead).
        cached_run(name)
        calls = HAND_CALLS[name]
        assert [calls[key] for key in ("hand_forward_model", "forward_model_misses",
                                       "glove_apply", "hand_collider_spheres",
                                       "move_hand")] == [ticks, misses, glove, spheres, moves]

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
            if isinstance(v, list):
                return all(plain(x) for x in v)
            if isinstance(v, dict):
                return all(isinstance(k, str) and plain(x) for k, x in v.items())
            return type(v) in (float, int, bool, str, type(None))

        bad = [(r["tick"], k) for r in log.records for k, v in r.items() if not plain(v)]
        assert bad == []
