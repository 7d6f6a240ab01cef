import dataclasses
import json

import pytest
import yaml

from hapdock import cli
from hapdock.cli import main
from hapdock.config import ConfigError, scenario_from_dict
from hapdock.devices import GLOVE_CATALOG, VIRTUOSE_6D
from hapdock.docking import DEFAULT_ANG_TOL_RAD, JOINT_KIND_CATALOG
from hapdock.harness import MetricLog
from shipped import as_dict, path as shipped_path


def minimal_dict(**over) -> dict:
    d = {
        "schema_version": 1,
        "name": "mini",
        "condition": "free",
        "coordinator": {"duration_s": 0.1},
        "arms": [{"name": "arm", "base_position": [0.0, 0.0, 0.0]}],
        "trajectory": {
            "wrist": [[0.0, 0.0, 0.0, 0.0]],
            "flex": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        },
    }
    d.update(over)
    return d


class TestValidation:
    def test_minimal_config_loads(self):
        cfg = scenario_from_dict(minimal_dict())
        assert cfg.name == "mini"
        assert cfg.coordinator.ticks == 100

    def test_required_keys_alone_parse_to_the_declared_defaults(self):
        # Besides the required keys, one body with only its required keys.
        body = {"name": "post", "kind": "static", "center": [0.3, 0.0, 0.0],
                "half_extents": [0.01, 0.01, 0.01]}
        cfg = scenario_from_dict(minimal_dict(scene={"bodies": [body]}))
        arm = cfg.arms[0]
        parsed = (cfg, cfg.coordinator, arm, arm.spec, cfg.glove, cfg.glove.calibration,
                  cfg.dock, cfg.scene, cfg.scene.bodies[0], cfg.trajectory)
        checked = []
        for obj in parsed:
            for f in dataclasses.fields(obj):
                if f.default is dataclasses.MISSING or (obj, f.name) == (cfg.scene, "bodies"):
                    continue
                name = f"{type(obj).__name__}.{f.name}"
                assert getattr(obj, f.name) == f.default, name
                checked.append(name)
        assert {"SceneConfig.gravity", "SceneConfig.surface_stiffness",
                "SceneConfig.solver_iterations", "SceneConfig.slop",
                "CoordinatorConfig.filter_cutoff_hz", "ScenarioConfig.tracking_noise_std_m",
                "ScenarioConfig.oracle_noise_floor_n", "GloveConfig.spring_constant",
                "ArmConfig.pursuit_speed", "BodyConfig.mass", "BodyConfig.velocity",
                "BodyConfig.collide_with_hand",
                "TrajectoryConfig.wrist_rotation"} <= set(checked)

        # The defaults no dataclass declares: the arm model's catalog row, the
        # workspace center as park pose, and the catalog names' own defaults.
        for name in ("workspace_center", "workspace_extents", "rot_range_deg", "max_force",
                     "max_torque", "stiffness"):
            assert getattr(arm.spec, name) == getattr(VIRTUOSE_6D, name), name
        assert arm.spec.name == "arm"
        assert arm.park_position == arm.spec.workspace_box_world().center
        assert cfg.dock.joint_kind is JOINT_KIND_CATALOG["plate_friction"]
        assert cfg.dock.ang_tol_rad == DEFAULT_ANG_TOL_RAD
        assert cfg.trajectory.abduction == ((0.0, (0.5,) * 5),)
        assert cfg.glove.spec is GLOVE_CATALOG["dexmo"]
        assert cfg.seed == 0
        assert cfg.lift_windows == {} and cfg.injected_load == ()

    def test_missing_schema_version(self):
        d = minimal_dict()
        del d["schema_version"]
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert err.value.path == "$.schema_version"

    def test_unknown_condition_path(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(minimal_dict(condition="warp"))
        assert err.value.path == "$.condition"

    def test_non_increasing_timestamps(self):
        d = minimal_dict()
        d["trajectory"]["wrist"] = [[0.0, 0, 0, 0], [0.5, 0, 0.1, 0], [0.5, 0, 0.2, 0]]
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert "wrist[2]" in err.value.path

    def test_dynamic_body_without_mass(self):
        d = minimal_dict(scene={"bodies": [{
            "name": "c", "kind": "dynamic",
            "center": [0, 0, 0], "half_extents": [0.1, 0.1, 0.1]}]})
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert err.value.path == "$.scene.bodies[0].mass"

    def test_window_for_unknown_body(self):
        d = minimal_dict(lift_windows={"ghost": [0.0, 1.0]})
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert "ghost" in err.value.path

    def test_glove_rate_floor_enforced(self):
        d = minimal_dict(coordinator={"duration_s": 0.1, "glove_period_ticks": 10})
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert "glove_period_ticks" in err.value.path

    @pytest.mark.parametrize("duration", [0.0004, 0.0005])
    def test_a_scene_runs_at_least_one_tick(self, tmp_path, capsys, duration):
        # 0.0005 s rounds half to even, to no tick at all: a scene that
        # would log its header alone is rejected.
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(minimal_dict(coordinator={"duration_s": duration})))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: $.coordinator.duration_s: "
            "must round to at least one tick of 1 ms\n")
        d = minimal_dict(coordinator={"duration_s": 0.0006})
        assert scenario_from_dict(d).coordinator.ticks == 1

    def test_normalized_flex_range_checked(self):
        d = minimal_dict()
        d["trajectory"]["flex"] = [[0.0, 0.0, 0.0, 0.0, 0.0, 1.5]]
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert "flex" in err.value.path

    def test_unknown_arm_model(self):
        d = minimal_dict(arms=[{"name": "a", "model": "phantom",
                                "base_position": [0, 0, 0]}])
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert err.value.path == "$.arms[0].model"

    # Removed options, a typo of dock.breaking_force_n and one unknown key
    # per remaining level: none may be dropped silently.
    @pytest.mark.parametrize("where, key, value", [
        ((), "colour", "red"),
        (("coordinator",), "tick_rate_hz", 333.0),
        (("coordinator",), "render_net_torque", True),
        (("arms", 0), "mass", 1.0),
        (("glove",), "modle", "dexmo"),
        (("glove", "calibration"), "flex_mn", [0.0] * 5),
        (("dock",), "breaking_force", 5.0),
        (("scene",), "gravty", [0.0, -9.81, 0.0]),
        (("scene", "bodies", 0), "rotation_locked", False),
        (("trajectory",), "wirst", [[0.0, 0.0, 0.0, 0.0]]),
        (("scene", "bodies", 0), "shape", "box"),
        (("scene", "bodies", 0), "radius", 0.05),
    ])
    def test_unknown_field_rejected_with_path(self, tmp_path, capsys, where, key, value):
        d, path = every_level_dict(where, key, value)
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert err.value.path == path
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(d))
        assert main(["validate", str(bad)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value", [
        (("scene", "bodies", 0), "collide_with_hand", "false"),
        ((), "seed", 1.7),
        ((), "seed", True),
        ((), "schema_version", True),
        (("scene",), "solver_iterations", 2.9),
        (("coordinator",), "glove_period_ticks", 34.5),
        ((), "glove", 3),
        ((), "dock", []),
        (("glove",), "calibration", [1.0]),
        # Catalog names: a list or mapping is unhashable, so it must fail the
        # type check before the catalog lookup sees it.
        (("glove",), "model", ["dexmo"]),
        (("arms", 0), "model", {"name": "virtuose_6d"}),
        (("dock",), "joint_kind", ["plate_friction"]),
        # A calibration vector's own fault is reported at its own path.
        (("glove", "calibration"), "flex_min", [0.0] * 4),
        # Only a missing key or ``[]`` means no injected load.
        ((), "injected_load", 0),
        ((), "injected_load", False),
        ((), "injected_load", ""),
        ((), "injected_load", {}),
        ((), "injected_load", None),
    ])
    def test_loose_types_rejected_with_path(self, tmp_path, capsys, where, key, value):
        d, path = every_level_dict(where, key, value)
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert err.value.path == path
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(d))
        assert main(["validate", str(bad)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err

    # Every bounded field, each with a value just past its bound.
    @pytest.mark.parametrize("where, key, value, message", [
        ((), "seed", -1, "must be >= 0"),
        (("coordinator",), "duration_s", 0, "must be strictly positive"),
        (("coordinator",), "glove_period_ticks", 0, "must be >= 1"),
        (("coordinator",), "filter_cutoff_hz", -0.5, "must be >= 0.0"),
        (("arms", 0), "stiffness", 0.0, "must be strictly positive"),
        (("arms", 0), "pursuit_speed", -1.0, "must be strictly positive"),
        (("glove",), "spring_constant", -0.1, "must be >= 0.0"),
        (("dock",), "breaking_force_n", 0, "must be strictly positive"),
        (("dock",), "friction_mu", -0.1, "must be >= 0.0"),
        (("dock",), "contact_radius_m", 0.0, "must be strictly positive"),
        (("dock",), "pos_tol_m", 0.0, "must be strictly positive"),
        (("dock",), "ang_tol_deg", 0.0, "must be strictly positive"),
        (("dock",), "magnet_latency_s", -0.001, "must be >= 0.0"),
        (("dock",), "interception_horizon_s", -0.001, "must be >= 0.0"),
        (("dock",), "workspace_inflation_m", -0.001, "must be >= 0.0"),
        (("dock",), "release_slack_m", 0, "must be strictly positive"),
        (("dock",), "handover_gap_bound_s", 0.0, "must be strictly positive"),
        (("dock",), "reattach_cooldown_s", -1.0, "must be >= 0.0"),
        (("scene",), "surface_stiffness", 0.0, "must be strictly positive"),
        (("scene",), "solver_iterations", 0, "must be >= 1"),
        (("scene",), "slop", -1e-4, "must be >= 0.0"),
        (("scene", "bodies", 0), "mass", -1.0, "must be >= 0.0"),
        (("scene", "bodies", 0), "half_extents", [0.1, 0.0, 0.1], "must be strictly positive"),
        ((), "tracking_noise_std_m", -0.001, "must be >= 0.0"),
        ((), "oracle_noise_floor_n", -0.02, "must be >= 0.0"),
    ])
    def test_bound_rejected_with_path_and_message(self, where, key, value, message):
        d, path = every_level_dict(where, key, value)
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert (err.value.path, err.value.message) == (path, message)

    def test_track_timestamps_bounded_below_by_zero(self):
        d = minimal_dict()
        d["trajectory"]["wrist"] = [[-0.1, 0.0, 0.0, 0.0]]
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(d)
        assert (err.value.path, err.value.message) == ("$.trajectory.wrist[0][0]",
                                                       "must be >= 0.0")

    def test_zero_wrist_rotation_rejected(self):
        # So is a rotation whose squared norm overflows, which ``from_quat``
        # would scale to zero.
        for rotation in ([0.0, 0.0, 0.0, 0.0], [1e200, 1e200, 0.0, 0.0],
                         [1e155, 0.0, 0.0, 0.0]):
            d = minimal_dict()
            d["trajectory"]["wrist_rotation"] = rotation
            with pytest.raises(ConfigError) as err:
                scenario_from_dict(d)
            assert err.value.path == "$.trajectory.wrist_rotation"

    def test_glove_period_beyond_float_range_is_compared_exactly(self):
        d = minimal_dict(coordinator={"duration_s": 0.1, "glove_period_ticks": 10**400})
        assert scenario_from_dict(d).coordinator.glove_period_ticks == 10**400

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(minimal_dict(coordinator={"duration_s": 10**400}))
        assert err.value.path == "$.coordinator.duration_s"


def every_level_dict(where: tuple, key: str, value) -> tuple[dict, str]:
    """A valid config with every nested level present, plus ``key: value``
    set at ``where``; returns it with the field path of the added key."""
    d = minimal_dict(
        glove={"calibration": {}}, dock={},
        scene={"bodies": [{"name": "c", "kind": "dynamic",
                           "center": [0.0, 0.5, 0.0],
                           "half_extents": [0.1, 0.1, 0.1], "mass": 1.0}]})
    scenario_from_dict(d)
    node, path = d, "$"
    for step in where:
        node = node[step]
        path += f"[{step}]" if isinstance(step, int) else f".{step}"
    node[key] = value
    return d, f"{path}.{key}"


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(shipped_path("pursuit_static"))]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_missing_file_exit_2(self, capsys):
        assert main(["validate", "/nonexistent.yaml"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, culprit, prefix", [
        (("run", "dir"), "dir", "config error: $: "),
        (("run", "latin1"), "latin1", "config error: $: "),
        (("validate", "missing"), "missing", "config error: $: "),
        (("oracle", "missing", "windows"), "missing", "error: "),
        (("oracle", "latin1", "windows"), "latin1", "error: "),
        (("oracle", "log", "dir"), "dir", "config error: $: "),
    ], ids=["run-directory", "run-not-utf8", "validate-missing", "oracle-missing-log",
            "oracle-not-utf8-log", "oracle-directory-windows"])
    def test_unreadable_input_file_exit_2(self, tmp_path, capsys, argv, culprit, prefix):
        # A file that cannot be opened or decoded is reported at ``$`` (a
        # scenario or windows file) or as the log's path, never as a traceback.
        files = {name: tmp_path / name for name in ("dir", "latin1", "missing", "log",
                                                     "windows")}
        files["dir"].mkdir()
        files["latin1"].write_bytes("name: caf\xe9\n".encode("latin-1"))
        MetricLog({"record": "header", "scenario": "s", "condition": "free"}).write(
            files["log"])
        files["windows"].write_text("can_a: [0.0, 1.0]\n")
        assert main([argv[0], *(str(files[name]) for name in argv[1:])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{prefix}{files[culprit]}: ")
        assert captured.err.count("\n") == 1

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(minimal_dict(condition="warp")))
        assert main(["validate", str(bad)]) == 2
        assert "$.condition" in capsys.readouterr().err

    def test_run_writes_log_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run.ndjson"
        code = main(["run", str(shipped_path("pursuit_static")), "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "pursuit_static"
        assert out.exists()
        first = out.read_text().splitlines()[0]
        assert json.loads(first)["record"] == "header"

    def test_run_empty_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # An empty path is an error, not the default log name.
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(shipped_path("pursuit_static")), "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --out: expected a non-empty path\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (("run", "pursuit_static", "--out"), "--out"),
        (("capability", "handover_sweep", "--at", "0", "0", "0", "--json"), "--json"),
    ], ids=["run", "capability"])
    @pytest.mark.parametrize("target, message", [
        ("missing/x.out", "{parent} is not a directory"),
        ("file/x.out", "{parent} is not a directory"),
        ("dir", "is a directory"),
    ], ids=["missing-directory", "file-as-directory", "directory"])
    def test_output_path_checked_before_the_work(self, tmp_path, capsys, monkeypatch, argv,
                                                 flag, target, message):
        # A path that cannot be written is a config error at its flag, raised
        # before the scene is simulated or its capability composed, and
        # before anything is printed or written.
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        worked = []
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: worked.append(cfg))
        monkeypatch.setattr(cli, "_capability_of", lambda cfg: worked.append(cfg))
        path = tmp_path / target
        command, scene, *rest = argv
        assert main([command, str(shipped_path(scene)), *rest, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and worked == []
        assert captured.err == (f"config error: {flag}: {path}: "
                                f"{message.format(parent=path.parent)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["arms"][0].update(base_position=[1e308, 0, 0]),
         "$.arms[0].base_position"),
        (lambda d: d["arms"][0].update(workspace_center=[1e308, 0, 0]),
         "$.arms[0].workspace_center"),
        (lambda d: d["arms"][0].update(park_position=[1e307, 0, 0],
                                       workspace_extents=[1e308, 1e308, 1e308]),
         "$.arms[0].park_position"),
        (lambda d: d["trajectory"].update(wrist=[[0.0, 1e160, 0, 0]]), "$.trajectory.wrist"),
    ], ids=["base", "workspace-center", "park", "wrist"])
    def test_far_position_exit_2(self, tmp_path, capsys, edit, field):
        # A finite position whose squared distances overflow fails at load
        # with its path, before any tick.
        d = as_dict("pursuit_static")
        edit(d)
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(d))
        out = tmp_path / "x.ndjson"
        assert main(["run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"config error: {field}: must lie within 1e+09 m "
                                f"of the origin on each axis\n")

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        # PyYAML keeps a repeated key's last value; the loader rejects it.
        text = shipped_path("pursuit_static").read_text()
        assert "coordinator: {duration_s: 1.0}\n" in text
        path = tmp_path / "twice.yaml"
        path.write_text(text.replace("{duration_s: 1.0}", "{duration_s: 1.0, duration_s: 0.2}"))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: $: invalid YAML: ")
        assert "found repeated key 'duration_s'" in captured.err
        assert "line 5, column 32" in captured.err

    def test_divergence_exit_3(self, tmp_path, capsys):
        d = minimal_dict(scene={"bodies": [{
            "name": "runaway", "kind": "dynamic",
            "center": [0, 0, 0], "half_extents": [0.1, 0.1, 0.1],
            "mass": 1.0, "velocity": [0.0, 1.0e200, 0.0]}]})
        path = tmp_path / "diverge.yaml"
        path.write_text(yaml.safe_dump(d))
        assert main(["run", str(path), "--out", str(tmp_path / "x.ndjson")]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_capability_json(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        code = main(["capability", str(shipped_path("single_lift_force_feedback")),
                     "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["translation"]["boxes"][0]["extents_mm"] == [1330, 575, 1020]

    def test_shared_face_point_sums_both_arms_but_the_envelope_does_not(
            self, tmp_path, capsys):
        # Handover reach boxes touch at x = 0.665 m: the closed boxes both hold
        # the point, but they share no interior, so the envelope does not stack.
        out = tmp_path / "cap.json"
        code = main(["capability", str(shipped_path("handover_sweep")),
                     "--at", "0.665", "0", "0", "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "force (19.0, 19.0, 19.0) N, grounded=True, arms=['arm_a', 'arm_b']" in text
        assert json.loads(out.read_text())["force_envelope_n"] == [9.5, 9.5, 9.5]

    @pytest.mark.parametrize("at, message", [
        (("nan", "0", "0"), "--at[0]: must be finite"),
        (("0", "inf", "0"), "--at[1]: must be finite"),
        (("0", "0", "1e999"), "--at[2]: must be finite"),
        (("abc", "0", "0"), "--at[0]: expected a number, got 'abc'"),
    ])
    def test_capability_at_checked_like_a_scenario_field(self, capsys, at, message):
        code = main(["capability", str(shipped_path("handover_sweep")), "--at", *at])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_oracle_command(self, tmp_path, capsys):
        log = tmp_path / "log.ndjson"
        assert main(["run", str(shipped_path("pursuit_static")), "--out", str(log)]) == 0
        capsys.readouterr()
        windows = tmp_path / "win.yaml"
        windows.write_text(yaml.safe_dump({"any": [0.0, 0.5]}))
        # The pursuit scene has no cans: all means are below the floor.
        assert main(["oracle", str(log), str(windows)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "indistinguishable"

    @pytest.mark.parametrize("text, path", [
        ("can_a: 3\n", "$.can_a"),
        ("can_a: [1]\n", "$.can_a"),
        ("can_a: [a, b]\n", "$.can_a[0]"),
        ("can_a: [0.0, 1.0\n", "$"),
        ("can_a: [1.0, 0.5]\n", "$.can_a"),
        ("1: [0.0, 0.5]\n", "$.1"),
        ("can_a: [0.0, 0.5]\ncan_a: [0.0, 1.0]\n", "$"),
    ])
    def test_oracle_malformed_windows_exit_2(self, tmp_path, capsys, text, path):
        log = tmp_path / "log.ndjson"
        MetricLog({"record": "header", "scenario": "s", "condition": "free"}).write(log)
        windows = tmp_path / "win.yaml"
        windows.write_text(text)
        assert main(["oracle", str(log), str(windows)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize("records, message", [
        ([{"tick": 0}], "log record 0 has no field 't'"),
        ([{"t": 0.0, "arms": []}, {"t": 0.001}], "log record 1 has no field 'arms'"),
        ([{"t": 0.0, "arms": [{"name": "a"}]}], "log record 0 has no field 'rendered'"),
        ([{"t": 0.0, "arms": [{"rendered": [0.0]}]}], "log record 0 is malformed"),
        # One window above the noise floor has nothing to rank against.
        ([{"t": 0.0, "arms": [{"rendered": [0.0, -1.0, 0.0, 0.0, 0.0, 0.0]}]}],
         "ranking needs at least two lift windows"),
    ])
    def test_oracle_malformed_log_exit_2(self, tmp_path, capsys, records, message):
        log = MetricLog({"record": "header", "scenario": "s", "condition": "free"})
        for rec in records:
            log.append(rec)
        path = tmp_path / "log.ndjson"
        log.write(path)
        windows = tmp_path / "win.yaml"
        windows.write_text("can_a: [0.0, 1.0]\n")
        assert main(["oracle", str(path), str(windows)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("text, message", [
        ("5\n", "1: expected a JSON object, got int"),
        ("[1]\n", "1: expected a JSON object, got list"),
        ('{"record": "header"}\n{"t": 0.0, "arms"\n',
         "2: Expecting ':' delimiter: line 1 column 18 (char 17)"),
        # The blank line still counts.
        ('{"record": "header"}\n\n"tick"\n', "3: expected a JSON object, got str"),
        ('{"record": "tick"}\n', "1: first record is not a header"),
    ])
    def test_oracle_unreadable_log_names_its_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "log.ndjson"
        path.write_text(text)
        windows = tmp_path / "win.yaml"
        windows.write_text("can_a: [0.0, 1.0]\n")
        assert main(["oracle", str(path), str(windows)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{message}\n"

    @pytest.mark.parametrize("forces, floor, code, out, err", [
        ((0.0, -0.5), "0.02", 2, "",
         "error: window for 'can_a' ranks above another but its mean support "
         "force 0.0 N is not positive\n"),
        ((0.0, 0.0), "0", 0, '"verdict": "tie"', ""),
    ])
    def test_oracle_top_mean_at_zero(self, tmp_path, capsys, forces, floor, code,
                                     out, err):
        log = MetricLog({"record": "header", "scenario": "s", "condition": "free"})
        for t, force in zip((0.5, 1.5), forces):
            log.append({"t": t, "arms": [{"rendered": [0.0, -force, 0.0, 0.0, 0.0, 0.0]}]})
        path = tmp_path / "log.ndjson"
        log.write(path)
        windows = tmp_path / "win.yaml"
        windows.write_text("can_a: [0.0, 1.0]\ncan_b: [1.0, 2.0]\n")
        assert main(["oracle", str(path), str(windows), "--noise-floor", floor]) == code
        captured = capsys.readouterr()
        assert out in captured.out and captured.err == err

    @pytest.mark.parametrize("floor, message", [
        ("-1", "must be >= 0.0"),
        ("nan", "must be finite"),
        ("inf", "must be finite"),
        ("abc", "expected a number, got 'abc'"),
    ])
    def test_oracle_noise_floor_checked_like_the_scenario_field(
            self, tmp_path, capsys, floor, message):
        log = tmp_path / "log.ndjson"
        MetricLog({"record": "header", "scenario": "s", "condition": "free"}).write(log)
        windows = tmp_path / "win.yaml"
        windows.write_text("can_a: [0.0, 1.0]\ncan_b: [1.0, 2.0]\n")
        assert main(["oracle", str(log), str(windows), "--noise-floor", floor]) == 2
        assert capsys.readouterr().err == f"config error: --noise-floor: {message}\n"
