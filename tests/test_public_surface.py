import ast
import dataclasses
import inspect
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hapdock
from hapdock import devices, docking, geometry, harness, routing, sim
from shipped import as_dict, build

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in hapdock.__all__ if not hasattr(hapdock, name)]
    assert missing == []
    assert len(set(hapdock.__all__)) == len(hapdock.__all__)


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def test_runtime_path_leaves_numpy_unimported():
    # numpy is a test and benchmark dependency only.
    imported = _python("-c", "import sys, hapdock; print('numpy' in sys.modules)")
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == "False"

    # -X importtime lists every module the command imports, one per line.
    validate = _python("-X", "importtime", "-m", "hapdock", "validate",
                       "scenarios/single_lift_force_feedback.yaml")
    assert validate.returncode == 0, validate.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in validate.stderr.splitlines()
               if line.startswith("import time:")]
    assert "hapdock.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []


def _tracer_constant(name: str):
    """A literal assigned at the top level of ``perfbench/tracer.py``, read
    without importing or running the file."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py assigns no {name}")


def test_perfbench_traced_calls_are_harness_attributes():
    # The tracer rebinds these names on hapdock.harness; a missing one
    # fails the benchmark's set-up, not a test.
    calls = _tracer_constant("TICK_CALLS")
    assert calls
    assert [name for name in calls if not hasattr(harness, name)] == []
    assert _tracer_constant("TICK_ENTRY") == "hand_forward_model"


def test_harness_calls_each_traced_name_by_that_name():
    # The tracer's wrapper on a harness attribute sees only the calls that
    # look that name up in the module: a call through another module, an
    # alias or an attribute would hide its layer from ``--trace 1`` without
    # an error. Read from the source, as nothing needs to run.
    calls = _tracer_constant("TICK_CALLS")
    tree = ast.parse((ROOT / "src" / "hapdock" / "harness.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.asname is None}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert sorted(set(calls) - imported) == []
    assert sorted(set(calls) - called) == []


def test_hand_forward_model_marks_each_tick_once(monkeypatch):
    # perfbench/ticks.py times a tick from one harness.hand_forward_model
    # call to the next.
    calls = []
    original = harness.hand_forward_model

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "hand_forward_model", counting)
    cfg = build("single_lift_force_feedback")
    cfg = dataclasses.replace(
        cfg, coordinator=dataclasses.replace(cfg.coordinator, duration_s=0.2))
    log = harness.run_scenario(cfg)
    assert len(log.records) == cfg.coordinator.ticks == 200
    assert len(calls) == 200


def test_perfbench_hooks_see_every_tick_call(monkeypatch):
    # The tracer wraps each TICK_CALLS name on hapdock.harness, so the
    # coordinator must look each one up through the module when it calls it.
    calls = _tracer_constant("TICK_CALLS")
    entered: list[str] = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            entered.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    seen = set()
    for scene, duration, hand_bodies in (("single_lift_force_feedback", 0.05, True),
                                         ("handover_sweep", 0.5, False)):
        raw = as_dict(scene)
        raw["coordinator"] = {**raw["coordinator"], "duration_s": duration}
        coord = harness.Coordinator(hapdock.config.scenario_from_dict(raw))
        hand_bits = None
        for tick in range(coord.cfg.coordinator.ticks):
            entered.clear()
            coord._tick(tick)
            counts = Counter(entered)
            assert counts["hand_forward_model"] == 1, (scene, tick)
            # A still hand is not moved again; a hand whose logged wrist or
            # flex bits changed is.
            rec = coord.log.records[-1]
            bits = struct.pack("<8d", *rec["wrist"], *rec["flex"])
            moved = hand_bodies and bits != hand_bits
            assert counts["hand_collider_spheres"] <= hand_bodies, (scene, tick)
            assert counts["hand_collider_spheres"] >= moved, (scene, tick)
            hand_bits = bits
            seen.update(counts)
    assert sorted(set(calls) - seen) == []


def test_the_tick_length_is_one_constant():
    # The coordinator has one tick rate, so no function takes the tick
    # length; perfbench still reads it as ``CoordinatorConfig.dt``.
    ticked = (devices.arm_step, docking.pursue, sim.step_world, sim.World.move_hand,
              routing.route_forces, routing.LowPassFilter)
    assert [f.__qualname__ for f in ticked
            if "dt" in inspect.signature(f).parameters] == []
    dt = hapdock.config.CoordinatorConfig(duration_s=1.0).dt
    assert struct.pack("<d", dt) == struct.pack("<d", geometry.DT)
    assert geometry.DT == 1.0 / geometry.TICK_RATE_HZ


def test_no_process_wide_state():
    # A run's state belongs to its Coordinator: a module-level memo would be
    # shared by every run in the process. So no module declares a
    # ``global`` and no function is cached by ``functools``.
    cached = {"cache", "lru_cache", "cached_property"}
    found = []
    for path in sorted((ROOT / "src" / "hapdock").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global")
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in cached:
                    found.append(f"{path.name}:{dec.lineno}: {name}")
    assert found == []
