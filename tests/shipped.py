"""The shipped scenes: `scenarios/*.yaml` is their only definition."""

import time
from collections import Counter
from pathlib import Path

import yaml

from hapdock import harness, sim
from hapdock.config import ScenarioConfig, load_scenario
from hapdock.harness import MetricLog, run_scenario

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = tuple(sorted(p.stem for p in SCENARIOS_DIR.glob("*.yaml")))


def path(name: str) -> Path:
    return SCENARIOS_DIR / f"{name}.yaml"


def as_dict(name: str) -> dict:
    """A fresh config mapping of the scene, safe to edit."""
    with open(path(name), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def build(name: str) -> ScenarioConfig:
    return load_scenario(path(name))


# One run per scene for the whole test session: the acceptance criteria read
# it, the golden tests hash it, and AC8 compares a fresh second run with it.
_CACHE: dict[str, MetricLog] = {}
RUNTIME: dict[str, float] = {}   # seconds the cached run took
# Physics steps of the cached run that collected contacts, i.e. that were
# not a repeat of the world's last fixed point.
FULL_STEPS: dict[str, int] = {}
# Hand-layer work of the cached run: calls of ``glove_apply``,
# ``hand_collider_spheres`` and ``World.move_hand``, and calls of
# ``hand_forward_model`` and its memo misses (the calls that returned
# another ``HandState`` object than the call before: the sensed fingers
# moved; a wrist that moves alone is no miss).
HAND_CALLS: dict[str, Counter] = {}


def cached_run(name: str) -> MetricLog:
    if name not in _CACHE:
        reached = []
        full = 0
        calls = Counter()
        forward = [None]

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        def counting_collect(world):
            reached.append(True)
            return collect(world)

        def counting_step(world, dt):
            nonlocal full
            reached.clear()
            out = step(world, dt)
            full += bool(reached)
            return out

        def counting_forward(*args):
            hand = model(*args)
            calls["hand_forward_model"] += 1
            calls["forward_model_misses"] += hand is not forward[0]
            forward[0] = hand
            return hand

        collect, step, model = sim._collect_contacts, harness.step_world, harness.hand_forward_model
        patches = [(sim, "_collect_contacts", counting_collect),
                   (harness, "step_world", counting_step),
                   (harness, "hand_forward_model", counting_forward),
                   (sim.World, "move_hand", counting("move_hand", sim.World.move_hand))]
        patches += [(harness, key, counting(key, getattr(harness, key)))
                    for key in ("glove_apply", "hand_collider_spheres")]
        originals = [(owner, key, getattr(owner, key)) for owner, key, _ in patches]
        for owner, key, wrapper in patches:
            setattr(owner, key, wrapper)
        try:
            t0 = time.perf_counter()
            _CACHE[name] = run_scenario(build(name))
            RUNTIME[name] = time.perf_counter() - t0
        finally:
            for owner, key, original in originals:
                setattr(owner, key, original)
        FULL_STEPS[name] = full
        HAND_CALLS[name] = calls
    return _CACHE[name]
