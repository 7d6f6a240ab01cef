"""The shipped scenes: `scenarios/*.yaml` is their only definition."""

import time
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


def cached_run(name: str) -> MetricLog:
    if name not in _CACHE:
        collect, step = sim._collect_contacts, harness.step_world
        reached = []
        full = 0

        def counting_collect(world):
            reached.append(True)
            return collect(world)

        def counting_step(world, dt):
            nonlocal full
            reached.clear()
            out = step(world, dt)
            full += bool(reached)
            return out

        sim._collect_contacts, harness.step_world = counting_collect, counting_step
        try:
            t0 = time.perf_counter()
            _CACHE[name] = run_scenario(build(name))
            RUNTIME[name] = time.perf_counter() - t0
        finally:
            sim._collect_contacts, harness.step_world = collect, step
        FULL_STEPS[name] = full
    return _CACHE[name]
