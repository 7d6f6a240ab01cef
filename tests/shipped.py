"""The shipped scenes: `scenarios/*.yaml` is their only definition."""

import time
from pathlib import Path

import yaml

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


def cached_run(name: str) -> MetricLog:
    if name not in _CACHE:
        t0 = time.perf_counter()
        _CACHE[name] = run_scenario(build(name))
        RUNTIME[name] = time.perf_counter() - t0
    return _CACHE[name]
