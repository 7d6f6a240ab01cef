"""Spans around hapdock's public functions, recorded from outside the package.

`Tracer.install` rebinds module attributes (and a few class methods) to thin
wrappers and `Tracer.uninstall` puts the originals back. A span records its
name, start, end, parent span and tick. A tick is the interval between
successive entries into the harness's first per-tick call,
`hand_forward_model`, so every span started inside it carries its index.
Spans stay in memory until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import gc
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

# Functions that hapdock.harness imports and calls inside the tick loop,
# with the layer (hapdock module) each belongs to.
TICK_CALLS = {
    "hand_forward_model": "devices", "glove_apply": "devices",
    "hand_collider_spheres": "devices", "arm_step": "devices",
    "step_world": "sim", "route_forces": "routing", "contact_drum_param": "routing",
    "dock_step": "docking", "joint_transmit": "docking", "pursue": "docking",
    "try_attach": "docking",
}
TICK_ENTRY = "hand_forward_model"


def current(owner, attr: str):
    """What `owner.attr` is bound to; for a class, its own dict entry."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        # One entry per span, in order of entry. Flat arrays keep the spans
        # out of the garbage collector's way.
        self.names: list[str] = []
        self.starts, self.ends = array("q"), array("q")
        self.parents, self.ticks = array("q"), array("q")
        self.tick_starts = array("q")
        self.tick_end = 0
        self._tick = [-1]                    # index of the open tick, -1 outside
        self.counts: Counter = Counter()     # calls of count-only bindings
        self.hits: Counter = Counter()       # useful outcomes per span name
        self.gc_pauses: list[int] = []
        self.gc_gen2 = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, *, outcome=None, namer=None, tick_entry=False):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ticks, tick_starts = self.parents, self.ticks, self.tick_starts
        stack, hits, tick = self._stack, self.hits, self._tick
        ns = perf_counter_ns

        def wrapper(*args, **kwargs):
            if tick_entry and not stack:
                tick[0] = len(tick_starts)
                tick_starts.append(ns())
            label = namer(args) if namer else name
            idx = len(names)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            ticks.append(tick[0])
            ends.append(0)
            stack.append(idx)
            starts.append(ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = ns()
                stack.pop()
            if outcome is not None:
                hits[label] += outcome(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        """Count calls made while a tick is open; no span."""
        counts, tick = self.counts, self._tick

        def wrapper(*args, **kwargs):
            if tick[0] >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = current(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pauses.append(perf_counter_ns() - self._gc_start)
            self.gc_gen2 += info["generation"] == 2

    # -- install / uninstall --------------------------------------------

    def install(self, hd) -> None:
        """Wrap the bindings of the `hapdock` package given as `hd`."""
        harness = hd.harness
        outcomes = {
            "contact_drum_param": lambda stop: stop < 1.0,
            "try_attach": lambda joint: joint is not None,
            "step_world": self._count_impulses,
        }
        for attr, layer in TICK_CALLS.items():
            self._patch(harness, attr, self._span(
                f"{layer}.{attr}", getattr(harness, attr), outcome=outcomes.get(attr),
                tick_entry=attr == TICK_ENTRY))
        self._patch(hd.config, "load_scenario",
                    self._span("config.load_scenario", hd.config.load_scenario))
        self._patch(harness, "weight_oracle",
                    self._span("harness.weight_oracle", harness.weight_oracle))
        self._patch(harness.MetricLog, "to_bytes",
                    self._span("harness.to_bytes", harness.MetricLog.to_bytes))
        self._patch(hd.capability, "compose_capability", self._span(
            "", hd.capability.compose_capability,
            namer=lambda args: f"capability.compose_capability.n{len(args[0])}"))
        self._patch(hd.capability, "capability_at",
                    self._span("capability.capability_at", hd.capability.capability_at))
        self._patch(hd.frames, "correction_chain",
                    self._span("frames.correction_chain", hd.frames.correction_chain))
        spec = hd.devices.ArmSpec
        for attr in ("workspace_box_base", "workspace_box_world"):
            self._patch(spec, attr, self._counter("devices.workspace_box",
                                                  spec.__dict__[attr]))
        rt = hd.frames.RigidTransform
        self._patch(rt, "compose", self._counter("frames.compose", rt.__dict__["compose"]))
        gc.callbacks.append(self._on_gc)

    def _count_impulses(self, result) -> int:
        """Tally the impulses a `step_world` call returns."""
        impulses = result[1]
        self.counts["sim.impulses"] += len(impulses)
        self.counts["sim.hand_impulses"] += sum(
            1 for imp in impulses if imp.hand_collider is not None)
        return 0

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original object) of every binding `install` replaced."""
        return list(self._patches)

    def leftovers(self) -> list[str]:
        """Bindings that do not hold their original object (empty once uninstalled)."""
        return [f"{owner.__name__}.{attr}" for owner, attr, original in self._patches
                if current(owner, attr) is not original]

    def close_ticks(self) -> None:
        """End the last tick; spans started later belong to no tick."""
        self.tick_end = perf_counter_ns()
        self._tick[0] = -1

    # -- aggregation ----------------------------------------------------

    def layer_times(self) -> dict:
        """Per span name: calls, total ns and self ns; plus the tick totals.

        A tick's self time is its length minus the spans started directly
        inside it.
        """
        out: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_ns = [0] * len(durations)
        tick_child_ns = [0] * len(self.tick_starts)
        for dur, parent, tick in zip(durations, self.parents, self.ticks):
            if parent >= 0:
                child_ns[parent] += dur
            elif tick >= 0:
                tick_child_ns[tick] += dur
        for name, dur, child in zip(self.names, durations, child_ns):
            row = out[name]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child
        tick_ns = self.tick_end - self.tick_starts[0] if self.tick_starts else 0
        out["harness.tick"] = {"calls": len(self.tick_starts), "ns": tick_ns,
                               "self_ns": tick_ns - sum(tick_child_ns)}
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON array per line: [name, start_ns, end_ns, parent, tick]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.ticks):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
