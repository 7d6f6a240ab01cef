"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload in smoke mode (one replay or pass) with `--trace 0`
   and `--trace 1`, and checks that the result line is correct and carries
   exactly the metrics of BENCHMARK.json, each with its unit.
2. In this process: a traced squeeze replay wraps every binding the tracer
   names, and uninstalling restores each one. An untraced replay afterwards
   records no span, count or GC callback. The traced tick splits into child
   layers plus harness self time.
3. The interaction table names every per-layer metric, and only known
   end-to-end metrics and workloads.
4. In a directory that holds only BENCHMARK.json and this benchmark, run.py
   exits with an error and prints no result.

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys

import program
import run as bench
import ticks
from tracer import TICK_CALLS, Tracer, current

ROOT = program.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "0.1"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def smoke_runs() -> None:
    for workload in bench.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} trace={trace}: no result line "
                              f"(exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, {result['attempted']} attempted")
            expect(got == want and numbers,
                   f"{workload} trace={trace}: every metric printed with name and unit")
            expect(any(line.startswith("# meta ") for line in lines),
                   f"{workload} trace={trace}: metadata line printed")


def in_process_tracing() -> None:
    hd = program.load()
    shipped = (ROOT / "scenarios" / "squeeze_cancellation.yaml").read_bytes()
    bench.OUT_DIR.mkdir(exist_ok=True)
    path = bench.OUT_DIR / "selftest-squeeze.yaml"
    path.write_bytes(shipped)
    callbacks_before = list(gc.callbacks)

    tracer = Tracer()
    tracer.install(hd)
    try:
        wrapped = all(current(o, a) is not orig for o, a, orig in tracer.patched())
        out = ticks.replay(hd, path, calibrate=False, after_loop=tracer.close_ticks)
    finally:
        tracer.uninstall()
    names = {f"{o.__name__}.{a}" for o, a, _ in tracer.patched()}
    wanted = {f"hapdock.harness.{a}" for a in TICK_CALLS} | {
        "hapdock.config.load_scenario", "hapdock.harness.weight_oracle",
        "MetricLog.to_bytes", "hapdock.capability.compose_capability",
        "hapdock.capability.capability_at", "hapdock.frames.correction_chain",
        "ArmSpec.workspace_box_base", "ArmSpec.workspace_box_world",
        "RigidTransform.compose"}
    expect(wrapped and wanted <= names, "tracer wraps every named binding")
    expect(not tracer.leftovers()
           and all(current(o, a) is orig for o, a, orig in tracer.patched()),
           "uninstall restores every wrapped binding")
    expect(gc.callbacks == callbacks_before, "GC callback removed")

    layers = tracer.layer_times()
    tick = layers["harness.tick"]
    children = sum(layers.get(f"{layer}.{attr}", {"ns": 0})["ns"]
                   for attr, layer in TICK_CALLS.items())
    expect(tick["calls"] == out["ticks"], f"{tick['calls']} traced ticks")
    expect(abs(children + tick["self_ns"] - tick["ns"]) <= 1e-6 * tick["ns"],
           "children + harness self time account for the traced tick time")

    spans, counts = len(tracer.names), dict(tracer.counts)
    ticks.replay(hd, path)
    expect(len(tracer.names) == spans and dict(tracer.counts) == counts,
           "an untraced replay after tracing records nothing")


def interaction_table() -> None:
    table = json.loads((bench.BENCH_DIR / "interactions.json").read_text())["interactions"]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    expect(sorted(r["metric"] for r in table) == sorted(m["name"] for m in SPEC["per_layer"]),
           "interaction table lists every per-layer metric once")
    expect(all(set(r["moves"]) <= e2e and set(r["on"] + r["no_change_on"]) <= workloads
               for r in table), "interaction table names known metrics and workloads")


def bare_directory() -> None:
    bare = bench.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lift",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ run.py exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    in_process_tracing()
    interaction_table()
    bare_directory()
    smoke_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
