"""Replay benchmark for hapdock.

    python3 perfbench/run.py --workload lift --seed 0 --seconds 20 --trace 0

Workloads: lift, handover and squeeze replay a seeded variant of a shipped
scenario tick by tick; envelope composes multi-arm capabilities and answers
point queries. `--trace 0` prints the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer split. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Lines before it give
the run's metadata and a readable report. See README.md beside this file.
"""

from __future__ import annotations

import os

# Cap numpy's thread pools before anything imports numpy, here and in every
# set-up probe this process starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import envelope  # noqa: E402
import generate  # noqa: E402
import program  # noqa: E402
import speed  # noqa: E402
import ticks  # noqa: E402
from tracer import TICK_CALLS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = program.ROOT
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("lift", "handover", "squeeze", "envelope")
SETUP_REPEATS = 7
MIN_REPEATS = 5                  # replays (or passes) a timing run makes at least
COMPOSE_REPEATS = 200            # scenario capability compositions per replay
ARM_COUNTS = range(1, 15)        # compose_capability spans are named per arm count


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Attempt and failure counts plus what the report prints."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.report: list[tuple[str, float, str]] = []
        self.findings: dict = {}

    def attempt(self, fn, *args):
        """Call fn; a raise counts as a failed attempt and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # any failure of the program under test is a failed replay
            self.failed += 1
            print(f"perfbench: {self.workload} attempt {self.attempted} failed:",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def measure_setup(workload: str, seed: int, scenario: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to the probe's `ready` line,
    at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        k = speed.scale()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
             str(scenario)], stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode} without ready")
        times.append((t1 - t0) * k)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tick workloads -------------------------------------------------------


def _tick_replay(hd, run: Run, path: Path, state: dict, tracer=None) -> dict:
    """Replay plus its checks and the scenario's capability compositions."""
    out = ticks.replay(hd, path, calibrate=tracer is None,
                       after_loop=tracer.close_ticks if tracer else None)
    run.findings.update(ticks.check(run.workload, run.seed, out, state.get("digest")))
    state.setdefault("digest", out["digest"])
    del out["log"]
    gc.collect()
    k = speed.scale()
    compose = []
    for _ in range(COMPOSE_REPEATS):
        t0 = perf_counter_ns()
        ticks.compose_scenario(hd, out["cfg"])
        compose.append((perf_counter_ns() - t0) * k)
    out["compose_ns"] = compose
    out["tick_ns"] = array("d", out["tick_ns"])
    out["loop_s"] = sum(out["tick_ns"]) / 1e9
    return out


def profiles(samples: list) -> tuple[list, list]:
    """Each item's (a tick's, a query's) median and second-fastest time over
    the first MIN_REPEATS repetitions. The p50 comes from the medians, the
    p99 from the second-fastest times: a stall that hits an item in up to
    three of five repetitions drops out, and so does one repetition that ran
    it luckily fast, while work that every repetition does stays. A fixed
    count keeps both comparable between runs that fit different numbers of
    repetitions."""
    cols = [sorted(c) for c in zip(*samples[:MIN_REPEATS])]
    return [statistics.median(c) for c in cols], [c[min(1, len(c) - 1)] for c in cols]


def _tick_layers(tracer: Tracer, out: dict) -> dict:
    """Per-layer metrics of one traced replay."""
    layers = scaled_layers(tracer, out["scale"])
    n = out["ticks"]

    def row(name):
        return layers.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    def per_call(name, scale):
        r = row(name)
        return r["ns"] / r["calls"] / scale if r["calls"] else 0.0

    m = {f"{layer}.{attr}.us_per_tick": row(f"{layer}.{attr}")["ns"] / n / 1e3
         for attr, layer in TICK_CALLS.items()}
    for name in ("devices.arm_step", "docking.dock_step", "docking.try_attach",
                 "routing.contact_drum_param"):
        m[f"{name}.calls"] = row(name)["calls"]
    attach = row("docking.try_attach")["calls"]
    drum = row("routing.contact_drum_param")["calls"]
    m["docking.try_attach.success_ratio"] = (
        tracer.hits["docking.try_attach"] / attach if attach else 0.0)
    m["routing.contact_drum_param.engaged_ratio"] = (
        tracer.hits["routing.contact_drum_param"] / drum if drum else 0.0)
    m["routing.contact_drum_param.us_per_call"] = per_call("routing.contact_drum_param", 1e3)
    m["sim.impulses_per_tick"] = tracer.counts["sim.impulses"] / n
    m["sim.hand_impulses_per_tick"] = tracer.counts["sim.hand_impulses"] / n
    m["devices.workspace_box.calls"] = tracer.counts["devices.workspace_box"]
    m["frames.compose.calls_per_tick"] = tracer.counts["frames.compose"] / n
    m["harness.tick.us"] = row("harness.tick")["ns"] / n / 1e3
    m["harness.tick.self_us"] = row("harness.tick")["self_ns"] / n / 1e3
    m["harness.to_bytes.ms"] = per_call("harness.to_bytes", 1e6)
    m["harness.log_bytes"] = out["log_bytes"]
    m["harness.weight_oracle.ms"] = per_call("harness.weight_oracle", 1e6)
    m["config.load_scenario.ms"] = per_call("config.load_scenario", 1e6)
    m.update(_common_layers(tracer, layers, out["scale"]))
    return m


def scaled_layers(tracer: Tracer, k: float) -> dict:
    """The tracer's layer times at reference speed, with the replay's scale k."""
    return {name: {"calls": r["calls"], "ns": r["ns"] * k, "self_ns": r["self_ns"] * k}
            for name, r in tracer.layer_times().items()}


def _common_layers(tracer: Tracer, layers: dict, k: float) -> dict:
    m = {"harness.gc_pause_ms": sum(tracer.gc_pauses) * k / 1e6,
         "harness.gc_gen2_collections": tracer.gc_gen2}
    for n in ARM_COUNTS:
        r = layers.get(f"capability.compose_capability.n{n}")
        m[f"capability.compose_capability.ms.n{n}"] = r["ns"] / r["calls"] / 1e6 if r else 0.0
    for name, key in (("capability.capability_at", "capability.capability_at.us"),
                      ("frames.correction_chain", "frames.correction_chain.us")):
        r = layers.get(name)
        m[key] = r["ns"] / r["calls"] / 1e3 if r else 0.0
    return m


def repeat(hd, run: Run, seconds: float, trace: bool, once, layers):
    """Call once(tracer) until `seconds` run out, and at least MIN_REPEATS
    times untraced. With --trace 1, a warm-up attempt comes first and each
    round makes one untraced and one traced attempt. Returns both kinds of
    output and the per-layer rows layers(tracer, out) of the traced ones."""
    plain, traced, rows = [], [], []
    deadline = perf_counter() + seconds
    minimum = 1 if trace else MIN_REPEATS
    if trace:
        # The first attempt in a process runs slower (the heap grows), which
        # would bias the overhead of a one-round run; it is checked, not used.
        run.attempt(once, None)
    while True:
        t0 = perf_counter()
        out = run.attempt(once, None)
        if out is not None:
            plain.append(out)
        if trace:
            tracer = Tracer()
            tracer.install(hd)
            try:
                out = run.attempt(once, tracer)
            finally:
                tracer.uninstall()
            if tracer.leftovers():
                raise RuntimeError(f"tracer left bindings wrapped: {tracer.leftovers()}")
            if out is not None:
                traced.append(out)
                rows.append(layers(tracer, out))
                tracer.write_spans(OUT_DIR / f"spans-{run.workload}-seed{run.seed}.ndjson")
        if run.attempted >= minimum and perf_counter() + (perf_counter() - t0) > deadline:
            return plain, traced, rows


def overhead_pct(plain: list, traced: list, key: str) -> float:
    """Median over rounds of traced against untraced host time, in percent.
    The two attempts of a round run back to back, so a slow phase of the
    host mostly hits both."""
    return 100.0 * (statistics.median(t[key] / p[key] for p, t in zip(plain, traced)) - 1.0)


def _layer_medians(rows: list) -> dict:
    return {k: statistics.median([row[k] for row in rows]) for k in rows[0]}


def run_ticks(hd, run: Run, seconds: float, trace: bool) -> dict:
    shipped = (ROOT / "scenarios" / f"{generate.SCENARIOS[run.workload]}.yaml").read_bytes()
    path = OUT_DIR / f"{run.workload}-seed{run.seed}.yaml"
    hd.config.dump_scenario_yaml(generate.scenario_dict(run.workload, shipped, run.seed), path)
    if run.seed == generate.DEFAULT_SEED and path.read_bytes() != shipped:
        run.attempted += 1
        run.failed += 1
        print("perfbench: default-seed scenario differs from the shipped YAML",
              file=sys.stderr)

    setup = [] if trace else measure_setup(run.workload, run.seed, path)
    state: dict = {}
    plain, traced, rows = repeat(
        hd, run, seconds, trace,
        lambda tracer: _tick_replay(hd, run, path, state, tracer), _tick_layers)
    if not plain or (trace and not traced):
        return {}
    if trace:
        m = _layer_medians(rows)
        m["trace.overhead_pct"] = overhead_pct(plain, traced, "raw_loop_ns")
        return m

    medians, second = profiles([o["tick_ns"] for o in plain])
    metrics = {
        "ops_per_s": statistics.median([o["ticks"] / o["loop_s"] for o in plain]),
        "op_us_p50": statistics.median(medians) / 1e3,
        "op_us_p99": _percentile(second, 0.99) / 1e3,
        "replay_s": statistics.median([(o["pre_ns"] + o["post_ns"]) / 1e9 + o["loop_s"] for o in plain]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "compose_ms": statistics.median([t for o in plain for t in o["compose_ns"]]) / 1e6,
    }
    dt = plain[0]["cfg"].coordinator.dt
    run.report += [
        ("host_speed", statistics.median([o["scale"] for o in plain]), "x reference (see speed.py)"),
        ("realtime_x", metrics["ops_per_s"] * dt, f"x (median of {len(plain)} replays)"),
        ("tick_us_p50", metrics["op_us_p50"],
         f"us (each tick's median over {min(len(plain), MIN_REPEATS)} replays)"),
        ("tick_us_p99", metrics["op_us_p99"],
         f"us (each tick's second-fastest of {min(len(plain), MIN_REPEATS)}; "
         f"{len(second)} ticks)"),
        ("replay_s", metrics["replay_s"], "s"),
        ("setup_s", metrics["setup_s"], f"s (median of {len(setup)} processes)"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("error_rate", run.failed / max(run.attempted, 1), "ratio"),
        ("compose_ms", metrics["compose_ms"], "ms (the scenario's own arms)"),
    ]
    if "fidelity_err_pct" in run.findings:
        run.report.append(("fidelity_err_pct", run.findings["fidelity_err_pct"], "%"))
    return metrics


# -- envelope -------------------------------------------------------------


def _envelope_pass(hd, prep: dict, tracer) -> dict:
    """One pass, with its query times packed and its totals."""
    out = envelope.run_pass(hd, prep, calibrate=tracer is None)
    query_ns = out["query_ns"] = array("d", out["query_ns"])
    out["queries_per_s"] = len(query_ns) / (sum(query_ns) / 1e9)
    out["pass_s"] = (sum(out["compose_ns"]) + sum(query_ns) + sum(out.pop("chain_ns"))) / 1e9
    return out


def run_envelope(hd, run: Run, seconds: float, trace: bool) -> dict:
    setup = [] if trace else measure_setup(run.workload, run.seed, Path("-"))
    prep = envelope.prepare(hd, run.seed)
    plain, traced, rows = repeat(
        hd, run, seconds, trace, lambda tracer: _envelope_pass(hd, prep, tracer),
        lambda tracer, out: _common_layers(
            tracer, scaled_layers(tracer, out["scale"]), out["scale"]))
    if not plain or (trace and not traced):
        return {}
    if trace:
        m = _layer_medians(rows)
        m["trace.overhead_pct"] = overhead_pct(plain, traced, "raw_ns")
        return m

    compose_ns = [t for o in plain for t in o["compose_ns"]]
    medians, second = profiles([o["query_ns"] for o in plain])
    metrics = {
        "ops_per_s": statistics.median([o["queries_per_s"] for o in plain]),
        "op_us_p50": statistics.median(medians) / 1e3,
        "op_us_p99": _percentile(second, 0.99) / 1e3,
        "replay_s": statistics.median([o["pass_s"] for o in plain]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "compose_ms": statistics.median(compose_ns) / 1e6,
    }
    run.report += [
        ("host_speed", statistics.median([o["scale"] for o in plain]), "x reference (see speed.py)"),
        ("compose_ms", metrics["compose_ms"],
         f"ms (median of {len(compose_ns)} compositions, 2-14 arms, {len(plain)} passes)"),
        ("queries_per_s", metrics["ops_per_s"], "1/s"),
        ("query_us_p50", metrics["op_us_p50"],
         f"us (each query's median over {min(len(plain), MIN_REPEATS)} passes)"),
        ("query_us_p99", metrics["op_us_p99"],
         f"us (each query's second-fastest of {min(len(plain), MIN_REPEATS)}; "
         f"{len(second)} queries)"),
        ("replay_s", metrics["replay_s"], "s per pass"),
        ("setup_s", metrics["setup_s"], f"s (median of {len(setup)} processes)"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("error_rate", run.failed / max(run.attempted, 1), "ratio"),
    ]
    return metrics


# -- entry point -----------------------------------------------------------


def metadata(args) -> dict:
    import numpy
    src = sorted((program.SRC / "hapdock").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_sha": sha,
        "src_sha256": digest, "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=generate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        hd = program.load()
    except program.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    runner = run_envelope if args.workload == "envelope" else run_ticks
    values = runner(hd, run, args.seconds, bool(args.trace))
    if not values:                     # nothing completed: correct is false
        values = dict.fromkeys(wanted, 0.0)
    elif args.trace and args.workload == "envelope":
        # The tick-loop layers are never called on this workload.
        values = {**dict.fromkeys(wanted, 0.0), **values}
    if set(values) != set(wanted):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(wanted))} do not match "
                           f"BENCHMARK.json")
    meta = metadata(args)
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": wanted[k]} for k in wanted},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "report": run.report, "findings": run.findings,
                    **result}, indent=2))
    print("# meta " + json.dumps(meta))
    for name, value, unit in run.report:
        print(f"# {args.workload:9s} {name:18s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
