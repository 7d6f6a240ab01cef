"""Command-line harness: run scenarios, report capabilities, validate configs
and rank logged lifts.

Exit codes: 0 success, 2 config error, 3 simulation divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .capability import (DockLink, capability_at, capability_report,
                         capability_to_dict, compose_capability)
from .config import (ORACLE_NOISE_FLOOR_N, ConfigError, ScenarioConfig, lift_windows,
                     load_scenario, number_arg, read_yaml, scenario_field)
from .harness import MetricLog, run_scenario, summarize, weight_oracle
from .sim import SimulationDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _capability_of(cfg: ScenarioConfig):
    arms = [a.spec for a in cfg.arms]
    links = [DockLink(arm_index=i, glove_index=0, kind=cfg.dock.joint_kind,
                      breaking_force=cfg.dock.breaking_force,
                      friction_mu=cfg.dock.friction_mu)
             for i in range(len(arms))]
    return compose_capability(arms, [cfg.glove.spec], links,
                              arm_names=[a.name for a in cfg.arms])


def _output_path(value: str, flag: str) -> Path:
    """``value`` as the path of a file to write, checked before any work:
    not empty, not a directory, and in a directory that exists."""
    if value == "":
        raise ConfigError(flag, "expected a non-empty path")
    path = Path(value)
    if path.is_dir():
        raise ConfigError(flag, f"{value}: is a directory")
    if not path.parent.is_dir():
        raise ConfigError(flag, f"{value}: {path.parent} is not a directory")
    return path


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    out = _output_path(f"{cfg.name}.log.ndjson" if args.out is None else args.out, "--out")
    log = run_scenario(cfg)
    log.write(out)
    summary = summarize(log)
    summary["log"] = str(out)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_capability(args) -> int:
    point = None
    if args.at is not None:
        point = tuple(number_arg(v, f"--at[{i}]") for i, v in enumerate(args.at))
    out = None if args.json is None else _output_path(args.json, "--json")
    cfg = load_scenario(args.config)
    cap = _capability_of(cfg)
    print(capability_report(cap))
    if point is not None:
        pc = capability_at(cap, point)
        print(f"at {point}: force {pc.force} N, grounded={pc.grounded}, "
              f"arms={list(pc.reachable_by)}")
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(capability_to_dict(cap), fh, indent=2)
        print(f"wrote {args.json}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = load_scenario(args.config)
    print(f"OK: {args.config} is a valid scenario "
          f"({cfg.name}, condition={cfg.condition.value}, "
          f"{cfg.coordinator.ticks} ticks)")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    noise_floor = scenario_field("oracle_noise_floor_n",
                                 number_arg(args.noise_floor, "--noise-floor"), "--noise-floor")
    log = MetricLog.read(args.log)
    windows = lift_windows(read_yaml(args.windows), "$")
    result = weight_oracle(log, windows, noise_floor_n=noise_floor)
    print(json.dumps({
        "verdict": result.verdict,
        "order": list(result.order),
        "mean_force_n": result.mean_force,
        "confidence": result.confidence,
        "ties": [list(t) for t in result.ties],
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapdock",
        description="Deterministic simulator for dockable hybrid haptic workspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write its metric log")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--out", help="log output path (default <name>.log.ndjson)")
    p_run.set_defaults(func=_cmd_run)

    p_cap = sub.add_parser("capability", help="report the hybrid capability of a config")
    p_cap.add_argument("config", help="scenario YAML file")
    p_cap.add_argument("--json", help="also write a machine-readable report")
    p_cap.add_argument("--at", nargs=3, metavar=("X", "Y", "Z"),
                       help="query the pointwise envelope at a world position")
    p_cap.set_defaults(func=_cmd_capability)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("config", help="scenario YAML file")
    p_val.set_defaults(func=_cmd_validate)

    p_orc = sub.add_parser("oracle", help="rank lifted weights from a metric log")
    p_orc.add_argument("log", help="metric log (ndjson)")
    p_orc.add_argument("windows", help="YAML/JSON file mapping body -> [t0, t1]")
    p_orc.add_argument("--noise-floor", default=ORACLE_NOISE_FLOOR_N,
                       help="force gap below which cans are indistinguishable (N)")
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationDiverged as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
