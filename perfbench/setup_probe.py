"""Set-up probe: what a fresh process pays before its first tick.

    python3 perfbench/setup_probe.py <workload> <seed> <scenario.yaml>

Imports hapdock, then loads and validates the scenario and constructs the
`Coordinator` (for the envelope workload: builds the arm layouts, query
points and chains), prints `ready` and exits. `run.py` times it from spawn
to that line.
"""

import sys

import program

workload, seed, scenario = sys.argv[1], int(sys.argv[2]), sys.argv[3]
hd = program.load()
if workload == "envelope":
    import envelope
    envelope.prepare(hd, seed)
else:
    hd.harness.Coordinator(hd.config.load_scenario(scenario))
print("ready", flush=True)
