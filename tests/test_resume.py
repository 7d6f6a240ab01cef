"""A coordinator pickled after a tick resumes in a fresh process and writes
the whole run's bytes.

A fresh process shares no object with the one that pickled the run, and
unpickling builds new copies of module constants such as ``ZERO6``. Within
one pickle, though, shared objects stay shared: ``_ArmUnit.turn`` keys an
intercepting arm's rotation by identity first, and that identity has to
survive the round trip for the kept rotations to be used, and to be right.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hapdock.docking import DockState
from hapdock.harness import Coordinator
from shipped import build, cached_run

ROOT = Path(__file__).resolve().parent.parent

# Run in the fresh process: resume the pickled coordinator, print per arm
# whether its rotation is its kept one by identity, then the run's digest.
RESUME = """
import hashlib, pickle, sys
with open(sys.argv[1], "rb") as fh:
    coord, start = pickle.load(fh)
print([u.state.pose.rotation is u.turn[0] for u in coord.units])
for tick in range(start, coord.cfg.coordinator.ticks):
    coord._tick(tick)
print(hashlib.sha256(coord.log.to_bytes()).hexdigest())
"""

# (scene, the tick after which the run is pickled, the arms that are
# intercepting on their kept rotation then)
SPLITS = [
    ("handover_sweep", 3700, ["arm_b"]),       # mid-interception of arm_b
    ("handover_sweep", 4134, []),              # the handover tick
    ("single_lift_force_feedback", 200, ["arm_main"]),
    ("squeeze_cancellation", 1564, []),        # the first kept glove stops
]


@pytest.fixture(scope="module")
def resumed(tmp_path_factory):
    """Each split's pickle resumed in its own fresh interpreter, all at once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    runs = []
    for n, (name, split, _) in enumerate(SPLITS):
        coord = Coordinator(build(name))
        for tick in range(split + 1):
            coord._tick(tick)
        kept = [u.cfg.name for u in coord.units
                if u.dock_state is DockState.INTERCEPTING and u.state.pose.rotation is u.turn[0]]
        path = tmp_path_factory.mktemp("resume") / f"{n}.pickle"
        path.write_bytes(pickle.dumps((coord, split + 1)))
        proc = subprocess.Popen([sys.executable, "-c", RESUME, str(path)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        runs.append((kept, proc))
    out = []
    for kept, proc in runs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        identity, digest = stdout.split("\n")[:2]
        out.append((kept, identity, digest))
    return out


@pytest.mark.parametrize("n", range(len(SPLITS)),
                         ids=[f"{name}-{split}" for name, split, _ in SPLITS])
def test_resumed_run_writes_the_run_bytes(resumed, n):
    name, _, intercepting = SPLITS[n]
    kept, identity, digest = resumed[n]
    assert kept == intercepting
    # The intercepting arm's rotation is its kept one after the round trip.
    log = cached_run(name)
    assert identity == repr([arm in intercepting for arm in log.header["arms"]])
    assert digest == hashlib.sha256(log.to_bytes()).hexdigest()
