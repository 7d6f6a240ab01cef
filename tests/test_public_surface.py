import os
import subprocess
import sys
from pathlib import Path

import hapdock

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
