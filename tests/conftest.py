"""Run every test from the repository root, so relative scenario paths such
as AC2's ``scenarios/single_lift_force_feedback.yaml`` resolve wherever
pytest is started from."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _at_repository_root(monkeypatch):
    monkeypatch.chdir(ROOT)
