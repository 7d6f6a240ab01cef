"""Golden logs: the exact bytes every shipped scenario writes.

AC8 only compares two runs inside one process, so a change that shifts a
float bit in every run would still pass it. These digests pin the bytes
themselves; they hash the session's cached run, which AC8 compares with a
fresh one. A change that alters numerics on purpose regenerates them in the
same commit and reports the largest per-field deviation.
"""

import hashlib

import pytest

from hapdock.config import scenario_from_dict
from hapdock.harness import run_scenario
from shipped import NAMES, as_dict, cached_run

GOLDEN_SHA256 = {
    "decouple_sweep": "04380943cd9f9effbf92ed5b66c973ce13902b0e310028ce93cfe8fa3baa045b",
    "handover_sweep": "163f18d800820335cfe53702a1facabebb5de969c16f6eebc63bfbb5706516af",
    "pursuit_moving": "c859995802bd6fe6b3ae05e576f7671c69d2743e7359b27bcb3552b858cfd13a",
    "pursuit_static": "a49d40e974b60d2a0c90148a97dd54955159060a37c9b40d269b643d24ddcc11",
    "single_lift_docked": "06d524b6839b71ff31cc5218caa8e079c147b2cee43c475962605ebe251c0214",
    "single_lift_force_feedback": "a63544d660e784b86e1bcc04c3ffd24c9da43a7f95f02ea3de3d462375be1769",
    "single_lift_free": "76a43ffa08f96e38ad766aadca445f81bf5f86e05b91fb09c3f001e5e9a967b0",
    "squeeze_cancellation": "ce6e60c773be268f0ccee8b57fe6153374659d6e60c726fead20e3b7b063252f",
}


def test_every_shipped_scenario_is_pinned():
    assert list(NAMES) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_log_bytes_match_golden(name):
    blob = cached_run(name).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]


# No shipped scene rotates the wrist or adds tracking noise, so these variants
# pin the docked chain's plate rotation and its noisy translation:
# ``(scene, wrist_rotation, tracking_noise_std_m, SHA-256 of the log)``.
VARIANT_SHA256 = (
    ("handover_sweep", (0.9659258, 0.0, 0.258819, 0.0), 0.0005,
     "99b9366c3e04fbc1d70062da4967b9c44c5e14ab51e1e4ae7c04409a81371225"),
    ("single_lift_force_feedback", (0.98, 0.1, 0.0, 0.17), 0.0,
     "0c7860d12457b38c56c0d69fd21b7d7f0ce8243c0e58428bb7a82e642d590a7b"),
    ("squeeze_cancellation", (1.0, 0.0, 0.0, 0.0), 0.0003,
     "92d7b963a9d0fa2cf371a32c4ce39e3a6763e852370f91a5dc1b79abdb1cd81a"),
)


@pytest.mark.parametrize("name, wrist_rotation, noise, digest", VARIANT_SHA256)
def test_rotated_and_noisy_variant_matches_golden(name, wrist_rotation, noise, digest):
    raw = as_dict(name)
    raw["trajectory"]["wrist_rotation"] = list(wrist_rotation)
    raw["tracking_noise_std_m"] = noise
    log = run_scenario(scenario_from_dict(raw))
    assert any(r["docked_arm"] for r in log.records)
    assert hashlib.sha256(log.to_bytes()).hexdigest() == digest


def test_reversed_arm_order_matches_golden():
    """handover_sweep with arm_b's turn first: arm_a's release no longer frees
    the slot for arm_b in the same tick, so arm_b attaches one tick later."""
    raw = as_dict("handover_sweep")
    raw["arms"] = raw["arms"][::-1]
    log = run_scenario(scenario_from_dict(raw))
    assert "release:arm_a" in log.records[4134]["events"]
    assert "attach:arm_b" in log.records[4135]["events"]
    assert (hashlib.sha256(log.to_bytes()).hexdigest()
            == "3fa486bc103d292cf94154a84570e534b816f0d079fad002c7759d2236d976d0")
