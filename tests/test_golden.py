"""Golden logs: the exact bytes every shipped scenario writes.

AC8 only compares two runs inside one process, so a change that shifts a
float bit in every run would still pass it. These digests pin the bytes
themselves; they hash the session's cached run, which AC8 compares with a
fresh one. A change that alters numerics on purpose regenerates them in the
same commit and reports the largest per-field deviation.
"""

import hashlib

import pytest

from shipped import NAMES, cached_run

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
