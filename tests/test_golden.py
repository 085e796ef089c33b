"""Report digests at seed 1 must not drift.

A change that alters any report byte for a bundled scenario, or for the
tie-stress scenario whose events share fire times, fails here. Rewrite the
digests with scripts/write_golden_digests.py only for a change meant to
alter simulated output.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import write_golden_digests as golden  # noqa: E402

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())
SCENARIOS = golden.scenarios()


def test_every_scenario_has_a_digest():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest_matches(name):
    assert golden.digest(SCENARIOS[name]) == GOLDEN[name]
