"""Report digests at seed 1 must not drift.

A change that alters any report byte for a bundled scenario, for the
tie-stress scenario whose events share fire times, or for one of the
overlays on bundled scenarios that cover the other modes and settings,
fails here. Rewrite the
digests with scripts/write_golden_digests.py only for a change meant to
alter simulated output.
"""

import json
import sys
from pathlib import Path

import dataclasses

import pytest

from steersim.workload import CHOICES, Scenario, field_value

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import write_golden_digests as golden  # noqa: E402

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())
SCENARIOS = golden.scenarios()


def test_every_scenario_has_a_digest():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest_matches(name):
    assert golden.digest(SCENARIOS[name]) == GOLDEN[name]


def choice_fields() -> dict:
    """Every field with a fixed set of values, by dotted path: the named
    choices plus every boolean field of the scenario's sections."""
    out = dict(CHOICES)
    for section in dataclasses.fields(Scenario):
        spec = getattr(Scenario(), section.name)
        if dataclasses.is_dataclass(spec):
            for f in dataclasses.fields(spec):
                if f.type is bool:
                    out[f"{section.name}.{f.name}"] = (False, True)
    return out


@pytest.mark.parametrize("path", sorted(choice_fields()))
def test_every_choice_is_gated(path):
    seen = {field_value(s, path) for s in SCENARIOS.values()}
    missing = [v for v in choice_fields()[path] if v not in seen]
    assert not missing, f"no digest covers {path} = {missing}"
