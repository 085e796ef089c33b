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

import pytest

from steersim.workload import RULES, OneOf, Record, Scenario, field_value

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import write_golden_digests as golden  # noqa: E402

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())
SCENARIOS = golden.scenarios()


def test_every_scenario_has_a_digest():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest_matches(name):
    assert golden.digest(SCENARIOS[name]) == GOLDEN[name]


OVERLAYS = {**golden.OVERLAYS, **golden.SCHEDULER_OVERLAYS}


def settings(overrides: dict) -> set:
    """An overlay's overrides as a set of (section, field, JSON value)."""
    out = set()
    for section, value in overrides.items():
        items = value.items() if isinstance(value, dict) else [(None, value)]
        out |= {(section, name, json.dumps(v)) for name, v in items}
    return out


@pytest.mark.parametrize("name", sorted(OVERLAYS))
def test_every_overlay_changes_a_report(name):
    """On at least one base, the overlay's digest differs from the base's
    and from that of each overlay it extends (`table_rss` extends `rss`).
    An overlay that repeats them on every base gates a setting with no
    effect. Reads the digests only."""
    mine = settings(OVERLAYS[name])
    extended = [p for p in OVERLAYS if p != name and settings(OVERLAYS[p]) <= mine]
    changed = []
    for key, digest in GOLDEN.items():
        base, _, overlay = key.partition("+")
        if overlay == name:
            before = [GOLDEN[base]] + [GOLDEN[f"{base}+{p}"] for p in extended]
            changed.append(digest not in before)
    assert changed, f"no digest for overlay {name}"
    assert any(changed), f"overlay {name} changes no base's report"


def choice_fields() -> dict:
    """Every field with a fixed set of values, by dotted path: the choice
    rows of RULES plus every boolean field of the scenario's sections."""
    out = {path: rule for path, rule in RULES.items() if isinstance(rule, OneOf)}
    for section in Scenario.FIELDS:
        spec = getattr(Scenario(), section)
        if isinstance(spec, Record):
            for name, tp in spec.FIELDS.items():
                if tp is bool:
                    out[f"{section}.{name}"] = (False, True)
    return out


@pytest.mark.parametrize("path", sorted(choice_fields()))
def test_every_choice_is_gated(path):
    seen = {field_value(s, path) for s in SCENARIOS.values()}
    missing = [v for v in choice_fields()[path] if v not in seen]
    assert not missing, f"no digest covers {path} = {missing}"
