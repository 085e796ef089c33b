#!/usr/bin/env python3
"""Rewrite tests/golden_digests.json, the report digests that
tests/test_golden.py checks.

    python scripts/write_golden_digests.py

Each digest is the sha256 of one run's `RunReport.to_row()` at seed 1, for
every bundled scenario, a tie-stress scenario built here, and a grid of
named overlays on bundled scenarios that reaches the settings no bundled
file uses: the `rss` NIC mode, lookup-latency accounting, an RSS indirection
table, random ports, IPv6 addresses, the power-saving scheduler, flow-table
aging under both delete limits, and settings that schedule events for the
current instant (a zero hold timer or receive cadence). A base skips each
overlay that sets a setting it leaves unread by `workload.UNREAD`, such as
the receive cadence of a worst case: the load would refuse it. Run this
only for a change that is meant to alter simulated output, and say so with
the change: the file is the gate that a refactor or speed-up kept every
report byte for byte.

`overlay` and `bundled` also build the scenario variants that
scripts/run_experiments.py and the tests run: each bundled file is the one
definition of its scenario.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from steersim import Engine, Scenario  # noqa: E402
from steersim.workload import UNREAD, AppRule  # noqa: E402

GOLDEN_PATH = ROOT / "tests" / "golden_digests.json"
SEED = 1


def tie_stress() -> Scenario:
    """Streams that start together with no handshake gap and no burst
    spacing, so SYN, SYN-ACK, ACK and data of many flows share fire times
    with each other and with runtime events."""
    s = Scenario(name="tie_stress", duration_us=4_000.0)
    t = s.traffic
    t.streams = 12
    t.data_packets_per_stream = 40
    t.link_gbps = 28.8  # 200k pps of 1500 B per stream
    t.burst = 4
    t.burst_spacing_ns = 0
    t.jitter_ns = 0
    t.handshake_gap_us = 0.0
    t.start_spread_us = 0.0
    s.host.syscall_cadence_us = 5.0
    s.apps = (AppRule((5001, 6001), (0, 1)),)
    s.scheduler.mode = "peak_performance"
    s.scheduler.tick_us = 100.0
    s.scheduler.forced_migration_period_us = 200.0
    return s.validate()


# An indirection table that maps a hash to another queue than hash mod 4 does.
TABLE = {"table": [0, 1, 2, 3, 3, 2, 1, 0]}

# Overlays applied to every scenario in GRID_BASES: name -> nested overrides.
OVERLAYS = {
    "rss": {"nic": {"mode": "rss"}},
    "latency": {"nic": {"latency_accounting": True}},
    "table": {"rss": TABLE},
    "table_rss": {"rss": TABLE, "nic": {"mode": "rss"}},
    "random_ports": {"traffic": {"ephemeral_ports": "random"}},
    "no_cadence": {"host": {"syscall_cadence_us": None}},
    "cadence0": {"host": {"syscall_cadence_us": 0.0}},
    "timer0": {"flow_table": {"t_timer_us": 0.0}},
    "ack1": {"host": {"ack_every": 1}},
    "ring4": {"nic": {"ring_capacity": 4}},
    "ipv6": {"traffic": {"src_addr": "2001:db8::1", "dst_addr": "2001:db8::2"}},
    # The 40-flow scenarios go idle before the first sweep and age out under
    # t_delete_ms; memory10g's 200 entries cross the pressure threshold, so
    # its active flows age out under t_delete_pressure_ms.
    "age": {"flow_table": {
        "t_delete_ms": 5.0, "t_delete_pressure_ms": 0.5, "pressure_threshold": 0.01,
    }},
}
GRID_BASES = ("pinned_same", "migrate_same", "migrate_cross", "memory10g", "worstcase")

# Scheduler overlays for the migrating scenarios. Power saving gets every
# core, so processes start off processor 0 and choose between two targets.
ALL_CORES = [{"ports": [5001, 6001], "cores": [0, 1, 2, 3]}]
SCHEDULER_OVERLAYS = {
    "power_saving": {"scheduler": {"mode": "power_saving"}, "apps": ALL_CORES},
    "power_saving_latency": {
        "scheduler": {"mode": "power_saving"}, "apps": ALL_CORES,
        "nic": {"latency_accounting": True},
    },
}
MIGRATING = ("migrate_same", "migrate_cross", "memory10g")


def overlay(base: Scenario, overrides: dict) -> Scenario:
    """`base` with `overrides` merged into its dict form, one level deep."""
    d = base.to_dict()
    for section, value in overrides.items():
        if isinstance(value, dict):
            d[section] = {**d.get(section, {}), **value}  # to_dict may leave it out
        else:
            d[section] = value
    return Scenario.from_dict(d)


def bundled(name: str, overrides: dict | None = None) -> Scenario:
    """The bundled scenario `scenarios/NAME.json`, with `overrides` merged in."""
    return overlay(Scenario.load(ROOT / "scenarios" / f"{name}.json"), overrides or {})


def paths(overrides: dict) -> set:
    """The dotted paths of the settings an overlay sets."""
    out = set()
    for section, value in overrides.items():
        out |= {f"{section}.{name}" for name in value} if isinstance(value, dict) else {section}
    return out


def scenarios() -> dict:
    """Every scenario the digests cover, by name. A base takes only the
    overlays that set none of the settings it leaves unread, by the rows of
    `UNREAD` whose condition it meets."""
    out = {p.stem: Scenario.load(p) for p in sorted((ROOT / "scenarios").glob("*.json"))}
    out["tie_stress"] = tie_stress()
    for base in GRID_BASES:
        unread = {path for _, holds, paths in UNREAD if holds(out[base]) for path in paths}
        for name, overrides in OVERLAYS.items():
            if not paths(overrides) & unread:
                out[f"{base}+{name}"] = overlay(out[base], overrides)
    for base in MIGRATING:
        for name, overrides in SCHEDULER_OVERLAYS.items():
            out[f"{base}+{name}"] = overlay(out[base], overrides)
    return out


def row_digest(row: dict) -> str:
    """sha256 over the whole row; json renders floats exactly (repr)."""
    blob = json.dumps(row, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest(scenario: Scenario) -> str:
    return row_digest(Engine(scenario, SEED).run().report.to_row())


def main():
    golden = {name: digest(s) for name, s in scenarios().items()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
