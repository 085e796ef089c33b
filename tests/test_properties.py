"""Randomized whole-run properties over the scenario space.

The central claim: with the hold timer at or above (ring_capacity - 1) per
service quantum, no schedule of arrivals, syscalls, and migrations produces
out-of-order per-flow delivery. Alongside it, conservation and bound
invariants that must survive any run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.flows import DATA
from steersim.runner import run_scenario
from steersim.workload import AppRule, Scenario, nanoseconds

from delivery_oracle import record_deliveries


@st.composite
def migration_scenarios(draw):
    s = Scenario(name="prop")
    s.duration_us = 4_000.0
    s.nic.mode = "flowsteer"
    s.nic.ring_capacity = draw(st.sampled_from([8, 32, 256]))
    s.host.service_rate_pps = 3_000_000.0
    # The drain bound allows one extra in-flight service quantum beyond
    # (D - 1)/R when a packet lands mid-quantum, so the safe timer is
    # D/R: 85.3 us at D=256. Stay at or above it.
    if s.nic.ring_capacity == 256:
        s.flow_table.t_timer_us = draw(st.sampled_from([86.0, 100.0, 400.0]))
    else:
        s.flow_table.t_timer_us = draw(st.sampled_from([20.0, 100.0, 400.0]))
    s.traffic.streams = draw(st.integers(2, 10))
    s.traffic.data_packets_per_stream = draw(st.integers(5, 60))
    # 50k, 200k or 600k packets/s of 1500 B per stream.
    s.traffic.link_gbps = s.traffic.streams * draw(st.sampled_from([0.6, 2.4, 7.2]))
    s.traffic.burst = draw(st.integers(1, 8))
    s.traffic.burst_spacing_ns = draw(st.sampled_from([100, 300, 1_000]))
    s.traffic.jitter_ns = draw(st.sampled_from([0, 10_000, 80_000]))
    s.traffic.start_spread_us = 200.0
    s.host.syscall_cadence_us = draw(st.sampled_from([5.0, 40.0, 150.0]))
    s.host.ack_every = draw(st.integers(1, 4))
    s.apps = (AppRule((5001, 6001), draw(st.sampled_from([(0, 1), (0, 2), (0, 1, 2, 3)]))),)
    s.scheduler.mode = "peak_performance"
    s.scheduler.tick_us = 200.0
    s.scheduler.forced_migration_period_us = draw(st.sampled_from([150.0, 500.0]))
    s.seed = draw(st.integers(0, 2**32))
    return s.validate()


@given(migration_scenarios())
@settings(max_examples=25, deadline=None)
def test_adequate_hold_timer_keeps_every_flow_in_order(scenario):
    d = scenario.nic.ring_capacity
    ns = nanoseconds(scenario)
    assert ns["t_timer"] >= d * ns["service"]
    with pytest.MonkeyPatch.context() as mp:
        logs = record_deliveries(mp)
        result = run_scenario(scenario)
    assert result.report.reordering_ratio == 0.0
    for records in logs.values():
        seqs = [r.seq for r in records if r.kind == DATA]
        assert seqs == sorted(seqs)


@given(migration_scenarios())
@settings(max_examples=15, deadline=None)
def test_run_invariants_hold_under_any_schedule(scenario):
    with pytest.MonkeyPatch.context() as mp:
        logs = record_deliveries(mp)
        result = run_scenario(scenario)
    r = result.report

    # Exactly-once: no data sequence number delivered twice for one flow.
    delivered_data = 0
    for records in logs.values():
        seqs = [rec.seq for rec in records if rec.kind == DATA]
        assert len(seqs) == len(set(seqs))
        delivered_data += len(seqs)
    assert delivered_data == r.delivered_data

    # Conservation: deliveries and drops never exceed the offered load.
    assert r.delivered_data + r.drops <= r.generated_data + r.held_packets

    # Hold bound and chain caps.
    if result.hold_delays:
        assert max(result.hold_delays) <= nanoseconds(scenario)["t_timer"]
    assert r.peak_entries <= scenario.flow_table.max_entries

    # Context split is exhaustive.
    assert r.delivered_interrupt + r.delivered_process >= r.delivered_data
