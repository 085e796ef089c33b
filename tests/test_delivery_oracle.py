"""The delivery oracle's log scans, and the engine's online delivery
figures checked against them on every golden base scenario."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delivery_oracle import (
    DeliveryLog,
    affinity_scores,
    contention_proxy,
    delivery_figures,
    in_socket_order,
    record_deliveries,
    reordering_ratio,
    warm_up_end,
)
from steersim.flows import DATA, FlowKey
from steersim.host import Host
from steersim.nic import Nic
from steersim.runner import Engine
from steersim.simkernel import Simulator
from steersim.workload import NicSpec, Scenario, build_rss_engine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import write_golden_digests as golden  # noqa: E402


def key(sport=1):
    return FlowKey(sport, 5001)


def rec(seq, t=0, core=0, app_core=0, kind=DATA):
    return seq, t, core, app_core, kind


def flow_log(*records):
    """A DeliveryLog holding the given rec() tuples in order."""
    log = DeliveryLog()
    for r in records:
        log.append(*r)
    return log


class TestReorderingRatio:
    def test_in_order_log_is_zero(self):
        log = {key(): flow_log(*(rec(s) for s in range(10)))}
        assert reordering_ratio(log) == 0.0

    def test_one_inversion_in_ten(self):
        seqs = [0, 1, 2, 3, 5, 4, 6, 7, 8, 9]
        log = {key(): flow_log(*(rec(s) for s in seqs))}
        assert reordering_ratio(log) == 0.1

    def test_per_flow_not_cross_flow(self):
        log = {
            key(1): flow_log(rec(5), rec(6)),
            key(2): flow_log(rec(0), rec(1)),  # lower seqs on another flow: fine
        }
        assert reordering_ratio(log) == 0.0

    def test_empty_log(self):
        assert reordering_ratio({}) == 0.0


class TestAffinityScores:
    def test_every_flow_on_one_core(self):
        log = {key(i): flow_log(*(rec(s, t=s + 1, core=2, app_core=2) for s in range(4)))
               for i in range(3)}
        flow_aff, data_aff = affinity_scores(log, {k: 0 for k in log})
        assert flow_aff == 1.0 and data_aff == 1.0

    def test_alternating_cores_gives_half(self):
        recs = flow_log(*(rec(s, t=s + 1, core=s % 2, app_core=0) for s in range(10)))
        flow_aff, data_aff = affinity_scores({key(): recs}, {key(): 0})
        assert flow_aff == 0.5
        assert data_aff == 0.5

    def test_warm_up_cutoff_excludes_early_records(self):
        recs = flow_log(rec(0, t=5, core=1, app_core=0), rec(1, t=50, core=0, app_core=0))
        flow_aff, data_aff = affinity_scores({key(): recs}, {key(): 10})
        assert flow_aff == 1.0 and data_aff == 1.0


class TestContentionProxy:
    def test_single_core_system_all_zero(self):
        log = flow_log(*(rec(s, t=s * 10) for s in range(5)))
        out = contention_proxy({key(): log}, [0], {})
        assert out == {"cross_core_packets": 0, "cross_processor_packets": 0,
                       "alternations": 0}

    def test_cross_core_and_alternations(self):
        log = flow_log(rec(0, 0, 0, 1), rec(1, 10, 1, 1), rec(2, 20, 0, 1))
        out = contention_proxy({key(): log}, [0, 0, 1, 1], {})
        assert out["cross_core_packets"] == 2
        assert out["alternations"] == 2
        assert out["cross_processor_packets"] == 0

    def test_cross_processor_after_warm_up_only(self):
        log = flow_log(rec(0, 0, 0, 2), rec(1, 10, 0, 2), rec(2, 20, 1, 1))
        out = contention_proxy({key(): log}, {0: 0, 1: 0, 2: 1}, {key(): 5})
        assert out["cross_core_packets"] == 1
        assert out["cross_processor_packets"] == 1
        assert out["alternations"] == 1




class TestWarmUpEnd:
    def test_last_flush_else_first_delivery(self):
        logs = {key(1): flow_log(rec(0, t=7), rec(1, t=9)), key(2): flow_log(rec(0, t=3)),
                key(3): flow_log()}
        assert warm_up_end(logs, {key(1): 20}) == {key(1): 20, key(2): 3, key(3): -1}


# ---- online tallies against the oracle --------------------------------------

FIGURES = ("delivered_data", "reordering_ratio", "flow_affinity", "data_affinity",
           "cross_core_packets", "cross_processor_packets", "alternations")


def _host():
    """A four-core host over a plain-RSS NIC; processors hold two cores
    each, and threads make no receive calls."""
    sim = Simulator()
    nic = Nic(NicSpec(mode="rss"), 4, build_rss_engine(Scenario()), None, sim)
    return Host(((0, 1), (2, 3)), sim, nic, 333, None, "pinned", 2)


deliveries_and_flushes = st.lists(
    st.one_of(
        # (time step, core, app core, seq) of one delivery; -1 is a control frame
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                  st.integers(-1, 12)),
        # (time step,) of one hold-timer flush
        st.tuples(st.integers(0, 3)),
    ),
    max_size=40,
)


@given(deliveries_and_flushes)
@settings(max_examples=200, deadline=None)
def test_socket_tallies_match_the_oracle(events):
    # One flow's deliveries and flushes, fed straight to the host in time
    # order, some at one instant; its tallies against the oracle's scans.
    host = _host()
    sock = host.add_flow(key(), 0, (0, 1, 2, 3))
    now = 0
    flushes = {}
    with pytest.MonkeyPatch.context() as mp:
        logs = record_deliveries(mp)
        for event in events:
            now += event[0]
            if len(event) == 1:
                sock.restart_warm_up(now)
                flushes[key()] = now
                continue
            _, core, app_core, seq = event
            sock.core = app_core
            host._deliver(seq, sock, core, now)
    expected = delivery_figures(in_socket_order(logs, host), [0, 0, 1, 1], flushes)
    assert sock.data == expected["delivered_data"]
    assert (sock.inversions / sock.data if sock.data else 0.0) == expected["reordering_ratio"]
    scored = sum(sock.core_data)
    assert (max(sock.core_data) / scored if scored else 1.0) == expected["flow_affinity"]
    assert (sock.on_app_core / scored if scored else 1.0) == expected["data_affinity"]
    assert sock.cross_core == expected["cross_core_packets"]
    assert sock.cross_processor == expected["cross_processor_packets"]
    assert sock.alternations == expected["alternations"]


SCENARIOS = golden.scenarios()
GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(name for name in SCENARIOS if "+" not in name))
def test_online_report_matches_the_oracle_over_the_logs(name, monkeypatch):
    """Every golden base scenario at the golden seed, with deliveries
    recorded: the report's delivery figures equal the oracle's scans of
    the logs, and the digest equals the gated one of a run that records
    nothing (tests/test_golden.py)."""
    flushes = {}
    on_hold_timer = Nic.on_hold_timer

    def recorded(nic, key):
        on_hold_timer(nic, key)
        flushes[key] = nic.sim.now

    monkeypatch.setattr(Nic, "on_hold_timer", recorded)
    logs = record_deliveries(monkeypatch)
    scenario = SCENARIOS[name]
    engine = Engine(scenario, golden.SEED)
    result = engine.run()
    processor_of = {core: p for p, group in enumerate(scenario.host.processors)
                    for core in group}
    expected = delivery_figures(in_socket_order(logs, engine.host), processor_of, flushes)
    report = result.report
    assert {name: getattr(report, name) for name in FIGURES} == expected
    assert report.delivered_data > 0
    assert golden.row_digest(report.to_row()) == GOLDEN[name]
