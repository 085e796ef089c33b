import ast
import json
from array import array
import math
import re
import struct
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steersim
from steersim.cli import main
from steersim.flows import is_record
from steersim.runner import Engine, run_scenario
from steersim.simkernel import make_rng
from steersim.workload import (
    RULES,
    UNREAD,
    AppRule,
    Bound,
    Scenario,
    ScenarioError,
    TrafficSpec,
    assign_ports,
    field_type,
    field_value,
    inter_burst_ns,
    nanoseconds,
    spawn_streams,
)

from bundled import bundled

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def set_field(d, section, field, value):
    """Set `field` in `d[section]`, or at the top level when `section` is
    empty; returns the dotted path an error should name."""
    (d[section] if section else d)[field] = value
    return f"{section}.{field}" if section else field


def scenario(streams=40, **traffic_kwargs):
    s = Scenario(name="t", duration_us=50_000)
    s.traffic = TrafficSpec(streams=streams, **traffic_kwargs)
    s.apps = (AppRule((5001,), (0,)), AppRule((6001,), (1,)))
    return s


def movable(streams=40, **traffic_kwargs):
    """`scenario` with its apps free to move between two cores under the
    peak-performance scheduler, so that it reads every scheduler setting."""
    s = scenario(streams, **traffic_kwargs)
    s.apps = (AppRule((5001, 6001), (0, 1)),)
    s.scheduler.mode = "peak_performance"
    return s


def worst_case():
    return Scenario(name="t", kind="worst_case", duration_us=50_000)


WORST_CASE_UNREAD = {condition: paths for condition, _, paths in UNREAD}["kind 'worst_case'"]


def ack_at(plan) -> int:
    """When a plan's ACK arrives: the third arrival of its handshake run."""
    syn_at, _, gap = plan.block[:3]
    return syn_at + 2 * gap


def data_runs(plan) -> list:
    """A plan's data runs: the runs of its block after the handshake's that
    hold its `data_count` packets."""
    runs, left = [], plan.data_count
    while left:
        first, count, spacing = plan.block[len(runs) + 3:len(runs) + 6]
        runs += (first, count, spacing)
        left -= count
    return runs


def data_times(plan) -> list:
    """A plan's data arrival times, its runs expanded packet by packet."""
    runs = iter(data_runs(plan))
    return [t + k * spacing for t, count, spacing in zip(runs, runs, runs) for k in range(count)]


class TestSpawnStreams:
    def test_forty_streams_forty_handshakes(self):
        plans = spawn_streams(scenario(40), make_rng(1))
        assert len(plans) == 40
        assert len({p.key for p in plans}) == 40
        for p in plans:
            _, count, gap = p.block[:3]
            assert count == 3 and gap > 0

    def test_two_streams_distinct_keys(self):
        plans = spawn_streams(scenario(2), make_rng(1))
        assert plans[0].key != plans[1].key
        assert plans[0].key.src_port != plans[1].key.src_port

    def test_streams_split_across_ports(self):
        plans = spawn_streams(scenario(10), make_rng(1))
        assert {p.port for p in plans} == {5001, 6001}

    def test_zero_data_scenario_is_handshakes_only(self):
        plans = spawn_streams(scenario(4, data_packets_per_stream=0), make_rng(1))
        # The handshake run, then the first receive call 1 ns after the ACK.
        assert all(list(p.block[3:]) == [ack_at(p) + 1, 1, 0] and p.data_count == 0
                   for p in plans)

    def test_zero_duration_scenario_is_handshakes_only(self):
        s = scenario(4)
        s.duration_us = 0.0
        plans = spawn_streams(s.validate(), make_rng(1))
        assert len(plans) == 4
        assert all(data_runs(p) == [] and p.data_count == 0 for p in plans)

    def test_data_times_past_64_bits_stay_exact(self):
        # Stream 1 starts at 1e19 ns, past 2**63: its times are exact ints.
        s = scenario(2, data_packets_per_stream=3, start_spread_us=2e16)
        s.duration_us = 3e16
        first, second = spawn_streams(s.validate(), make_rng(1))
        assert max(data_times(first)) < 2**63
        times = data_times(second)
        assert len(times) == second.data_count == 3 and min(times) >= 10**19
        assert times[0] == ack_at(second) + int(s.traffic.handshake_gap_us * 1000)
        assert type(first.block) is list and type(second.block) is list

    @given(st.integers(1, 64), st.integers(0, 200_000))
    @settings(max_examples=30, deadline=None)
    def test_sequence_times_strictly_increasing(self, streams, jitter):
        s = scenario(streams, data_packets_per_stream=20, jitter_ns=jitter,
                     link_gbps=0.6 * streams, burst=4)  # 50k pps per stream
        for plan in spawn_streams(s, make_rng(7)):
            times = data_times(plan)
            assert all(b > a for a, b in zip(times, times[1:]))

    # At 200k packets/s per stream a burst gets 5 us per packet: wider spacing makes
    # bursts meet, so the overlap clamp runs too. Data ends by about 330 us,
    # so the horizon often cuts a stream, or a burst, short.
    @given(st.integers(0, 40), st.integers(1, 5), st.integers(0, 8_000), st.integers(0, 5_000),
           st.floats(1.0, 400.0))
    @example(10, 2, 8_000, 0, 400.0)  # each burst starts at the clamp
    @example(10, 5, 8_000, 0, 50.0)  # the horizon cuts the second burst
    @example(10, 3, 0, 0, 40.0)  # the horizon falls on bursts at one instant
    @settings(max_examples=60, deadline=None)
    def test_times_and_rng_draws_match_the_per_packet_loop(self, wanted, burst, spacing,
                                                           jitter, duration_us):
        # The reference places a burst one packet at a time, checking the
        # count and the horizon before each packet. Each burst is one run,
        # `spacing` apart, and expanded the runs give the reference's times.
        s = scenario(3, data_packets_per_stream=wanted, burst=burst, burst_spacing_ns=spacing,
                     jitter_ns=jitter, link_gbps=7.2, handshake_gap_us=1.0,
                     start_spread_us=10.0)
        s.duration_us = duration_us
        rng, ref_rng = make_rng(5), make_rng(5)
        plans = spawn_streams(s, rng)
        assign_ports(s.traffic, ref_rng)
        duration = int(duration_us * 1000)
        inter_burst = nanoseconds(s)["inter_burst"]
        for plan in plans:
            times = []
            t = ack_at(plan) + 1_000
            while len(times) < wanted and t < duration:
                burst_t = t + (ref_rng.randrange(0, jitter + 1) if jitter else 0)
                if times:
                    burst_t = max(burst_t, times[-1] + spacing)
                for b in range(burst):
                    if len(times) >= wanted:
                        break
                    if burst_t + b * spacing < duration:
                        times.append(burst_t + b * spacing)
                t += inter_burst
            assert data_times(plan) == times
            assert plan.data_count == len(times)
            runs = data_runs(plan)
            assert set(runs[2::3]) <= {spacing} and all(runs[1::3])
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("path", [p for p in sorted(SCENARIO_DIR.glob("*.json"))
                                      if Scenario.load(p).kind == "streams"],
                             ids=lambda p: p.stem)
    def test_bundled_blocks_are_machine_ints(self, path):
        s = Scenario.load(path)
        calls = s.host.syscall_cadence_us is not None
        plans = spawn_streams(s, make_rng(1))
        for plan in plans:
            block = plan.block
            assert type(block) is array and block.typecode == "q"
            assert len(block) == 3 + len(data_runs(plan)) + 3 * calls
        assert sum(p.data_count for p in plans) > 0

    @pytest.mark.parametrize("spacing, kind", [(2**63 - 1, array), (2**63, list)])
    def test_blocks_turn_to_lists_at_2_63(self, spacing, kind):
        # A spacing of 2**63 ns or more, or any time that may reach 2**63,
        # makes every block a list of exact Python ints.
        s = scenario(2, data_packets_per_stream=3, burst_spacing_ns=spacing)
        plans = spawn_streams(s.validate(), make_rng(1))
        assert all(type(p.block) is kind for p in plans)
        assert [p.data_count for p in plans] == [1, 1]
        assert all(data_runs(p)[2] == spacing for p in plans)

    def test_random_ports_unique(self):
        s = scenario(2000, ephemeral_ports="random")
        ports = assign_ports(s.traffic, make_rng(3))
        assert len(set(ports)) == 2000
        assert all(32768 <= p < 65536 for p in ports)


class TestScenarioSerialization:
    def test_round_trip_fixpoint(self, tmp_path):
        s = movable(12, ephemeral_ports="random", jitter_ns=777)
        s.scheduler.forced_migration_period_us = 1500.0
        path = tmp_path / "s.json"
        s.save(path)
        loaded = Scenario.load(path)
        assert loaded.to_dict() == s.to_dict()
        path2 = tmp_path / "s2.json"
        loaded.save(path2)
        assert path.read_text() == path2.read_text()

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_file_is_canonical(self, path, tmp_path):
        # Byte for byte: a key the scenario no longer has fails the load,
        # but a value written another way, or out of order, loads the same.
        Scenario.load(path).save(tmp_path / path.name)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    def test_validation_rejects_negative_timer(self):
        s = scenario(4)
        s.flow_table.t_timer_us = -1.0
        with pytest.raises(ScenarioError):
            s.validate()

    def test_validation_rejects_a_timer_of_2_to_the_63_ns(self):
        # Nic.hold_delays keeps each hold, at most the timer, in 64 bits.
        s = scenario(4)
        s.flow_table.t_timer_us = 9.2e15
        s.validate()
        s.flow_table.t_timer_us = 9.3e15
        with pytest.raises(ScenarioError, match="t_timer_us"):
            s.validate()

    def test_validation_rejects_unknown_mode(self):
        s = scenario(4)
        s.nic.mode = "bogus"
        with pytest.raises(ScenarioError):
            s.validate()

    @pytest.mark.parametrize("section, field, value", [
        ("traffic", "burst_spacing_ns", -1),
        ("traffic", "handshake_gap_us", -0.5),
        ("traffic", "jitter_ns", -10),
        ("host", "service_rate_pps", 0.0),
    ])
    def test_validation_names_field_that_breaks_arrival_order(self, section, field, value):
        d = scenario(4).to_dict()
        d[section][field] = value
        with pytest.raises(ScenarioError, match=f"{section}.{field}"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("section, field, value", [
        ("scheduler", "tick_us", 0.0),
        ("scheduler", "tick_us", -250.0),
        ("scheduler", "tick_us", 0.0001),  # truncates to 0 ns
        ("host", "ack_every", 0),
        ("traffic", "burst", 0),
        ("traffic", "packet_bytes", -1),
        # Keys no spec declares: a typo, a misnamed section, a retired key.
        ("flow_table", "t_timer", 100.0),
        ("", "flowtable", {"t_timer_us": 100.0}),
        ("nic", "link_latency_us", -1e9),
    ])
    def test_validation_names_field_that_would_load_silently(self, section, field, value):
        d = movable(4).to_dict()
        path = set_field(d, section, field, value)
        with pytest.raises(ScenarioError, match=path):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("path, value, message", [
        (("traffic", "burst_spacing_ns"), 250.5, "traffic.burst_spacing_ns must be an integer"),
        (("traffic", "streams"), "40", "traffic.streams must be an integer"),
        (("traffic", "streams"), True, "traffic.streams must be an integer"),
        (("traffic", "ports"), 5001, "traffic.ports must be a list"),
        (("traffic", "ports", 1), "6001", r"traffic.ports\[1\] must be an integer"),
        (("traffic", "link_gbps"), "fast", "traffic.link_gbps must be a number,"),
        (("host", "ack_every"), 2.5, "host.ack_every must be an integer"),
        (("host", "processors", 0), 1, r"host.processors\[0\] must be a list"),
        (("nic",), 5, "nic must be an object"),
        (("nic",), None, "nic must be an object"),
        (("nic", "ring_capacity"), True, "nic.ring_capacity must be an integer"),
        (("nic", "latency_accounting"), "yes", "nic.latency_accounting must be true or false"),
        (("nic", "latency_accounting"), 1, "nic.latency_accounting must be true or false"),
        (("rss", "fields", 0), 7, r"rss.fields\[0\] must be a string"),
        (("apps",), 5, "apps must be a list"),
        (("apps", 0), [5001], r"apps\[0\] must be an object"),
        (("apps", 0, "cores", 0), 0.0, r"apps\[0\].cores\[0\] must be an integer"),
        (("seed",), 1.0, "seed must be an integer"),
        (("name",), 3, "name must be a string"),
    ])
    def test_wrong_value_type_names_its_path(self, path, value, message):
        d = json.loads(json.dumps(scenario(4).to_dict()))
        owner = d
        for k in path[:-1]:
            owner = owner[k]
        owner[path[-1]] = value
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_dict(d)

    def test_missing_app_field_is_named(self):
        d = scenario(4).to_dict()
        d["apps"] = [{"cores": [0]}]
        with pytest.raises(ScenarioError, match=r"apps\[0\].ports is missing"):
            Scenario.from_dict(d)

    def test_numbers_load_as_their_field_types(self):
        d = scenario(4).to_dict()
        d["duration_us"] = 2000
        d["traffic"]["link_gbps"] = 10
        d["traffic"]["ports"] = [5001, 6001]
        loaded = Scenario.from_dict(d)
        assert type(loaded.duration_us) is float
        assert type(loaded.traffic.link_gbps) is float
        assert loaded.traffic.ports == (5001, 6001)

    def test_a_scenario_must_be_an_object(self):
        with pytest.raises(ScenarioError, match="must be an object"):
            Scenario.from_dict([1, 2])

    def test_every_unknown_key_is_named(self):
        d = scenario(4).to_dict()
        d["flowtable"] = {}
        d["flow_table"]["t_timer"] = 100.0
        d["apps"][0]["prots"] = [5001]
        with pytest.raises(ScenarioError) as info:
            Scenario.from_dict(d)
        assert str(info.value) == (
            "unknown scenario keys: flowtable, flow_table.t_timer, apps[0].prots"
        )

    @pytest.mark.parametrize("section, field, value", [
        ("traffic", "ephemeral_ports", "randm"),
        # Retired: every move already keeps a process within apps[].cores.
        ("scheduler", "mode", "cpuset"),
    ])
    def test_validation_names_unknown_choice(self, section, field, value):
        d = movable(4).to_dict()
        d[section][field] = value
        with pytest.raises(ScenarioError, match=f"{section}.{field}"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("section, field, value", [
        ("nic", "ring_capacity", 0),
        ("flow_table", "num_buckets", 0),
        ("flow_table", "max_entries", 0),
        ("flow_table", "pressure_threshold", 0.0),
        ("flow_table", "pressure_threshold", 2.0),
        ("flow_table", "t_delete_pressure_ms", 2000.0),
        ("host", "syscall_cadence_us", -5.0),
        ("scheduler", "forced_migration_period_us", -5.0),
        ("scheduler", "forced_migration_period_us", 0.0),
        ("scheduler", "forced_migration_period_us", float("nan")),
        # Truncates to 0 ns, so it would reschedule itself at the same
        # instant forever: checked at load only, never run.
        ("scheduler", "forced_migration_period_us", 0.0001),
        # spawn_streams divides by these two.
        ("traffic", "link_gbps", 0.0),
        ("traffic", "link_gbps", float("nan")),
        ("traffic", "packet_bytes", 0),
        ("traffic", "data_packets_per_stream", -1),
        ("", "duration_us", float("nan")),
        ("", "duration_us", float("inf")),
        # Idle entries would be evicted at the first aging sweep.
        ("flow_table", "t_delete_ms", -1.0),
        ("flow_table", "t_delete_pressure_ms", -1.0),
    ])
    def test_validation_names_field_that_would_fail_mid_setup(self, section, field, value):
        d = movable(4).to_dict()
        path = set_field(d, section, field, value)
        with pytest.raises(ScenarioError, match=path):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("section, field, value", [
        ("traffic", "handshake_gap_us", float("nan")),
        ("traffic", "start_spread_us", float("nan")),
        ("traffic", "start_spread_us", -1.0),
        ("flow_table", "t_timer_us", float("nan")),
        ("host", "service_rate_pps", float("nan")),
        ("scheduler", "tick_us", float("inf")),
        ("traffic", "ports", []),
        ("traffic", "ports", [5001, 70000]),
        ("traffic", "ephemeral_start", -1),
    ])
    def test_validation_names_value_that_would_fail_in_setup(self, section, field, value):
        d = movable(4).to_dict()
        path = set_field(d, section, field, value)
        with pytest.raises(ScenarioError, match=path):
            Scenario.from_dict(d)

    def test_validation_names_app_rule_without_cores(self):
        d = scenario(4).to_dict()
        d["apps"] = [{"ports": [5001, 6001], "cores": []}]
        with pytest.raises(ScenarioError, match=r"apps\[0\].cores"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("base, apps, unruled", [
        (scenario, (AppRule((5001,), (0,)),), r"\[6001\]"),
        # No rule at all is not "rules that each name one core", so the
        # scheduler mode is not what the load names.
        (movable, (), r"\[5001, 6001\]"),
    ])
    def test_validation_names_port_without_app_rule(self, base, apps, unruled):
        # Setup would find no placement for the streams to these ports.
        s = base(4)
        s.apps = apps
        with pytest.raises(ScenarioError, match=f"^traffic.ports {unruled} have no apps rule$"):
            s.validate()

    def test_validation_names_port_of_two_app_rules(self):
        # Setup would place port 5001's apps by the first rule alone.
        d = scenario(4).to_dict()
        d["apps"] = [{"ports": [5001, 6001], "cores": [0]}, {"ports": [5001], "cores": [1]}]
        with pytest.raises(ScenarioError,
                           match=r"^apps\[1\].ports names port 5001, as apps\[0\] does$"):
            Scenario.from_dict(d)

    def test_validation_names_app_rule_that_repeats_a_core(self):
        d = scenario(4).to_dict()
        d["apps"] = [{"ports": [5001, 6001], "cores": [0, 0]}]
        with pytest.raises(ScenarioError, match=r"apps\[0\].cores repeats a core: \[0, 0\]"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("ports, apps, message", [
        ([5001, 5001], [{"ports": [5001], "cores": [0]}],
         r"traffic.ports repeats a port: \[5001, 5001\]"),
        ([5001, 6001], [{"ports": [5001, 6001, 5001], "cores": [0]}],
         r"apps\[0\].ports repeats a port: \[5001, 6001, 5001\]"),
    ])
    def test_validation_names_a_repeated_port(self, ports, apps, message):
        # A repeated port would run as if it were named once.
        d = scenario(4).to_dict()
        d["traffic"]["ports"], d["apps"] = ports, apps
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("section, field, value", [
        ("nic", "ring_capacity", 1),
        ("nic", "ring_capacity", 10**18),
        ("host", "processors", [[0]]),
        # Without src_port every flow hashes alike, here not to queue 0.
        ("rss", "fields", ["src_addr", "dst_addr", "dst_port"]),
        ("rss", "table", [1, 2]),
        # The victim's final ACK would come after the migration.
        ("traffic", "handshake_gap_us", 25.001),
        # The run would end before the last scripted packet.
        ("", "duration_us", 50.0),
    ])
    def test_worst_case_limits_are_checked_at_load(self, section, field, value):
        d = worst_case().to_dict()
        path = set_field(d, section, field, value)
        with pytest.raises(ScenarioError, match=f"^{path}"):
            Scenario.from_dict(d)

    def test_worst_case_at_its_limits_loads(self):
        d = worst_case().to_dict()
        d["traffic"]["handshake_gap_us"] = 25.0
        d["duration_us"] = 50.001
        Scenario.from_dict(d)

    def test_null_and_1_ns_periods_load(self):
        d = movable(4).to_dict()
        d["scheduler"]["forced_migration_period_us"] = None
        assert Scenario.from_dict(d).scheduler.forced_migration_period_us is None
        d["scheduler"]["forced_migration_period_us"] = 0.001
        d["scheduler"]["tick_us"] = 0.001
        Scenario.from_dict(d)

    @pytest.mark.parametrize("section, field, value", [
        ("rss", "fields", ["foo"]),
        ("rss", "fields", []),
        ("rss", "key_hex", "00"),
        ("rss", "key_hex", "zz"),
        ("rss", "table", [0, 1, 2]),
        ("rss", "table", [0, 9]),
        ("rss", "table", [0, -1]),
        ("traffic", "src_addr", "10.0.0"),
    ])
    def test_validation_names_rss_input_that_would_fail_mid_run(self, section, field, value):
        d = scenario(4).to_dict()
        d[section][field] = value
        with pytest.raises(ScenarioError, match=f"{section}.{field}"):
            Scenario.from_dict(d)

    def test_default_key_covers_the_ipv6_four_tuple_but_not_the_protocol_too(self):
        # Two 16-byte addresses and two ports are 36 input bytes, the most
        # the 40-byte default key covers; the protocol byte makes 37.
        d = scenario(4, src_addr="2001:db8::1", dst_addr="2001:db8::2").to_dict()
        Scenario.from_dict(d)
        d["rss"]["fields"] += ("protocol",)
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(d)
        assert str(exc.value) == "rss.key_hex: key of 40 bytes cannot cover 37 input bytes"

    def test_empty_key_hex_is_a_key_too_short_not_the_default(self):
        # Only null selects the default key; "" spells a key of 0 bytes.
        d = scenario(4).to_dict()
        d["rss"]["key_hex"] = ""
        with pytest.raises(ScenarioError, match="rss.key_hex: key of 0 bytes"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("table", [None, [0, 1, 2, 0]])
    def test_three_core_host_runs_with_or_without_a_table(self, table):
        # Three queues: hash mod 3 without a table, a 4-entry table with one.
        d = scenario(12).to_dict()
        d["duration_us"] = 2_000.0
        d["host"]["processors"] = [[0, 1, 2]]
        d["apps"] = [{"ports": [5001, 6001], "cores": [0, 1, 2]}]
        d["rss"]["table"] = table
        report = run_scenario(Scenario.from_dict(d), seed=1).report
        assert report.handshakes == 12
        assert report.delivered_data > 0

    def test_smallest_accepted_values_run(self):
        s = scenario(4)
        s.duration_us = 2_000.0
        s.traffic.burst = 1
        s.nic.ring_capacity = 1
        s.flow_table.num_buckets = 1
        s.flow_table.max_entries = 1
        s.flow_table.pressure_threshold = 1.0
        s.flow_table.t_delete_pressure_ms = s.flow_table.t_delete_ms
        s.host.syscall_cadence_us = 0.0
        s.traffic.link_gbps = 1e-9
        report = run_scenario(s.validate(), seed=1).report
        assert report.handshakes == 4

    def test_validation_names_unknown_kind(self):
        d = scenario(4).to_dict()
        d["kind"] = "worstcase"
        with pytest.raises(ScenarioError, match="kind"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("field, traffic_kwargs", [
        ("traffic.ephemeral_start", {"streams": 10, "ephemeral_start": 65530}),
        ("traffic.streams", {"streams": 32769, "ephemeral_ports": "random"}),
    ])
    def test_validation_names_field_that_exhausts_the_ports(self, field, traffic_kwargs):
        d = scenario(**traffic_kwargs).to_dict()
        with pytest.raises(ScenarioError, match=field):
            Scenario.from_dict(d)

    def test_ports_that_just_fit_validate(self):
        scenario(10, ephemeral_start=65526).validate()
        scenario(32768, ephemeral_ports="random").validate()

    def test_pinned_scheduler_refuses_a_tick(self):
        # The engine schedules no tick under "pinned", so any other value
        # than the default would load and do nothing.
        d = movable(4).to_dict()
        d["scheduler"]["mode"] = "pinned"
        Scenario.from_dict(d)
        d["scheduler"]["tick_us"] = 0.0
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(d)
        assert str(exc.value) == ("scheduler.tick_us is not read under scheduler.mode 'pinned' "
                                  "and must keep its default, 500.0")

    @pytest.mark.parametrize("src, dst", [
        ("10.0.0.1", "2001:db8::2"),
        ("2001:db8::1", "10.0.0.2"),
    ])
    def test_validation_rejects_mixed_address_families(self, src, dst):
        d = scenario(4).to_dict()
        d["traffic"]["src_addr"], d["traffic"]["dst_addr"] = src, dst
        with pytest.raises(ScenarioError, match="traffic.dst_addr"):
            Scenario.from_dict(d)

    def test_validation_rejects_more_cores_than_a_descriptor_byte_holds(self):
        s = scenario(4)
        s.host.processors = (tuple(range(130)), tuple(range(130, 260)))
        with pytest.raises(ScenarioError, match="host.processors"):
            s.validate()
        s.host.processors = (tuple(range(128)), tuple(range(128, 256)))
        s.validate()

    def test_validation_rejects_bad_core_topology(self):
        s = scenario(4)
        s.host.processors = ((0, 1), (3, 4))
        with pytest.raises(ScenarioError):
            s.validate()


# Number fields that take every value, so they have no row in RULES.
UNBOUNDED = ("seed",)
NUMBER_TYPES = (int, float, int | None, float | None)


def unruled_number_fields(rules) -> list:
    """Dotted paths of the scenario's number fields that neither have a row
    in `rules` nor are listed in UNBOUNDED."""
    paths = []
    for name, tp in Scenario.FIELDS.items():
        fields = ([(f"{name}.{inner}", t) for inner, t in tp.FIELDS.items()] if is_record(tp)
                  else [(name, tp)])
        paths += [path for path, t in fields if t in NUMBER_TYPES]
    return [path for path in paths if path not in rules and path not in UNBOUNDED]


def is_float_field(path: str) -> bool:
    return float in (field_type(path), *get_args(field_type(path)))


# Row ends that a rule on more fields overrides; a test of their own checks them.
OVERRIDDEN_ENDS = (("traffic.link_gbps", "low"),)


def bound_edges():
    """(path, value at one finite end of the path's bound, nearest value
    beyond that end) for each end of each bound row, read off the row's
    own ends, not its membership test."""
    for path, rule in RULES.items():
        if not isinstance(rule, Bound):
            continue
        for end, outward in (("low", -math.inf), ("high", math.inf)):
            limit, is_open = getattr(rule, end), getattr(rule, end + "_open")
            if abs(limit) == math.inf or (path, end) in OVERRIDDEN_ENDS:
                continue
            if is_float_field(path):
                edge = math.nextafter(limit, -outward) if is_open else float(limit)
                beyond = math.nextafter(edge, outward)
            else:
                step = 1 if outward > 0 else -1
                edge = limit - step if is_open else limit
                beyond = edge + step
            yield pytest.param(path, edge, beyond, id=f"{path}-{end}")


class TestRules:
    def test_every_number_field_has_a_row(self):
        assert unruled_number_fields(RULES) == []
        for path in UNBOUNDED:
            assert path not in RULES and field_type(path) in NUMBER_TYPES

    def test_a_field_without_a_row_is_found(self):
        rules = dict(RULES)
        del rules["flow_table.t_delete_ms"]
        assert unruled_number_fields(rules) == ["flow_table.t_delete_ms"]

    @pytest.mark.parametrize("path, edge, beyond", bound_edges())
    def test_each_bound_loads_at_its_edge_and_fails_just_beyond(self, path, edge, beyond):
        d = movable(4).to_dict()
        d["flow_table"]["t_delete_pressure_ms"] = 0.0  # lets t_delete_ms reach 0
        # ... and lets t_delete_pressure_ms reach its top.
        d["flow_table"]["t_delete_ms"] = RULES["flow_table.t_delete_ms"].high
        section, _, field = path.rpartition(".")
        set_field(d, section, field, edge)
        Scenario.from_dict(d)
        set_field(d, section, field, beyond)
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)} must be "):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("path", [p for p in RULES if is_float_field(p)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_each_float_row_refuses_nan_and_inf(self, path, value):
        d = movable(4).to_dict()
        section, _, field = path.rpartition(".")
        set_field(d, section, field, value)
        with pytest.raises(ScenarioError,
                           match=f"^{re.escape(path)} must be a finite number(?: or null)?, not "):
            Scenario.from_dict(d)


    def test_link_rate_loads_at_its_floor_and_fails_just_below(self):
        # A stream's share of the link sets the time between its bursts,
        # which must be a finite number of ns: the floor depends on the
        # stream count, the packet size and the burst. Bisect the float
        # bit patterns between the row's edge, which fails, and 1 Gbps.
        d = scenario(4).to_dict()

        def loads(bits: int) -> bool:
            d["traffic"]["link_gbps"] = struct.unpack("<d", struct.pack("<q", bits))[0]
            try:
                Scenario.from_dict(d)
            except ScenarioError as exc:
                assert str(exc).startswith("traffic.link_gbps ")
                return False
            return True

        low, high = 1, struct.unpack("<q", struct.pack("<d", 1.0))[0]
        assert not loads(low) and loads(high)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if loads(mid) else (mid, high)
        assert not loads(low)
        assert loads(high)  # the next float up
        assert 0 < d["traffic"]["link_gbps"] < 1e-290
        assert inter_burst_ns(Scenario.from_dict(d).traffic) < math.inf

    @pytest.mark.parametrize("section, field, value", [
        ("host", "service_rate_pps", 1e-300),  # 1e9 / rate overflows
        ("traffic", "link_gbps", 1e-310),  # so does the time between bursts
    ])
    def test_rates_whose_nanoseconds_overflow_fail_at_load(self, section, field, value):
        d = bundled("pinned_same").to_dict()
        path = set_field(d, section, field, value)
        with pytest.raises(ScenarioError, match=f"^{re.escape(path)} .*{value!r}"):
            Scenario.from_dict(d)

    def test_slowest_service_rate_that_loads_runs(self):
        s = scenario(4)
        s.duration_us = 200.0
        s.host.service_rate_pps = RULES["host.service_rate_pps"].low
        report = run_scenario(s.validate(), seed=1).report
        assert report.delivered_data == 0 and report.generated_data > 0


def set_path(d, path, value):
    """Set the dotted `path` in `d`, adding its section when `d` lacks it."""
    section, _, name = path.rpartition(".")
    (d.setdefault(section, {}) if section else d)[name] = value


def scenario_paths() -> set:
    """The dotted path of every setting of a scenario."""
    paths = set()
    for name, tp in Scenario.FIELDS.items():
        paths |= {f"{name}.{field}" for field in tp.FIELDS} if is_record(tp) else {name}
    return paths


# Each setting a worst case reads, with two sets of overrides whose report
# rows differ; only the second changes the setting. Both runs last half a
# second: the victim's entry idles from 50 us on, so the default 1 s idle
# timeout keeps it and a shorter one evicts it.
READ_BY_ROW = {
    "name": ({}, {"name": "other"}),
    "kind": ({}, {"kind": "streams"}),
    "seed": ({}, {"seed": 2}),  # it only labels the row
    "duration_us": ({}, {"duration_us": 1_000.0}),
    # A flow's two addresses share a family; an IPv6 entry takes more memory.
    "traffic.src_addr": ({}, {"traffic.src_addr": "2001:db8::1",
                              "traffic.dst_addr": "2001:db8::2"}),
    "traffic.packet_bytes": ({}, {"traffic.packet_bytes": 1_000}),
    "traffic.handshake_gap_us": ({}, {"traffic.handshake_gap_us": 0.0}),
    "host.processors": ({}, {"host.processors": [[0, 1, 2]]}),
    "host.service_rate_pps": ({}, {"host.service_rate_pps": 2e6}),
    "host.ack_every": ({}, {"host.ack_every": 1}),
    "nic.mode": ({}, {"nic.mode": "rss"}),
    "nic.ring_capacity": ({}, {"nic.ring_capacity": 4}),
    "nic.latency_accounting": ({}, {"nic.latency_accounting": True}),
    "flow_table.max_entries": ({}, {"flow_table.max_entries": 1}),
    "flow_table.t_timer_us": ({}, {"flow_table.t_timer_us": 0.0}),
    "flow_table.t_delete_ms": ({}, {"flow_table.t_delete_ms": 100.0}),
    # Only a table at its pressure threshold takes the shorter timeout.
    "flow_table.t_delete_pressure_ms": (
        {"flow_table.max_entries": 1},
        {"flow_table.max_entries": 1, "flow_table.t_delete_pressure_ms": 1_000.0},
    ),
    "flow_table.pressure_threshold": ({}, {"flow_table.pressure_threshold": 1e-5}),
}

# Settings a worst case reads to pick its victim and filler flows, the first
# two source ports whose hash lands on queue 0. Another pick runs the same
# schedule, so the row may stay the same.
KEY_PICKING = {
    "traffic.ports": "ports[0] is both flows' destination port",
    "traffic.dst_addr": "both flows' destination address, in src_addr's family",
    "rss.key_hex": "the hash key that places the flows",
    "rss.table": "the indirection table that places the flows",
    "rss.fields": "the hash input that places the flows",
}


class TestWorstCaseSettings:
    def test_every_setting_is_refused_read_by_the_row_or_picks_the_flows(self):
        groups = [set(WORST_CASE_UNREAD), set(READ_BY_ROW), set(KEY_PICKING)]
        assert sum(map(len, groups)) == len(set.union(*groups))  # disjoint
        assert set.union(*groups) == scenario_paths()

    @pytest.mark.parametrize("path", sorted(READ_BY_ROW))
    def test_each_read_setting_changes_the_row(self, path):
        runs = []
        for overrides in READ_BY_ROW[path]:
            d = bundled("worstcase").to_dict()
            d["duration_us"] = 500_000.0
            for name, value in overrides.items():
                set_path(d, name, value)
            runs.append(Scenario.from_dict(d))
        assert field_value(runs[0], path) != field_value(runs[1], path)
        before, after = (run_scenario(s).report.to_row() for s in runs)
        assert before != after

    def test_a_saved_worst_case_loads_as_it_was(self):
        s = bundled("worstcase")
        s.flow_table.t_timer_us = 85.0
        s.host.processors = ((0, 1, 2),)
        assert Scenario.from_dict(s.to_dict()) == s


# For each row of UNREAD that a streams scenario can meet: a bundled file
# that meets it, and a value other than the default for one of its paths.
STREAMS_UNREAD = [
    ("traffic.ephemeral_ports 'random'", "admission_l6_n200", "traffic.ephemeral_start", 40_000),
    ("traffic.ephemeral_ports 'random'", "admission_l1_n1000", "traffic.ephemeral_start", 1_000),
    ("scheduler.mode 'pinned'", "pinned_same", "scheduler.tick_us", 37.0),
    ("scheduler.mode 'pinned'", "pinned_cross", "scheduler.tick_us", 37.0),
    ("apps rules that each name one core", "pinned_same", "scheduler.mode", "peak_performance"),
    ("apps rules that each name one core", "pinned_cross", "scheduler.mode", "power_saving"),
    ("apps rules that each name one core", "pinned_same",
     "scheduler.forced_migration_period_us", 300.0),
    ("apps rules that each name one core", "pinned_cross",
     "scheduler.forced_migration_period_us", 300.0),
]


class TestUnreadSettings:
    def test_every_streams_row_and_path_has_a_case(self):
        rows = {(condition, path) for condition, _, paths in UNREAD[1:] for path in paths}
        assert {(condition, path) for condition, _, path, _ in STREAMS_UNREAD} == rows
        assert UNREAD[0][0] == "kind 'worst_case'"

    @pytest.mark.parametrize("condition, name, path, value", STREAMS_UNREAD)
    def test_the_setting_leaves_the_row_alone(self, condition, name, path, value, monkeypatch):
        base = bundled(name)
        holds = {text: test for text, test, _ in UNREAD}[condition]
        assert holds(base)
        changed = bundled(name)
        section, _, field = path.rpartition(".")
        setattr(getattr(changed, section), field, value)
        assert holds(changed) and changed != base
        monkeypatch.setattr(Scenario, "validate", lambda s: s)  # the load would refuse it
        assert run_scenario(changed).report.to_row() == run_scenario(base).report.to_row()

    @pytest.mark.parametrize("condition, name, path, value", STREAMS_UNREAD)
    def test_load_and_run_refuse_the_setting(self, condition, name, path, value, tmp_path,
                                             capsys):
        d = bundled(name).to_dict()
        set_path(d, path, value)
        refusal = f"{path} is not read under {condition} and must keep its default, "
        with pytest.raises(ScenarioError, match=f"^{re.escape(refusal)}"):
            Scenario.from_dict(d)
        probe, out = tmp_path / "probe.json", tmp_path / "out"
        probe.write_text(json.dumps(d))
        assert main(["run", str(probe), "--out", str(out), "--quiet"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {refusal}")
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_no_bundled_file_holds_a_setting_it_leaves_unread(self, path):
        d, scenario = json.loads(path.read_text()), Scenario.load(path)
        for _, holds, paths in UNREAD:
            for unread_path in paths if holds(scenario) else ():
                section, _, name = unread_path.rpartition(".")
                assert name not in (d.get(section, {}) if section else d), unread_path


class TestSections:
    def test_no_two_scenarios_share_a_section(self):
        Scenario().nic.mode = "rss"
        d = Scenario().to_dict()
        del d["traffic"]
        Scenario.from_dict(d).traffic.streams = 7
        fresh = Scenario()
        assert fresh.nic.mode == "flowsteer" and fresh.traffic.streams == 40
        assert fresh.nic is not Scenario().nic

    def test_no_two_scenarios_share_an_app_rule(self):
        Scenario().apps[0].cores = (1,)
        d = Scenario().to_dict()
        del d["apps"]
        Scenario.from_dict(d).apps[1].ports = (7001,)
        fresh = Scenario()
        assert fresh.apps == (AppRule((5001,), (0,)), AppRule((6001,), (1,)))
        assert fresh.apps[0] is not Scenario().apps[0]

    def test_equality_follows_the_field_values(self):
        assert Scenario() == Scenario()
        changed = Scenario()
        changed.flow_table.t_timer_us = 0.0
        assert changed != Scenario()
        assert AppRule((5001,), (0,)) == AppRule(ports=(5001,), cores=(0,))
        assert AppRule((5001,), (0,)) != AppRule((5001,), (1,))

    def test_app_rule_without_cores(self):
        with pytest.raises(TypeError):
            AppRule((5001,))
        d = scenario(4).to_dict()
        d["apps"] = [{"ports": [5001, 6001]}]
        with pytest.raises(ScenarioError, match=r"^apps\[0\].cores is missing$"):
            Scenario.from_dict(d)


def test_only_the_loader_raises_scenario_error():
    # Scenario.validate checks every rule at load; what runs a loaded
    # scenario trusts it and never fails halfway with a ScenarioError.
    raises = []
    for path in sorted(Path(steersim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ScenarioError":
                    raises.append((path.name, node.lineno))
    assert raises, "the walk finds no raise at all"
    assert [r for r in raises if r[0] != "workload.py"] == []


class TestNanoseconds:
    """`nanoseconds` gives every time setting a run reads in whole ns."""

    def test_names_every_time_setting(self):
        assert list(nanoseconds(Scenario())) == [
            "duration", "handshake_gap", "start_spread", "cadence", "tick", "alternate",
            "t_timer", "t_delete", "t_delete_pressure", "service", "inter_burst"]

    @pytest.mark.parametrize("path, value, name, ns", [
        ("duration_us", 0.0019, "duration", 1),
        ("traffic.handshake_gap_us", 0.0019, "handshake_gap", 1),
        ("traffic.start_spread_us", 2.5009, "start_spread", 2500),
        ("host.syscall_cadence_us", 0.0019, "cadence", 1),
        ("scheduler.tick_us", 0.0019, "tick", 1),
        ("scheduler.forced_migration_period_us", 0.0019, "alternate", 1),
        ("flow_table.t_timer_us", 84.9159, "t_timer", 84915),
        ("flow_table.t_delete_ms", 0.0000019, "t_delete", 1),
        ("flow_table.t_delete_pressure_ms", 0.0000019, "t_delete_pressure", 1),
    ])
    def test_each_time_setting_truncates(self, path, value, name, ns):
        s = Scenario()
        s.scheduler.mode = "peak_performance"  # a pinned scenario has no tick
        section, _, field = path.rpartition(".")
        setattr(field_value(s, section) if section else s, field, value)
        assert nanoseconds(s)[name] == ns

    @pytest.mark.parametrize("pps, ns", [
        (1.5e6, 667),  # 666.67 ns; truncation would give 666
        (3e6, 333),
        (2.5e9, 1),  # 0.4 ns rounds to 0; a packet costs at least 1 ns
    ])
    def test_service_rounds_to_at_least_1(self, pps, ns):
        s = Scenario()
        s.host.service_rate_pps = pps
        assert nanoseconds(s)["service"] == ns

    @pytest.mark.parametrize("gbps, ns", [
        (7.2, 10_000),  # 3 streams share 7.2 Gbps: 200,000 pps each, bursts of 2
        (5.4, 13_333),  # 13,333.33 ns
        (2.7, 26_667),  # 26,666.67 ns; truncation would give 26,666
        (1e5, 1),  # 0.72 ns rounds to 1
        (1e7, 1),  # 0.0072 ns rounds to 0; a period is at least 1 ns
    ])
    def test_inter_burst_rounds_to_at_least_1(self, gbps, ns):
        s = scenario(3, burst=2, link_gbps=gbps)
        assert nanoseconds(s)["inter_burst"] == ns

    def test_a_period_that_is_off_is_none(self):
        s = Scenario()
        s.host.syscall_cadence_us = None
        assert s.scheduler.mode == "pinned" and s.scheduler.forced_migration_period_us is None
        ns = nanoseconds(s)
        assert (ns["tick"], ns["alternate"], ns["cadence"]) == (None, None, None)

    def test_the_engine_is_built_with_these_values(self):
        s = bundled("memory10g")
        ns = nanoseconds(s)
        engine = Engine(s, 1)
        assert engine.host.service_ns == ns["service"]
        assert (engine.table.t_delete_ns, engine.table.t_delete_pressure_ns) == (
            ns["t_delete"], ns["t_delete_pressure"])


def unit_conversions(source: str) -> list:
    """(line, enclosing function) of each unit conversion in `source`: a
    `round` call, which turns a rate or a period into whole ns, or an `int`
    call whose argument multiplies or divides by US, MS or SEC, or divides
    1e9 by something."""
    found = []

    def converts(arg) -> bool:
        for node in ast.walk(arg):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
                names = [n.id for n in (node.left, node.right) if isinstance(n, ast.Name)]
                if {"US", "MS", "SEC"} & set(names):
                    return True
                if (isinstance(node.op, ast.Div) and isinstance(node.left, ast.Constant)
                        and node.left.value == 1e9):
                    return True
        return False

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and (child.func.id == "round"
                         or child.func.id == "int" and any(map(converts, child.args)))):
                found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(source), None)
    return found


def test_unit_conversions_are_found():
    source = ("X = int(2 * US)\n"
              "def f(a, b):\n"
              "    return int((a + b) * MS), round(1e9 / a), round(SEC / b), int(a)\n"
              "def g(x):\n"
              "    return int(round(f(x)))\n")
    assert unit_conversions(source) == [(1, None), (3, "f"), (3, "f"), (3, "f"), (5, "g")]


def test_only_nanoseconds_converts_units():
    # Every time setting turns into ns in one function, so a run, its checks
    # and its tests all round alike.
    found = {}
    for path in sorted(Path(steersim.__file__).parent.glob("*.py")):
        for line, function in unit_conversions(path.read_text()):
            found.setdefault((path.name, function), []).append(line)
    assert len(found.pop(("workload.py", "nanoseconds"), ())) == 11
    assert found == {}
