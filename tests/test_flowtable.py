import ipaddress
import math
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.flows import ACK, DATA, SYN, PROTO_TCP, PROTO_UDP, FlowKey, reverse_key
from steersim.flowtable import (
    DIRECT,
    FALLBACK,
    HELD,
    FlowTable,
    TimerBugError,
    bucket_index,
    memory_estimate,
    search_time,
)
from steersim.workload import Scenario, TableSpec, nanoseconds


def key(sport=40000, dport=5001, src="10.0.0.1", dst="10.0.0.2", proto=PROTO_TCP):
    return FlowKey(src, dst, proto, sport, dport)


def rx_pkt(k, kind=DATA, seq=0, size=1500):
    return (k, kind, seq, size)


class Timers:
    """The flow keys of the hold timers the table started, in order."""

    def __init__(self):
        self.scheduled = []

    def __call__(self, flow_key):
        self.scheduled.append(flow_key)


def make_table(fallback=0, **fields):
    timers = Timers()
    spec = TableSpec(**fields)
    ns = nanoseconds(Scenario(flow_table=spec))
    table = FlowTable(spec, ns["t_delete"], ns["t_delete_pressure"],
                      schedule_timer=timers, fallback_core=lambda k: fallback)
    return table, timers


def admit(table, k, now=0):
    table.on_rx_connection_tracking(rx_pkt(k, SYN), now)
    table.note_tx_packet(k, reverse_key(k), now)
    entry = table.on_rx_connection_tracking(rx_pkt(k, ACK), now)
    return entry


class TestFlowKey:
    def test_outgoing_key_maps_to_receive_key(self):
        out = FlowKey("x", "y", 7, 112, 113)
        assert reverse_key(out) == FlowKey("y", "x", 7, 113, 112)

    @given(
        st.integers(0, 65535), st.integers(0, 65535),
        st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
    )
    def test_involution(self, sport, dport, a, b, proto):
        k = FlowKey(f"10.0.0.{a}", f"10.0.1.{b}", proto, sport, dport)
        assert reverse_key(reverse_key(k)) == k

    def test_symmetric_key_is_fixed_point(self):
        k = FlowKey("10.0.0.1", "10.0.0.1", PROTO_TCP, 5001, 5001)
        assert reverse_key(k) == k


def reference_bucket_index(k, num_buckets):
    """bucket_index with every address parsed afresh: the port pair XORed
    with both addresses folded to 32 bits, the destination's halves
    swapped, through the murmur3 finalizer."""
    def fold(addr):
        packed = ipaddress.ip_address(addr).packed
        return reduce(xor, (int.from_bytes(packed[i:i + 4], "big")
                            for i in range(0, len(packed), 4)))

    dst = fold(k.dst_addr)
    h = (k.src_port << 16 | k.dst_port) ^ fold(k.src_addr) ^ (dst << 16 | dst >> 16) & 0xFFFFFFFF
    for shift, mult in ((16, 0x85EBCA6B), (13, 0xC2B2AE35)):
        h = (h ^ h >> shift) * mult & 0xFFFFFFFF
    return (h ^ h >> 16) % num_buckets


class TestBucketIndex:
    @pytest.mark.parametrize("src, dst", [
        ("10.0.0.1", "10.0.0.2"),
        ("192.168.7.200", "172.16.254.3"),
        ("2001:db8::1", "2001:db8::2"),
        ("fe80::1:2:3:4", "2001:db8:ffff::9"),
    ])
    def test_matches_an_uncached_reference(self, src, dst):
        for sport in range(32768, 32768 + 300, 7):
            for num_buckets in (1, 3, 256, 4096):
                k = key(sport=sport, src=src, dst=dst)
                assert bucket_index(k, num_buckets) == reference_bucket_index(k, num_buckets)

    def test_single_bucket(self):
        assert bucket_index(key(), 1) == 0

    def test_deterministic(self):
        assert bucket_index(key(), 256) == bucket_index(key(), 256)

    def test_occupancy_matches_uniform_formula(self):
        # 2000 distinct port pairs sharing one address pair into 256 buckets:
        # expected occupied buckets is B*(1-(1-1/B)^N) = 255.90 under uniform
        # hashing.
        rng = random.Random(11)
        ports = rng.sample(range(32768, 65536), 2000)
        occupied = {
            bucket_index(key(sport=p, dport=5001 if p % 2 else 6001), 256)
            for p in ports
        }
        expected = 256 * (1 - (1 - 1 / 256) ** 2000)
        assert math.isclose(expected, 255.90, abs_tol=0.01)
        assert abs(len(occupied) - expected) <= 3

    def test_sequential_ports_spread(self):
        # Sequential ephemeral assignment must still spread across buckets.
        counts = {}
        for p in range(32768, 32768 + 2000):
            b = bucket_index(key(sport=p), 256)
            counts[b] = counts.get(b, 0) + 1
        assert max(counts.values()) <= 20


class TestConnectionTracking:
    def test_full_handshake_creates_entry(self):
        table, _ = make_table(fallback=2)
        entry = admit(table, key())
        assert entry is not None
        assert entry.core_id == 2
        assert not entry.transition
        assert table.stats.admitted == 1

    def test_syn_then_data_is_not_enough(self):
        table, _ = make_table()
        k = key()
        table.on_rx_connection_tracking(rx_pkt(k, SYN), 0)
        assert table.on_rx_connection_tracking(rx_pkt(k, DATA, seq=0), 1) is None
        assert table.get(k) is None

    def test_ack_without_synack_is_not_enough(self):
        table, _ = make_table()
        k = key()
        table.on_rx_connection_tracking(rx_pkt(k, SYN), 0)
        assert table.on_rx_connection_tracking(rx_pkt(k, ACK), 1) is None

    def test_full_bucket_rejects_later_flow(self):
        table, _ = make_table(max_list_size=1, num_buckets=1)
        assert admit(table, key(sport=40000)) is not None
        assert admit(table, key(sport=40001)) is None
        assert table.stats.rejected_bucket_full == 1
        assert table.stats.handshakes_completed == 2

    def test_table_capacity_rejects(self):
        table, _ = make_table(max_entries=2, num_buckets=64)
        assert admit(table, key(sport=1)) is not None
        assert admit(table, key(sport=2)) is not None
        assert admit(table, key(sport=3)) is None
        assert table.stats.rejected_table_full == 1

    def test_non_tcp_ignored(self):
        table, _ = make_table()
        k = key(proto=PROTO_UDP)
        assert table.on_rx_connection_tracking(rx_pkt(k, SYN), 0) is None
        assert table.on_rx_connection_tracking(rx_pkt(k, ACK), 1) is None
        assert table.get(k) is None


class TestObserveTx:
    def test_same_core_refreshes_without_timer(self):
        table, timers = make_table(fallback=0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 0, 50)
        entry = table.get(k)
        assert entry.last_activity == 50 and not entry.transition and entry.core_id == 0
        assert table.stats.transitions_started == 0
        assert timers.scheduled == []

    def test_core_change_starts_transition(self):
        table, timers = make_table(fallback=0, t_timer_us=100.0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 70)
        entry = table.get(k)
        assert entry.transition and entry.core_id == 1
        assert table.stats.transitions_started == 1
        assert timers.scheduled == [k]

    def test_unknown_flow(self):
        table, timers = make_table()
        table.observe_tx(reverse_key(key()), 1, 0)
        assert table.get(key()) is None and len(table) == 0
        assert table.stats.transitions_started == 0 and timers.scheduled == []

    def test_retarget_keeps_original_deadline(self):
        # A second migration inside the transition window retargets the core
        # but must not extend the hold beyond one timer period.
        table, timers = make_table(fallback=0, t_timer_us=100.0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 0)
        table.observe_tx(reverse_key(k), 2, 40_000)
        entry = table.get(k)
        assert entry.transition and entry.core_id == 2
        assert table.stats.transitions_started == 1
        assert timers.scheduled == [k]


class TestSteer:
    def test_direct(self):
        table, _ = make_table(fallback=2)
        k = key()
        admit(table, k)
        decision, core, pos = table.steer(rx_pkt(k), 10, want_position=True)
        assert decision is DIRECT and core == 2 and pos == 1

    def test_chain_position_reported_for_latency_charging(self):
        table, _ = make_table(fallback=0, num_buckets=1, max_list_size=4)
        first, second = key(sport=1), key(sport=2)
        admit(table, first)
        admit(table, second)
        _, _, pos = table.steer(rx_pkt(second), 0, want_position=True)
        assert pos == 2
        assert search_time(pos) == 410

    def test_held_appends_fifo(self):
        table, _ = make_table(fallback=0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 0)
        for seq in (5, 6, 7):
            decision, _, _ = table.steer(rx_pkt(k, seq=seq), seq)
            assert decision is HELD
        entry = table.get(k)
        assert [seq for (_, _, seq, _), _ in entry.held] == [5, 6, 7]
        assert table.stats.held_bytes == 3 * 1500

    def test_unknown_udp_falls_back(self):
        table, _ = make_table()
        decision, core, _ = table.steer(rx_pkt(key(proto=PROTO_UDP)), 0)
        assert decision is FALLBACK and core is None


class TestTimerExpiry:
    def test_flush_returns_fifo_and_clears(self):
        table, timers = make_table(fallback=0, t_timer_us=1.0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 0)
        for seq in (5, 6, 7):
            table.steer(rx_pkt(k, seq=seq), 10)
        core, flushed = table.on_timer_expire(k, 1000)
        assert core == 1
        assert [seq for (_, _, seq, _), _ in flushed] == [5, 6, 7]
        entry = table.get(k)
        assert not entry.transition
        assert entry.held == [] and table.stats.held_bytes == 0

    def test_empty_flush_still_clears(self):
        table, _ = make_table(fallback=0, t_timer_us=1.0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 0)
        core, flushed = table.on_timer_expire(k, 1000)
        assert flushed == [] and not table.get(k).transition

    def test_post_flush_steer_goes_direct_to_new_core(self):
        table, _ = make_table(fallback=0, t_timer_us=1.0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 0)
        table.on_timer_expire(k, 1000)
        decision, core, _ = table.steer(rx_pkt(k), 2000)
        assert decision is DIRECT and core == 1

    def test_expiry_without_transition_is_a_bug(self):
        table, _ = make_table()
        k = key()
        admit(table, k)
        with pytest.raises(TimerBugError):
            table.on_timer_expire(k, 100)


class TestAging:
    def test_idle_entry_evicted_active_retained(self):
        table, _ = make_table(t_delete_ms=0.001, t_delete_pressure_ms=0.001)
        idle, active = key(sport=1), key(sport=2)
        admit(table, idle, now=0)
        admit(table, active, now=0)
        table.steer(rx_pkt(active), 900)
        evicted = table.age(1000)
        assert evicted == [idle]
        assert table.get(idle) is None and table.get(active) is not None
        assert table.stats.evictions == 1

    def test_pressure_uses_shorter_timeout(self):
        table, _ = make_table(
            max_entries=10, pressure_threshold=0.9,
            t_delete_ms=0.01, t_delete_pressure_ms=0.0001, num_buckets=64,
        )
        for i in range(9):  # 90% occupancy
            admit(table, key(sport=100 + i), now=0)
        assert table.age(500) != []  # idle for 500 >= pressure timeout

    def test_transition_entries_exempt(self):
        table, _ = make_table(t_delete_ms=0.00001, t_delete_pressure_ms=0.00001)
        k = key()
        admit(table, k, now=0)
        table.observe_tx(reverse_key(k), 1, 0)
        table.steer(rx_pkt(k, seq=1), 0)
        assert table.age(10_000) == []
        assert table.get(k) is not None

    def test_stale_partial_handshake_expires(self):
        table, _ = make_table(t_delete_ms=0.001, t_delete_pressure_ms=0.001)
        k = key()
        table.on_rx_connection_tracking(rx_pkt(k, SYN), 0)
        table.age(2000)
        # Handshake must restart from SYN after expiry.
        table.note_tx_packet(k, reverse_key(k), 2100)
        assert table.on_rx_connection_tracking(rx_pkt(k, ACK), 2200) is None

    def test_rejected_flow_can_retry_after_eviction_frees_the_chain(self):
        table, _ = make_table(
            max_list_size=1, num_buckets=1,
            t_delete_ms=0.001, t_delete_pressure_ms=0.001,
        )
        blocker, late = key(sport=1), key(sport=2)
        assert admit(table, blocker, now=0) is not None
        assert admit(table, late, now=0) is None  # chain full, steered by hash
        table.age(5000)  # blocker idles out
        assert admit(table, late, now=5001) is not None


class TestCostModels:
    def test_memory_examples(self):
        assert memory_estimate(10_000, 4, 0) == 200_000
        assert memory_estimate(0, 4, 0) == 0
        assert memory_estimate(10_000, 6, 0) == 440_000
        assert memory_estimate(100, 4, 5_000) == 7_000

    def test_search_time_examples(self):
        assert search_time(1) == 260
        assert search_time(6) == 1010

    def test_search_time_monotone(self):
        values = [search_time(p) for p in range(1, 10)]
        assert values == sorted(values) and len(set(values)) == len(values)

    def test_search_time_rejects_zero(self):
        with pytest.raises(ValueError):
            search_time(0)


class TestInvariants:
    @given(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=300, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_chain_and_capacity_caps(self, sports):
        table, _ = make_table(max_list_size=2, max_entries=64, num_buckets=8)
        for sport in sports:
            admit(table, key(sport=sport))
        assert len(table._entries) <= 64
        for bucket in table._buckets.values():
            assert len(bucket) <= 2
        stats = table.stats
        assert stats.admitted + stats.rejected_bucket_full + stats.rejected_table_full \
            == len(sports)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_held_flush_preserves_arrival_order(self, seqs):
        table, _ = make_table(fallback=0)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 1, 0)
        for i, seq in enumerate(seqs):
            table.steer(rx_pkt(k, seq=seq), i)
        _, flushed = table.on_timer_expire(k, nanoseconds(Scenario())["t_timer"])
        assert [seq for (_, _, seq, _), _ in flushed] == seqs

    def test_direct_after_observe_until_next_change(self):
        # Once a transition to core c flushes, every steer is Direct(c) until
        # a differing descriptor arrives.
        table, _ = make_table(fallback=0, t_timer_us=0.01)
        k = key()
        admit(table, k)
        table.observe_tx(reverse_key(k), 3, 0)
        table.on_timer_expire(k, 10)
        for t in range(20, 400, 17):
            decision, core, _ = table.steer(rx_pkt(k), t)
            assert (decision, core) == (DIRECT, 3)
            table.observe_tx(reverse_key(k), 3, t)
            assert not table.get(k).transition
        assert table.stats.transitions_started == 1
