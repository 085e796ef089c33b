import ipaddress
import math
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.flows import ACK, DATA, SYN, FlowKey
from steersim.flowtable import (
    DIRECT,
    FALLBACK,
    HELD,
    FlowTable,
    TimerBugError,
    address_word,
    bucket_index,
    memory_estimate,
    search_time,
)
from steersim.workload import Scenario, TableSpec, nanoseconds


def key(sport=40000, dport=5001):
    return FlowKey(sport, dport)


def rx_pkt(k, kind=DATA, seq=0):
    return (k, kind, seq)


class Timers:
    """The flow keys of the hold timers the table started, in order."""

    def __init__(self):
        self.scheduled = []

    def __call__(self, flow_key):
        self.scheduled.append(flow_key)


def packed(addr: str) -> bytes:
    return ipaddress.ip_address(addr).packed


def make_table(fallback=0, src="10.0.0.1", dst="10.0.0.2", **fields):
    """A table between `src` and `dst`, packed as the RSS engine packs them."""
    timers = Timers()
    spec = TableSpec(**fields)
    ns = nanoseconds(Scenario(flow_table=spec))
    table = FlowTable(spec, packed(src), packed(dst), ns["t_delete"], ns["t_delete_pressure"],
                      schedule_timer=timers, fallback_core=lambda k: fallback)
    return table, timers


def admit(table, k, now=0):
    table.on_rx_connection_tracking(rx_pkt(k, SYN), now)
    table.note_tx_packet(k, now)
    entry = table.on_rx_connection_tracking(rx_pkt(k, ACK), now)
    return entry


def reference_bucket_index(k, num_buckets, src, dst):
    """bucket_index of the run between the packed addresses `src` and
    `dst`, with no word computed ahead: the port pair XORed with both
    addresses folded to 32 bits, the destination's halves swapped, through
    the murmur3 finalizer."""
    def fold(addr):
        return reduce(xor, (int.from_bytes(addr[i:i + 4], "big")
                            for i in range(0, len(addr), 4)))

    dst = fold(dst)
    h = (k.src_port << 16 | k.dst_port) ^ fold(src) ^ (dst << 16 | dst >> 16) & 0xFFFFFFFF
    for shift, mult in ((16, 0x85EBCA6B), (13, 0xC2B2AE35)):
        h = (h ^ h >> shift) * mult & 0xFFFFFFFF
    return (h ^ h >> 16) % num_buckets


ADDRESS_PAIRS = [
    ("10.0.0.1", "10.0.0.2"),
    ("192.168.7.200", "172.16.254.3"),
    ("2001:db8::1", "2001:db8::2"),
    ("fe80::1:2:3:4", "2001:db8:ffff::9"),
]

# The address word of the default address pair, 10.0.0.1 -> 10.0.0.2.
WORD = address_word(packed("10.0.0.1"), packed("10.0.0.2"))


class TestBucketIndex:
    @pytest.mark.parametrize("src, dst", ADDRESS_PAIRS)
    def test_matches_an_uncached_reference(self, src, dst):
        src, dst = packed(src), packed(dst)
        word = address_word(src, dst)
        for sport in range(32768, 32768 + 300, 7):
            for num_buckets in (1, 3, 256, 4096):
                k = key(sport=sport)
                assert bucket_index(k, num_buckets, word) == \
                    reference_bucket_index(k, num_buckets, src, dst)

    @pytest.mark.parametrize("src, dst", ADDRESS_PAIRS)
    def test_table_buckets_by_its_address_pair(self, src, dst):
        table, _ = make_table(src=src, dst=dst, num_buckets=4096, max_entries=64)
        for sport in range(32768, 32768 + 300, 7):
            entry = admit(table, key(sport=sport))
            assert entry.bucket == reference_bucket_index(key(sport=sport), 4096,
                                                          packed(src), packed(dst))

    def test_single_bucket(self):
        assert bucket_index(key(), 1, WORD) == 0

    def test_deterministic(self):
        assert bucket_index(key(), 256, WORD) == bucket_index(key(), 256, WORD)

    def test_occupancy_matches_uniform_formula(self):
        # 2000 distinct port pairs sharing one address pair into 256 buckets:
        # expected occupied buckets is B*(1-(1-1/B)^N) = 255.90 under uniform
        # hashing.
        rng = random.Random(11)
        ports = rng.sample(range(32768, 65536), 2000)
        occupied = {
            bucket_index(key(sport=p, dport=5001 if p % 2 else 6001), 256, WORD)
            for p in ports
        }
        expected = 256 * (1 - (1 - 1 / 256) ** 2000)
        assert math.isclose(expected, 255.90, abs_tol=0.01)
        assert abs(len(occupied) - expected) <= 3

    def test_sequential_ports_spread(self):
        # Sequential ephemeral assignment must still spread across buckets.
        counts = {}
        for p in range(32768, 32768 + 2000):
            b = bucket_index(key(sport=p), 256, WORD)
            counts[b] = counts.get(b, 0) + 1
        assert max(counts.values()) <= 20


class TestConnectionTracking:
    def test_full_handshake_creates_entry(self):
        table, _ = make_table(fallback=2)
        entry = admit(table, key())
        assert entry is not None
        assert entry.core_id == 2
        assert entry.held is None
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


class TestObserveTx:
    def test_same_core_refreshes_without_timer(self):
        table, timers = make_table(fallback=0)
        k = key()
        admit(table, k)
        table.observe_tx(k, 0, 50)
        entry = table.get(k)
        assert entry.last_activity == 50 and entry.held is None and entry.core_id == 0
        assert table.stats.transitions_started == 0
        assert timers.scheduled == []

    def test_core_change_starts_transition(self):
        table, timers = make_table(fallback=0, t_timer_us=100.0)
        k = key()
        admit(table, k)
        table.observe_tx(k, 1, 70)
        entry = table.get(k)
        assert entry.held == [] and entry.core_id == 1
        assert table.stats.transitions_started == 1
        assert timers.scheduled == [k]

    def test_unknown_flow(self):
        table, timers = make_table()
        table.observe_tx(key(), 1, 0)
        assert table.get(key()) is None and len(table) == 0
        assert table.stats.transitions_started == 0 and timers.scheduled == []

    def test_retarget_keeps_original_deadline(self):
        # A second migration inside the transition window retargets the core
        # but must not extend the hold beyond one timer period.
        table, timers = make_table(fallback=0, t_timer_us=100.0)
        k = key()
        admit(table, k)
        table.observe_tx(k, 1, 0)
        table.observe_tx(k, 2, 40_000)
        entry = table.get(k)
        assert entry.held == [] and entry.core_id == 2
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
        table.observe_tx(k, 1, 0)
        for seq in (5, 6, 7):
            decision, _, _ = table.steer(rx_pkt(k, seq=seq), seq, False)
            assert decision is HELD
        entry = table.get(k)
        assert [seq for (_, _, seq), _ in entry.held] == [5, 6, 7]
        assert table.stats.held_now == table.stats.peak_held == 3

    def test_unknown_flow_falls_back(self):
        table, _ = make_table()
        decision, core, _ = table.steer(rx_pkt(key()), 0, False)
        assert decision is FALLBACK and core is None


class TestTimerExpiry:
    def test_flush_returns_fifo_and_clears(self):
        table, timers = make_table(fallback=0, t_timer_us=1.0)
        k = key()
        admit(table, k)
        table.observe_tx(k, 1, 0)
        for seq in (5, 6, 7):
            table.steer(rx_pkt(k, seq=seq), 10, False)
        core, flushed = table.on_timer_expire(k, 1000)
        assert core == 1
        assert [seq for (_, _, seq), _ in flushed] == [5, 6, 7]
        entry = table.get(k)
        assert entry.held is None and table.stats.held_now == 0
        assert table.stats.peak_held == 3

    def test_empty_flush_still_clears(self):
        table, _ = make_table(fallback=0, t_timer_us=1.0)
        k = key()
        admit(table, k)
        table.observe_tx(k, 1, 0)
        core, flushed = table.on_timer_expire(k, 1000)
        assert flushed == [] and table.get(k).held is None

    def test_post_flush_steer_goes_direct_to_new_core(self):
        table, _ = make_table(fallback=0, t_timer_us=1.0)
        k = key()
        admit(table, k)
        table.observe_tx(k, 1, 0)
        table.on_timer_expire(k, 1000)
        decision, core, _ = table.steer(rx_pkt(k), 2000, False)
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
        table.steer(rx_pkt(active), 900, False)
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
        table.observe_tx(k, 1, 0)
        table.steer(rx_pkt(k, seq=1), 0, False)
        assert table.age(10_000) == []
        assert table.get(k) is not None

    def test_stale_partial_handshake_expires(self):
        table, _ = make_table(t_delete_ms=0.001, t_delete_pressure_ms=0.001)
        k = key()
        table.on_rx_connection_tracking(rx_pkt(k, SYN), 0)
        table.age(2000)
        # Handshake must restart from SYN after expiry.
        table.note_tx_packet(k, 2100)
        assert table.on_rx_connection_tracking(rx_pkt(k, ACK), 2200) is None

    def test_young_partial_handshake_survives_a_sweep(self):
        table, _ = make_table(t_delete_ms=0.001, t_delete_pressure_ms=0.001)
        k = key()
        table.on_rx_connection_tracking(rx_pkt(k, SYN), 1500)
        table.note_tx_packet(k, 1500)
        table.age(2000)  # 500 ns after the SYN-ACK, under t_delete's 1,000 ns
        assert table.on_rx_connection_tracking(rx_pkt(k, ACK), 2100) is not None

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

    def test_the_one_index_follows_a_flow_through_aging_and_readmission(self):
        table, timers = make_table(fallback=0, t_delete_ms=0.001, t_delete_pressure_ms=0.001)
        k = key()
        old = admit(table, k, now=0)
        assert table.age(1000) == [k]
        table.observe_tx(k, 1, 1001)  # an ACK of the aged-out flow
        assert table.get(k) is None and len(table) == 0
        assert old.core_id == 0 and old.held is None and old.last_activity == 0
        assert table.stats.transitions_started == 0 and timers.scheduled == []
        new = admit(table, k, now=2000)
        assert new is not None and new is not old and table.get(k) is new
        table.observe_tx(k, 1, 2001)
        assert new.core_id == 1 and new.held == [] and new.last_activity == 2001
        assert table.stats.transitions_started == 1 and timers.scheduled == [k]


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
        table.observe_tx(k, 1, 0)
        for i, seq in enumerate(seqs):
            table.steer(rx_pkt(k, seq=seq), i, False)
        _, flushed = table.on_timer_expire(k, nanoseconds(Scenario())["t_timer"])
        assert [seq for (_, _, seq), _ in flushed] == seqs

    def test_direct_after_observe_until_next_change(self):
        # Once a transition to core c flushes, every steer is Direct(c) until
        # a differing descriptor arrives.
        table, _ = make_table(fallback=0, t_timer_us=0.01)
        k = key()
        admit(table, k)
        table.observe_tx(k, 3, 0)
        table.on_timer_expire(k, 10)
        for t in range(20, 400, 17):
            decision, core, _ = table.steer(rx_pkt(k), t, False)
            assert (decision, core) == (DIRECT, 3)
            table.observe_tx(k, 3, t)
            assert table.get(k).held is None
        assert table.stats.transitions_started == 1
