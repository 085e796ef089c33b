"""Bundled scenario builders.

pinned_same / pinned_cross pin each port's app threads to one core (on the
same physical processor vs across processors) and measure steering benefit.
migrate_same / migrate_cross let the threads migrate between two cores under
scheduler pressure and measure reordering. admission sweeps the table's
admitted fraction against stream count and chain depth. worstcase is the
deterministic worst-case migration schedule. memory10g drives an aggregate
10 Gbps at a 0.2 ms hold timer to bound held bytes.
"""

from .workload import AppRule, Scenario

# (D - 1) / R_service = 255 / 3e6 s = 85 us, under the 100 us default timer.
SERVICE_RATE_PPS = 3_000_000.0
RING_CAPACITY = 256


def _base(name: str) -> Scenario:
    s = Scenario(name=name)
    s.host.service_rate_pps = SERVICE_RATE_PPS
    s.nic.ring_capacity = RING_CAPACITY
    s.nic.mode = "flowsteer"
    return s


def pinned_same(streams: int = 40) -> Scenario:
    """Pinned apps, both on processor 0 (cores 0 and 1)."""
    s = _base("pinned_same")
    s.duration_us = 20_000.0
    s.traffic.streams = streams
    s.traffic.data_packets_per_stream = 60
    s.traffic.link_gbps = 0.48 * streams  # 40k pps of 1500 B per stream
    s.traffic.burst = 3
    s.traffic.burst_spacing_ns = 250
    s.traffic.jitter_ns = 60_000
    # Compute phase comparable to the burst gap: bursts land against both a
    # sleeping receiver (process context) and a busy one (interrupt context).
    s.host.syscall_cadence_us = 65.0
    s.apps = (AppRule((5001,), (0,)), AppRule((6001,), (1,)))
    s.scheduler.mode = "pinned"
    return s


def pinned_cross(streams: int = 40) -> Scenario:
    """Pinned apps on different physical processors (cores 0 and 2)."""
    s = pinned_same(streams)
    s.name = "pinned_cross"
    s.apps = (AppRule((5001,), (0,)), AppRule((6001,), (2,)))
    return s


def migrate_same(streams: int = 40) -> Scenario:
    """Migrating apps, both allowed cores on processor 0."""
    s = _base("migrate_same")
    s.traffic.streams = streams
    s.apps = (AppRule((5001, 6001), (0, 1)),)
    s.scheduler.mode = "peak_performance"
    s.scheduler.tick_us = 250.0
    s.scheduler.forced_migration_period_us = 500.0
    if streams <= 200:
        # Few flows: drive each hard so bursts straddle migrations.
        s.duration_us = 20_000.0
        s.traffic.data_packets_per_stream = max(60, 16_000 // streams)
        s.traffic.link_gbps = 57.6  # 4.8 Mpps of 1500 B
        s.traffic.burst = 8
        s.traffic.burst_spacing_ns = 300
        s.traffic.jitter_ns = 50_000
        s.host.syscall_cadence_us = 30.0
    else:
        # Many flows: aggregate pressure builds the ring depth instead.
        s.duration_us = 30_000.0
        s.traffic.data_packets_per_stream = max(10, 60_000 // streams)
        s.traffic.link_gbps = 48.0  # 4 Mpps of 1500 B
        s.traffic.burst = 6
        s.traffic.burst_spacing_ns = 250
        s.traffic.jitter_ns = 50_000
        s.host.syscall_cadence_us = 50.0
    return s


def migrate_cross(streams: int = 40) -> Scenario:
    """Migrating apps across physical processors (cores 0 and 2)."""
    s = migrate_same(streams)
    s.name = "migrate_cross"
    s.apps = (AppRule((5001, 6001), (0, 2)),)
    return s


def admission(streams: int, max_list_size: int) -> Scenario:
    """Admission sweep point: uniform random ephemeral ports, one address
    pair, 256 buckets."""
    s = _base("admission")
    s.name = f"admission_l{max_list_size}_n{streams}"
    s.duration_us = 15_000.0
    s.traffic.streams = streams
    s.traffic.data_packets_per_stream = 2
    s.traffic.link_gbps = 0.12 * streams  # 10k pps of 1500 B per stream
    s.traffic.ephemeral_ports = "random"
    s.flow_table.max_list_size = max_list_size
    s.apps = (AppRule((5001, 6001), (0, 1)),)
    s.scheduler.mode = "pinned"
    return s


def worstcase(ring_capacity: int = RING_CAPACITY) -> Scenario:
    """Deterministic worst-case migration schedule."""
    s = _base("worstcase")
    s.kind = "worst_case"
    s.duration_us = 500.0
    s.nic.ring_capacity = ring_capacity
    return s


def memory10g() -> Scenario:
    """Aggregate 10 Gbps offered load with a 0.2 ms hold timer; held bytes
    must stay within timer * line rate."""
    s = _base("memory10g")
    s.name = "memory10g"
    s.duration_us = 25_000.0
    s.traffic.streams = 200
    s.traffic.data_packets_per_stream = 110
    s.traffic.link_gbps = 10.0
    s.traffic.burst = 4
    s.traffic.jitter_ns = 30_000
    s.flow_table.t_timer_us = 200.0
    s.host.syscall_cadence_us = 40.0
    s.apps = (AppRule((5001, 6001), (0, 1)),)
    s.scheduler.mode = "peak_performance"
    s.scheduler.tick_us = 500.0
    s.scheduler.forced_migration_period_us = 1_000.0
    return s


BUNDLED = {
    "pinned_same": lambda: pinned_same(),
    "pinned_cross": lambda: pinned_cross(),
    "migrate_same": lambda: migrate_same(),
    "migrate_cross": lambda: migrate_cross(),
    "migrate_same_2000": lambda: migrate_same(2000),
    "migrate_cross_2000": lambda: migrate_cross(2000),
    "worstcase": worstcase,
    "memory10g": memory10g,
    "admission_l1_n1000": lambda: admission(1000, 1),
    "admission_l1_n2000": lambda: admission(2000, 1),
    "admission_l6_n40": lambda: admission(40, 6),
    "admission_l6_n200": lambda: admission(200, 6),
    "admission_l6_n1000": lambda: admission(1000, 6),
    "admission_l6_n2000": lambda: admission(2000, 6),
}
