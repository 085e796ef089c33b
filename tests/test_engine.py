"""Whole-run integration behaviour of the wired simulation."""

import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from array import array
from collections import Counter, deque
from pathlib import Path

import pytest

import steersim
from steersim.flows import ACK, DATA, SYN, FlowKey
from steersim.flowtable import FlowTable
from steersim.host import STATE_COMPUTING, SocketModel
from steersim.nic import Nic
from steersim.runner import Engine, run_scenario
from steersim.simkernel import US, Simulator
from steersim.workload import WORST_CASE_FIRE_NS, nanoseconds

from bundled import bundled, migrating, pinned_same
from delivery_oracle import DeliveryLog, DeliveryRecord, in_socket_order, record_deliveries

import write_golden_digests as golden  # noqa: E402  (on the path that bundled sets)


def small_migrate(t_timer_us=100.0, seed=1):
    s = bundled("migrate_same")
    s.flow_table.t_timer_us = t_timer_us
    return run_scenario(s, seed=seed)


def shortened(s, duration_us):
    s.duration_us = duration_us
    return s


def in_mode(s, mode):
    s.nic.mode = mode
    return s


def without_cadence_gap(s):
    s.host.syscall_cadence_us = 0.0
    return s


class TestWorstCaseSchedule:
    def test_zero_timer_produces_inversion_deterministically(self):
        s = bundled("worstcase")
        s.flow_table.t_timer_us = 0.0
        result = run_scenario(s, seed=1)
        assert result.report.reordering_ratio > 0
        # Re-run: same schedule, same inversion.
        again = run_scenario(s, seed=1)
        assert again.report.reordering_ratio == result.report.reordering_ratio

    def test_worst_case_timer_preserves_order(self):
        s = bundled("worstcase")
        d = s.nic.ring_capacity
        s.flow_table.t_timer_us = (d - 1) * nanoseconds(s)["service"] / 1000
        result = run_scenario(s, seed=1)
        assert result.report.reordering_ratio == 0.0
        assert result.report.held_packets >= 1

    @pytest.mark.parametrize("ring", [2, 256])
    def test_schedule_fills_the_ring_and_spaces_one_tick(self, ring):
        # What reaches the NIC: ring - 1 filler packets, then victim packet
        # S one tick before the migration ACK from core 1 and S+1 one tick
        # after it.
        engine = Engine(bundled("worstcase", {"nic": {"ring_capacity": ring}}), seed=1)
        nic = engine.nic
        rx, tx_ack = nic.rx, nic.tx_ack
        data, acks = [], []

        def record_rx(packet, now):
            k, kind, seq = packet
            if kind == DATA:
                data.append((now, k, seq))
            rx(packet, now)

        def record_ack(key, core, now):  # the SYN-ACK and the migration
            acks.append((now, core))
            tx_ack(key, core, now)

        nic.rx, nic.tx_ack = record_rx, record_ack
        engine.run()
        victim = next(iter(engine.host.sockets))  # the first socket
        t = WORST_CASE_FIRE_NS
        fillers = [(now, seq) for now, k, seq in data if k != victim]
        assert fillers == [(t - 2, seq) for seq in range(ring - 1)]
        assert [(now, seq) for now, k, seq in data if k == victim] == [(t - 1, 0), (t + 1, 1)]
        assert [a for a in acks if a[0] >= t - 2] == [(t, 1)]
        assert [now for now, _, _ in data] == sorted(now for now, _, _ in data)

    def test_minimal_ring(self):
        s = bundled("worstcase", {"nic": {"ring_capacity": 2}})
        s.flow_table.t_timer_us = 0.0
        assert run_scenario(s, seed=1).report.reordering_ratio > 0

    def test_victim_hold_delay_within_timer(self):
        s = bundled("worstcase")
        s.flow_table.t_timer_us = 85.0
        result = run_scenario(s, seed=1)
        assert result.hold_delays
        assert 0 < max(result.hold_delays) <= 85_000


class TestConservation:
    @pytest.mark.parametrize("mode", ["flowsteer", "rss"])
    def test_every_packet_delivered_dropped_or_resident(self, mode):
        s = bundled("migrate_same")
        s.nic.mode = mode
        result = run_scenario(s, seed=3)
        r = result.report
        resident = sum(ring["queued"] for ring in r.queue_stats.values())
        delivered_plus_lost = r.delivered_data + r.drops
        assert delivered_plus_lost <= r.generated_data
        # Whatever was not delivered or dropped is still parked in a ring,
        # backlog, or hold list at the horizon.
        assert r.generated_data - delivered_plus_lost >= 0

    def test_exactly_once_delivery(self, monkeypatch):
        logs = record_deliveries(monkeypatch)
        small_migrate()
        for key, records in logs.items():
            seqs = [rec.seq for rec in records if rec.kind == DATA]
            assert len(seqs) == len(set(seqs)), f"duplicate delivery for {key}"

    def test_delivery_log_times_non_decreasing(self, monkeypatch):
        logs = record_deliveries(monkeypatch)
        small_migrate()
        for records in logs.values():
            times = [rec.t for rec in records]
            assert times == sorted(times)

    def test_queue_accounting_identity(self):
        result = small_migrate(seed=5)
        for ring_stats in result.report.queue_stats.values():
            assert ring_stats["queued"] >= 0 and ring_stats["dropped"] >= 0

    @pytest.mark.parametrize("build", [
        lambda: bundled("migrate_same"),
        # Cut short while threads still drain: packets stay in backlogs.
        lambda: shortened(bundled("memory10g"), 6_000.0),
        lambda: in_mode(bundled("pinned_same"), "rss"),
        lambda: bundled("worstcase"),
    ], ids=["migrate_same", "memory10g_6ms", "pinned_same_rss", "worstcase"])
    def test_every_deferral_is_delivered_once_or_still_backlogged(self, build):
        engine = Engine(build(), seed=1)
        engine.run()
        host = engine.host
        backlogged = sum(len(sock.backlog) for sock in host.sockets.values())
        assert host.stats.deferrals == host.stats.delivered_process + backlogged


class _CheckedLaneQueue(deque):
    """A lane's queue that fails when a socket is queued while it already
    waits on this or any other lane sharing `queued`."""

    def __init__(self, queued: set):
        super().__init__()
        self.queued = queued

    def append(self, sock):
        assert sock not in self.queued, f"socket {sock.key} queued twice"
        self.queued.add(sock)
        super().append(sock)

    def popleft(self):
        sock = super().popleft()
        self.queued.remove(sock)
        return sock


class TestProcessLanes:
    # A lane unit's work follows from its thread's state, which is exact
    # only if a thread has one unit queued at a time and every receive call
    # starts from a computing thread with nothing in its backlog.
    @pytest.mark.parametrize("build", [
        lambda: shortened(bundled("migrate_same"), 10_000.0),
        lambda: without_cadence_gap(bundled("memory10g")),
    ], ids=["migrate_same_10ms", "memory10g_cadence0"])
    def test_one_unit_per_thread_and_calls_from_computing_threads(self, build):
        engine = Engine(build(), seed=1)
        host = engine.host
        queued = set()
        for lane in host.proc_lanes:
            lane.queue = _CheckedLaneQueue(queued)
        calls = Counter()
        enter = host._syscall_enter

        def recorded(sock):
            calls[sock.state, len(sock.backlog)] += 1
            enter(sock)

        host._syscall_enter = recorded
        engine.run()
        assert list(calls) == [(STATE_COMPUTING, 0)]
        assert calls[STATE_COMPUTING, 0] == host.stats.syscalls
        assert host.stats.delivered_process > 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = small_migrate(seed=11).report.to_row()
        b = small_migrate(seed=11).report.to_row()
        assert a == b

    def test_different_seed_differs(self):
        a = small_migrate(seed=11).report.to_row()
        b = small_migrate(seed=12).report.to_row()
        assert a != b


class TestHoldBounds:
    def test_held_delay_never_exceeds_timer(self):
        for seed in (1, 2, 3):
            result = small_migrate(seed=seed)
            if result.hold_delays:
                assert max(result.hold_delays) <= 100 * US

    def test_report_summarises_hold_delays(self):
        result = small_migrate(seed=1)
        delays = result.hold_delays
        assert delays
        assert result.report.held_delay_max_ns == max(delays)
        assert result.report.held_delay_mean_ns == sum(delays) / len(delays)

    def test_held_count_returns_to_zero_after_the_last_flush(self, monkeypatch):
        # After every flush the table's held count is what the entries
        # still hold; the run's last flush leaves no entry in transition.
        engine = Engine(bundled("migrate_same"), seed=1)
        expire = FlowTable.on_timer_expire
        after = []

        def recorded(table, key, now):
            out = expire(table, key, now)
            entries = [e for e in map(table.get, engine.host.sockets) if e is not None]
            after.append((table.stats.held_now, sum(len(e.held or ()) for e in entries),
                          sum(e.held is not None for e in entries)))
            return out

        monkeypatch.setattr(FlowTable, "on_timer_expire", recorded)
        report = engine.run().report
        assert report.held_packets > 0 and len(after) > 1
        assert all(total == per_entry for total, per_entry, _ in after)
        assert after[-1] == (0, 0, 0)
        assert report.peak_held_bytes == engine.table.stats.peak_held * 1500

    # The golden scenarios that hold the most frames, and the worst case and
    # tie stress, whose schedules are scripted rather than generated.
    @pytest.mark.parametrize("name", ["memory10g", "memory10g+age", "migrate_same+latency",
                                      "migrate_cross", "worstcase", "tie_stress"])
    def test_only_data_frames_are_held(self, name):
        # The report counts held packets and converts the peak to bytes at
        # traffic.packet_bytes each, the size of a data frame: that is right
        # only while no control frame is ever held.
        engine = Engine(golden.scenarios()[name], seed=1)
        expire = engine.table.on_timer_expire
        kinds = Counter()

        def checked(key, now):
            core, flushed = expire(key, now)
            for frame, _ in flushed:
                assert len(frame) == 3 and frame[0] == key
                kinds[frame[1]] += 1
            return core, flushed

        engine.table.on_timer_expire = checked
        report = engine.run().report
        assert set(kinds) == {DATA}
        assert 0 < kinds[DATA] <= report.held_packets

    def test_held_bytes_bounded_by_line_rate_times_timer(self):
        result = run_scenario(bundled("memory10g"), seed=1)
        assert result.report.held_packets > 0
        assert result.report.peak_held_bytes <= 250_000


class TestTableMemory:
    @pytest.mark.parametrize("src, dst, per_entry", [
        ("10.0.0.1", "10.0.0.2", 20),
        ("2001:db8::1", "2001:db8::2", 44),
    ])
    def test_entry_size_follows_the_address_family(self, src, dst, per_entry):
        s = bundled("pinned_same")
        s.duration_us = 5_000.0
        s.traffic.src_addr, s.traffic.dst_addr = src, dst
        report = run_scenario(s.validate(), seed=1).report
        assert report.peak_entries > 0 and report.peak_held_bytes > 0
        assert report.table_memory_peak_bytes == (
            per_entry * report.peak_entries + report.peak_held_bytes
        )


class TestAgingAtRunLevel:
    def test_idle_entries_age_out_during_a_run(self):
        s = pinned_same(8)
        s.duration_us = 40_000.0
        s.flow_table.t_delete_ms = 15.0
        s.flow_table.t_delete_pressure_ms = 15.0
        # All traffic lands in the first few ms; sweeps later evict.
        result = run_scenario(s, seed=1)
        assert result.report.admitted == 8
        assert result.report.evictions == 8

    def test_active_flows_survive_the_sweep(self):
        s = pinned_same(8)
        s.flow_table.t_delete_ms = 1000.0
        result = run_scenario(s, seed=1)
        assert result.report.evictions == 0


class TestTopologyWeighting:
    def test_cross_processor_counted_only_for_cross_socket_placement(self):
        # pinned_same keeps apps on processor 0; pinned_cross puts one app
        # on processor 1, so its RSS misses cross the socket boundary too.
        same = bundled("pinned_same")
        same.nic.mode = "rss"
        cross = bundled("pinned_cross")
        cross.nic.mode = "rss"
        r_same = run_scenario(same, seed=1).report
        r_cross = run_scenario(cross, seed=1).report
        assert r_cross.cross_processor_packets > 0
        assert r_same.cross_processor_packets < r_same.cross_core_packets
        assert r_cross.cross_processor_packets <= r_cross.cross_core_packets


class TestLearningEdgeCases:
    def test_app_that_never_receives_is_never_learned(self):
        # Everything stays in interrupt context: the steering table gets no
        # process-context descriptors, so the flow keeps its fallback core
        # and flow affinity still holds.
        s = pinned_same(8)
        s.host.syscall_cadence_us = None
        result = run_scenario(s, seed=1)
        assert result.report.transitions == 0
        assert result.report.delivered_process == 0
        assert result.report.flow_affinity == 1.0

    def test_rss_mode_never_transitions(self):
        s = pinned_same(8)
        s.nic.mode = "rss"
        result = run_scenario(s, seed=1)
        assert result.report.transitions == 0
        assert result.report.admitted == 0


class TestScenarioShape:
    def test_streams_count_drives_handshakes(self):
        s = bundled("admission_l6_n40")
        result = run_scenario(s, seed=1)
        assert result.report.handshakes == 40
        assert result.report.admitted == 40

    def test_apps_on_both_ports_share_allowed_cores(self):
        s = migrating("migrate_same", 4)
        s.scheduler.forced_migration_period_us = None
        result = run_scenario(s, seed=1)
        assert result.report.generated_data > 0

    def test_scenario_configures_key_and_indirection_table(self):
        from steersim.runner import build_rss_engine

        s = pinned_same(8)
        s.rss.key_hex = "ab" * 40
        s.rss.table = (0, 1, 2, 3, 3, 2, 1, 0)
        engine = build_rss_engine(s)
        assert engine.key == bytes.fromhex("ab" * 40)
        assert engine.table == (0, 1, 2, 3, 3, 2, 1, 0)
        result = run_scenario(s, seed=1)
        assert result.report.delivered_data > 0

    def test_rss_and_steering_modes_share_fallback(self):
        # A flow the table rejects must route exactly like plain RSS.
        s = pinned_same(8)
        s.flow_table.max_entries = 1
        result = run_scenario(s, seed=1)
        assert result.report.rejected_table_full > 0
        assert result.report.delivered_data == result.report.generated_data

    @pytest.mark.parametrize("calls", [True, False])
    def test_handshake_times_past_64_bits_run(self, calls):
        # A valid gap puts each SYN-ACK and ACK past 2**63 ns, beyond the
        # horizon: those arrivals stay Python ints and never fire.
        s = pinned_same(4)
        s.traffic.handshake_gap_us = 1e300
        if not calls:
            s.host.syscall_cadence_us = None
        report = run_scenario(s.validate(), seed=1).report
        assert report.handshakes == 0
        assert report.generated_data == 0


class TestRunsOnce:
    @pytest.mark.parametrize("name", ["migrate_same", "worstcase"])
    def test_second_run_raises(self, name):
        engine = Engine(bundled(name), seed=1)
        engine.run()
        with pytest.raises(RuntimeError, match="an Engine runs once"):
            engine.run()


ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: what `import steersim` and one run add to
# sys.modules, as JSON, then the report step's CSV header and aggregates.
STARTUP = """
import json, sys
before = set(sys.modules)
from steersim import Engine, Scenario, metrics
row = Engine(Scenario.load(sys.argv[1])).run().report.to_row()
added = sorted(set(sys.modules) - before)
text = metrics.rows_to_csv([row, row])
aggregates = metrics.aggregate_rows([row, row])
print(json.dumps({"added": added, "header": text.splitlines()[0],
                  "aggregated": [a["metric"] for a in aggregates]}))
"""


def test_a_run_imports_no_dataclasses_statistics_or_csv():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", STARTUP, str(ROOT / "scenarios" / "pinned_same.json")],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    seen = json.loads(out.stdout)
    loaded = {"dataclasses", "inspect", "statistics", "csv", "fractions", "decimal"}
    assert loaded.isdisjoint(seen["added"])
    assert "steersim.runner" in seen["added"]
    assert seen["header"].startswith("schema,scenario,seed,mode,")
    assert "delivered_data" in seen["aggregated"]


@pytest.fixture
def gc_state():
    """Restore the collector's on/off state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestGarbageCollectionPause:
    def test_no_collection_inside_run(self, gc_state):
        code = Engine.run.__code__
        inside = []

        def watch(phase, info):
            if phase == "start":
                frame = sys._getframe(1)
                while frame is not None and frame.f_code is not code:
                    frame = frame.f_back
                inside.append(frame is not None)

        gc.enable()
        engine = Engine(migrating("migrate_same", 200), seed=3)
        gc.callbacks.append(watch)
        try:
            engine.run()
            gc.collect()  # a collection outside run is seen, and not inside it
        finally:
            gc.callbacks.remove(watch)
        assert inside and not any(inside)

    def test_paused_for_the_loop_and_enabled_after(self, gc_state, monkeypatch):
        seen = []
        run_until = Simulator.run_until

        def spy(sim, t_end):
            seen.append(gc.isenabled())
            return run_until(sim, t_end)

        monkeypatch.setattr(Simulator, "run_until", spy)
        gc.enable()
        run_scenario(migrating("migrate_same", 8), seed=1)
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_that_disabled_it_finds_it_disabled(self, gc_state):
        gc.disable()
        run_scenario(migrating("migrate_same", 8), seed=1)
        assert not gc.isenabled()

    def test_restored_when_setup_raises(self, gc_state, monkeypatch):
        def failing_setup(engine):
            raise RuntimeError("setup failed")

        monkeypatch.setattr(Engine, "_schedule_streams", failing_setup)
        gc.enable()
        with pytest.raises(RuntimeError, match="setup failed"):
            Engine(migrating("migrate_same", 8), seed=1).run()
        assert gc.isenabled()

    def test_restored_when_the_loop_raises(self, gc_state, monkeypatch):
        def failing_loop(sim, t_end):
            raise RuntimeError("loop failed")

        monkeypatch.setattr(Simulator, "run_until", failing_loop)
        gc.enable()
        with pytest.raises(RuntimeError, match="loop failed"):
            Engine(migrating("migrate_same", 8), seed=1).run()
        assert gc.isenabled()


def _is_handshake_packet(o) -> bool:
    """Whether `o` is a received packet, a `(key, kind, seq)` tuple, of a
    kind other than data."""
    return type(o) is tuple and len(o) == 3 and type(o[0]) is FlowKey and o[1] != DATA


def _census() -> Counter:
    """gc-tracked objects by type; packets other than data count as
    "handshake packet"."""
    return Counter(
        "handshake packet" if _is_handshake_packet(o) else type(o)
        for o in gc.get_objects()
    )


class TestPerFlowState:
    """What a finished run keeps per flow: a socket with a list backlog of
    seqs, its delivery tallies and one transmit-direction key. Handshake
    packets exist only while they are in use."""

    STREAMS = 200

    def test_flows_keep_no_idle_objects(self, gc_state):
        s = migrating("migrate_same", self.STREAMS)
        s.duration_us = 3_000.0
        gc.collect()
        # Paused, so no collection untracks a key tuple before it is counted.
        gc.disable()
        before = _census()
        engine = Engine(s, seed=1)
        engine.run()
        alive = _census() - before
        sockets = engine.host.sockets.values()
        assert len(sockets) == self.STREAMS
        assert not any(isinstance(sock.backlog, deque) for sock in sockets)
        assert alive["handshake packet"] == 0
        assert alive[FlowKey] <= self.STREAMS  # one key per flow
        # Every hold has flushed by the end of the run, so no entry is in
        # transition and none keeps a held list.
        entries = engine.table._entries.values()
        assert entries and all(e.held is None for e in entries)

    def test_backlogs_hold_seqs_in_deferral_order(self):
        # Cut short while threads still drain, so backlogs hold packets:
        # each holds the seqs of its deferred frames, the oldest first.
        engine = Engine(shortened(bundled("memory10g"), 6_000.0), seed=1)
        host = engine.host
        add_flow = host.add_flow

        def wired(*args):
            sock = add_flow(*args)
            sock.backlog = _DeferralLog()
            return sock

        host.add_flow = wired
        engine.run()
        backlogged = 0
        for sock in host.sockets.values():
            backlog = sock.backlog
            assert all(type(seq) is int for seq in backlog)
            assert list(backlog) == backlog.deferred[len(backlog.deferred) - len(backlog):]
            backlogged += len(backlog)
        assert backlogged > 0
        assert host.stats.deferrals == host.stats.delivered_process + backlogged


class _DeferralLog(list):
    """A socket backlog that also keeps, in `deferred`, everything ever
    deferred to it, in order."""

    def __init__(self):
        super().__init__()
        self.deferred = []

    def append(self, seq):
        self.deferred.append(seq)
        super().append(seq)


def _steersim_classes() -> list:
    """Every class defined in a steersim module."""
    classes = []
    for info in pkgutil.iter_modules(steersim.__path__, "steersim."):
        if info.name != "steersim.__main__":  # runs the CLI when imported
            module = importlib.import_module(info.name)
            classes += [obj for obj in vars(module).values()
                        if isinstance(obj, type) and obj.__module__ == module.__name__]
    return classes


def _counted_init(cls, built: Counter, counting: list):
    """An `__init__` for `cls` that counts, while `counting[0]` is true,
    each object whose own class is `cls`, then runs the one `cls` had."""
    init = vars(cls).get("__init__", cls.__init__)

    def __init__(self, *args, **kwargs):
        if counting[0] and type(self) is cls:
            built[cls.__name__] += 1
        if init is not object.__init__:  # a tuple subclass's __new__ set it up
            init(self, *args, **kwargs)

    return __init__


class TestPerPacketPath:
    """The event loop builds no steersim object per packet: a received
    packet is a plain tuple. What it builds is per flow, so doubling each
    stream's packets leaves every count unchanged: one flow entry per
    admitted flow under flow steering, nothing at all under RSS."""

    @staticmethod
    def _built_during_run(scenario, monkeypatch):
        built, counting = Counter(), [False]
        with monkeypatch.context() as patch:
            for cls in _steersim_classes():
                patch.setattr(cls, "__init__", _counted_init(cls, built, counting))
            run_until = Simulator.run_until

            def counted(sim, t_end):
                counting[0] = True
                try:
                    return run_until(sim, t_end)
                finally:
                    counting[0] = False

            patch.setattr(Simulator, "run_until", counted)
            report = Engine(scenario, seed=1).run().report
        return built, report

    @pytest.mark.parametrize("make", [
        lambda: bundled("migrate_same"),
        lambda: in_mode(bundled("pinned_same"), "rss"),
    ], ids=["migrate_same", "pinned_same-rss"])
    def test_run_until_builds_no_object_per_packet(self, make, monkeypatch):
        scenario, doubled = make(), make()
        doubled.traffic.data_packets_per_stream *= 2
        built, report = self._built_during_run(scenario, monkeypatch)
        built_doubled, report_doubled = self._built_during_run(doubled, monkeypatch)
        assert report_doubled.generated_data == 2 * report.generated_data > 0
        assert built_doubled == built
        assert built["FlowEntry"] == report.admitted
        if scenario.nic.mode == "rss":
            assert built == Counter()

    def test_synack_builds_no_flow_key(self, monkeypatch):
        # The engine hands `Nic.tx` the flow's receive key beside its
        # transmit key, so the handshake tracker is looked up without
        # reversing the transmit key into a new one.
        built, counting = Counter(), [False]
        monkeypatch.setattr(FlowKey, "__init__", _counted_init(FlowKey, built, counting))
        tx, synacks = Nic.tx, []

        def counted(nic, *args):
            synacks.append(args)
            counting[0] = True
            try:
                return tx(nic, *args)
            finally:
                counting[0] = False

        monkeypatch.setattr(Nic, "tx", counted)
        report = Engine(bundled("migrate_same"), seed=1).run().report
        assert len(synacks) == report.handshakes == report.admitted == 40
        assert built == Counter()

    def test_aging_builds_no_flow_key(self, monkeypatch):
        # An entry keeps the transmit key it was admitted with, so aging
        # drops it from the transmit-key index without reversing its key.
        built, counting = Counter(), [False]
        monkeypatch.setattr(FlowKey, "__init__", _counted_init(FlowKey, built, counting))
        age = FlowTable.age

        def counted(table, now):
            counting[0] = True
            try:
                return age(table, now)
            finally:
                counting[0] = False

        monkeypatch.setattr(FlowTable, "age", counted)
        scenario = pinned_same(8)
        scenario.duration_us = 40_000.0
        scenario.flow_table.t_delete_ms = scenario.flow_table.t_delete_pressure_ms = 15.0
        report = Engine(scenario, seed=1).run().report
        assert report.evictions == report.admitted == 8
        assert built == Counter()


def _records_alive() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is DeliveryRecord)


class TestDeliveryRecording:
    def test_a_run_keeps_nothing_per_delivery(self):
        # A socket's slots hold its tallies, not one entry per delivery: a
        # log would take 19 bytes a delivery, the slots take under 4.
        engine = Engine(bundled("migrate_same"), seed=3)
        engine.run()
        for sock in engine.host.sockets.values():
            held = sum(sys.getsizeof(getattr(sock, name)) for name in SocketModel.__slots__)
            assert sock.data >= 200
            assert held < 4 * sock.data

    def test_the_recorder_logs_every_delivery(self, monkeypatch):
        logs = record_deliveries(monkeypatch)
        engine = Engine(bundled("migrate_same"), seed=3)
        r = engine.run().report
        assert set(logs) == set(engine.host.sockets)
        assert list(in_socket_order(logs, engine.host)) == list(engine.host.sockets)
        assert sum(map(len, logs.values())) == r.delivered_interrupt + r.delivered_process


class TestColumnarDeliveryLog:
    WIDE = ("seq", "t")
    BYTES = ("core", "app_core", "kind")

    def test_a_run_keeps_no_record_objects(self, monkeypatch):
        logs = record_deliveries(monkeypatch)
        run_scenario(bundled("migrate_same"), seed=3)
        assert sum(len(log) for log in logs.values()) > 1000
        assert _records_alive() == 0

    def test_every_column_is_compact(self, monkeypatch):
        logs = record_deliveries(monkeypatch)
        run_scenario(bundled("migrate_same"), seed=3)
        for log in logs.values():
            assert isinstance(log, DeliveryLog)
            for name in self.WIDE:
                column = getattr(log, name)
                assert isinstance(column, array) and column.typecode == "q"
                assert len(column) == len(log)
            for name in self.BYTES:
                column = getattr(log, name)
                assert isinstance(column, bytearray) and len(column) == len(log)

    def test_iteration_gives_back_the_appended_records(self):
        records = [
            DeliveryRecord(-1, 0, 0, 0, SYN),
            DeliveryRecord(7, 2**40, 255, 3, DATA),
            DeliveryRecord(-1, 2**40 + 5, 1, 255, ACK),
        ]
        log = DeliveryLog()
        for r in records:
            log.append(r.seq, r.t, r.core, r.app_core, r.kind)
        assert len(log) == 3
        assert list(log) == records
        assert [log[i] for i in range(3)] == records
        assert log[-1].app_core == 255 and log[1].kind == DATA
