import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.flows import DATA, FlowKey
from steersim.host import (
    MODE_PEAK_PERFORMANCE,
    MODE_PINNED,
    MODE_POWER_SAVING,
    STATE_COMPUTING,
    STATE_DRAINING,
    STATE_IDLE,
    STATE_SLEEPING,
    Host,
)
from steersim.nic import Nic
from steersim.rss import RssEngine
from steersim.simkernel import Simulator
from steersim.workload import NicSpec

import scheduler_oracle
from delivery_oracle import record_deliveries

SERVICE_NS = 333


def key(sport=40000, dport=5001):
    return FlowKey(sport, dport)


def rx_pkt(k, seq=0, kind=DATA):
    return (k, kind, seq)


@pytest.fixture
def logs(monkeypatch):
    """Flow key -> DeliveryLog of every delivery the test's host makes."""
    return record_deliveries(monkeypatch)


@pytest.fixture
def entered(monkeypatch):
    """(socket position, time) of every receive call the test's host
    enters, in order; a socket's position is its place in `host.sockets`."""
    calls = []
    enter = Host._syscall_enter

    def recorded(host, sock):
        calls.append((list(host.sockets).index(sock.key), host.sim.now))
        enter(host, sock)

    monkeypatch.setattr(Host, "_syscall_enter", recorded)
    return calls


class Harness:
    """Host over a real NIC in plain RSS mode so steering is hash-only and
    the host behaviour is isolated. Its threads make a receive call every
    `cadence_ns`, or never when that is None."""

    def __init__(self, scheduler=MODE_PINNED, ack_every=2, processors=((0, 1), (2, 3)),
                 cadence_ns=None):
        self.sim = Simulator()
        self.processors = processors
        self.num_cores = num_cores = sum(len(group) for group in processors)
        engine = RssEngine("10.0.0.1", "10.0.0.2", num_queues=num_cores)
        self.acks = []
        # The host installs its interrupt actions on the NIC it attaches to.
        self.nic = Nic(
            NicSpec(mode="rss", ring_capacity=256), num_cores,
            engine, None, self.sim,
        )
        # Record the ACKs the host sends; set before the host binds tx_ack.
        self.nic.tx_ack = lambda flow, core, now: self.acks.append((flow, core, now))
        self.host = Host(
            processors, self.sim, self.nic, SERVICE_NS, cadence_ns, scheduler_mode=scheduler,
            ack_every=ack_every,
        )

    def flow(self, k, core=0, allowed=None):
        return self.host.add_flow(k, core, tuple(allowed) if allowed else (core,))

    def threads(self):
        """The host's sockets, one per thread, in socket order."""
        return list(self.host.sockets.values())

    def first_call(self, sock, at):
        """Issue the first receive call of `sock`'s app at `at`, as the
        engine's arrivals do."""
        self.sim.schedule(at, lambda: self.host.submit_syscall(sock))

    def inject(self, k, seq, at, queue):
        self.sim.schedule(
            at, lambda: self.nic._enqueue(queue, rx_pkt(k, seq=seq))
        )


class TestInterruptContext:
    def test_unowned_socket_processes_at_service_rate(self, logs):
        h = Harness()
        k = key()
        sock = h.flow(k)  # idle app, never owns the socket
        for seq in range(5):
            h.inject(k, seq, at=0, queue=0)
        h.sim.run_until(10_000)
        assert len(logs[k]) == 5
        assert all(r.core == 0 for r in logs[k])
        assert (h.host.stats.delivered_interrupt, h.host.stats.delivered_process) == (5, 0)
        # First at t=0, then spaced by one service quantum each.
        assert [r.t for r in logs[k]] == [i * SERVICE_NS for i in range(5)]

    def test_owned_socket_defers_to_backlog(self, logs):
        h = Harness()
        k = key()
        sock = h.flow(k)
        sock.state = STATE_DRAINING
        for seq in range(3):
            h.inject(k, seq, at=0, queue=0)
        h.sim.run_until(5_000)
        assert k not in logs
        assert sock.backlog == [0, 1, 2]  # the deferred frames' seqs
        assert h.host.stats.deferrals == 3

    def test_empty_queue_handler_exits(self):
        h = Harness()
        h.flow(key())
        h.host.on_interrupt(0)
        # The drain ended at once, so a second interrupt is serviced too.
        h.host.on_interrupt(0)
        assert h.host.stats.interrupts_serviced == 2
        assert h.host.stats.delivered_interrupt == 0


class TestProcessContext:
    def test_process_starts_idle_only_without_cadence(self):
        idle_host, calling_host = Harness(), Harness(cadence_ns=100_000)
        idle = idle_host.flow(key(sport=1))
        calling = calling_host.flow(key(sport=2))
        assert (idle.state, calling.state) == (STATE_IDLE, STATE_COMPUTING)
        assert idle_host.host.runnable_counts() == [0, 0, 0, 0]
        assert calling_host.host.runnable_counts() == [1, 0, 0, 0]

    def test_backlog_drained_on_app_core(self, logs):
        # The app sleeps in its receive call on core 1 when four packets
        # reach queue 0 at once; each defers to the backlog, the first wakes it.
        h = Harness(cadence_ns=100_000)
        k = key()
        sock = h.flow(k, core=1)
        h.first_call(sock, at=10)
        for seq in range(4):
            h.inject(k, seq, at=500, queue=0)
        h.sim.run_until(50_000)
        assert h.host.stats.deferrals == 4
        assert len(logs[k]) == 4
        assert all(r.core == 1 for r in logs[k])
        assert (h.host.stats.delivered_interrupt, h.host.stats.delivered_process) == (0, 4)

    def test_sleeping_receiver_woken_by_arrival(self, logs):
        h = Harness(cadence_ns=100_000)
        k = key()
        sock = h.flow(k, core=1)
        h.first_call(sock, at=0)
        h.sim.run_until(10)
        assert sock.state == STATE_SLEEPING
        h.inject(k, seq=0, at=500, queue=0)
        h.sim.run_until(5_000)
        assert sock.state == STATE_COMPUTING
        assert len(logs[k]) == 1
        assert (h.host.stats.delivered_interrupt, h.host.stats.delivered_process) == (0, 1)
        assert logs[k][0].core == 1

    def test_ack_emitted_every_k_and_at_syscall_return(self):
        h = Harness(ack_every=2, cadence_ns=100_000)
        k = key()
        sock = h.flow(k, core=1)
        h.first_call(sock, at=0)
        for seq in range(3):
            h.inject(k, seq, at=500, queue=0)
        h.sim.run_until(50_000)
        assert h.host.stats.delivered_process == 3
        # Two ACKs: the per-2-packets one mid-drain, the residue at return.
        assert len(h.acks) == 2
        assert all(core == 1 for _, core, _ in h.acks)
        # Each ACK names the flow by its receive-direction key.
        assert all(flow is k for flow, _, _ in h.acks)

    def test_empty_backlog_syscall_blocks_without_ack(self):
        h = Harness(cadence_ns=100_000)
        sock = h.flow(key(), core=1)
        h.first_call(sock, at=0)
        h.sim.run_until(1_000)
        assert h.acks == []
        assert h.host.stats.syscalls == 1

    def test_deferred_then_drained_exactly_once(self, logs):
        # Packets arriving while owned are delivered once, in process context.
        h = Harness(cadence_ns=50_000)
        k = key()
        sock = h.flow(k, core=0)
        h.first_call(sock, at=0)
        for seq in range(6):
            h.inject(k, seq, at=100 + seq * 100, queue=0)
        h.sim.run_until(100_000)
        seqs = sorted(r.seq for r in logs[k])
        assert seqs == list(range(6))

    def test_alternation_under_rss_split_placement(self, logs):
        # Interrupts on core 0, app on core 1: deliveries use both cores.
        h = Harness(cadence_ns=3_000)
        k = key()
        sock = h.flow(k, core=1)
        h.first_call(sock, at=0)
        for seq in range(40):
            h.inject(k, seq, at=1_000 + seq * 2_000, queue=0)
        h.sim.run_until(200_000)
        stats = h.host.stats
        cores = {r.core for r in logs[k]}
        assert stats.delivered_interrupt > 0 and stats.delivered_process > 0
        assert stats.delivered_interrupt + stats.delivered_process == 40
        assert cores == {0, 1}
        assert len(logs[k]) == 40
        seqs = [r.seq for r in logs[k]]
        assert seqs == sorted(seqs)  # single queue: order survives alternation

    # An idle lane whose core's softirq is free takes a receive call or a
    # wake-up at once; in every other case the socket queues on the lane.

    def test_call_on_idle_lane_sleeps_at_once(self, entered):
        h = Harness(cadence_ns=100_000)
        sock = h.flow(key(), core=1)
        h.first_call(sock, at=1_000)
        h.sim.run_until(1_000)
        assert entered == [(0, 1_000)]
        assert sock.state == STATE_SLEEPING
        lane = h.host.proc_lanes[1]
        assert not lane.busy and not lane.queue
        assert h.host.runnable_counts() == [0, 0, 0, 0]

    def test_call_waits_for_the_cores_softirq(self, entered):
        # Three packets of an app that never enters a call keep core 1's
        # softirq busy until 3 x SERVICE_NS; a call made meanwhile on core 1
        # waits for it.
        h = Harness(cadence_ns=100_000)
        other = key(sport=1)
        h.flow(other, core=1)
        sock = h.flow(key(sport=2), core=1)
        for seq in range(3):
            h.inject(other, seq, at=0, queue=1)
        h.first_call(sock, at=100)
        h.sim.run_until(3 * SERVICE_NS - 1)
        lane = h.host.proc_lanes[1]
        assert h.host.irq_free[1] == 3 * SERVICE_NS
        assert sock.state == STATE_COMPUTING
        assert lane.busy and list(lane.queue) == [sock]
        h.sim.run_until(10_000)
        assert entered == [(1, 3 * SERVICE_NS)]
        assert sock.state == STATE_SLEEPING
        assert not lane.busy and not lane.queue

    def test_call_waits_behind_a_draining_socket(self, entered):
        # A drains three packets on core 1 from t=100; B's call at t=200
        # queues behind A and is entered when the lane reaches B, at A's
        # second service slot. A's last packet follows it at once.
        h = Harness(cadence_ns=100_000)
        ka = key(sport=1)
        a = h.flow(ka, core=1)
        b = h.flow(key(sport=2), core=1)
        h.first_call(a, at=0)
        for seq in range(3):
            h.inject(ka, seq, at=100, queue=0)
        h.first_call(b, at=200)
        h.sim.run_until(300)
        lane = h.host.proc_lanes[1]
        assert (a.state, b.state) == (STATE_DRAINING, STATE_COMPUTING)
        assert lane.busy and list(lane.queue) == [a, b]
        h.sim.run_until(10_000)
        assert entered == [(0, 0), (1, 100 + 2 * SERVICE_NS)]
        assert (a.state, b.state) == (STATE_COMPUTING, STATE_SLEEPING)

    def test_wake_up_on_idle_lane_delivers_at_arrival(self, logs):
        h = Harness(cadence_ns=100_000)
        k = key()
        sock = h.flow(k, core=1)
        h.first_call(sock, at=0)
        for seq in range(2):
            h.inject(k, seq, at=500, queue=0)
        h.sim.run_until(500)
        assert sock.state == STATE_DRAINING
        assert list(h.host.proc_lanes[1].queue) == [sock]
        h.sim.run_until(10_000)
        assert [(r.seq, r.t, r.core) for r in logs[k]] == [
            (0, 500, 1), (1, 500 + SERVICE_NS, 1)]
        assert (h.host.stats.delivered_interrupt, h.host.stats.delivered_process) == (0, 2)
        assert sock.state == STATE_COMPUTING

    def test_wake_up_waits_for_the_cores_softirq(self, logs):
        # Core 1's softirq serves three packets of an app that never enters
        # a call until 3 x SERVICE_NS; a sleeper on core 1 woken at t=100 from queue 0
        # gets its packet when the softirq is done.
        h = Harness(cadence_ns=100_000)
        other, k = key(sport=1), key(sport=2)
        h.flow(other, core=1)
        sock = h.flow(k, core=1)
        h.first_call(sock, at=0)
        for seq in range(3):
            h.inject(other, seq, at=0, queue=1)
        h.inject(k, 0, at=100, queue=0)
        h.sim.run_until(10_000)
        assert [(r.t, r.core) for r in logs[k]] == [(3 * SERVICE_NS, 1)]
        assert (h.host.stats.delivered_interrupt, h.host.stats.delivered_process) == (3, 1)

    def test_wake_up_on_busy_lane_waits_behind_the_socket_ahead(self, logs):
        # A drains three packets on core 1 from t=100; B, asleep on core 1,
        # is woken at t=200 and waits behind A: its packet goes at A's
        # second service slot, ahead of A's last packet.
        h = Harness(cadence_ns=100_000)
        ka, kb = key(sport=1), key(sport=2)
        a = h.flow(ka, core=1)
        b = h.flow(kb, core=1)
        h.first_call(a, at=0)
        h.first_call(b, at=0)
        for seq in range(3):
            h.inject(ka, seq, at=100, queue=0)
        h.inject(kb, 0, at=200, queue=2)
        h.sim.run_until(200)
        assert list(h.host.proc_lanes[1].queue) == [a, b]
        h.sim.run_until(10_000)
        assert [r.t for r in logs[ka]] == [100, 100 + SERVICE_NS, 100 + 3 * SERVICE_NS]
        assert [(r.t, r.core) for r in logs[kb]] == [(100 + 2 * SERVICE_NS, 1)]
        assert (h.host.stats.delivered_interrupt, h.host.stats.delivered_process) == (0, 4)


class TestLockConflicts:
    def test_cross_core_owned_encounter_counts(self):
        h = Harness()
        k = key()
        sock = h.flow(k, core=1)
        sock.state = STATE_DRAINING
        h.inject(k, seq=0, at=0, queue=0)  # pops on core 0, owner on core 1
        h.sim.run_until(1_000)
        assert h.host.stats.lock_conflicts == 1

    def test_same_core_owned_encounter_does_not_count(self):
        # On one core the two contexts serialize; nothing spins.
        h = Harness()
        k = key()
        sock = h.flow(k, core=0)
        sock.state = STATE_DRAINING
        h.inject(k, seq=0, at=0, queue=0)
        h.sim.run_until(1_000)
        assert h.host.stats.lock_conflicts == 0
        assert h.host.stats.deferrals == 1


class TestWiring:
    def test_sockets_are_in_wiring_order(self):
        h = Harness()
        socks = [h.flow(key(sport=1)), h.flow(key(sport=2), core=2), h.flow(key(sport=3))]
        assert list(h.host.sockets) == [key(sport=1), key(sport=2), key(sport=3)]
        assert h.threads() == socks
        assert socks[1].core == 2


class TestScheduler:
    def test_pinned_never_migrates(self):
        h = Harness(scheduler=MODE_PINNED)
        h.flow(key(sport=1), core=0)
        h.flow(key(sport=2), core=0)
        h.host.scheduler_tick()
        assert h.host.migrations == 0
        assert [p.core for p in h.threads()] == [0, 0]

    def test_peak_performance_balances(self):
        h = Harness(scheduler=MODE_PEAK_PERFORMANCE, processors=((0, 1),), cadence_ns=50_000)
        # Only a process that makes receive calls is runnable.
        h.flow(key(sport=1), core=0, allowed=(0, 1))
        h.flow(key(sport=2), core=0, allowed=(0, 1))
        h.host.scheduler_tick()
        assert h.host.migrations == 1
        # The first in socket order moves first.
        assert [p.core for p in h.threads()] == [1, 0]

    def test_power_saving_converges_to_processor_zero(self):
        h = Harness(scheduler=MODE_POWER_SAVING)
        h.flow(key(sport=1), core=0, allowed=(0, 2))
        h.flow(key(sport=2), core=2, allowed=(0, 2))
        h.host.scheduler_tick()
        assert h.host.migrations == 1
        # Only the process on processor 1 moved.
        assert h.threads()[0].core == 0
        assert h.threads()[1].core in (0, 1)

    def test_force_alternate_rotates(self):
        h = Harness()
        h.flow(key(sport=1), core=0, allowed=(0, 2))
        h.flow(key(sport=2), core=3, allowed=(1, 2, 3))  # wraps to its first core
        h.flow(key(sport=3), core=3)  # pinned: never moves
        h.host.force_alternate()
        assert [p.core for p in h.threads()] == [2, 1, 3]
        h.host.force_alternate()
        assert [p.core for p in h.threads()] == [0, 2, 3]
        assert h.host.migrations == 4



# Allowed-core sets of the threads below: pinned, and Free over two,
# three and four cores, so that a rotation is not its own inverse.
ALLOWED_SETS = ((0,), (2,), (0, 1), (1, 2, 3), (3, 0, 2), (0, 1, 2, 3))

threads = st.lists(
    # (allowed cores, which of them to start on)
    st.tuples(st.sampled_from(ALLOWED_SETS), st.integers(0, 3)),
    min_size=1, max_size=8,
)
host_steps = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.integers(0, 7)),
        st.tuples(st.just("packet"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("advance"), st.integers(1, 3_000)),
        st.tuples(st.just("peak")),
        st.tuples(st.just("power")),
        st.tuples(st.just("alternate")),
        st.tuples(st.just("migrate"), st.integers(0, 7), st.integers(0, 3)),
    ),
    max_size=40,
)


@given(st.sampled_from([None, 700, 2_000]), threads, host_steps)
@settings(max_examples=200, deadline=None)
def test_scheduler_counts_and_moves_match_the_walk(cadence, specs, steps):
    # One host, whose threads make receive calls at one cadence or never,
    # driven through first receive calls (which sleep), packet arrivals
    # (which wake sleepers and fill backlogs), time passing (drains and
    # later calls), peak and power ticks, forced rotations and direct
    # migrations. After every step the host's runnable counts equal a walk
    # over its sockets' threads, a tick moves what the walk would, in order,
    # and a rotation moves every thread to the next of its allowed cores.
    h = Harness(cadence_ns=cadence)
    host = h.host
    socks = [
        h.flow(key(sport=1000 + i), core=allowed[start % len(allowed)], allowed=allowed)
        for i, (allowed, start) in enumerate(specs)
    ]
    called = set()  # sockets whose first receive call has been issued
    moves = []
    migrate = host._migrate

    def recorded(sock, to_core):
        moves.append((sock.key, to_core))
        migrate(sock, to_core)

    host._migrate = recorded
    seq = 0
    for step in steps:
        kind = step[0]
        expected = None
        moves.clear()
        if kind == "call":
            # As in an engine run: a thread with a cadence gets its first
            # call once, from outside; it issues every later one itself.
            sock = socks[step[1] % len(socks)]
            if cadence is not None and sock not in called:
                called.add(sock)
                host.submit_syscall(sock)
                h.sim.run_until(h.sim.now)
        elif kind == "packet":
            sock = socks[step[1] % len(socks)]
            h.nic._enqueue(step[2], rx_pkt(sock.key, seq=seq))
            seq += 1
            h.sim.run_until(h.sim.now)
        elif kind == "advance":
            h.sim.run_until(h.sim.now + step[1])
        elif kind == "peak":
            expected = scheduler_oracle.peak_moves(host.sockets.values(), h.num_cores)
            host._balance_peak()
        elif kind == "power":
            expected = scheduler_oracle.power_moves(host.sockets.values(), h.processors)
            host._converge_power()
        elif kind == "alternate":
            rotated = []
            for p in host.sockets.values():
                allowed = list(p.next_core)
                rotated.append(allowed[(allowed.index(p.core) + 1) % len(allowed)])
            host.force_alternate()
            assert [p.core for p in host.sockets.values()] == rotated
        else:
            sock = socks[step[1] % len(socks)]
            allowed = list(sock.next_core)
            host._migrate(sock, allowed[step[2] % len(allowed)])
        if expected is not None:
            assert moves == expected, step
        walked = scheduler_oracle.runnable_counts(host.sockets.values(), h.num_cores)
        assert host.runnable_counts() == walked, step
