from steersim.flows import ACK, DATA, SYN, PROTO_TCP, FlowKey, reverse_key
from steersim.flowtable import FlowTable
from steersim.nic import MODE_FLOWSTEER, MODE_RSS, Nic
from steersim.rss import RssEngine
from steersim.simkernel import Simulator
from steersim.workload import NicSpec, Scenario, TableSpec, nanoseconds


def key(sport=40000, dport=5001):
    return FlowKey("10.0.0.1", "10.0.0.2", PROTO_TCP, sport, dport)


def rx_pkt(k, kind=DATA, seq=0, size=1500):
    return (k, kind, seq, size)


class Harness:
    """NIC wired to a real simulator and table. No host is attached: each
    queue's interrupt action records the queue, once the simulator runs to
    the instant the NIC raised it at (`edges()`)."""

    def __init__(self, mode=MODE_FLOWSTEER, ring_capacity=4, fallback=0,
                 t_timer_us=1.0, latency_accounting=False, num_queues=4):
        self.sim = Simulator()
        self.interrupts = []
        engine = RssEngine(num_queues=num_queues)
        table = None
        spec = TableSpec(t_timer_us=t_timer_us)
        self.ns = ns = nanoseconds(Scenario(flow_table=spec))
        if mode == MODE_FLOWSTEER:
            # Hold timers as the engine runs them: each fires t_timer later.
            hold_timer = self.sim.line(ns["t_timer"], lambda k: self.nic.on_hold_timer(k)).add
            table = FlowTable(spec, ns["t_delete"], ns["t_delete_pressure"],
                              hold_timer, fallback_core=lambda k: fallback)
        self.nic = Nic(
            NicSpec(mode=mode, ring_capacity=ring_capacity,
                    latency_accounting=latency_accounting),
            num_queues, engine, table, self.sim,
        )
        self.nic.interrupts = [
            lambda q=q: self.interrupts.append(q) for q in range(num_queues)
        ]
        self.table = table

    def edges(self):
        """Queues whose ring-edge interrupt has fired, in firing order,
        after running the simulator to the current instant."""
        self.sim.run_until(self.sim.now)
        return self.interrupts

    def admit(self, k, core=None, now=0):
        self.nic.rx(rx_pkt(k, SYN), now)
        self.nic.tx(k, reverse_key(k), 0, now)  # the SYN-ACK
        self.nic.rx(rx_pkt(k, ACK), now)
        if core is not None:
            self.nic.tx_ack(reverse_key(k), core, now)
            self.sim.run_until(now + self.ns["t_timer"])  # past any flush
        self.clear_rings()

    def clear_rings(self):
        # No host drains in this harness; discard handshake leftovers so the
        # rings start each test empty.
        for ring in self.nic.rings:
            ring.slots.clear()


class TestRingBuffer:
    """The ring through the NIC, which pushes (`_enqueue`) and drains."""

    def test_fifo(self):
        nic = Harness(ring_capacity=8).nic
        for seq in range(3):
            nic._enqueue(0, rx_pkt(key(), seq=seq))
        assert [nic.rings[0].slots.popleft()[2] for _ in range(3)] == [0, 1, 2]

    def test_drop_tail_at_capacity(self):
        nic = Harness(ring_capacity=2).nic
        for seq in range(3):
            nic._enqueue(0, rx_pkt(key(), seq=seq))
        ring = nic.rings[0]
        assert ring.dropped == 1 and ring.enqueued == 2
        assert [seq for _, _, seq, _ in ring.slots] == [0, 1]

    def test_pop_empty(self):
        h = Harness()
        assert not h.nic.rings[0].slots and h.edges() == []

    def test_ring_edge_raises_the_interrupt_in_the_lane_without_an_id(self, monkeypatch):
        # Only the push onto an empty ring raises one; it bypasses
        # `Simulator.schedule` and fires at the same instant.
        h = Harness(ring_capacity=8)
        monkeypatch.setattr(Simulator, "schedule", None)
        for seq in range(3):
            h.nic._enqueue(1, rx_pkt(key(), seq=seq))
        assert (len(h.sim._lane), h.sim._next_id, h.sim.pending()) == (1, 0, 1)
        assert h.edges() == [1] and h.nic.rings[1].interrupts == 1

    def test_accounting_identity(self):
        nic = Harness(ring_capacity=2).nic
        pushes = 5
        for seq in range(pushes):
            nic._enqueue(0, rx_pkt(key(), seq=seq))
        ring = nic.rings[0]
        assert ring.enqueued + ring.dropped == pushes
        assert ring.max_depth == 2


class TestRx:
    def test_direct_steering_to_entry_core(self):
        h = Harness(fallback=1)
        k = key()
        h.admit(k, core=1)
        h.nic.rx(rx_pkt(k, seq=5), h.sim.now)
        assert [len(ring.slots) for ring in h.nic.rings] == [0, 1, 0, 0]
        assert h.table.get(k).held == []

    def test_transition_holds(self):
        h = Harness(fallback=0, t_timer_us=10.0)
        k = key()
        h.admit(k)
        h.nic.tx_ack(reverse_key(k), 2, 0)
        h.nic.rx(rx_pkt(k, seq=0), 0)
        assert [seq for (_, _, seq, _), _ in h.table.get(k).held] == [0]
        assert [len(ring.slots) for ring in h.nic.rings] == [0, 0, 0, 0]

    def test_ring_overflow_drops(self):
        h = Harness(ring_capacity=2, fallback=0)
        k = key()
        h.admit(k)
        depths = []
        for s in range(3):
            h.nic.rx(rx_pkt(k, seq=s), 0)
            depths.append((len(h.nic.rings[0].slots), h.nic.rings[0].dropped))
        assert depths == [(1, 0), (2, 0), (2, 1)]
        assert [h.nic.rings[0].slots.popleft()[2] for _ in range(2)] == [0, 1]

    def test_interrupt_only_on_empty_edge(self):
        h = Harness(fallback=0)
        k = key()
        h.admit(k)
        start = len(h.edges())
        h.nic.rx(rx_pkt(k, seq=0), 0)
        h.nic.rx(rx_pkt(k, seq=1), 0)
        assert h.edges()[start:] == [0]

    def test_rss_mode_uses_hash(self):
        h = Harness(mode=MODE_RSS)
        k = key()
        expected = h.nic.engine.queue_for(k)
        h.nic.rx(rx_pkt(k, seq=0), 0)
        assert [len(ring.slots) for ring in h.nic.rings] == [
            int(q == expected) for q in range(4)
        ]


class TestTx:
    def test_ack_update_starts_transition(self):
        h = Harness(fallback=0)
        k = key()
        h.admit(k)
        h.nic.tx_ack(reverse_key(k), 1, 0)
        entry = h.table.get(k)
        assert entry.transition and entry.core_id == 1
        assert h.table.stats.transitions_started == 1

    def test_rss_mode_has_no_table_effect(self):
        h = Harness(mode=MODE_RSS)
        h.nic.tx_ack(reverse_key(key()), 1, 0)
        assert h.nic.table is None and h.nic.acks_sent == 1

    def test_unknown_flow_descriptor(self):
        h = Harness()
        h.nic.tx_ack(reverse_key(key()), 1, 0)
        assert h.table.get(key()) is None and len(h.table) == 0
        assert h.table.stats.transitions_started == 0 and h.sim.pending() == 0


class TestDrainAndFlush:
    def test_drain_fifo_then_empty(self):
        h = Harness(fallback=0)
        k = key()
        h.admit(k)
        for seq in range(3):
            h.nic.rx(rx_pkt(k, seq=seq), 0)
        got = [h.nic.rings[0].slots.popleft()[2] for _ in range(3)]
        assert got == [0, 1, 2]
        assert not h.nic.rings[0].slots

    def test_flush_lands_before_later_direct_arrivals(self):
        # Held packets push to the new ring at flush time; a direct arrival
        # after the flush pops behind them.
        h = Harness(fallback=0, t_timer_us=5.0)
        k = key()
        h.admit(k)
        h.nic.tx_ack(reverse_key(k), 1, 0)
        for seq in (5, 6, 7):
            h.nic.rx(rx_pkt(k, seq=seq), h.sim.now)
        assert [seq for (_, _, seq, _), _ in h.table.get(k).held] == [5, 6, 7]
        assert len(h.nic.rings[1].slots) == 0
        h.sim.run_until(5_000)  # timer fires, flush to queue 1
        assert h.table.get(k).held == []
        h.nic.rx(rx_pkt(k, seq=8), h.sim.now)
        assert [len(ring.slots) for ring in h.nic.rings] == [0, 4, 0, 0]
        seqs = [h.nic.rings[1].slots.popleft()[2] for _ in range(4)]
        assert seqs == [5, 6, 7, 8]

    def test_retarget_flushes_one_t_timer_after_the_first_change(self):
        # A second change inside the hold retargets the flush but starts no
        # timer, so held packets wait at most one t_timer.
        h = Harness(fallback=0, t_timer_us=5.0)
        k = key()
        h.admit(k)
        h.nic.tx_ack(reverse_key(k), 1, 0)
        h.sim.run_until(1_000)
        h.nic.tx_ack(reverse_key(k), 2, h.sim.now)
        h.nic.rx(rx_pkt(k, seq=0), h.sim.now)
        h.sim.run_until(4_999)
        assert [seq for (_, _, seq, _), _ in h.table.get(k).held] == [0]
        h.sim.run_until(5_000)
        assert h.table.get(k).held == [] and h.sim.pending() == 0
        assert [len(ring.slots) for ring in h.nic.rings] == [0, 0, 1, 0]
        assert h.nic.hold_delays.tolist() == [4_000]

    def test_hold_delays_recorded(self):
        h = Harness(fallback=0, t_timer_us=5.0)
        k = key()
        h.admit(k)
        h.nic.tx_ack(reverse_key(k), 1, 0)
        h.sim.run_until(1_000)
        h.nic.rx(rx_pkt(k, seq=0), h.sim.now)
        h.sim.run_until(5_000)
        assert h.nic.hold_delays.tolist() == [4_000]


class TestLatencyAccounting:
    def test_serial_pipeline_charges_search_time(self):
        h = Harness(fallback=0, latency_accounting=True)
        k = key()
        h.admit(k)
        # The handshake packets passed through the lookup pipeline; let their
        # deferred enqueues land, then start from a clean ring.
        h.sim.run_until(1000)
        h.clear_rings()
        h.nic.rx(rx_pkt(k, seq=0), h.sim.now)  # chain position 1: 260 ns
        assert len(h.nic.rings[0].slots) == 0  # not yet through the pipeline
        h.sim.run_until(1000 + 260)
        assert len(h.nic.rings[0].slots) == 1
        # A packet arriving mid-lookup queues behind it in the pipeline even
        # though its own chain walk costs the same.
        h.nic.rx(rx_pkt(k, seq=1), h.sim.now)
        h.sim.run_until(1000 + 260 + 259)
        assert len(h.nic.rings[0].slots) == 1
        h.sim.run_until(1000 + 260 + 260)
        assert len(h.nic.rings[0].slots) == 2
