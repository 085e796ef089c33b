"""Multi-queue NIC model: receive classification into per-core ring buffers
and the transmit path that feeds each flow's core id back into the steering
table.

Queue i is pinned to core i; an interrupt is raised only on a ring's
empty-to-non-empty edge, and the host then drains until empty.
"""

from array import array
from collections import deque

from .flowtable import DIRECT, HELD, FlowTable, search_time
from .flows import FlowKey
from .rss import RssEngine
from .workload import NicSpec

MODE_FLOWSTEER = "flowsteer"


class RingBuffer:
    """One receive queue: the packets in FIFO order and its counters. The
    NIC appends at the tail (`Nic._enqueue`), the host's softirq drain pops
    from the head of `slots`. Ring i is queue i."""

    def __init__(self):
        self.slots = deque()
        self.enqueued = 0
        self.dropped = 0
        self.max_depth = 0
        self.interrupts = 0


class Nic:
    """Receive pipeline plus observation of outgoing packets: each one's
    flow and the core id it carries, the two fields that A-TFN reads from a
    transmit descriptor. The host names the flow by its receive-direction
    key; the swap of the header back to that direction is left out of the
    model.

    On a ring's empty->non-empty edge the NIC queues `interrupts[queue]`,
    a zero-argument action, in the simulator's same-instant lane
    (`Simulator.soon`). The host installs its per-queue interrupt actions
    there when it attaches (`Host.__init__`).
    The NIC steers exactly when a FlowTable is attached; with none, every
    packet goes to the queue RSS hashes it to.
    """

    def __init__(self, spec: NicSpec, num_queues: int, engine: RssEngine,
                 table: FlowTable | None, sim):
        self.engine = engine
        self.table = table
        self.sim = sim
        self._soon = sim.soon
        # Whether a table steers and whether lookups cost time: fixed per run.
        self._steers = table is not None
        self._latency = spec.latency_accounting
        self.interrupts = None  # per-queue interrupt actions, set by the host
        self.ring_capacity = spec.ring_capacity  # packets per ring
        self.rings = [RingBuffer() for _ in range(num_queues)]
        self.acks_sent = 0
        self.hold_delays = array("q")  # flush time minus arrival, per held packet
        # The serial lookup pipeline, latency accounting only: when it is
        # next free, and the line its (queue, packet) pairs wait on.
        self._pipeline_free = 0
        self._lookups = sim.line(0, self._finish_lookup) if self._latency else None

    # -- receive path ----------------------------------------------------------

    def rx(self, packet: tuple, now: int):
        """Place an arriving packet (a tuple, laid out in `flows`): held by
        the table, or pushed onto its queue's ring (tail-dropped when full).
        Ring counters, `dropped` and the table's held lists record where it
        went."""
        if self._steers:
            decision, queue, position = self.table.steer(packet, now, self._latency)
            if decision is HELD:
                return
            if decision is not DIRECT:
                queue = self.engine.queue_for(packet[0])
            if self._latency:
                # The pipeline is serial: no packet overtakes the one ahead
                # of it, even with a shorter chain walk, so the times rise.
                done = max(now, self._pipeline_free) + search_time(position)
                self._pipeline_free = done
                self._lookups.add_at(done, (queue, packet))
                return
        else:
            queue = self.engine.queue_for(packet[0])
        self._enqueue(queue, packet)

    def _finish_lookup(self, pair: tuple):
        self._enqueue(*pair)

    def _enqueue(self, queue: int, packet: tuple):
        """Append at the ring's tail, or tail-drop when it is full. The
        push onto an empty ring raises the queue's interrupt at this instant."""
        ring = self.rings[queue]
        slots = ring.slots
        depth = len(slots)
        if depth >= self.ring_capacity:
            ring.dropped += 1
            return
        slots.append(packet)
        ring.enqueued += 1
        if depth >= ring.max_depth:
            ring.max_depth = depth + 1
        if not depth:
            ring.interrupts += 1
            self._soon(self.interrupts[queue])

    # -- transmit path ----------------------------------------------------------

    def tx(self, key: FlowKey, now: int):
        """Observe the outgoing SYN-ACK of the flow whose receive-direction
        key is `key`: its handshake half. Its core id has no reader, since
        no entry exists before the handshake's last ACK admits the flow."""
        self.acks_sent += 1
        if self._steers:
            self.table.note_tx_packet(key, now)

    def tx_ack(self, key: FlowKey, core_id: int, now: int):
        """Observe an outgoing ACK of the flow whose receive-direction key
        is `key`, and the core that processed it. `Scenario.validate` caps a
        host at 256 cores, so every core id fits a descriptor's byte."""
        self.acks_sent += 1
        if self._steers:
            self.table.observe_tx(key, core_id, now)

    def on_hold_timer(self, key: FlowKey):
        """Flush a flow's held packets to its (new) core's ring, FIFO."""
        now = self.sim.now
        queue, held = self.table.on_timer_expire(key, now)
        for packet, held_at in held:
            self.hold_delays.append(now - held_at)
            self._enqueue(queue, packet)
