"""Multi-queue NIC model: receive classification into per-core ring buffers
and the transmit path that feeds core ids back into the steering table.

Queue i is pinned to core i; an interrupt is raised only on a ring's
empty-to-non-empty edge, and the host then drains until empty.
"""

from collections import deque
from dataclasses import dataclass, field

from .flowtable import FlowTable, SteerDecision, search_time
from .flows import FlowKey, Packet
from .rss import RssEngine
from .workload import NicSpec

MODE_RSS = "rss"
MODE_FLOWSTEER = "flowsteer"


@dataclass(frozen=True)
class TransmitDescriptor:
    """Outgoing packet metadata: the 5-tuple in transmit direction plus the
    core that performed the network processing (one byte, up to 256 cores)."""

    key: FlowKey
    core_id: int

    def __post_init__(self):
        if not 0 <= self.core_id <= 255:
            raise ValueError("core id must fit one byte")


@dataclass
class RingBuffer:
    queue_id: int
    capacity: int
    _slots: deque = field(default_factory=deque)
    enqueued: int = 0
    dropped: int = 0
    max_depth: int = 0
    interrupts: int = 0

    def push(self, packet: Packet) -> int:
        """Append at the tail. Returns the depth after the push, or 0 when
        the ring is full and the packet is tail-dropped."""
        slots = self._slots
        if len(slots) >= self.capacity:
            self.dropped += 1
            return 0
        slots.append(packet)
        self.enqueued += 1
        depth = len(slots)
        if depth > self.max_depth:
            self.max_depth = depth
        return depth

    def pop(self) -> Packet | None:
        if not self._slots:
            return None
        return self._slots.popleft()

    def depth(self) -> int:
        return len(self._slots)


class Nic:
    """Receive pipeline plus transmit-descriptor observation.

    `interrupt_cb(queue_id)` fires on a ring's empty->non-empty edge.
    In flow-steering mode a FlowTable must be attached; RSS mode ignores it.
    """

    def __init__(self, spec: NicSpec, num_queues: int, engine: RssEngine,
                 table: FlowTable | None, sim, interrupt_cb):
        if spec.mode == MODE_FLOWSTEER and table is None:
            raise ValueError("flow-steering mode requires a flow table")
        self.engine = engine
        self.table = table
        self.sim = sim
        # Whether the table steers and whether lookups cost time: fixed per run.
        self._steers = spec.mode == MODE_FLOWSTEER
        self._latency = spec.latency_accounting
        self._interrupt_cb = interrupt_cb
        self.rings = [RingBuffer(q, spec.ring_capacity) for q in range(num_queues)]
        self.acks_sent = 0
        self.hold_delays: list[int] = []  # flush time minus arrival, per held packet
        self._pipeline_free = 0  # serial lookup pipeline, latency accounting only

    def fallback_queue(self, key: FlowKey) -> int:
        """The RSS hash's queue for a flow, which is also its core."""
        return self.engine.queue_for(key)

    # -- receive path ----------------------------------------------------------

    def rx(self, packet: Packet, now: int):
        """Place an arriving packet: held by the table, or pushed onto its
        queue's ring (tail-dropped when full). Ring counters, `dropped` and
        the table's held lists record where it went."""
        if self._steers:
            decision, core, position = self.table.steer(packet, now, self._latency)
            if decision is SteerDecision.HELD:
                return
            if decision is SteerDecision.DIRECT:
                queue = core
            else:
                queue = self.fallback_queue(packet.key)
            if self._latency:
                self._enqueue_after_lookup(queue, packet, now, position)
                return
        else:
            queue = self.fallback_queue(packet.key)
        self._enqueue(queue, packet)

    def _enqueue_after_lookup(self, queue: int, packet: Packet, now: int, position: int):
        # The lookup pipeline is serial: a packet cannot overtake the one
        # ahead of it even if its own chain walk is shorter.
        done = max(now, self._pipeline_free) + search_time(position)
        self._pipeline_free = done
        self.sim.schedule(done, lambda: self._enqueue(queue, packet))

    def _enqueue(self, queue: int, packet: Packet):
        ring = self.rings[queue]
        if ring.push(packet) == 1:
            ring.interrupts += 1
            self._interrupt_cb(queue)

    # -- transmit path ----------------------------------------------------------

    def tx(self, packet: Packet, desc: TransmitDescriptor, now: int):
        """Observe an outgoing packet: its handshake half, then its
        descriptor through `tx_ack`. The peer model is open-loop, so only the
        table side effects matter here."""
        if self._steers:
            self.table.note_tx_packet(packet, now)
        self.tx_ack(desc, now)

    def tx_ack(self, desc: TransmitDescriptor, now: int):
        """Observe an outgoing packet's descriptor. A data ACK goes out
        through here alone: handshake monitoring only looks for SYN-ACKs,
        so no packet is built."""
        self.acks_sent += 1
        if self._steers:
            self.table.observe_tx(desc, now)

    def on_hold_timer(self, key: FlowKey):
        """Flush a flow's held packets to its (new) core's ring, FIFO."""
        now = self.sim.now()
        queue, packets = self.table.on_timer_expire(key, now)
        for packet in packets:
            self.hold_delays.append(now - packet.held_at)
            packet.held_at = None
            self._enqueue(queue, packet)

    def drain(self, queue_id: int) -> Packet | None:
        return self.rings[queue_id].pop()
