"""NIC-resident flow-to-core steering table.

Maps receive-direction 5-tuples to the core that should consume them.
Entries are created when a three-way handshake completes, updated by the
core id carried on outgoing packets, and aged out on idle timeout. A core
change puts the entry into a transition state that holds arriving packets
until a timer expires, which is what preserves in-order delivery across
migrations.
"""

from functools import lru_cache

from .flows import ACK, SYN, PROTO_TCP, FlowKey, Record
from .rss import _packed_addr
from .workload import TableSpec


# What `steer` decides; callers test a decision with `is`.
DIRECT = "direct"
HELD = "held"
FALLBACK = "fallback"


class TimerBugError(RuntimeError):
    """A hold timer fired for an entry that is not in transition."""


class FlowEntry:
    """One admitted flow. Compares by identity: a key has one entry, so a
    chain finds an entry by `is` alone. While the entry is in transition,
    `held` lists its held packets as `(packet, held_at)` pairs, in arrival
    order. `tx_key` is the transmit-direction key the flow was admitted
    with, the one its SYN-ACK carried."""

    __slots__ = ("key", "tx_key", "core_id", "transition", "held", "held_bytes",
                 "last_activity", "bucket")

    def __init__(self, key: FlowKey, tx_key: FlowKey, core_id: int, last_activity: int = 0,
                 bucket: int = 0):
        self.key = key
        self.tx_key = tx_key
        self.core_id = core_id
        self.transition = False
        self.held = []
        self.held_bytes = 0  # sum of the packet sizes in `held`
        self.last_activity = last_activity
        self.bucket = bucket


class FlowTableStats(Record):
    handshakes_completed: int = 0
    admitted: int = 0
    rejected_bucket_full: int = 0
    rejected_table_full: int = 0
    evictions: int = 0
    peak_entries: int = 0
    transitions_started: int = 0
    held_packets_total: int = 0
    held_bytes: int = 0
    peak_held_bytes: int = 0


def _fmix32(h: int) -> int:
    # murmur3 finalizer; spreads sequential port values across buckets.
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


@lru_cache(maxsize=64)
def _fold_addr(addr: str) -> int:
    """The address XOR-folded to 32 bits. Cached: a run hashes the same
    few addresses on every table miss."""
    packed = _packed_addr(addr)
    folded = 0
    for i in range(0, len(packed), 4):
        folded ^= int.from_bytes(packed[i : i + 4], "big")
    return folded


def bucket_index(key: FlowKey, num_buckets: int) -> int:
    """Deterministic bucket for a flow key.

    The input is the port pair XOR-folded with the addresses, so when every
    flow shares one address pair the ports alone spread the table.
    """
    v = (key.src_port << 16) | key.dst_port
    v ^= _fold_addr(key.src_addr)
    dst = _fold_addr(key.dst_addr)
    v ^= ((dst << 16) | (dst >> 16)) & 0xFFFFFFFF
    return _fmix32(v) % num_buckets


def memory_estimate(n_entries: int, ip_version: int, held_bytes: int) -> int:
    """Table memory in bytes: 20 per IPv4 entry, 24 more for IPv6, plus the
    bytes currently held for flows in transition."""
    per_entry = 20 if ip_version == 4 else 44
    return n_entries * per_entry + held_bytes


def search_time(position_in_list: int) -> int:
    """Lookup latency in ns for hitting the Nth item of a collision chain."""
    if position_in_list < 1:
        raise ValueError("list positions are 1-based")
    return 260 + 150 * (position_in_list - 1)


class FlowTable:
    """Hash table with chained buckets capped at max_list_size entries.

    Flows are never evicted on collision: once a chain is full, later flows
    with that bucket stay out (steered by plain RSS) until aging frees a
    slot and a later handshake retries.

    `spec` is the scenario's `TableSpec`, which `Scenario.validate` checks;
    the table reads its sizes and `pressure_threshold`, not its times.
    `t_delete_ns` and `t_delete_pressure_ns` are the idle timeouts, the
    second when running hot, in ns as `workload.nanoseconds` gives them.
    `schedule_timer(key)` is injected by the owner and must arrange a call
    to `on_timer_expire` t_timer later.
    `fallback_core(key)` names the core the hash fallback would pick; new
    entries start there because nothing better is known before the flow's
    first outgoing core id.
    """

    def __init__(self, spec: TableSpec, t_delete_ns: int, t_delete_pressure_ns: int,
                 schedule_timer, fallback_core):
        self.spec = spec
        self.t_delete_ns = t_delete_ns
        self.t_delete_pressure_ns = t_delete_pressure_ns
        self.schedule_timer = schedule_timer
        self._fallback_core = fallback_core
        self._buckets: dict[int, list[FlowEntry]] = {}
        self._entries: dict[FlowKey, FlowEntry] = {}
        # The same entries under their transmit-direction keys, so an
        # outgoing core id finds its entry without reversing the key. The key
        # is the one the flow's SYN-ACK carried, not a copy.
        self._by_tx_key: dict[FlowKey, FlowEntry] = {}
        # Receive key -> (time, the SYN-ACK's key once it is seen, else None).
        # Completion deletes the entry.
        self._tracker: dict[FlowKey, tuple[int, FlowKey | None]] = {}
        self.stats = FlowTableStats()

    def __len__(self):
        return len(self._entries)

    def get(self, key: FlowKey) -> FlowEntry | None:
        return self._entries.get(key)

    # -- connection tracking -------------------------------------------------

    def on_rx_connection_tracking(self, packet: tuple, now: int) -> FlowEntry | None:
        """Advance handshake state from an incoming packet whose flow has no
        entry (`steer` calls this only after a miss); admit on the final ACK.
        Rejection (chain or table full) is a counted outcome, not an error."""
        key, kind, _, _ = packet
        if key.protocol != PROTO_TCP:
            return None
        if kind == SYN:
            self._tracker[key] = (now, None)
            return None
        if kind == ACK:
            state = self._tracker.get(key)
            if state is not None and state[1] is not None:
                del self._tracker[key]
                self.stats.handshakes_completed += 1
                return self._try_admit(key, state[1], now)
        return None

    def note_tx_packet(self, key: FlowKey, tx_key: FlowKey, now: int):
        """Outgoing half of handshake monitoring: the SYN-ACK of the flow
        whose receive-direction key is `key` and transmit-direction key
        `tx_key`. Only a TCP SYN opens a tracker entry, so other protocols
        find none here."""
        state = self._tracker.get(key)
        if state is not None and state[1] is None:
            self._tracker[key] = (now, tx_key)

    def _try_admit(self, key: FlowKey, tx_key: FlowKey, now: int) -> FlowEntry | None:
        spec = self.spec
        if len(self._entries) >= spec.max_entries:
            self.stats.rejected_table_full += 1
            return None
        index = bucket_index(key, spec.num_buckets)
        bucket = self._buckets.setdefault(index, [])
        if len(bucket) >= spec.max_list_size:
            self.stats.rejected_bucket_full += 1
            return None
        entry = FlowEntry(
            key, tx_key, core_id=self._fallback_core(key), last_activity=now, bucket=index
        )
        bucket.append(entry)
        self._entries[key] = entry
        self._by_tx_key[tx_key] = entry
        self.stats.admitted += 1
        self.stats.peak_entries = max(self.stats.peak_entries, len(self._entries))
        return entry

    # -- steering ------------------------------------------------------------

    def steer(self, packet: tuple, now: int, want_position: bool = False):
        """Look a received packet up once; returns (decision, core_id,
        chain_position).

        A miss runs connection tracking, and a handshake's final ACK that
        admits an entry is steered as a hit. DIRECT names the pinned core's
        queue, HELD appended the packet to the entry's transition list,
        FALLBACK means the caller should route by hash. chain_position is
        1-based and only computed when the caller charges lookup latency;
        on a miss it is the full chain length walked.
        """
        key, _, _, size = packet
        entry = self._entries.get(key)
        if entry is None:
            entry = self.on_rx_connection_tracking(packet, now)
        if entry is None:
            position = 1
            if want_position:
                bucket = self._buckets.get(bucket_index(key, self.spec.num_buckets), ())
                position = max(1, len(bucket))
            return FALLBACK, None, position
        position = self._position_of(entry) if want_position else 1
        entry.last_activity = now
        if entry.transition:
            entry.held.append((packet, now))
            entry.held_bytes += size
            stats = self.stats
            stats.held_packets_total += 1
            stats.held_bytes += size
            if stats.held_bytes > stats.peak_held_bytes:
                stats.peak_held_bytes = stats.held_bytes
            return HELD, None, position
        return DIRECT, entry.core_id, position

    def _position_of(self, entry: FlowEntry) -> int:
        return self._buckets[entry.bucket].index(entry) + 1

    # -- updates from the transmit path ---------------------------------------

    def observe_tx(self, tx_key: FlowKey, core_id: int, now: int):
        """Apply an outgoing packet's core id to the entry of the flow whose
        transmit-direction key is `tx_key`.

        A differing core id starts a transition and a hold timer. A further
        change while already in transition retargets the entry but starts no
        timer: the running one already covers draining the queue the flow
        left first, and a later one would let held packets wait longer than
        one timer period.
        """
        entry = self._by_tx_key.get(tx_key)
        if entry is None:
            return
        entry.last_activity = now
        if core_id == entry.core_id:
            return
        entry.core_id = core_id
        if not entry.transition:
            entry.transition = True
            self.stats.transitions_started += 1
            self.schedule_timer(entry.key)

    def on_timer_expire(self, key: FlowKey, now: int):
        """Leave the transition state; returns the core id and the held
        `(packet, held_at)` pairs, in arrival order, for enqueueing to the
        new core."""
        entry = self._entries.get(key)
        if entry is None or not entry.transition:
            raise TimerBugError(f"hold timer fired for non-transition flow {key}")
        flushed = entry.held
        entry.held = []
        entry.transition = False
        entry.last_activity = now
        self.stats.held_bytes -= entry.held_bytes
        entry.held_bytes = 0
        return entry.core_id, flushed

    # -- aging ----------------------------------------------------------------

    def age(self, now: int) -> list[FlowKey]:
        """Evict entries idle past the timeout; under occupancy pressure the
        shorter timeout applies. Entries in transition are exempt (their held
        packets must flush first). Stale partial handshakes expire here too."""
        limit = self.t_delete_ns
        if len(self._entries) >= self.spec.pressure_threshold * self.spec.max_entries:
            limit = self.t_delete_pressure_ns
        evicted = [
            key
            for key, entry in self._entries.items()
            if not entry.transition and now - entry.last_activity >= limit
        ]
        for key in evicted:
            entry = self._entries.pop(key)
            del self._by_tx_key[entry.tx_key]
            self._buckets[entry.bucket].remove(entry)
        self.stats.evictions += len(evicted)

        stale = [
            key
            for key, state in self._tracker.items()
            if now - state[0] >= self.t_delete_ns
        ]
        for key in stale:
            del self._tracker[key]
        return evicted
