"""NIC-resident flow-to-core steering table.

Maps receive-direction flow keys to the core that should consume them.
Entries are created when a three-way handshake completes, updated by the
core id carried on outgoing packets, and aged out on idle timeout. A core
change puts the entry into a transition state that holds arriving packets
until a timer expires, which is what preserves in-order delivery across
migrations.
"""

from .flows import ACK, SYN, FlowKey, Record
from .workload import TableSpec


# What `steer` decides; callers test a decision with `is`.
DIRECT = "direct"
HELD = "held"
FALLBACK = "fallback"


class TimerBugError(RuntimeError):
    """A hold timer fired for an entry that is not in transition."""


class FlowEntry:
    """One admitted flow, stored under its receive-direction key. Compares
    by identity: a key has one entry, so a chain finds an entry by `is`
    alone. The entry is in transition exactly while `held` is a list, of
    its held packets as `(packet, held_at)` pairs in arrival order; it is
    None otherwise."""

    __slots__ = ("core_id", "held", "last_activity", "bucket")

    def __init__(self, core_id: int, last_activity: int, bucket: int):
        self.core_id = core_id
        self.held = None
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
    held_now: int = 0  # packets in the held lists
    peak_held: int = 0


def _fmix32(h: int) -> int:
    # murmur3 finalizer; spreads sequential port values across buckets.
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def _fold_addr(packed: bytes) -> int:
    """A packed address XOR-folded to 32 bits."""
    folded = 0
    for i in range(0, len(packed), 4):
        folded ^= int.from_bytes(packed[i : i + 4], "big")
    return folded


def address_word(src_addr: bytes, dst_addr: bytes) -> int:
    """The 32-bit word that `bucket_index` XORs into every port pair of a
    run, from its packed address pair: the source address folded, XOR the
    destination folded with its halves swapped. A table computes it once."""
    dst = _fold_addr(dst_addr)
    return _fold_addr(src_addr) ^ ((dst << 16) | (dst >> 16)) & 0xFFFFFFFF


def bucket_index(key: FlowKey, num_buckets: int, addr_word: int) -> int:
    """Deterministic bucket for a flow key: its port pair XORed with
    `addr_word`, the run's `address_word`, so when every flow shares one
    address pair the ports alone spread the table."""
    return _fmix32(((key.src_port << 16) | key.dst_port) ^ addr_word) % num_buckets


def memory_estimate(n_entries: int, ip_version: int, held_bytes: int) -> int:
    """Table memory in bytes: 20 per IPv4 entry and 44 per IPv6 one, each
    storing the full 5-tuple as the NIC does, plus the bytes held."""
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

    Entries are indexed once, by receive-direction key, the key by which
    the transmit path names a flow too (see `Nic`). The table folds the
    address pair the RSS engine packed into its bucket hash once. Only
    data is ever held, so `stats` counts held packets, not bytes.

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

    def __init__(self, spec: TableSpec, src_addr: bytes, dst_addr: bytes, t_delete_ns: int,
                 t_delete_pressure_ns: int, schedule_timer, fallback_core):
        self.spec = spec
        self._addr_word = address_word(src_addr, dst_addr)
        self.t_delete_ns = t_delete_ns
        self.t_delete_pressure_ns = t_delete_pressure_ns
        self.schedule_timer = schedule_timer
        self._fallback_core = fallback_core
        self._buckets: dict[int, list[FlowEntry]] = {}
        self._entries: dict[FlowKey, FlowEntry] = {}
        # Receive key -> (time, whether the SYN-ACK has been seen).
        # Completion deletes the entry.
        self._tracker: dict[FlowKey, tuple[int, bool]] = {}
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
        key, kind, _ = packet
        if kind == SYN:
            self._tracker[key] = (now, False)
            return None
        if kind == ACK:
            state = self._tracker.get(key)
            if state is not None and state[1]:
                del self._tracker[key]
                self.stats.handshakes_completed += 1
                return self._try_admit(key, now)
        return None

    def note_tx_packet(self, key: FlowKey, now: int):
        """Outgoing half of handshake monitoring: the SYN-ACK of the flow
        whose receive-direction key is `key`."""
        state = self._tracker.get(key)
        if state is not None and not state[1]:
            self._tracker[key] = (now, True)

    def _try_admit(self, key: FlowKey, now: int) -> FlowEntry | None:
        spec = self.spec
        if len(self._entries) >= spec.max_entries:
            self.stats.rejected_table_full += 1
            return None
        index = bucket_index(key, spec.num_buckets, self._addr_word)
        bucket = self._buckets.setdefault(index, [])
        if len(bucket) >= spec.max_list_size:
            self.stats.rejected_bucket_full += 1
            return None
        entry = FlowEntry(core_id=self._fallback_core(key), last_activity=now, bucket=index)
        bucket.append(entry)
        self._entries[key] = entry
        self.stats.admitted += 1
        self.stats.peak_entries = max(self.stats.peak_entries, len(self._entries))
        return entry

    # -- steering ------------------------------------------------------------

    def steer(self, packet: tuple, now: int, want_position: bool):
        """Look a received packet up once; returns (decision, core_id,
        chain_position).

        A miss runs connection tracking, and a handshake's final ACK that
        admits an entry is steered as a hit. DIRECT names the pinned core's
        queue, HELD appended the packet to the entry's transition list,
        FALLBACK means the caller should route by hash. chain_position is
        1-based and only computed when the caller charges lookup latency;
        on a miss it is the full chain length walked.
        """
        key = packet[0]
        entry = self._entries.get(key)
        if entry is None:
            entry = self.on_rx_connection_tracking(packet, now)
        if entry is None:
            position = 1
            if want_position:
                index = bucket_index(key, self.spec.num_buckets, self._addr_word)
                bucket = self._buckets.get(index, ())
                position = max(1, len(bucket))
            return FALLBACK, None, position
        position = self._position_of(entry) if want_position else 1
        entry.last_activity = now
        held = entry.held
        if held is not None:
            held.append((packet, now))
            stats = self.stats
            stats.held_packets_total += 1
            stats.held_now += 1
            if stats.held_now > stats.peak_held:
                stats.peak_held = stats.held_now
            return HELD, None, position
        return DIRECT, entry.core_id, position

    def _position_of(self, entry: FlowEntry) -> int:
        return self._buckets[entry.bucket].index(entry) + 1

    # -- updates from the transmit path ---------------------------------------

    def observe_tx(self, key: FlowKey, core_id: int, now: int):
        """Apply an outgoing packet's core id to the entry of its flow, named
        by the flow's receive-direction key `key`.

        A differing core id starts a transition, with an empty held list,
        and a hold timer. A further change while already in transition
        retargets the entry but starts no timer: the running one already
        covers draining the queue the flow left first, and a later one would
        let held packets wait longer than one timer period.
        """
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.last_activity = now
        if core_id == entry.core_id:
            return
        entry.core_id = core_id
        if entry.held is None:
            entry.held = []
            self.stats.transitions_started += 1
            self.schedule_timer(key)

    def on_timer_expire(self, key: FlowKey, now: int):
        """Leave the transition state; returns the core id and the held
        `(packet, held_at)` pairs, in arrival order, for enqueueing to the
        new core."""
        entry = self._entries.get(key)
        if entry is None or entry.held is None:
            raise TimerBugError(f"hold timer fired for non-transition flow {key}")
        flushed = entry.held
        entry.held = None
        entry.last_activity = now
        self.stats.held_now -= len(flushed)
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
            if entry.held is None and now - entry.last_activity >= limit
        ]
        for key in evicted:
            entry = self._entries.pop(key)
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
