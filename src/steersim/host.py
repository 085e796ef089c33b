"""Multicore host model: per-core packet service, dual-context TCP receive
processing with socket ownership, and scheduler-driven process migration.

Each delivered packet is processed exactly once, either in interrupt context
on the core that owns the receive queue or in process context on the core
where the consuming application currently runs. The softirq drain has
priority on its core: queued process-context work waits until the interrupt
lane is idle (the softirq preempts application threads, never the other way
around), which keeps the ring-drain rate at the full per-core service rate
and makes the hold-timer bound effective.
"""

from collections import deque
from functools import partial

from .flows import Record

# A thread's states, ordered: the softirq drain tests every packet's socket
# for a thread in a receive call, draining or sleeping, with one comparison.
STATE_IDLE = 0  # never calls receive; everything stays in interrupt context
STATE_COMPUTING = 1
STATE_DRAINING = 2
STATE_SLEEPING = 3
RUNNABLE = (STATE_COMPUTING, STATE_DRAINING)


class SocketModel:
    """Per-flow receive socket and the application thread that reads it;
    each thread reads one socket. `key` is the flow's receive-direction key,
    which also names the flow on its outgoing ACKs.

    The thread runs on `core`, one of its allowed cores, which are the keys
    of `next_core`, in allowed order. That is the rotation map
    `force_alternate` moves it by, shared by every thread with the same
    allowed cores. `state` starts computing until the first receive call,
    or idle on a host whose threads make none. In a receive call it is
    draining, when the thread owns the socket, or sleeping until data
    arrives. A packet found during a call, or with the backlog non-empty,
    must defer to the backlog; processing anything ahead of a non-empty
    backlog would reorder the flow.

    The backlog keeps of each deferred frame its `seq` alone, -1 for a
    control frame, which is all `Host._deliver` reads; the frame tuple is
    freed as it is deferred. It is a list: it stays a few packets deep,
    where `pop(0)` costs what `deque.popleft` does, and an empty list takes
    56 bytes where an empty deque takes 760.

    `Host._deliver` tallies every delivery as it happens, for the report:
    - `data`, data packets delivered; `high`, the largest data seq so far;
      `inversions`, data packets below it;
    - `last_core`, the core of the last delivery (-1 before the first);
      `alternations`, deliveries on another core than the one before;
    - from the warm-up `cutoff` on, deliveries at a later time only:
      `cross_core`, packets on another core than the app's, and
      `cross_processor`, those also on another processor; for data
      packets, `core_data` per core, whose sum is the flow's scored data,
      and `on_app_core`.

    The cutoff is the time of the flow's last hold-timer flush, or else of
    its first delivery (`restart_warm_up`); -1 until either happens."""

    __slots__ = ("key", "core", "next_core", "state",
                 "backlog", "delivered_since_ack", "data", "high", "inversions",
                 "last_core", "alternations", "cutoff", "cross_core", "cross_processor",
                 "core_data", "on_app_core")

    def __init__(self, key, core: int, next_core: dict, state: int, num_cores: int):
        self.key = key
        self.core = core
        self.next_core = next_core
        self.state = state
        self.backlog = []
        self.delivered_since_ack = 0
        self.data = self.inversions = self.alternations = 0
        self.high = self.last_core = self.cutoff = -1
        self.cross_core = self.cross_processor = self.on_app_core = 0
        self.core_data = [0] * num_cores

    def restart_warm_up(self, now: int):
        """Move the warm-up cutoff to `now`, as a hold-timer flush does:
        the flow's steering changed, so only later deliveries count."""
        self.cutoff = now
        self.cross_core = self.cross_processor = self.on_app_core = 0
        self.core_data = [0] * len(self.core_data)


class HostStats(Record):
    delivered_interrupt: int = 0
    delivered_process: int = 0
    deferrals: int = 0
    lock_conflicts: int = 0  # cross-core encounters with an owned socket
    syscalls: int = 0
    interrupts_serviced: int = 0


class _ProcLane:
    """Serial process-context execution on core `core_id`.

    The queue holds sockets, FIFO. A thread enters receive calls only while
    computing (`Host.submit_syscall`), so it has at most one socket queued
    on all lanes, and the unit's work follows from its state:
    - draining, with a backlog: deliver the backlog's head packet on the
      app's core, queue the socket again on that core's lane and charge
      the core's service time;
    - draining, with the backlog empty: the receive call returns, with an
      ACK for anything delivered since the last one, and the next call is
      due one cadence later;
    - computing: enter the receive call.
    The last two charge nothing. Units run one at a time; dispatch waits for
    the core's interrupt lane to go idle first (`Host.irq_free`).
    Contending sockets interleave packet by packet, which is timesharing.

    The two hot ways in, `Host.submit_syscall` and the softirq's wake-up of
    a sleeping thread, skip `submit` when the lane is idle and its core's
    interrupt lane is free: they run the unit at once, as `_dispatch` would
    from an empty queue, so events and their order stay the same.
    """

    def __init__(self, host: "Host", core_id: int):
        self.host = host
        self.core_id = core_id
        self.queue = deque()  # sockets waiting, FIFO
        self.busy = False
        self._resume = self._dispatch  # one bound method for every reschedule

    def submit(self, sock: SocketModel):
        self.queue.append(sock)
        if not self.busy:
            self.busy = True
            self._dispatch()

    def _dispatch(self):
        host = self.host
        sim = host.sim
        irq_free = host.irq_free
        core_id = self.core_id
        queue = self.queue
        while True:
            now = sim.now
            if irq_free[core_id] > now:
                sim.schedule(irq_free[core_id], self._resume)
                return
            if not queue:
                self.busy = False
                return
            sock = queue.popleft()
            if sock.state != STATE_DRAINING:
                host._syscall_enter(sock)
                continue
            app_core = sock.core
            if sock.backlog:
                # `Host._softirq_step` repeats this delivery for a wake-up on
                # an idle lane; a shared method would add a frame per resume.
                host.stats.delivered_process += 1
                host._deliver(sock.backlog.pop(0), sock, app_core, now)
                # A busy lane, usually this one, takes the socket at its
                # tail; one left idle by a migration needs `submit`.
                lane = host.proc_lanes[app_core]
                if lane.busy:
                    lane.queue.append(sock)
                else:
                    lane.submit(sock)
                sim.schedule(now + host.service_ns, self._resume)
                return
            # Backlog empty: the call returns, releasing the socket. Anything
            # delivered since the last ACK is acknowledged from this core
            # now, which is how the NIC learns where the application runs.
            if sock.delivered_since_ack:
                sock.delivered_since_ack = 0
                host._tx_ack(sock.key, app_core, now)
            sock.state = STATE_COMPUTING
            # Only a host with a cadence has threads in receive calls.
            host._next_call(sock)


class Host:
    """Owns cores and sockets, each with its application thread, for one
    simulated run. It drains `nic`'s rings and sends each flow's ACKs
    through `nic.tx_ack`.

    `processors` lists each processor's cores, 0..n-1 in all, as the
    scenario's `host.processors` does.

    `sockets` lists the threads in the order `add_flow` wired them, which
    is socket order.

    Every core takes `service_ns` to process one packet, 1/R_service.
    Every thread makes a receive call `cadence_ns` after its last one
    returns, or never when that is None, and ACKs every `ack_every` data
    packets. The engine ticks the scheduler (`scheduler_mode`) unless it
    is "pinned"; the scenario holds every default.

    The scheduler reads runnable threads per core from one count vector,
    kept up to date wherever a thread changes state or core. A tick then
    costs O(cores) unless it has a thread to move."""

    def __init__(self, processors, sim, nic, service_ns: int, cadence_ns: int | None,
                 scheduler_mode: str, ack_every: int):
        processor_of = {core: proc for proc, group in enumerate(processors) for core in group}
        num_cores = len(processor_of)
        self._processor_of = [processor_of[core] for core in range(num_cores)]  # by core id
        self.irq_free = [0] * num_cores  # by core id, when its interrupt lane is next free
        self.service_ns = service_ns
        self.sim = sim
        self.scheduler_mode = scheduler_mode
        self.ack_every = ack_every
        self._nic = nic
        self._tx_ack = nic.tx_ack  # (sock.key, core_id, now)
        self.sockets: dict = {}  # by flow key, in socket order
        self.proc_lanes = [_ProcLane(self, core) for core in range(num_cores)]
        self.migrations = 0  # migrations performed so far
        self.stats = HostStats()
        self._rx_slots = [ring.slots for ring in nic.rings]  # per queue, for the softirq drain
        # Event callables built once instead of once per event. The NIC
        # queues the per-queue interrupt action on a ring's empty edge; it
        # never passes through `Simulator.schedule`, so it may be a partial.
        nic.interrupts = [partial(self.on_interrupt, q) for q in range(num_cores)]
        self._softirq_next = [lambda q=q: self._softirq_step(q) for q in range(num_cores)]
        # Schedules a socket's next receive call one cadence ahead, on the
        # timer line of `submit_syscall`; None when threads never call.
        self._next_call = None
        if cadence_ns is not None:
            self._next_call = sim.line(cadence_ns, self.submit_syscall).add
        self._runnable = [0] * num_cores  # runnable threads per core
        self._rotations: dict[tuple, dict] = {}  # sockets' next_core, by allowed cores
        self._free = []  # sockets of Free threads, in socket order

    # -- wiring -----------------------------------------------------------------

    def add_flow(self, key, core: int, allowed_cores: tuple):
        """Give the flow `key` its socket, the last in socket order, read by
        a thread that starts on `core`. `core` is one of the distinct
        `allowed_cores`, and the scheduler moves the thread only among them."""
        next_core = self._rotations.get(allowed_cores)
        if next_core is None:
            # Each allowed core to the next one, the last back to the first.
            # Allowed cores are distinct, so this is a permutation of them.
            rotated = allowed_cores[1:] + allowed_cores[:1]
            next_core = self._rotations[allowed_cores] = dict(zip(allowed_cores, rotated))
        state = STATE_IDLE if self._next_call is None else STATE_COMPUTING
        sock = SocketModel(key, core, next_core, state, len(self.irq_free))
        self.sockets[key] = sock
        if sock.state in RUNNABLE:
            self._runnable[core] += 1
        if len(allowed_cores) > 1:
            self._free.append(sock)
        return sock

    def release(self):
        """Drop the host's event actions, the interrupt actions it put on
        the NIC and each lane's reference back to the host. Each refers back
        to the host or one of its lanes, so each forms a reference cycle;
        `Simulator.clear` drops the handlers of the host's timer lines.
        Counters and sockets stay readable; the host takes no events
        afterwards."""
        self._nic.interrupts = None
        self._softirq_next = self._next_call = None
        for lane in self.proc_lanes:
            lane.host = lane._resume = None

    # -- interrupt context --------------------------------------------------------

    def on_interrupt(self, queue_id: int):
        """Activate the softirq drain loop for a queue. Spurious interrupts
        while it is already active, until its core's `irq_free`, are ignored."""
        if self.irq_free[queue_id] > self.sim.now:
            return
        self.stats.interrupts_serviced += 1
        self._softirq_step(queue_id)

    def _softirq_step(self, queue_id: int):
        # The drain is active while a continuation is pending, which is
        # until `irq_free`: only this loop sets it, and always schedules the
        # continuation there. An interrupt fires from the lane, after every
        # heap event of its instant, the continuation included. Queue i is
        # core i.
        now = self.sim.now
        slots = self._rx_slots[queue_id]
        while slots:
            packet = slots.popleft()
            sock = self.sockets[packet[0]]  # the engine wires every flow first
            if sock.state >= STATE_DRAINING or sock.backlog:
                # Deferral is an enqueue, too cheap to charge the service
                # rate, so the drain continues at this same instant.
                self.stats.deferrals += 1
                if sock.state == STATE_SLEEPING:
                    # The deferral hands the sleeper the socket at once; a
                    # gap between sleeping and draining would let a later
                    # packet slip past the backlog in interrupt context.
                    app_core = sock.core
                    self._runnable[app_core] += 1
                    sock.state = STATE_DRAINING
                    lane = self.proc_lanes[app_core]
                    if lane.busy or self.irq_free[app_core] > now:
                        sock.backlog.append(packet[2])
                        lane.submit(sock)
                        continue
                    # An idle lane delivers the packet now, as `_dispatch`'s
                    # backlog branch does; the two copies must agree. A
                    # sleeper's backlog is empty, so the packet is its head.
                    lane.busy = True
                    self.stats.delivered_process += 1
                    self._deliver(packet[2], sock, app_core, now)
                    lane.queue.append(sock)
                    self.sim.schedule(now + self.service_ns, lane._resume)
                    continue
                sock.backlog.append(packet[2])
                if sock.state == STATE_DRAINING and sock.core != queue_id:
                    self.stats.lock_conflicts += 1
                continue
            self.stats.delivered_interrupt += 1
            self._deliver(packet[2], sock, queue_id, now)
            free = now + self.service_ns
            self.irq_free[queue_id] = free
            self.sim.schedule(free, self._softirq_next[queue_id])
            return

    # -- process context ------------------------------------------------------------

    def submit_syscall(self, sock: SocketModel):
        """Issue a receive call for `sock` from its thread's current core.
        The engine issues each app's first call; the thread issues the
        rest itself, one cadence after each call returns. Either way the
        thread is computing, with an empty backlog. On an idle lane whose
        core's interrupt lane is free the call is entered at once; otherwise
        it queues on the lane."""
        lane = self.proc_lanes[sock.core]
        if lane.busy or self.irq_free[sock.core] > self.sim.now:
            lane.submit(sock)
        else:
            self._syscall_enter(sock)

    def _syscall_enter(self, sock: SocketModel):
        # From a computing thread, whose backlog is empty: sleep until data.
        self.stats.syscalls += 1
        self._runnable[sock.core] -= 1
        sock.state = STATE_SLEEPING

    # -- delivery ----------------------------------------------------------------

    def _deliver(self, seq: int, sock, core_id: int, now: int):
        """Tally the delivery of the frame numbered `seq` on its socket, a
        data frame when `seq >= 0`; the caller counts it under its context."""
        app_core = sock.core
        last = sock.last_core
        if core_id != last:
            if last >= 0:
                sock.alternations += 1
            sock.last_core = core_id
        cutoff = sock.cutoff
        if cutoff < 0:
            sock.cutoff = cutoff = now  # the first delivery ends the warm-up
        scored = now > cutoff
        if scored and core_id != app_core:
            sock.cross_core += 1
            processor_of = self._processor_of
            if processor_of[core_id] != processor_of[app_core]:
                sock.cross_processor += 1
        if seq >= 0:
            sock.data += 1
            if seq < sock.high:
                sock.inversions += 1
            else:
                sock.high = seq
            if scored:
                sock.core_data[core_id] += 1
                if core_id == app_core:
                    sock.on_app_core += 1
            sock.delivered_since_ack += 1
            if sock.delivered_since_ack >= self.ack_every:
                sock.delivered_since_ack = 0
                self._tx_ack(sock.key, core_id, now)

    # -- scheduling ----------------------------------------------------------------

    def runnable_counts(self) -> list[int]:
        """Runnable threads per core, a copy of the count vector."""
        return self._runnable.copy()

    def scheduler_tick(self):
        """One balancing pass, by "peak_performance" or else "power_saving"
        (a pinned host is never ticked); `migrations` counts its moves."""
        if self.scheduler_mode == "peak_performance":
            self._balance_peak()
        else:
            self._converge_power()

    def _migrate(self, sock: SocketModel, to_core: int):
        if sock.state in RUNNABLE:
            self._runnable[sock.core] -= 1
            self._runnable[to_core] += 1
        sock.core = to_core
        self.migrations += 1

    def _balance_peak(self):
        # Move Free threads from the longest run queue to the shortest
        # until balanced; the first in socket order moves first.
        # Ties go to the lowest core id.
        counts = self.runnable_counts()
        movable = None  # sockets of runnable Free threads per core, in socket order
        while True:
            high = max(counts)
            low = min(counts)
            if high - low <= 1:
                return
            busiest = counts.index(high)
            idlest = counts.index(low)
            if movable is None:
                # Walk the threads only when one of them may move: one
                # whose allowed cores hold both.
                if not any(busiest in nxt and idlest in nxt for nxt in self._rotations.values()):
                    return
                movable = [[] for _ in counts]
                for sock in self._free:
                    if sock.state in RUNNABLE:
                        movable[sock.core].append(sock)
            queue = movable[busiest]
            for i, sock in enumerate(queue):
                if idlest in sock.next_core:
                    break
            else:
                return
            del queue[i]
            movable[idlest].append(sock)
            counts[busiest] -= 1
            counts[idlest] += 1
            self._migrate(sock, idlest)

    def _converge_power(self):
        processor_of = self._processor_of
        target_cores = [c for c, proc_id in enumerate(processor_of) if proc_id == 0]
        counts = self.runnable_counts()
        for sock in self._free:
            if processor_of[sock.core] == 0:
                continue
            options = [c for c in sock.next_core if c in target_cores]
            if not options:
                continue
            dest = min(options, key=lambda c: (counts[c], c))
            counts[dest] += 1
            self._migrate(sock, dest)

    def force_alternate(self):
        """Deterministically rotate every Free thread to the next core in
        its allowed set. Models aggressive migration pressure so transition
        behaviour is exercised reproducibly. A runnable thread's count moves
        with it."""
        runnable = self._runnable
        for sock in self._free:
            core = sock.core
            dest = sock.next_core[core]
            sock.core = dest
            if sock.state in RUNNABLE:
                runnable[core] -= 1
                runnable[dest] += 1
        self.migrations += len(self._free)
