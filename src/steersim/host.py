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
from operator import add

from .flows import DATA, Record, reverse_key

MODE_PINNED = "pinned"
MODE_PEAK_PERFORMANCE = "peak_performance"
MODE_POWER_SAVING = "power_saving"

STATE_COMPUTING = "computing"
STATE_DRAINING = "draining"
STATE_SLEEPING = "sleeping"
STATE_IDLE = "idle"  # never calls receive; everything stays in interrupt context
RUNNABLE = (STATE_COMPUTING, STATE_DRAINING)


class Core(Record):
    core_id: int
    processor_id: int
    service_ns: int  # 1/R_service, virtual cost to process one packet
    irq_free: int = 0


class AppProcess:
    """An application thread. One that makes receive calls starts out
    computing until its first call; one that never calls starts idle."""

    __slots__ = ("pid", "core", "allowed_cores", "cadence_ns", "state")

    def __init__(self, pid: int, core: int, allowed_cores: tuple, cadence_ns: int | None):
        self.pid = pid
        self.core = core
        self.allowed_cores = allowed_cores
        self.cadence_ns = cadence_ns  # compute time between receive calls; None = never calls
        self.state = STATE_IDLE if cadence_ns is None else STATE_COMPUTING

    @property
    def pinned(self) -> bool:
        return len(self.allowed_cores) == 1


class SocketModel:
    """Per-flow receive socket, read by the application process `proc`.
    `key` is the flow's receive-direction key and `tx_key` the same flow's
    transmit-direction key, which its ACKs carry. A packet found with the
    socket owned, the app sleeping in receive, or the backlog non-empty must
    defer to the backlog; processing anything ahead of a non-empty backlog
    would reorder the flow.

    The backlog is a list: it stays a few packets deep, where `pop(0)` costs
    what `deque.popleft` does, and an empty list takes 56 bytes where an
    empty deque takes 760.

    `Host._deliver` tallies every delivery as it happens, for the report:
    - `data`, data packets delivered; `high`, the largest data seq so far;
      `inversions`, data packets below it;
    - `last_core`, the core of the last delivery (-1 before the first);
      `alternations`, deliveries on another core than the one before;
    - from the warm-up `cutoff` on, deliveries at a later time only:
      `cross_core`, packets on another core than the app's, and
      `cross_processor`, those also on another processor; for data
      packets, `core_data` per core, `scored` in all, and `on_app_core`.

    The cutoff is the time of the flow's last hold-timer flush, or else of
    its first delivery (`restart_warm_up`); -1 until either happens."""

    __slots__ = ("key", "tx_key", "proc", "owned_by_user", "sleeping", "backlog",
                 "delivered_since_ack", "data", "high", "inversions", "last_core",
                 "alternations", "cutoff", "cross_core", "cross_processor", "core_data",
                 "scored", "on_app_core")

    def __init__(self, key, tx_key, proc: AppProcess, num_cores: int):
        self.key = key
        self.tx_key = tx_key
        self.proc = proc
        self.owned_by_user = False
        self.sleeping = False
        self.backlog = []
        self.delivered_since_ack = 0
        self.data = self.inversions = self.alternations = 0
        self.high = self.last_core = self.cutoff = -1
        self.cross_core = self.cross_processor = self.scored = self.on_app_core = 0
        self.core_data = [0] * num_cores

    def restart_warm_up(self, now: int):
        """Move the warm-up cutoff to `now`, as a hold-timer flush does:
        the flow's steering changed, so only later deliveries count."""
        self.cutoff = now
        self.cross_core = self.cross_processor = self.scored = self.on_app_core = 0
        self.core_data = [0] * len(self.core_data)


class _CoreSet:
    """The processes that share one allowed-core set: those on each allowed
    core, and how many of them are runnable, per core of the host."""

    __slots__ = ("runnable", "next_core", "on_core")

    def __init__(self, allowed: tuple, num_cores: int):
        self.runnable = [0] * num_cores
        # force_alternate's rotation: each allowed core to the next one,
        # the last back to the first. Allowed cores are distinct, so this
        # is a permutation of them.
        self.next_core = {core: allowed[(i + 1) % len(allowed)]
                          for i, core in enumerate(allowed)}
        self.on_core = {core: {} for core in allowed}  # processes as dict keys


class HostStats(Record):
    delivered_interrupt: int = 0
    delivered_process: int = 0
    deferrals: int = 0
    lock_conflicts: int = 0  # cross-core encounters with an owned socket
    syscalls: int = 0
    interrupts_serviced: int = 0


class _ProcLane:
    """Serial process-context execution on one core.

    A work unit is a (function, socket) pair; the lane runs `fn(sock, now)`
    and the function returns its service charge in ns. Units run one at a
    time; dispatch waits for the core's interrupt lane to go idle first.
    Contending sockets interleave packet by packet, which is timesharing.
    """

    def __init__(self, sim, core: Core):
        self.sim = sim
        self.core = core
        self.queue = deque()  # (fn, sock) units waiting, FIFO
        self.busy = False
        self._resume = self._dispatch  # one bound method for every reschedule

    def submit(self, fn, sock):
        self.queue.append((fn, sock))
        if not self.busy:
            self.busy = True
            self._dispatch()

    def _dispatch(self):
        sim = self.sim
        core = self.core
        queue = self.queue
        while True:
            now = sim.now
            if core.irq_free > now:
                sim.schedule(core.irq_free, self._resume)
                return
            if not queue:
                self.busy = False
                return
            fn, sock = queue.popleft()
            charge = fn(sock, now)
            if charge:
                sim.schedule(now + charge, self._resume)
                return


class Host:
    """Owns cores, sockets and application processes for one simulated run.
    It drains `nic`'s rings and sends each flow's ACKs through `nic.tx_ack`.

    Pids are dense: `add_flow` takes pids 0, 1, 2, ... in order, and
    `processes` is the list of processes indexed by pid.

    The scheduler reads runnable processes per core from one count vector
    per allowed-core set (`_CoreSet`), kept up to date wherever a process
    changes state or core. A tick then costs O(cores) unless it has a
    process to move."""

    def __init__(self, cores, sim, nic, scheduler_mode=MODE_PINNED,
                 ack_every: int = 2):
        self.cores = cores
        self._processor_of = [core.processor_id for core in cores]  # by core id
        self.sim = sim
        self.scheduler_mode = scheduler_mode
        self.ack_every = ack_every
        self._nic = nic
        self._tx_ack = nic.tx_ack  # (tx_key, core_id, now)
        self.sockets: dict = {}
        self.processes: list[AppProcess] = []  # indexed by pid
        self.handler_active = [False] * len(cores)
        self.proc_lanes = [_ProcLane(sim, core) for core in cores]
        self.migrations = 0  # migrations performed so far
        self.stats = HostStats()
        self._rx_slots = [ring.slots for ring in nic.rings]  # per queue, for the softirq drain
        # Event callables built once instead of once per event. The NIC
        # schedules the per-queue interrupt action on a ring's empty edge.
        nic.interrupts = [lambda q=q: self.on_interrupt(q) for q in range(len(cores))]
        self._softirq_next = [lambda q=q: self._softirq_step(q) for q in range(len(cores))]
        # Process-lane work functions, bound once; a unit pairs one with a socket.
        self._syscall = self._syscall_enter
        self._drain = self._drain_step
        # Per cadence: schedules a socket's next receive call that far
        # ahead, on a timer line of `submit_syscall`.
        self._call_after = {}
        self._core_sets: dict[tuple, _CoreSet] = {}  # by allowed cores
        self._set_of: list[_CoreSet] = []  # indexed by pid
        self._free = []  # Free processes in pid order

    # -- wiring -----------------------------------------------------------------

    def add_flow(self, key, process: AppProcess):
        """Attach `process`, whose pid must be the next dense pid, and give
        it the socket of the flow `key` it reads. The process must start on
        one of its allowed cores; the scheduler moves it only among them."""
        if process.pid != len(self.processes):
            raise ValueError(f"pid {process.pid} is not the next pid, {len(self.processes)}")
        allowed = process.allowed_cores
        if process.core not in allowed:
            raise ValueError(
                f"pid {process.pid} starts on core {process.core}, outside its allowed "
                f"cores {allowed}"
            )
        if len(set(allowed)) != len(allowed):
            raise ValueError(f"pid {process.pid} repeats a core in its allowed cores {allowed}")
        self.processes.append(process)
        core_set = self._core_sets.get(allowed)
        if core_set is None:
            core_set = self._core_sets[allowed] = _CoreSet(allowed, len(self.cores))
        core_set.on_core[process.core][process] = None
        if process.state in RUNNABLE:
            core_set.runnable[process.core] += 1
        self._set_of.append(core_set)
        if not process.pinned:
            self._free.append(process)
        cadence = process.cadence_ns
        if cadence is not None and cadence not in self._call_after:
            self._call_after[cadence] = self.sim.line(cadence, self.submit_syscall).add
        sock = SocketModel(key, reverse_key(key), process, len(self.cores))
        self.sockets[key] = sock
        return sock

    def release(self):
        """Drop the host's event actions and the interrupt actions it put on
        the NIC. Each refers back to the host or one of its lanes, so each
        forms a reference cycle; `Simulator.clear` drops the handlers of the
        host's timer lines. Counters, sockets and processes stay readable;
        the host takes no events afterwards."""
        self._nic.interrupts = None
        self._softirq_next = self._call_after = None
        self._syscall = self._drain = None
        for lane in self.proc_lanes:
            lane._resume = None

    # -- interrupt context --------------------------------------------------------

    def on_interrupt(self, queue_id: int):
        """Activate the softirq drain loop for a queue. Spurious interrupts
        while the handler is already active are ignored."""
        if self.handler_active[queue_id]:
            return
        self.handler_active[queue_id] = True
        self.stats.interrupts_serviced += 1
        self._softirq_step(queue_id)

    def _softirq_step(self, queue_id: int):
        now = self.sim.now
        core = self.cores[queue_id]
        slots = self._rx_slots[queue_id]
        while True:
            if not slots:
                self.handler_active[queue_id] = False
                return
            packet = slots.popleft()
            sock = self.sockets.get(packet.key)
            if sock is not None and (
                sock.owned_by_user or sock.sleeping or sock.backlog
            ):
                # Deferral is an enqueue, too cheap to charge the service
                # rate, so the drain continues at this same instant.
                self.stats.deferrals += 1
                if sock.owned_by_user and sock.proc.core != core.core_id:
                    self.stats.lock_conflicts += 1
                sock.backlog.append(packet)
                if sock.sleeping:
                    self._wake(sock)
                continue
            if sock is not None:
                self.stats.delivered_interrupt += 1
                self._deliver(packet, sock, core.core_id, now)
            core.irq_free = now + core.service_ns
            self.sim.schedule(core.irq_free, self._softirq_next[queue_id])
            return

    # -- process context ------------------------------------------------------------

    def submit_syscall(self, sock: SocketModel):
        """Issue a receive call for `sock` from its process's current core.
        The engine issues each app's first call; the process issues the
        rest itself, one cadence after each call returns."""
        self.proc_lanes[sock.proc.core].submit(self._syscall, sock)

    def _syscall_enter(self, sock: SocketModel, now: int) -> int:
        proc = sock.proc
        self.stats.syscalls += 1
        runnable = proc.state in RUNNABLE
        if sock.backlog:
            sock.owned_by_user = True
            if not runnable:
                self._set_of[proc.pid].runnable[proc.core] += 1
            proc.state = STATE_DRAINING
            self.proc_lanes[proc.core].submit(self._drain, sock)
        else:
            # Block in the receive call until data arrives.
            sock.sleeping = True
            if runnable:
                self._set_of[proc.pid].runnable[proc.core] -= 1
            proc.state = STATE_SLEEPING
        return 0

    def _wake(self, sock: SocketModel):
        # The deferral that woke the sleeper hands it the socket immediately;
        # a gap between sleeping and owned would let a later packet slip past
        # the backlog in interrupt context.
        sock.sleeping = False
        sock.owned_by_user = True
        proc = sock.proc
        if proc.state not in RUNNABLE:
            self._set_of[proc.pid].runnable[proc.core] += 1
        proc.state = STATE_DRAINING
        self.proc_lanes[proc.core].submit(self._drain, sock)

    def _drain_step(self, sock: SocketModel, now: int) -> int:
        proc = sock.proc
        if sock.backlog:
            packet = sock.backlog.pop(0)
            self.stats.delivered_process += 1
            self._deliver(packet, sock, proc.core, now)
            # A busy lane, usually the one running this step, takes the next
            # unit at its tail; one left idle by a migration needs `submit`.
            lane = self.proc_lanes[proc.core]
            if lane.busy:
                lane.queue.append((self._drain, sock))
            else:
                lane.submit(self._drain, sock)
            return self.cores[proc.core].service_ns
        # Backlog empty: the call returns, releasing the socket. Anything
        # delivered since the last ACK is acknowledged from this core now,
        # which is how the NIC learns where the application runs.
        if sock.delivered_since_ack:
            sock.delivered_since_ack = 0
            self._tx_ack(sock.tx_key, proc.core, now)
        sock.owned_by_user = False
        if proc.state not in RUNNABLE:
            self._set_of[proc.pid].runnable[proc.core] += 1
        proc.state = STATE_COMPUTING
        if proc.cadence_ns is not None:
            self._call_after[proc.cadence_ns](sock)
        return 0

    # -- delivery ----------------------------------------------------------------

    def _deliver(self, packet, sock, core_id: int, now: int):
        """Tally one delivery on its socket; the caller counts it under its
        context."""
        app_core = sock.proc.core
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
        if packet.kind == DATA:
            seq = packet.seq
            sock.data += 1
            if seq < sock.high:
                sock.inversions += 1
            else:
                sock.high = seq
            if scored:
                sock.core_data[core_id] += 1
                sock.scored += 1
                if core_id == app_core:
                    sock.on_app_core += 1
            sock.delivered_since_ack += 1
            if sock.delivered_since_ack >= self.ack_every:
                sock.delivered_since_ack = 0
                self._tx_ack(sock.tx_key, core_id, now)

    # -- scheduling ----------------------------------------------------------------

    def runnable_counts(self) -> list[int]:
        """Runnable processes per core: the sum of the count vectors."""
        counts = [0] * len(self.cores)
        for core_set in self._core_sets.values():
            counts = list(map(add, counts, core_set.runnable))
        return counts

    def scheduler_tick(self):
        """One balancing pass; `migrations` counts the processes it moves."""
        if self.scheduler_mode == MODE_PEAK_PERFORMANCE:
            self._balance_peak()
        elif self.scheduler_mode == MODE_POWER_SAVING:
            self._converge_power()

    def _migrate(self, proc: AppProcess, to_core: int):
        core_set = self._set_of[proc.pid]
        del core_set.on_core[proc.core][proc]
        core_set.on_core[to_core][proc] = None
        if proc.state in RUNNABLE:
            core_set.runnable[proc.core] -= 1
            core_set.runnable[to_core] += 1
        proc.core = to_core
        self.migrations += 1

    def _balance_peak(self):
        # Move Free processes from the longest run queue to the shortest
        # until balanced; lowest pid moves first.
        # Ties go to the lowest core id.
        counts = self.runnable_counts()
        movable = None  # runnable Free processes per core, in pid order
        while True:
            high = max(counts)
            low = min(counts)
            if high - low <= 1:
                return
            busiest = counts.index(high)
            idlest = counts.index(low)
            if movable is None:
                # Walk the processes only when one of them can move.
                if not any(c.runnable[busiest] for c in self._core_sets.values()
                           if idlest in c.next_core):
                    return
                movable = [[] for _ in counts]
                for proc in self._free:
                    if proc.state in RUNNABLE:
                        movable[proc.core].append(proc)
            queue = movable[busiest]
            for i, proc in enumerate(queue):
                if idlest in proc.allowed_cores:
                    break
            else:
                return
            del queue[i]
            movable[idlest].append(proc)
            counts[busiest] -= 1
            counts[idlest] += 1
            self._migrate(proc, idlest)

    def _converge_power(self):
        target_cores = [c.core_id for c in self.cores if c.processor_id == 0]
        counts = self.runnable_counts()
        for proc in self._free:
            if self.cores[proc.core].processor_id == 0:
                continue
            options = [c for c in proc.allowed_cores if c in target_cores]
            if not options:
                continue
            dest = min(options, key=lambda c: (counts[c], c))
            counts[dest] += 1
            self._migrate(proc, dest)

    def force_alternate(self):
        """Deterministically rotate every Free process to the next core in
        its allowed set. Models aggressive migration pressure so transition
        behaviour is exercised reproducibly. All of a set's processes on one
        core go to the same next core, and the set's counts go with them."""
        for core_set in self._core_sets.values():
            nxt = core_set.next_core
            if len(nxt) < 2:
                continue  # pinned
            on_core = core_set.on_core
            for core, procs in on_core.items():
                dest = nxt[core]
                for proc in procs:
                    proc.core = dest
            core_set.on_core = {nxt[core]: procs for core, procs in on_core.items()}
            rotated = [0] * len(core_set.runnable)
            for core, dest in nxt.items():
                rotated[dest] = core_set.runnable[core]
            core_set.runnable = rotated
        self.migrations += len(self._free)
