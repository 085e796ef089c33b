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
from dataclasses import dataclass, field

from .flows import DATA

CTX_INTERRUPT = "interrupt"
CTX_PROCESS = "process"

MODE_PINNED = "pinned"
MODE_PEAK_PERFORMANCE = "peak_performance"
MODE_POWER_SAVING = "power_saving"
MODE_CPUSET = "cpuset"

STATE_COMPUTING = "computing"
STATE_DRAINING = "draining"
STATE_SLEEPING = "sleeping"
STATE_IDLE = "idle"  # never calls receive; everything stays in interrupt context


@dataclass
class Core:
    core_id: int
    processor_id: int
    service_ns: int  # 1/R_service, virtual cost to process one packet
    irq_free: int = 0


@dataclass
class DeliveryRecord:
    seq: int
    t: int
    core: int
    context: str
    app_core: int
    kind: str


@dataclass
class SocketModel:
    """Per-flow receive socket. A packet found with the socket owned, the
    app sleeping in receive, or the backlog non-empty must defer to the
    backlog; processing anything ahead of a non-empty backlog would reorder
    the flow."""

    key: object
    pid: int
    owned_by_user: bool = False
    sleeping: bool = False
    backlog: deque = field(default_factory=deque)
    delivered: list = field(default_factory=list)
    delivered_since_ack: int = 0


@dataclass
class AppProcess:
    pid: int
    core: int
    allowed_cores: tuple
    cadence_ns: int | None  # compute time between receive calls; None = never calls
    state: str = STATE_COMPUTING

    @property
    def pinned(self) -> bool:
        return len(self.allowed_cores) == 1


@dataclass
class HostStats:
    delivered_interrupt: int = 0
    delivered_process: int = 0
    deferrals: int = 0
    lock_conflicts: int = 0  # cross-core encounters with an owned socket
    syscalls: int = 0
    interrupts_serviced: int = 0


class _ProcLane:
    """Serial process-context execution on one core.

    Work units run one at a time; dispatch waits for the core's interrupt
    lane to go idle first. Contending sockets interleave packet by packet,
    which is timesharing, and each unit reports its own service charge.
    """

    def __init__(self, sim, core: Core):
        self.sim = sim
        self.core = core
        self.queue = deque()
        self.busy = False

    def submit(self, work):
        self.queue.append(work)
        if not self.busy:
            self.busy = True
            self._dispatch()

    def _dispatch(self):
        while True:
            now = self.sim.now()
            if self.core.irq_free > now:
                self.sim.schedule(self.core.irq_free, self._dispatch)
                return
            if not self.queue:
                self.busy = False
                return
            work = self.queue.popleft()
            charge = work(now)
            if charge:
                self.sim.schedule(now + charge, self._dispatch)
                return


class Host:
    """Owns cores, sockets and application processes for one simulated run."""

    def __init__(self, cores, sim, nic, scheduler_mode=MODE_PINNED,
                 ack_every: int = 2, emit_ack=None):
        self.cores = cores
        self.sim = sim
        self.nic = nic
        self.scheduler_mode = scheduler_mode
        self.ack_every = ack_every
        self.emit_ack = emit_ack  # callable(flow_key, core_id, now)
        self.sockets: dict = {}
        self.socket_by_pid: dict[int, SocketModel] = {}
        self.processes: dict[int, AppProcess] = {}
        self.handler_active = [False] * len(cores)
        self.proc_lanes = [_ProcLane(sim, core) for core in cores]
        self.migrations: list = []  # (t, pid, from_core, to_core)
        self.stats = HostStats()
        self._free = None  # _free_procs() until the next add_flow

    # -- wiring -----------------------------------------------------------------

    def add_flow(self, key, process: AppProcess):
        self.processes[process.pid] = process
        self._free = None
        sock = SocketModel(key=key, pid=process.pid)
        self.sockets[key] = sock
        self.socket_by_pid[process.pid] = sock
        return sock

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
        now = self.sim.now()
        core = self.cores[queue_id]
        while True:
            packet = self.nic.drain(queue_id, now)
            if packet is None:
                self.handler_active[queue_id] = False
                return
            sock = self.sockets.get(packet.key)
            if sock is not None and (
                sock.owned_by_user or sock.sleeping or sock.backlog
            ):
                # Deferral is an enqueue, too cheap to charge the service
                # rate, so the drain continues at this same instant.
                self.stats.deferrals += 1
                if sock.owned_by_user:
                    owner = self.processes[sock.pid]
                    if owner.core != core.core_id:
                        self.stats.lock_conflicts += 1
                sock.backlog.append(packet)
                if sock.sleeping:
                    self._wake(sock)
                continue
            if sock is not None:
                self._deliver(packet, sock, core.core_id, CTX_INTERRUPT, now)
            core.irq_free = now + core.service_ns
            self.sim.schedule(core.irq_free, lambda q=queue_id: self._softirq_step(q))
            return

    # -- process context ------------------------------------------------------------

    def start_process(self, pid: int, first_call_at: int):
        proc = self.processes[pid]
        if proc.cadence_ns is None:
            proc.state = STATE_IDLE
            return
        self.sim.schedule(first_call_at, lambda: self._submit_syscall(pid))

    def _submit_syscall(self, pid: int):
        proc = self.processes[pid]
        self.proc_lanes[proc.core].submit(lambda now, pid=pid: self._syscall_enter(pid, now))

    def _syscall_enter(self, pid: int, now: int) -> int:
        proc = self.processes[pid]
        sock = self.socket_by_pid[pid]
        self.stats.syscalls += 1
        if sock.backlog:
            sock.owned_by_user = True
            proc.state = STATE_DRAINING
            self.proc_lanes[proc.core].submit(
                lambda now, pid=pid: self._drain_step(pid, now)
            )
        else:
            # Block in the receive call until data arrives.
            sock.sleeping = True
            proc.state = STATE_SLEEPING
        return 0

    def _wake(self, sock: SocketModel):
        # The deferral that woke the sleeper hands it the socket immediately;
        # a gap between sleeping and owned would let a later packet slip past
        # the backlog in interrupt context.
        sock.sleeping = False
        sock.owned_by_user = True
        proc = self.processes[sock.pid]
        proc.state = STATE_DRAINING
        self.proc_lanes[proc.core].submit(
            lambda now, pid=sock.pid: self._drain_step(pid, now)
        )

    def _drain_step(self, pid: int, now: int) -> int:
        proc = self.processes[pid]
        sock = self.socket_by_pid[pid]
        if sock.backlog:
            packet = sock.backlog.popleft()
            self._deliver(packet, sock, proc.core, CTX_PROCESS, now)
            self.proc_lanes[proc.core].submit(
                lambda now, pid=pid: self._drain_step(pid, now)
            )
            return self.cores[proc.core].service_ns
        # Backlog empty: the call returns, releasing the socket. Anything
        # delivered since the last ACK is acknowledged from this core now,
        # which is how the NIC learns where the application runs.
        if sock.delivered_since_ack and self.emit_ack is not None:
            sock.delivered_since_ack = 0
            self.emit_ack(sock.key, proc.core, now)
        sock.owned_by_user = False
        proc.state = STATE_COMPUTING
        if proc.cadence_ns is not None:
            self.sim.schedule(now + proc.cadence_ns, lambda: self._submit_syscall(pid))
        return 0

    # -- delivery ----------------------------------------------------------------

    def _deliver(self, packet, sock, core_id: int, context: str, now: int):
        proc = self.processes[sock.pid]
        sock.delivered.append(
            DeliveryRecord(packet.seq, now, core_id, context, proc.core, packet.kind)
        )
        if context == CTX_INTERRUPT:
            self.stats.delivered_interrupt += 1
        else:
            self.stats.delivered_process += 1
        if packet.kind == DATA:
            sock.delivered_since_ack += 1
            if sock.delivered_since_ack >= self.ack_every and self.emit_ack is not None:
                sock.delivered_since_ack = 0
                self.emit_ack(packet.key, core_id, now)

    # -- scheduling ----------------------------------------------------------------

    def runnable_counts(self) -> list[int]:
        counts = [0] * len(self.cores)
        for proc in self.processes.values():
            if proc.state in (STATE_COMPUTING, STATE_DRAINING):
                counts[proc.core] += 1
        return counts

    def _migrate(self, proc: AppProcess, to_core: int, now: int):
        self.migrations.append((now, proc.pid, proc.core, to_core))
        proc.core = to_core

    def scheduler_tick(self, now: int) -> list:
        """One balancing pass; returns the migrations performed."""
        before = len(self.migrations)
        if self.scheduler_mode == MODE_PEAK_PERFORMANCE:
            self._balance_peak(now)
        elif self.scheduler_mode == MODE_POWER_SAVING:
            self._converge_power(now)
        elif self.scheduler_mode == MODE_CPUSET:
            self._enforce_cpuset(now)
        return self.migrations[before:]

    def _free_procs(self) -> list:
        """Processes the scheduler may move, lowest pid first. Pids and
        pinning are fixed once flows are wired, so the list is built once."""
        if self._free is None:
            self._free = [p for p in sorted(self.processes.values(), key=lambda p: p.pid)
                          if not p.pinned]
        return self._free

    def _balance_peak(self, now: int):
        # Move Free processes from the longest run queue to the shortest
        # until balanced; lowest pid moves first.
        counts = self.runnable_counts()
        movable = {c: deque() for c in range(len(self.cores))}
        for proc in self._free_procs():
            if proc.state in (STATE_COMPUTING, STATE_DRAINING):
                movable[proc.core].append(proc)
        while True:
            busiest = max(range(len(counts)), key=lambda c: (counts[c], -c))
            idlest = min(range(len(counts)), key=lambda c: (counts[c], c))
            if counts[busiest] - counts[idlest] <= 1:
                return
            moved = None
            for proc in movable[busiest]:
                if idlest in proc.allowed_cores:
                    moved = proc
                    break
            if moved is None:
                return
            movable[busiest].remove(moved)
            movable[idlest].append(moved)
            counts[busiest] -= 1
            counts[idlest] += 1
            self._migrate(moved, idlest, now)

    def _converge_power(self, now: int):
        target_cores = [c.core_id for c in self.cores if c.processor_id == 0]
        counts = self.runnable_counts()
        for proc in self._free_procs():
            if self.cores[proc.core].processor_id == 0:
                continue
            options = [c for c in proc.allowed_cores if c in target_cores]
            if not options:
                continue
            dest = min(options, key=lambda c: (counts[c], c))
            counts[dest] += 1
            self._migrate(proc, dest, now)

    def _enforce_cpuset(self, now: int):
        counts = self.runnable_counts()
        for proc in sorted(self.processes.values(), key=lambda p: p.pid):
            if proc.core not in proc.allowed_cores:
                dest = min(proc.allowed_cores, key=lambda c: (counts[c], c))
                counts[dest] += 1
                self._migrate(proc, dest, now)

    def force_alternate(self, now: int):
        """Deterministically rotate every Free process to the next core in
        its allowed set. Models aggressive migration pressure so transition
        behaviour is exercised reproducibly."""
        for proc in self._free_procs():
            if len(proc.allowed_cores) < 2:
                continue
            if proc.core in proc.allowed_cores:
                idx = proc.allowed_cores.index(proc.core)
            else:
                idx = -1
            self._migrate(proc, proc.allowed_cores[(idx + 1) % len(proc.allowed_cores)], now)


def contention_proxy(delivered, migrations=None, lock_conflicts: int = 0,
                     processor_of=None, warm_up_end=None) -> dict:
    """Simulator-observable stand-ins for cross-core contention.

    `delivered` maps flow key -> list of DeliveryRecord. cross_core counts
    packets processed on a different core than the app occupied at that
    moment; alternations counts consecutive same-flow deliveries on
    different cores. lock_conflicts is recorded online by the engine (an
    interrupt-context arrival finding the socket owned by a thread running
    on another core) and passed through.
    """
    cross = 0
    cross_processor = 0
    alternations = 0
    for key, records in delivered.items():
        cutoff = warm_up_end.get(key, -1) if warm_up_end else -1
        prev_core = None
        for rec in records:
            if rec.t > cutoff and rec.core != rec.app_core:
                cross += 1
                if processor_of is not None and \
                        processor_of(rec.core) != processor_of(rec.app_core):
                    cross_processor += 1
            if prev_core is not None and rec.core != prev_core:
                alternations += 1
            prev_core = rec.core
    return {
        "cross_core_packets": cross,
        "cross_processor_packets": cross_processor,
        "alternations": alternations,
        "lock_conflict_events": lock_conflicts,
        "migrations": len(migrations or ()),
    }
