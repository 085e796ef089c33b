"""Wires one scenario into a simulation and executes it.

The receiver under test is a multi-queue NIC feeding per-core rings on a
multicore host. Incoming traffic is scripted by the workload. Each flow's
SYN-ACK is sent from here, naming the flow by its key; its data ACKs come
from the host, naming the flow and the core that processed it.
"""

import gc
import ipaddress
import os

from .flowtable import FlowTable, FlowTableStats, memory_estimate
from .flows import ACK, DATA, SYN, FlowKey
from .host import Host
from .metrics import RunReport, admitted_fraction
from .nic import MODE_FLOWSTEER, Nic
from .simkernel import Simulator, make_rng
from .workload import (
    WORST_CASE_EPSILON_NS,
    WORST_CASE_FIRE_NS,
    Scenario,
    build_rss_engine,
    nanoseconds,
    spawn_streams,
    worst_case_keys,
)

AGE_SWEEP_INTERVAL_NS = 10_000_000  # 10 ms


class RunResult:
    """A run's report and its hold delays (flush time minus arrival, one
    per flushed packet)."""

    def __init__(self, report: RunReport, hold_delays=()):
        self.report = report
        self.hold_delays = hold_delays


class Engine:
    """One simulation run: builds the models, schedules the workload, runs
    to the scenario horizon and assembles the report."""

    def __init__(self, scenario: Scenario, seed: int | None = None):
        scenario.validate()
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.rng = make_rng(self.seed)
        self.sim = Simulator()
        # Every time setting in ns; a period that is off is None, and
        # Scenario.validate ensures each other period is at least 1 ns.
        self._ns = ns = nanoseconds(scenario)

        self.rss = build_rss_engine(scenario)
        self.table = None
        if scenario.nic.mode == MODE_FLOWSTEER:
            # Every hold lasts t_timer, so the hold timers form one line.
            hold_timer = self.sim.line(ns["t_timer"], self._hold_timer_fired).add
            self.table = FlowTable(scenario.flow_table, self.rss.src_addr, self.rss.dst_addr,
                                   ns["t_delete"], ns["t_delete_pressure"], hold_timer,
                                   self.rss.queue_for)
        self.nic = Nic(scenario.nic, scenario.num_cores(), self.rss, self.table, self.sim)
        self.host = Host(scenario.host.processors, self.sim, self.nic, ns["service"],
                         ns["cadence"], scheduler_mode=scenario.scheduler.mode,
                         ack_every=scenario.host.ack_every)
        self.generated_data = 0
        self._ran = False

    # -- wiring callbacks --------------------------------------------------------

    def _hold_timer_fired(self, key: FlowKey):
        self.nic.on_hold_timer(key)
        # Every flow that completes a handshake was wired with a socket.
        self.host.sockets[key].restart_warm_up(self.sim.now)

    # -- workload scheduling -------------------------------------------------------

    def _schedule_streams(self):
        """Hand all arrivals to the simulator, then wire every stream's app.

        Each stream's arrivals form one block, built by `spawn_streams`
        in the order that scheduling them one by one at setup would give
        them: SYN, SYN-ACK, ACK, data in sequence order, then its app's
        first receive call, if the apps make receive calls. Block i is
        stream i, and a data packet is built only when it arrives. The
        blocks are handed over and let go of before the sockets are wired.
        Wiring draws no randomness and schedules nothing, so it follows the
        hand-over, and the simulator's sort is done before the sockets exist.
        """
        scenario = self.scenario
        keys, blocks, data_counts = spawn_streams(scenario, self._ns, self.rng)
        self.generated_data += sum(data_counts)
        socks = []  # each stream's socket, filled in by the wiring below
        self.sim.schedule_arrivals(blocks, self._arrival_action(socks, data_counts))
        del blocks
        cores_of = {port: tuple(rule.cores) for rule in scenario.apps for port in rule.ports}
        for i, key in enumerate(keys):
            # Stream i is socket i; its thread starts on the i-th of its cores.
            cores = cores_of[key.dst_port]
            socks.append(self.host.add_flow(key, cores[i % len(cores)], cores))

    def _arrival_action(self, socks: list, data_counts: list):
        """The action for every stream arrival, called with the stream and
        the arrival's position in its block: send the SYN-ACK, build the
        SYN, ACK or data packet as it arrives, or issue the app's first
        receive call. No packet exists before its arrival."""
        rx = self.nic.rx
        sim = self.sim
        tx = self.nic.tx
        submit_syscall = self.host.submit_syscall

        def arrive(i: int, k: int):
            if k >= 3:
                seq = k - 3
                if seq < data_counts[i]:
                    rx((socks[i].key, DATA, seq), sim.now)
                else:
                    submit_syscall(socks[i])
            elif k == 1:
                tx(socks[i].key, sim.now)
            else:
                rx((socks[i].key, ACK if k else SYN, -1), sim.now)

        return arrive

    def _schedule_worst_case(self):
        """Worst-case migration schedule for in-order analysis.

        Pre-loads the victim's old queue with ring_capacity - 1 packets of a
        filler flow, lands victim packet S one tick before the migration ACK
        goes out from the new core, and packet S+1 one tick after. With a
        zero hold timer the new queue services S+1 while S still waits
        behind the backlog; with a timer of at least (ring_capacity - 1) /
        R_service the flush lands after S's service start and order is
        preserved. `Scenario.validate` checks every limit of this schedule.
        """
        scenario = self.scenario
        victim_key, filler_key = worst_case_keys(scenario, self.rss)

        # Victim flow is admitted via a scripted handshake well before the
        # migration; its app never calls receive so everything stays in
        # interrupt context and the schedule is exact. The filler flow is
        # never admitted and rides the hash fallback onto the same queue.
        self.host.add_flow(victim_key, 0, (0,))
        self.host.add_flow(filler_key, 0, (0,))

        gap = self._ns["handshake_gap"]
        self._schedule_rx(0, (victim_key, SYN, -1))
        self.sim.schedule(gap, lambda: self.nic.tx(victim_key, self.sim.now))
        self._schedule_rx(2 * gap, (victim_key, ACK, -1))

        t = WORST_CASE_FIRE_NS
        eps = WORST_CASE_EPSILON_NS
        fillers = scenario.nic.ring_capacity - 1
        for seq in range(fillers):
            self._schedule_rx(t - 2 * eps, (filler_key, DATA, seq))
        self._schedule_rx(t - eps, (victim_key, DATA, 0))
        # The victim's app ACKs from its new core, core 1.
        self.sim.schedule(t, lambda: self.nic.tx_ack(victim_key, 1, self.sim.now))
        self._schedule_rx(t + eps, (victim_key, DATA, 1))
        self.generated_data += fillers + 2

    def _schedule_rx(self, at: int, packet: tuple):
        """Schedule one scripted packet to reach the NIC at `at`."""
        self.sim.schedule(at, lambda: self.nic.rx(packet, self.sim.now))

    # -- periodic machinery ---------------------------------------------------------

    def _schedule_periodics(self):
        ns = self._ns
        if ns["tick"] is not None:
            self.sim.schedule(ns["tick"], self._tick)
        if ns["alternate"] is not None:
            self.sim.schedule(ns["alternate"], self._alternate)
        if self.table is not None:
            self.sim.schedule(AGE_SWEEP_INTERVAL_NS, self._sweep)

    # Each periodic event reschedules itself. They are bound methods, not
    # closures: a closure that names itself is a reference cycle.

    def _tick(self):
        self.host.scheduler_tick()
        self.sim.schedule(self.sim.now + self._ns["tick"], self._tick)

    def _alternate(self):
        self.host.force_alternate()
        self.sim.schedule(self.sim.now + self._ns["alternate"], self._alternate)

    def _sweep(self):
        self.table.age(self.sim.now)
        self.sim.schedule(self.sim.now + AGE_SWEEP_INTERVAL_NS, self._sweep)

    # -- run ---------------------------------------------------------------------

    def run(self) -> RunResult:
        """Schedule the workload, run to the horizon and collect the report.
        An Engine runs once; a second call raises RuntimeError.

        Cyclic garbage collection is paused for the whole call, as `timeit`
        does, and restored as the caller had it, also when the run raises.
        Setup, the event loop and collection allocate objects that live as
        long as the run, so a collection would free next to nothing; it
        would only rescan them over and over. The run leaves no reference
        cycle behind (`_release`), so the engine and all it built are freed
        by reference counting as soon as the caller drops the engine."""
        if self._ran:
            raise RuntimeError("an Engine runs once; build a new Engine for another run")
        self._ran = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            if self.scenario.kind == "worst_case":
                self._schedule_worst_case()
            else:
                self._schedule_streams()
            self._schedule_periodics()
            self.sim.run_until(self._ns["duration"])
            return self._collect()
        finally:
            self._release()
            if enabled:
                gc.enable()

    def _release(self):
        """Drop every event action the run built. The actions refer back to
        the models that schedule them (the host, its lanes, the engine), so
        each forms a reference cycle. What the report, `RunResult` and a
        caller read afterwards stays: `sim.fired_total`, `host.stats`,
        `host.sockets`, `nic.rings` and `table.stats`."""
        self.sim.clear()
        self.host.release()

    # -- reporting ----------------------------------------------------------------

    def _collect(self) -> RunResult:
        # Sum the sockets' delivery tallies in socket order, the order in
        # which a scan of every flow's deliveries would add them up. A
        # flow's affinity is the share of its scored data on its busiest core.
        delivered_data = inversions = 0
        cross = cross_processor = alternations = 0
        flow_scores = []
        on_app_core = scored = 0
        for sock in self.host.sockets.values():
            delivered_data += sock.data
            inversions += sock.inversions
            cross += sock.cross_core
            cross_processor += sock.cross_processor
            alternations += sock.alternations
            flow_scored = sum(sock.core_data)
            if flow_scored:
                scored += flow_scored
                on_app_core += sock.on_app_core
                flow_scores.append(max(sock.core_data) / flow_scored)
        stats = self.host.stats
        delivered_total = stats.delivered_interrupt + stats.delivered_process
        hold_delays = self.nic.hold_delays

        queue_stats = {}
        drops = 0
        interrupts = 0
        for queue_id, ring in enumerate(self.nic.rings):
            queue_stats[queue_id] = {
                "queued": ring.enqueued,
                "dropped": ring.dropped,
                "interrupts": ring.interrupts,
                "max_depth": ring.max_depth,
            }
            drops += ring.dropped
            interrupts += ring.interrupts

        # Plain RSS has no table: every table figure reads 0.
        ts = self.table.stats if self.table is not None else FlowTableStats()
        # Only data frames, traffic.packet_bytes each, are held: an entry exists
        # only after its handshake's last ACK, and only data follows that ACK.
        peak_held_bytes = ts.peak_held * self.scenario.traffic.packet_bytes
        # Scenario.validate puts both addresses in one family.
        ip_version = ipaddress.ip_address(self.scenario.traffic.src_addr).version
        memory = memory_estimate(ts.peak_entries, ip_version, peak_held_bytes)
        report = RunReport(
            scenario=self.scenario.name,
            seed=self.seed,
            mode=self.scenario.nic.mode,
            duration_us=self.scenario.duration_us,
            generated_data=self.generated_data,
            delivered_data=delivered_data,
            delivered_interrupt=stats.delivered_interrupt,
            delivered_process=stats.delivered_process,
            process_context_fraction=(
                stats.delivered_process / delivered_total if delivered_total else 0.0
            ),
            reordering_ratio=inversions / delivered_data if delivered_data else 0.0,
            handshakes=ts.handshakes_completed,
            admitted=ts.admitted,
            rejected_bucket_full=ts.rejected_bucket_full,
            rejected_table_full=ts.rejected_table_full,
            admitted_fraction=admitted_fraction(ts.admitted, ts.handshakes_completed),
            evictions=ts.evictions,
            peak_entries=ts.peak_entries,
            transitions=ts.transitions_started,
            held_packets=ts.held_packets_total,
            peak_held_bytes=peak_held_bytes,
            held_delay_max_ns=max(hold_delays, default=0),
            held_delay_mean_ns=sum(hold_delays) / len(hold_delays) if hold_delays else 0.0,
            table_memory_peak_bytes=memory,
            drops=drops,
            interrupts=interrupts,
            migrations=self.host.migrations,
            acks_sent=self.nic.acks_sent,
            flow_affinity=sum(flow_scores) / len(flow_scores) if flow_scores else 1.0,
            data_affinity=on_app_core / scored if scored else 1.0,
            cross_core_packets=cross,
            cross_processor_packets=cross_processor,
            alternations=alternations,
            lock_conflict_events=stats.lock_conflicts,
            queue_stats=queue_stats,
        )
        return RunResult(report, hold_delays)


def run_scenario(scenario: Scenario, seed: int | None = None) -> RunResult:
    return Engine(scenario, seed=seed).run()


def report_row(scenario: Scenario, seed: int) -> dict:
    """The report row of one run; a worker process sends back only this,
    not the run's engine and models."""
    return run_scenario(scenario, seed=seed).report.to_row()


def report_rows(runs, jobs: int = 1):
    """Yield the report row of each (scenario, seed) run, in the order given.

    With `jobs` 1, or a single run, the runs execute one after another in
    this process. Otherwise a pool of spawned worker processes, at most
    `jobs`, `os.cpu_count()` and the number of runs, executes them; rows
    still come back in the order given, and an error a run raises is
    raised here when its row is reached. A run's row does not depend on the
    process it ran in, so the rows are the same for every `jobs`."""
    runs = list(runs)
    workers = min(jobs, os.cpu_count() or 1, len(runs))
    if workers <= 1:
        for scenario, seed in runs:
            yield report_row(scenario, seed)
        return
    # Imported only here: the pool's modules take about 20 ms to import,
    # a quarter of a single-process run's start-up.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        yield from pool.map(report_row, *zip(*runs))
