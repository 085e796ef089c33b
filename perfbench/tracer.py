"""Span tracer that wraps steersim's public entry points from outside.

Each wrapped call records a span: name, start, end and parent, kept in flat
arrays in memory. Events handed to `Simulator.schedule` are wrapped as well
and named after the module whose code created them, so a softirq step or a
process-lane dispatch counts toward `host`. `uninstall()` puts back every
original attribute. Layer names are the module names of `src/steersim/`.
"""

import time
from array import array
from collections import Counter

LAYERS = ("simkernel", "workload", "runner", "rss", "flowtable", "nic", "host", "metrics")

ROOT_SPAN = "runner.run"


class SpanStats:
    """Per-name call count, inclusive time and self time over one window."""

    def __init__(self, count, total, self_time, counters, phases):
        self.count = count
        self.total = total
        self.self_time = self_time
        self.counters = counters  # values counted at wrapped calls
        self.phases = phases  # root span split: spawn, pre-loop, loop, collect

    def n(self, name):
        return self.count.get(name, 0)

    def t(self, name):
        return self.total.get(name, 0.0)

    def s(self, name):
        return self.self_time.get(name, 0.0)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.counters = Counter()
        self._patched = []  # (owner, attribute, original)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def reset(self):
        """Drop recorded spans and counters. Clears in place: the wrappers
        hold references to these containers."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self._stack[:] = [-1]
        self.counters.clear()

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- installing and restoring ---------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr, name):
        """Wrap `owner.attr` in a span; names the program no longer has are
        skipped, so a later deletion does not break the traced pass."""
        if attr in vars(owner):
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))

    def install(self):
        from steersim import flowtable, host, metrics, nic, rss, runner, simkernel

        sim_cls = simkernel.Simulator
        schedule, run_until = sim_cls.schedule, sim_cls.run_until
        wrap, counters = self.wrap, self.counters

        def schedule_traced(sim, fire_time, action):
            module = getattr(action, "__module__", None) or "unknown"
            return schedule(sim, fire_time, wrap(module.rpartition(".")[2] + ".event", action))

        def run_until_counted(sim, t_end):
            counters["simkernel.heap_at_start"] = sim.pending()
            return run_until(sim, t_end)

        self._patch(sim_cls, "schedule", self.wrap("simkernel.schedule", schedule_traced))
        self._patch(sim_cls, "run_until", self.wrap("simkernel.run_until", run_until_counted))

        steer = flowtable.FlowTable.steer

        def steer_counted(table, *args, **kwargs):
            out = steer(table, *args, **kwargs)
            counters["flowtable." + getattr(out[0], "value", str(out[0]))] += 1
            return out

        self._patch(flowtable.FlowTable, "steer", self.wrap("flowtable.steer", steer_counted))

        self.patch(runner.Engine, "run", ROOT_SPAN)
        self.patch(runner, "spawn_streams", "workload.spawn_streams")
        self.patch(rss, "toeplitz_hash", "rss.toeplitz_hash")
        self.patch(rss.RssEngine, "queue_for", "rss.queue_for")
        for method in ("on_rx_connection_tracking", "note_tx_packet", "observe_tx",
                       "on_timer_expire", "age", "get"):
            self.patch(flowtable.FlowTable, method, "flowtable." + method)
        for method in ("rx", "tx", "on_hold_timer"):
            self.patch(nic.Nic, method, "nic." + method)
        for method in ("on_interrupt", "scheduler_tick", "force_alternate"):
            self.patch(host.Host, method, "host." + method)
        # The engine calls these through names imported into runner; the
        # benchmark's own report step calls them through steersim.metrics.
        for fn in ("reordering_ratio", "affinity_scores", "held_delay_histogram",
                   "admitted_fraction"):
            self.patch(runner, fn, "metrics." + fn)
        self.patch(metrics.RunReport, "to_row", "metrics.to_row")
        self.patch(metrics, "rows_to_csv", "metrics.rows_to_csv")
        self.patch(metrics, "aggregate_rows", "metrics.aggregate_rows")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute ever patched holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patched)

    # -- analysis -------------------------------------------------------------

    def stats(self) -> SpanStats:
        """Aggregate the spans recorded since the last reset. Self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        count, total, self_time = Counter(), Counter(), Counter()
        names = self.names
        for i in range(n):
            name = names[self.name[i]]
            count[name] += 1
            total[name] += dur[i]
            self_time[name] += dur[i] - child[i]
        return SpanStats(count, total, self_time, dict(self.counters), self._phases(dur))

    def _phases(self, dur):
        """Split the first root span (one Engine.run) at its event loop."""
        ids = self._ids
        root_id, loop_id, spawn_id = (
            ids.get(ROOT_SPAN), ids.get("simkernel.run_until"), ids.get("workload.spawn_streams")
        )
        if root_id is None or root_id not in self.name:
            return None
        root = self.name.index(root_id)
        spawn = loop = None
        for i in range(root + 1, len(self.name)):
            if self.parent[i] != root:
                continue
            if self.name[i] == spawn_id and spawn is None:
                spawn = i
            elif self.name[i] == loop_id:
                loop = i
        if loop is None:
            return None
        spawn_s = dur[spawn] if spawn is not None else 0.0
        return {
            "run": dur[root],
            "spawn": spawn_s,
            "pre_loop": self.start[loop] - self.start[root] - spawn_s,
            "loop": dur[loop],
            "collect": self.end[root] - self.end[loop],
        }
