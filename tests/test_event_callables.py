"""Every scheduled event is a callable defined in a steersim module.

The benchmark's traced pass names each event's span after the `__module__`
of the action handed to `Simulator.schedule`, and counts a span outside the
steersim layers as a fault. A `functools.partial` reports `functools`, so
event callables must be plain functions, lambdas or bound methods defined in
steersim. The arrival action handed to `Simulator.schedule_arrivals` and the
handlers of timer lines made by `Simulator.line` are held to the same rule.

Most of these callables refer back to the model that scheduled them, so
`Engine.run` drops them all when the run ends: a finished run is then freed
by reference counting alone, without the cycle collector.
"""

import gc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from steersim import Scenario
from steersim.runner import Engine
from steersim.simkernel import Simulator

from bundled import bundled, migrating, pinned_same
from delivery_oracle import record_deliveries

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _latency_accounting():
    s = migrating("migrate_same", 8)
    s.nic.latency_accounting = True
    return s


def _plain_rss():
    s = pinned_same(8)
    s.nic.mode = "rss"
    return s


SCENARIOS = {
    # Ticks, forced migrations, holds and flushes, softirq and process lanes.
    "migrate_same": lambda: bundled("migrate_same"),
    "worstcase": lambda: bundled("worstcase"),
    "latency_accounting": _latency_accounting,
    "pinned_rss": _plain_rss,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scheduled_actions_come_from_steersim(name, monkeypatch):
    modules = Counter()
    schedule, schedule_arrivals = Simulator.schedule, Simulator.schedule_arrivals
    line = Simulator.line

    def schedule_recorded(sim, fire_time, action):
        modules[getattr(action, "__module__", None)] += 1
        return schedule(sim, fire_time, action)

    def schedule_arrivals_recorded(sim, blocks, action):
        modules[getattr(action, "__module__", None)] += 1
        return schedule_arrivals(sim, blocks, action)

    def line_recorded(sim, delay, handler):
        modules[getattr(handler, "__module__", None)] += 1
        return line(sim, delay, handler)

    monkeypatch.setattr(Simulator, "schedule", schedule_recorded)
    monkeypatch.setattr(Simulator, "line", line_recorded)
    monkeypatch.setattr(Simulator, "schedule_arrivals", schedule_arrivals_recorded)
    Engine(SCENARIOS[name](), seed=1).run()

    assert modules["steersim.host"] > 0  # softirq and lane events were seen
    outside = {m: n for m, n in modules.items()
               if not (isinstance(m, str) and m.startswith("steersim."))}
    assert outside == {}


@pytest.fixture
def gc_paused():
    """Run the test with the cycle collector off, restoring its state after."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _contents(result, logs):
    """Everything a caller reads from a RunResult, and the run's recorded
    deliveries, as plain values."""
    columns = {key: (log.seq.tobytes(), log.t.tobytes(), bytes(log.core),
                     bytes(log.app_core), bytes(log.kind))
               for key, log in logs.items()}
    return result.report.to_row(), columns, list(result.hold_delays)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_finished_run_is_freed_without_the_cycle_collector(name, gc_paused, monkeypatch):
    logs = record_deliveries(monkeypatch)
    engine = Engine(SCENARIOS[name](), seed=1)
    result = engine.run()
    before = _contents(result, logs)
    assert sum(len(log) for log in logs.values()) > 0
    built = [engine, engine.sim, engine.nic, engine.host, *engine.host.proc_lanes]
    if engine.table is not None:
        built.append(engine.table)
    refs = [weakref.ref(obj) for obj in built]
    del engine, built
    assert [ref() for ref in refs if ref() is not None] == []
    assert _contents(result, logs) == before


def test_seed_loop_keeps_only_the_held_and_the_running_engine(gc_paused):
    # Shaped like perfbench/sample.py's `timed` batch: the first engine is
    # built ahead and held, each later one replaces the previous in `engine`.
    scenario = Scenario.load(SCENARIO_DIR / "pinned_same.json")
    scenario.nic.mode = "rss"
    seeds = range(20)
    first = Engine(scenario, seeds[0])
    refs = []
    most_alive = 0
    for k, seed in enumerate(seeds):
        engine = first if k == 0 else Engine(scenario, seed)
        refs.append(weakref.ref(engine))
        engine.run()
        most_alive = max(most_alive, sum(ref() is not None for ref in refs))
    assert most_alive == 2
