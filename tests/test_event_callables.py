"""Every scheduled event is a callable defined in a steersim module.

The benchmark's traced pass names each event's span after the `__module__`
of the action handed to `Simulator.schedule`, and counts a span outside the
steersim layers as a fault. A `functools.partial` reports `functools`, so
event callables must be plain functions, lambdas or bound methods defined in
steersim. The arrival action handed to `Simulator.schedule_arrivals` is held
to the same rule.
"""

from collections import Counter

import pytest

from steersim import presets
from steersim.runner import Engine
from steersim.simkernel import Simulator


def _latency_accounting():
    s = presets.migrate_same(8)
    s.nic.latency_accounting = True
    return s


def _plain_rss():
    s = presets.pinned_same(8)
    s.nic.mode = "rss"
    return s


SCENARIOS = {
    # Ticks, forced migrations, holds and flushes, softirq and process lanes.
    "migrate_same": presets.migrate_same,
    "worstcase": presets.worstcase,
    "latency_accounting": _latency_accounting,
    "pinned_rss": _plain_rss,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scheduled_actions_come_from_steersim(name, monkeypatch):
    modules = Counter()
    schedule, schedule_arrivals = Simulator.schedule, Simulator.schedule_arrivals

    def schedule_recorded(sim, fire_time, action):
        modules[getattr(action, "__module__", None)] += 1
        return schedule(sim, fire_time, action)

    def schedule_arrivals_recorded(sim, blocks, action):
        modules[getattr(action, "__module__", None)] += 1
        return schedule_arrivals(sim, blocks, action)

    monkeypatch.setattr(Simulator, "schedule", schedule_recorded)
    monkeypatch.setattr(Simulator, "schedule_arrivals", schedule_arrivals_recorded)
    Engine(SCENARIOS[name](), seed=1).run()

    assert modules["steersim.host"] > 0  # softirq and lane events were seen
    outside = {m: n for m, n in modules.items()
               if not (isinstance(m, str) and m.startswith("steersim."))}
    assert outside == {}
