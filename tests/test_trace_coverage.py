"""The benchmark's span tracer still finds every entry point it times.

`Tracer.patch` skips a name the program no longer has, so that a traced
benchmark run survives a deletion. A rename would then set a per-layer
metric to zero without failing anything. This runs a short bundled
scenario under the tracer and checks that every span and steer-decision
counter `layer_metrics` in perfbench/sample.py reads was recorded.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Tracer  # noqa: E402

from steersim import Engine, Scenario  # noqa: E402

# Every span name that perfbench/sample.py:layer_metrics reads.
LAYER_SPANS = (
    "nic.rx", "nic.tx", "nic.on_hold_timer",
    "flowtable.steer", "flowtable.observe_tx", "flowtable.on_rx_connection_tracking",
    "flowtable.note_tx_packet", "flowtable.age",
    "host.scheduler_tick", "host.force_alternate", "host.on_interrupt",
    "rss.queue_for", "rss.toeplitz_hash",
    "workload.spawn_streams",
    "simkernel.run_until",
)

# The steer-decision counters that perfbench/sample.py:layer_metrics reads.
STEER_COUNTERS = ("flowtable.direct", "flowtable.held", "flowtable.fallback")


def test_every_layer_span_is_recorded():
    scenario = Scenario.load(ROOT / "scenarios" / "migrate_same.json")
    scenario.duration_us = 12_000.0
    tracer = Tracer().install()
    try:
        Engine(scenario, 1).run()
        stats = tracer.stats()
    finally:
        tracer.uninstall()
    missing = [name for name in LAYER_SPANS if not stats.count.get(name)]
    assert not missing, f"spans never recorded: {missing}"
    # perfbench reads the steer decisions as counters named after them.
    uncounted = [name for name in STEER_COUNTERS if not stats.counters.get(name)]
    assert not uncounted, f"counters never recorded: {uncounted}"
    assert tracer.restored()
