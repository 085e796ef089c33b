import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.simkernel import MS, US, SchedulingError, Simulator, make_rng


def test_forward_scheduling():
    sim = Simulator()
    sim.run_until(50)
    fired = []
    sim.schedule(100, lambda: fired.append("a"))
    assert sim.run_until(100) == 1
    assert fired == ["a"]


def test_equal_times_fire_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(100, lambda: order.append("first"))
    sim.schedule(100, lambda: order.append("second"))
    sim.run_until(100)
    assert order == ["first", "second"]


def test_past_time_rejected():
    sim = Simulator()
    sim.run_until(50)
    with pytest.raises(SchedulingError):
        sim.schedule(40, lambda: None)


def test_run_until_empty_queue():
    sim = Simulator()
    assert sim.run_until(1000) == 0
    assert sim.now() == 1000


def test_run_until_window_boundary():
    sim = Simulator()
    fired = []
    for t in (10, 20, 30, 400):
        sim.schedule(t, lambda t=t: fired.append(t))
    assert sim.run_until(30) == 3
    assert fired == [10, 20, 30]
    assert sim.now() == 30
    assert sim.pending() == 1


def test_child_events_fire_within_window():
    # Hand-traced five-event schedule: A@10 schedules B@50 and C@30 when it
    # fires; D@40 and E@100 are preloaded. run_until(60) must fire
    # A, C, D, B in exactly that order and leave E pending.
    sim = Simulator()
    trace = []

    def on_a():
        trace.append(("A", sim.now()))
        sim.schedule(50, lambda: trace.append(("B", sim.now())))
        sim.schedule(30, lambda: trace.append(("C", sim.now())))

    sim.schedule(10, on_a)
    sim.schedule(40, lambda: trace.append(("D", sim.now())))
    sim.schedule(100, lambda: trace.append(("E", sim.now())))

    assert sim.run_until(60) == 4
    assert trace == [("A", 10), ("C", 30), ("D", 40), ("B", 50)]
    assert sim.now() == 60
    assert sim.pending() == 1


def test_events_never_observe_future_now():
    sim = Simulator()
    seen = []
    for t in (5, 5, 7, 12):
        sim.schedule(t, lambda t=t: seen.append((t, sim.now())))
    sim.run_until(20)
    assert all(now == t for t, now in seen)


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
@settings(max_examples=150)
def test_dispatch_is_time_then_insertion_ordered(times):
    sim = Simulator()
    fired = []
    for i, t in enumerate(times):
        sim.schedule(t, lambda t=t, i=i: fired.append((t, i)))
    sim.run_until(10_000)
    assert fired == sorted(fired)


def test_reserved_id_pushed_late_beats_earlier_runtime_event():
    sim = Simulator()
    order = []
    first = sim.reserve(1)
    sim.schedule(100, lambda: order.append("runtime"))
    sim.schedule(50, lambda: sim.schedule_reserved(100, first, lambda: order.append("reserved")))
    sim.run_until(100)
    assert order == ["reserved", "runtime"]


def test_reserved_push_into_past_rejected():
    sim = Simulator()
    first = sim.reserve(2)
    sim.run_until(50)
    with pytest.raises(SchedulingError):
        sim.schedule_reserved(40, first, lambda: None)
    sim.schedule_reserved(50, first + 1, lambda: None)
    assert sim.run_until(50) == 1


def test_reserve_zero_and_negative():
    sim = Simulator()
    assert sim.reserve(3) == 0
    # reserve(0) sets nothing aside: it names the id the next event gets.
    nxt = sim.reserve(0)
    assert nxt == 3
    with pytest.raises(ValueError):
        sim.schedule_reserved(10, nxt, lambda: None)
    assert sim.schedule(10, lambda: None) == nxt
    with pytest.raises(ValueError):
        sim.reserve(-1)
    assert sim.reserve(0) == 4


def test_rng_reproducibility():
    a = [make_rng(99).random() for _ in range(5)]
    b = [make_rng(99).random() for _ in range(5)]
    assert a == b


def test_unit_constants():
    assert US == 1_000 and MS == 1_000_000
