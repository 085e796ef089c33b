import heapq
import sys
from array import array
from collections import deque
from itertools import count
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steersim import Engine, Scenario, simkernel
from steersim.simkernel import (
    _WINDOW_ARRIVALS,
    MS,
    US,
    SchedulingError,
    Simulator,
)


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
    assert sim.now == 1000


def test_run_until_window_boundary():
    sim = Simulator()
    fired = []
    for t in (10, 20, 30, 400):
        sim.schedule(t, lambda t=t: fired.append(t))
    assert sim.run_until(30) == 3
    assert fired == [10, 20, 30]
    assert sim.now == 30
    assert sim.pending() == 1


def test_child_events_fire_within_window():
    # Hand-traced five-event schedule: A@10 schedules B@50 and C@30 when it
    # fires; D@40 and E@100 are preloaded. run_until(60) must fire
    # A, C, D, B in exactly that order and leave E pending.
    sim = Simulator()
    trace = []

    def on_a():
        trace.append(("A", sim.now))
        sim.schedule(50, lambda: trace.append(("B", sim.now)))
        sim.schedule(30, lambda: trace.append(("C", sim.now)))

    sim.schedule(10, on_a)
    sim.schedule(40, lambda: trace.append(("D", sim.now)))
    sim.schedule(100, lambda: trace.append(("E", sim.now)))

    assert sim.run_until(60) == 4
    assert trace == [("A", 10), ("C", 30), ("D", 40), ("B", 50)]
    assert sim.now == 60
    assert sim.pending() == 1


def test_events_never_observe_future_now():
    sim = Simulator()
    seen = []
    for t in (5, 5, 7, 12):
        sim.schedule(t, lambda t=t: seen.append((t, sim.now)))
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


def _recorder(order):
    """An arrival action that records each arrival as (block, position)."""
    return lambda block, position: order.append((block, position))


def _block(*times):
    """A block of one single-arrival run per time, in the given order."""
    return [x for t in times for x in (t, 1, 0)]


def _times(block):
    """The fire time of each position of a block, run by run."""
    runs = iter(block)
    return [t + k * spacing for t, count, spacing in zip(runs, runs, runs) for k in range(count)]


def test_arrivals_fire_first_at_an_instant_in_hand_over_order():
    # A heap event wins no tie with an arrival, even one scheduled first.
    sim = Simulator()
    order = []
    sim.schedule(100, lambda: order.append("before"))
    sim.schedule_arrivals([_block(100), [100, 2, 0]], _recorder(order))
    sim.schedule(100, lambda: order.append("after"))
    assert sim.run_until(100) == 5
    assert order == [(0, 0), (1, 0), (1, 1), "before", "after"]
    assert sim.fired_total == 5


def test_arrivals_resume_across_windows():
    sim = Simulator()
    order = []
    sim.schedule(15, lambda: order.append("runtime"))
    sim.schedule_arrivals([[10, 1, 0, 20, 2, 0, 35, 1, 0]], _recorder(order))
    assert sim.pending() == 1  # arrivals never enter the heap
    assert sim.run_until(10) == 1
    assert order == [(0, 0)]
    assert sim.run_until(20) == 3  # an arrival exactly at t_end fires
    assert order == [(0, 0), "runtime", (0, 1), (0, 2)]
    assert sim.now == 20
    assert sim.run_until(30) == 0
    assert sim.run_until(35) == 1
    assert order[-1] == (0, 3)
    assert sim.run_until(1_000) == 0
    assert sim.fired_total == 5


def test_arrival_action_schedules_event_at_the_same_instant():
    # The new event fires at the same instant, after the arrivals that
    # share that instant.
    sim = Simulator()
    order = []

    def arrive(block, position):
        order.append(position)
        if position == 0:
            sim.schedule(sim.now, lambda: order.append(("runtime", sim.now)))

    sim.schedule_arrivals([[50, 2, 0]], arrive)
    assert sim.run_until(50) == 3
    assert order == [0, 1, ("runtime", 50)]


def test_event_scheduled_at_now_waits_for_the_heap_at_that_instant():
    # E fires first at 100 and schedules L for the same instant. H was
    # scheduled at setup, before L, so it fires first.
    sim = Simulator()
    order = []

    def on_e():
        order.append("E")
        sim.schedule(sim.now, lambda: order.append("L"))
        sim.schedule(sim.now, lambda: order.append("L2"))

    sim.schedule(100, on_e)
    sim.schedule(100, lambda: order.append("H"))
    sim.schedule(101, lambda: order.append("later"))
    assert sim.run_until(100) == 4
    assert order == ["E", "H", "L", "L2"]
    assert sim.pending() == 1
    sim.run_until(101)
    assert order[-1] == "later"


def test_lane_event_scheduling_another_fires_before_the_clock_moves():
    sim = Simulator()
    order = []

    def chain(n):
        order.append((n, sim.now))
        if n:
            sim.schedule(sim.now, lambda: chain(n - 1))

    sim.schedule(10, lambda: chain(3))
    sim.schedule(11, lambda: order.append(("next", sim.now)))
    sim.run_until(11)
    assert order == [(3, 10), (2, 10), (1, 10), (0, 10), ("next", 11)]


def test_arrivals_heap_events_and_lane_at_one_instant():
    # At 100: both arrivals, then E (which schedules L at now when it
    # fires) and H by id, then L from the lane.
    sim = Simulator()
    order = []

    def on_e():
        order.append("E")
        sim.schedule(sim.now, lambda: order.append("L"))

    sim.schedule(100, on_e)
    sim.schedule(100, lambda: order.append("H"))
    sim.schedule_arrivals([_block(100), _block(100)], _recorder(order))
    assert sim.run_until(100) == 5
    assert order == [(0, 0), (1, 0), "E", "H", "L"]


def test_arrival_schedules_lane_event_behind_a_later_arrival():
    # The arrival at 50 schedules L at now; the next arrival at the same
    # instant still fires first, then the heap event, then L.
    sim = Simulator()
    order = []

    def arrive(block, position):
        order.append(position)
        if position == 0:
            sim.schedule(sim.now, lambda: order.append("L"))

    sim.schedule(50, lambda: order.append("H"))
    sim.schedule_arrivals([[50, 2, 0]], arrive)
    sim.run_until(50)
    assert order == [0, 1, "H", "L"]


def test_events_scheduled_at_time_zero_before_the_first_run():
    sim = Simulator()
    order = []
    sim.schedule(0, lambda: order.append("L0"))
    sim.schedule(0, lambda: order.append("L1"))
    sim.schedule(5, lambda: order.append("H"))
    assert sim.pending() == 3  # two in the lane, one on the heap
    sim.schedule_arrivals([_block(0), _block(0)], _recorder(order))
    assert sim.run_until(0) == 4
    assert order == [(0, 0), (1, 0), "L0", "L1"]
    assert sim.pending() == 1
    sim.run_until(5)
    assert order[-1] == "H"


def test_pending_counts_lane_entries_during_a_run():
    sim = Simulator()
    seen = []

    def on_e():
        sim.schedule(sim.now, lambda: seen.append(sim.pending()))
        sim.schedule(sim.now, lambda: None)
        sim.schedule(sim.now + 1, lambda: None)
        seen.append(sim.pending())

    sim.schedule(10, on_e)
    sim.run_until(10)
    # Two lane entries and one heap entry; then one lane entry is left.
    assert seen == [3, 2]
    assert sim.pending() == 1


def test_arrival_times_need_not_be_sorted():
    # Arrivals are numbered by block and by position in the block.
    sim = Simulator()
    fired = []
    sim.schedule_arrivals([_block(7, 3), _block(5), [3, 2, 6]],
                           lambda b, k: fired.append((sim.now, b, k)))
    sim.run_until(10)
    assert fired == [(3, 0, 1), (3, 2, 0), (5, 1, 0), (7, 0, 0), (9, 2, 1)]


def test_arrival_too_late_for_64_bit_packing_still_fires():
    sim = Simulator()
    fired = []
    late = 1 << 62
    sim.schedule_arrivals([[late, 2, late, 5, 1, 0]], _recorder(fired))
    assert type(sim._runs) is list  # the packed runs need more than 64 bits
    assert sim.run_until(late) == 2
    assert fired == [(0, 2), (0, 0)]
    assert sim.run_until(2 * late) == 1
    assert fired[-1] == (0, 1)


def test_events_after_the_last_arrival_fire_however_late():
    sim = Simulator()
    fired = []
    late = 1 << 300
    sim.schedule_arrivals([_block(5)], lambda b, k: fired.append("arrival"))
    sim.schedule(late, lambda: fired.append("late"))
    assert sim.run_until(2 * late) == 2
    assert fired == ["arrival", "late"]


def test_arrival_before_now_rejected():
    sim = Simulator()
    sim.run_until(50)
    with pytest.raises(SchedulingError):
        sim.schedule_arrivals([[50, 2, 0, 40, 1, 0]], lambda block, position: None)
    sim.schedule_arrivals([[50, 2, 0]], lambda block, position: None)
    assert sim.run_until(50) == 2


def test_blocks_of_any_length_fire_by_block_then_position():
    # The position field is as wide as the longest block needs; an empty
    # block still takes its number, and a run of no arrivals no position.
    sim = Simulator()
    order = []
    sim.schedule_arrivals([[5, 3, 0, 5, 1, 0], [], [5, 0, 9, 5, 1, 0], [5, 2, 0]], _recorder(order))
    assert sim.run_until(5) == 7
    assert order == [(0, 0), (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (3, 1)]


def _unfired(sim):
    """The arrivals the simulator holds that have not fired yet."""
    count_mask = (1 << sim._run_bits - sim._step_bits) - 1
    runs = sum(run >> sim._step_bits & count_mask for run in sim._runs)
    return len(sim._window) - sim._pos + sum(map(len, sim._carried)) + runs


def test_fired_arrivals_leave_the_simulator():
    # Three long runs, one per block, that interleave, and enough arrivals
    # for several windows. The simulator holds one window of packed values
    # at a time, every other arrival still as a run, and drops each window
    # once it has fired.
    sim = Simulator()
    fired = []
    n = 5 * _WINDOW_ARRIVALS + 100
    blocks = [[b, len(range(b, n, 3)), 3] for b in range(3)]
    sim.schedule_arrivals(blocks, lambda b, k: fired.append(b + 3 * k))
    for t_end in (0, _WINDOW_ARRIVALS - 1, _WINDOW_ARRIVALS + 5, n // 2, n - 1):
        sim.run_until(t_end)
        assert _unfired(sim) == n - 1 - t_end
        assert len(sim._window) <= 3 * _WINDOW_ARRIVALS  # at most that many from each run
    assert fired == list(range(n))
    assert (len(sim._window), len(sim._carried), len(sim._runs)) == (0, 0, 0)


def test_runs_that_fit_64_bits_are_held_in_an_array_that_shrinks_as_they_fire():
    # One single-arrival run per ns, so each window deletes about
    # _WINDOW_ARRIVALS runs at once, enough for the array to give memory back.
    sim = Simulator()
    n = 4 * _WINDOW_ARRIVALS
    sim.schedule_arrivals([_block(*range(n))], lambda b, k: None)
    runs = sim._runs
    assert isinstance(runs, array) and runs.itemsize == 8
    sizes = [(len(runs), sys.getsizeof(runs))]
    for t_end in range(_WINDOW_ARRIVALS, n, _WINDOW_ARRIVALS):
        sim.run_until(t_end)
        sizes.append((len(runs), sys.getsizeof(runs)))
    assert all(a > b for earlier, later in zip(sizes, sizes[1:])
               for a, b in zip(earlier, later))


@pytest.mark.parametrize("time, fits", [((1 << 61) - 1, True), (1 << 61, False)])
def test_runs_go_to_an_array_exactly_when_they_fit_64_bits(time, fits):
    # One block of one arrival: time << 3 | 1 is the packed run.
    sim = Simulator()
    fired = []
    sim.schedule_arrivals([[time, 1, 0]], _recorder(fired))
    assert isinstance(sim._runs, array) is fits
    assert sim.run_until(time) == 1
    assert fired == [(0, 0)]


START = 100  # `now` when the property below hands its arrivals over

# A run as (offset from START, count, spacing); spacing 0 puts a run's
# arrivals at one instant.
runs = st.tuples(st.integers(0, 30), st.integers(0, 6), st.integers(0, 4))


@given(
    st.lists(st.lists(runs, max_size=5), max_size=24),
    st.sampled_from(["none", "past_64_bits", "before_now"]),
    st.integers(0, 1000),
    st.sampled_from([_WINDOW_ARRIVALS, 1, 2, 5]),
)
@settings(max_examples=200)
# Every window edge sits on an arrival: the first of the runs left, or one
# inside a run cut at the window size. Here every window gets two.
@example([[(t, 1, 0) for t in range(32)]], "none", 0, 2)
# Long runs that interleave across blocks, and a run at one instant.
@example([[(0, 30, 1)], [(0, 30, 1)], [(5, 10, 0)]], "none", 0, 1)
@example([[(0, 30, 1)], [(0, 30, 1)], [(5, 10, 0)]], "none", 0, 5)
# Equal times across blocks and in one block; empty blocks and runs.
@example([[], [(3, 1, 0)], [(3, 2, 0), (9, 0, 2), (0, 1, 0)], [], [(0, 1, 0), (3, 1, 0)]],
         "none", 0, 1)
@example([[], [(3, 1, 0)], [(3, 2, 0), (9, 0, 2), (0, 1, 0)], [], [(0, 1, 0), (3, 1, 0)]],
         "none", 0, _WINDOW_ARRIVALS)
@example([[(0, 1, 0)], [(1, 2, 0)]], "past_64_bits", 1, 1)
@example([], "past_64_bits", 0, 1)
@example([[(5, 1, 0)]], "before_now", 0, 1)
def test_windowed_hand_over_fires_in_full_sort_order(blocks, extra, pick, window):
    # Runs of arrivals from START on, plus a run at or past 2**63 ns or one
    # before now, in a block `pick` chooses, fired in windows of about
    # `window` arrivals: many windows when it is small, one at the default
    # size. They fire in the order of one full sort of every arrival by
    # (time, block, position), or the hand-over raises.
    with mock.patch.object(simkernel, "_WINDOW_ARRIVALS", window):
        _hand_over_in_full_sort_order(blocks, extra, pick)


def _hand_over_in_full_sort_order(blocks, extra, pick):
    blocks = [[x for t, count, spacing in block for x in (START + t, count, spacing)]
              for block in blocks]
    if extra != "none":
        if not blocks:
            blocks.append([])
        late = (1 << 63) + pick if extra == "past_64_bits" else START - 1 - pick % START
        block = blocks[pick % len(blocks)]
        at = 3 * (pick % (len(block) // 3 + 1))
        block[at:at] = (late, 1 + pick % 3, pick)
    sim = Simulator()
    sim.run_until(START)
    fired = []
    if extra == "before_now":
        with pytest.raises(SchedulingError):
            sim.schedule_arrivals(blocks, lambda b, k: fired.append((sim.now, b, k)))
        return
    sim.schedule_arrivals(blocks, lambda b, k: fired.append((sim.now, b, k)))
    expected = sorted((t, b, k) for b, block in enumerate(blocks)
                      for k, t in enumerate(_times(block)))
    assert sim.run_until(max((t for t, _, _ in expected), default=START)) == len(expected)
    assert fired == expected
    assert (len(sim._window), len(sim._carried), len(sim._runs)) == (0, 0, 0)


@pytest.mark.parametrize("block", [[5, 1, -1], [5, -1, 0], [5, 1]])
def test_malformed_run_rejected(block):
    # A negative spacing or count, or a block cut inside a run.
    with pytest.raises(ValueError):
        Simulator().schedule_arrivals([_block(5), block], lambda b, k: None)


def test_second_schedule_arrivals_rejected():
    sim = Simulator()
    sim.schedule_arrivals([_block(10)], lambda block, position: None)
    with pytest.raises(ValueError, match="already"):
        sim.schedule_arrivals([_block(20)], lambda block, position: None)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=200),
                  st.integers(min_value=0, max_value=2), st.booleans()),
        max_size=60,
    ),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=150)
def test_merge_matches_one_heap_of_everything(plan, t_end):
    # Each entry is a runtime event or a one-time arrival, which either
    # opens a new block or joins the last one. One with spawns left
    # schedules a child at now() when it fires, and the child may spawn
    # again. Dispatch must match one heap holding everything, arrival k of
    # block b keyed (fire_time, 0, (b, k)) ahead of the event with id e
    # keyed (fire_time, 1, e), children included.
    sim = Simulator()
    fired = []
    spawns_left = {}

    def fire(tag):
        fired.append((sim.now, tag))
        left = spawns_left[tag]
        if left:
            child = (1, sim.schedule(sim.now, lambda: fire(child)))
            spawns_left[child] = left - 1

    blocks = []
    heap = []
    events = 0
    for is_arrival, t, spawns, new_block in plan:
        if is_arrival:
            if new_block or not blocks:
                blocks.append([])
            tag = (0, (len(blocks) - 1, len(blocks[-1]) // 3))
            blocks[-1] += (t, 1, 0)
        else:
            tag = (1, events)
            assert sim.schedule(t, lambda tag=tag: fire(tag)) == events
            events += 1
        heap.append((t, *tag, spawns))
        spawns_left[tag] = spawns
    sim.schedule_arrivals(blocks, lambda b, k: fire((0, (b, k))))
    sim.run_until(t_end)
    sim.run_until(200)

    heapq.heapify(heap)
    next_id = events
    expected = []
    while heap:
        t, kind, number, left = heapq.heappop(heap)
        expected.append((t, (kind, number)))
        if left:
            heapq.heappush(heap, (t, 1, next_id, left - 1))
            next_id += 1
    assert fired == expected
    assert sim.pending() == 0


# Delays of the timer lines below: the lane, and two lines of one delay so
# that their events tie at one instant.
LINE_DELAYS = (0, 3, 5, 5)
# An event added to a line or to the heap: (target, delay), where target is
# an index into LINE_DELAYS or -1 for `schedule` after `delay` ns.
line_targets = st.tuples(st.integers(-1, len(LINE_DELAYS) - 1), st.integers(0, 6))


def _run_lines(setup, spawns, t_mid, use_lines):
    """Add the `setup` events at time 0 and run to 60, each fired event
    adding the next group of `spawns`; with `use_lines` false every line
    event is scheduled on the heap instead. Returns the firing order and
    what `pending` read at 0, at `t_mid` and at the end."""
    sim = Simulator()
    fired = []
    todo = deque(spawns)

    def fire(tag):
        fired.append((sim.now, tag))
        for target, delay in todo.popleft() if todo else ():
            add(target, delay)

    def add(target, delay):
        tag = next(tags)
        if target < 0:
            sim.schedule(sim.now + delay, lambda: fire(tag))
        elif use_lines:
            lines[target].add(tag)
        else:
            sim.schedule(sim.now + LINE_DELAYS[target], lambda: fire(tag))

    lines = [sim.line(d, fire) for d in LINE_DELAYS] if use_lines else None
    tags = count()
    for target, delay in setup:
        add(target, delay)
    pending = [sim.pending()]
    sim.run_until(t_mid)
    pending.append(sim.pending())
    sim.run_until(60)
    pending.append(sim.pending())
    return fired, pending, sim.fired_total


@given(st.lists(line_targets, max_size=12),
       st.lists(st.lists(line_targets, max_size=3), max_size=30),
       st.integers(0, 60))
@settings(max_examples=200)
# Ties at one instant: two lines of one delay and a heap event, added in
# turn, and lane events added as they fire.
@example([(2, 0), (-1, 5), (3, 0), (2, 0), (0, 0)], [[(3, 0), (2, 0), (-1, 5)], [(0, 0)]], 5)
def test_line_events_fire_as_scheduled_events_would(setup, spawns, t_mid):
    # Line events interleave with heap and lane events exactly as they
    # would if each had been scheduled on its own with `schedule`, and
    # `pending` counts them alike.
    assert _run_lines(setup, spawns, t_mid, True) == _run_lines(setup, spawns, t_mid, False)


def test_line_of_delay_zero_uses_the_lane():
    sim = Simulator()
    order = []
    line = sim.line(0, order.append)

    def on_e():
        order.append("E")
        line.add("L")

    sim.schedule(10, on_e)
    sim.schedule(10, lambda: order.append("H"))
    line.add("at 0")
    assert (len(sim._lane), len(sim._heap), sim.pending()) == (1, 2, 3)
    assert sim.run_until(10) == 4
    assert order == ["at 0", "E", "H", "L"]


def test_line_of_delay_zero_and_soon_take_no_id():
    # Both put an entry in the same-instant lane: it fires after every heap
    # event at its instant, in the order the entries were added, and takes
    # no event id, so the heap's ids run on unbroken.
    sim = Simulator()
    order = []
    line = sim.line(0, order.append)

    def on_e():
        order.append("E")
        line.add("L1")
        sim.soon(lambda: order.append("S"))
        line.add("L2")
        assert sim.schedule(sim.now, lambda: order.append("X")) == 3

    assert sim.schedule(10, on_e) == 0
    line.add("at 0")
    sim.soon(lambda: order.append("soon at 0"))
    assert sim.schedule(10, lambda: order.append("H")) == 1
    assert sim.schedule(11, lambda: order.append("I")) == 2
    assert sim.run_until(10) == 8
    assert order == ["at 0", "soon at 0", "E", "H", "L1", "S", "L2", "X"]
    assert sim.schedule(12, lambda: None) == 4
    sim.run_until(11)
    assert order[-1] == "I"


def test_line_rejects_a_negative_delay():
    with pytest.raises(SchedulingError):
        Simulator().line(-1, print)


def test_pending_counts_line_events_and_clear_drops_them():
    sim = Simulator()
    fired = []
    line = sim.line(5, fired.append)
    for tag in "abc":
        line.add(tag)
    sim.schedule(7, lambda: fired.append("heap"))
    assert len(sim._heap) == 2  # a line's head only, and the event
    assert sim.pending() == 4
    sim.run_until(4)
    line.add("d")  # fires at 9
    assert sim.pending() == 5
    sim.run_until(5)
    assert fired == ["a", "b", "c"]
    assert sim.pending() == 2
    sim.clear()
    assert sim.pending() == 0 and line.handler is None
    assert sim.run_until(100) == 0
    assert fired == ["a", "b", "c"]


def test_add_at_fires_at_explicit_times_in_the_order_added():
    sim = Simulator()
    fired = []
    line = sim.line(0, lambda arg: fired.append((sim.now, arg)))
    for time, tag in [(3, "a"), (7, "b"), (7, "c"), (20, "d")]:
        line.add_at(time, tag)
    assert sim.run_until(10) == 3
    assert fired == [(3, "a"), (7, "b"), (7, "c")]
    assert sim.run_until(20) == 1
    assert fired[-1] == (20, "d")


def test_add_at_fires_under_the_id_it_took_when_added():
    # A heap event scheduled just before the line event for the same
    # instant fires first, one scheduled just after fires after it, also
    # when the line event waits behind an earlier one of its line.
    sim = Simulator()
    order = []
    line = sim.line(0, order.append)
    line.add_at(2, "first")
    assert sim.schedule(5, lambda: order.append("before")) == 1
    line.add_at(5, "line")
    assert sim.schedule(5, lambda: order.append("after")) == 3
    assert sim.run_until(5) == 4
    assert order == ["first", "before", "line", "after"]


def test_pending_counts_add_at_events_and_clear_drops_them():
    sim = Simulator()
    fired = []
    line = sim.line(0, fired.append)
    for time, tag in [(4, "a"), (6, "b"), (9, "c")]:
        line.add_at(time, tag)
    assert (len(sim._heap), sim.pending()) == (1, 3)
    sim.run_until(5)
    assert fired == ["a"] and sim.pending() == 2
    sim.clear()
    assert sim.pending() == 0 and line.handler is None
    assert sim.run_until(100) == 0
    assert fired == ["a"]


@pytest.mark.parametrize("latency_accounting, line_count", [
    pytest.param(False, 2, id="plain"),
    pytest.param(True, 3, id="latency_accounting"),
])
def test_heap_holds_one_entry_per_line_lane_and_periodic(monkeypatch, latency_accounting,
                                                         line_count):
    # During migrate_same_2000 the hold timers and receive calls wait on
    # timer lines, and so do the lookups under latency accounting, so the
    # heap holds at most one entry per line, per softirq, per process lane
    # and per periodic event (tick, forced migration, table sweep).
    scenario = Scenario.load(Path(__file__).resolve().parents[1] / "scenarios"
                             / "migrate_same_2000.json")
    scenario.nic.latency_accounting = latency_accounting
    lines = []
    heights = []
    make_line, push = Simulator.line, simkernel.heappush

    def line_counted(sim, delay, handler):
        lines.append(delay)
        return make_line(sim, delay, handler)

    def push_measured(heap, entry):
        push(heap, entry)
        heights.append(len(heap))

    monkeypatch.setattr(Simulator, "line", line_counted)
    monkeypatch.setattr(simkernel, "heappush", push_measured)
    Engine(scenario, 1).run()
    cores = scenario.num_cores()
    assert len(lines) == line_count  # hold timers, receive calls and any lookups
    assert max(heights) <= len(lines) + 2 * cores + 3


def test_rng_reproducibility():
    a, b = (Engine(Scenario(), 99).rng for _ in range(2))
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_unit_constants():
    assert US == 1_000 and MS == 1_000_000
