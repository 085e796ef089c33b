import heapq

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


def test_reserved_arrival_beats_later_scheduled_runtime_event():
    sim = Simulator()
    order = []
    first = sim.reserve(1)
    sim.schedule(100, lambda: order.append("runtime"))
    sim.schedule_arrivals([(first, [100])], lambda event_id: order.append(event_id))
    sim.run_until(100)
    assert order == [first, "runtime"]


def test_equal_time_tie_follows_reservation_order():
    # An arrival reserved before a runtime event's id wins the tie; one
    # reserved after it loses.
    sim = Simulator()
    order = []
    early = sim.reserve(1)
    runtime = sim.schedule(100, lambda: order.append("runtime"))
    late = sim.reserve(1)
    assert early < runtime < late
    sim.schedule_arrivals([(late, [100]), (early, [100])], order.append)
    assert sim.run_until(100) == 3
    assert order == [early, "runtime", late]
    assert sim.fired_total == 3


def test_arrivals_resume_across_windows():
    sim = Simulator()
    order = []
    first = sim.reserve(4)
    sim.schedule(15, lambda: order.append("runtime"))
    sim.schedule_arrivals([(first, [10, 20, 20, 35])], order.append)
    assert sim.pending() == 1  # arrivals never enter the heap
    assert sim.run_until(10) == 1
    assert order == [first]
    assert sim.run_until(20) == 3  # an arrival exactly at t_end fires
    assert order == [first, "runtime", first + 1, first + 2]
    assert sim.now == 20
    assert sim.run_until(30) == 0
    assert sim.run_until(35) == 1
    assert order[-1] == first + 3
    assert sim.run_until(1_000) == 0
    assert sim.fired_total == 5


def test_arrival_action_schedules_event_at_the_same_instant():
    # The new event takes an id after every reserved one, so it fires at the
    # same instant but after the arrivals that share that instant.
    sim = Simulator()
    order = []
    first = sim.reserve(2)

    def arrive(event_id):
        order.append(event_id)
        if event_id == first:
            sim.schedule(sim.now, lambda: order.append(("runtime", sim.now)))

    sim.schedule_arrivals([(first, [50, 50])], arrive)
    assert sim.run_until(50) == 3
    assert order == [first, first + 1, ("runtime", 50)]


def test_event_scheduled_at_now_waits_for_the_heap_at_that_instant():
    # E fires first at 100 and schedules L for the same instant. H was
    # scheduled at setup, so its id is smaller than L's and it fires first.
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


def test_heap_event_and_arrival_each_tied_with_a_lane_event():
    # At 100: arrival a (reserved first), E (schedules L at now when it
    # fires), H, then arrival b. L takes its id only when E fires, so it
    # comes after all four.
    sim = Simulator()
    order = []
    a = sim.reserve(1)

    def on_e():
        order.append("E")
        sim.schedule(sim.now, lambda: order.append("L"))

    sim.schedule(100, on_e)
    sim.schedule(100, lambda: order.append("H"))
    b = sim.reserve(1)
    sim.schedule_arrivals([(a, [100]), (b, [100])], order.append)
    assert sim.run_until(100) == 5
    assert order == [a, "E", "H", b, "L"]


def test_arrival_schedules_lane_event_behind_a_later_arrival():
    # The arrival at 50 schedules L at now; the arrival reserved after it
    # at the same instant still has the smaller id, so it fires first.
    sim = Simulator()
    order = []
    first = sim.reserve(2)

    def arrive(event_id):
        order.append(event_id)
        if event_id == first:
            sim.schedule(sim.now, lambda: order.append("L"))

    sim.schedule(50, lambda: order.append("H"))
    sim.schedule_arrivals([(first, [50, 50])], arrive)
    sim.run_until(50)
    assert order == [first, first + 1, "H", "L"]


def test_events_scheduled_at_time_zero_before_the_first_run():
    sim = Simulator()
    order = []
    early = sim.reserve(1)
    sim.schedule(0, lambda: order.append("L0"))
    sim.schedule(0, lambda: order.append("L1"))
    late = sim.reserve(1)
    sim.schedule(5, lambda: order.append("H"))
    assert sim.pending() == 3  # two in the lane, one on the heap
    sim.schedule_arrivals([(early, [0]), (late, [0])], order.append)
    assert sim.run_until(0) == 4
    assert order == [early, "L0", "L1", late]
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
    sim = Simulator()
    fired = []
    first = sim.reserve(3)
    sim.schedule_arrivals([(first, [30, 10, 20])], lambda event_id: fired.append((sim.now, event_id)))
    sim.run_until(30)
    assert fired == [(10, first + 1), (20, first + 2), (30, first)]


def test_arrival_too_late_for_64_bit_packing_still_fires():
    sim = Simulator()
    fired = []
    first = sim.reserve(2)
    late = 1 << 62
    sim.schedule_arrivals([(first, [late, 5])], fired.append)
    assert sim.run_until(late) == 2
    assert fired == [first + 1, first]


def test_arrival_before_now_rejected():
    sim = Simulator()
    first = sim.reserve(2)
    sim.run_until(50)
    with pytest.raises(SchedulingError):
        sim.schedule_arrivals([(first, [40, 50])], lambda event_id: None)
    sim.schedule_arrivals([(first, [50, 50])], lambda event_id: None)
    assert sim.run_until(50) == 2


def test_unreserved_arrival_ids_rejected():
    sim = Simulator()
    assert sim.reserve(3) == 0
    # reserve(0) sets nothing aside: it names the id the next event gets.
    nxt = sim.reserve(0)
    assert nxt == 3
    with pytest.raises(ValueError, match="never reserved"):
        sim.schedule_arrivals([(nxt, [10])], lambda event_id: None)
    assert sim.schedule(10, lambda: None) == nxt
    # An id taken by schedule was not reserved either.
    with pytest.raises(ValueError, match="never reserved"):
        sim.schedule_arrivals([(nxt, [10])], lambda event_id: None)
    # A block running past its reservation.
    with pytest.raises(ValueError, match="never reserved"):
        sim.schedule_arrivals([(1, [10, 10, 10])], lambda event_id: None)
    with pytest.raises(ValueError):
        sim.reserve(-1)
    assert sim.reserve(0) == 4


def test_overlapping_arrival_blocks_rejected():
    sim = Simulator()
    first = sim.reserve(4)
    with pytest.raises(ValueError, match="two blocks"):
        sim.schedule_arrivals([(first + 2, [5, 6]), (first, [1, 2, 3])], lambda event_id: None)


def test_second_schedule_arrivals_rejected():
    sim = Simulator()
    first = sim.reserve(2)
    sim.schedule_arrivals([(first, [10])], lambda event_id: None)
    with pytest.raises(ValueError, match="already"):
        sim.schedule_arrivals([(first + 1, [20])], lambda event_id: None)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=200),
                  st.integers(min_value=0, max_value=2)),
        max_size=60,
    ),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=150)
def test_merge_matches_one_heap_of_everything(plan, t_end):
    # Each entry is a runtime event or a one-arrival reservation. One with
    # spawns left schedules a child at now() when it fires, and the child
    # may spawn again. Dispatch must follow (fire_time, id) across heap,
    # same-instant lane and arrivals, as one heap holding everything would.
    sim = Simulator()
    fired = []
    spawns_left = {}

    def fire(event_id):
        fired.append((sim.now, event_id))
        left = spawns_left[event_id]
        if left:
            child = sim.schedule(sim.now, lambda: fire(child))
            spawns_left[child] = left - 1

    blocks = []
    for index, (is_arrival, t, spawns) in enumerate(plan):
        if is_arrival:
            event_id = sim.reserve(1)
            blocks.append((event_id, [t]))
        else:
            event_id = sim.schedule(t, lambda i=index: fire(i))
        assert event_id == index
        spawns_left[event_id] = spawns
    sim.schedule_arrivals(blocks, fire)
    sim.run_until(t_end)
    sim.run_until(200)

    heap = [(t, i, spawns) for i, (_, t, spawns) in enumerate(plan)]
    heapq.heapify(heap)
    next_id = len(plan)
    expected = []
    while heap:
        t, i, left = heapq.heappop(heap)
        expected.append((t, i))
        if left:
            heapq.heappush(heap, (t, next_id, left - 1))
            next_id += 1
    assert fired == expected
    assert sim.pending() == 0


def test_rng_reproducibility():
    a = [make_rng(99).random() for _ in range(5)]
    b = [make_rng(99).random() for _ in range(5)]
    assert a == b


def test_unit_constants():
    assert US == 1_000 and MS == 1_000_000
