"""Deterministic virtual-time event loop.

Time is an integer count of nanoseconds since simulation start. Events come
from four sources:

- Arrivals, whose times are all known at setup, are handed over once by
  `schedule_arrivals` in blocks and kept as one presorted array of machine
  ints, each fire time packed with its block and its position in the
  block. The loop drops fired arrivals from the array's front as it goes.
- Runtime events for a later time sit on a binary heap under an id that
  `schedule` hands out in one increasing sequence.
- Timer lines (`Simulator.line`) hold events that all fire one fixed delay
  after they are scheduled, such as hold timers. A line is a FIFO, since
  its events fire in the order they were scheduled; only its head sits on
  the heap, under the id it took from the same sequence when it was
  scheduled, so a line event fires exactly when it would have as a heap
  event of its own.
- Runtime events for the current instant, such as a ring-edge interrupt,
  wait in a FIFO lane instead.

One rule orders them. At any instant the arrivals fire first, by block and
then by position; then the heap events for that instant, by id; then
the same-instant lane, in the order it was filled, until it is empty. Every
heap entry at an instant was scheduled before the clock reached it and
every lane entry after, so heap and lane together fire in scheduling order.
The clock moves on only when all four are done with the instant. A run
with a fixed seed therefore replays identically event for event.
"""

import random
from array import array
from bisect import bisect_left
from heapq import heappop, heappush, heapreplace
from collections import deque
from functools import partial
from itertools import repeat
from operator import lshift, or_

# Unit multipliers for converting configuration values into nanoseconds.
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# Fire time of the arrival after the last one: later than any event.
_NEVER = 1 << 256
# Fired arrivals are deleted from the front of the array this many at a time.
_RELEASE_CHUNK = 8192
# `schedule_arrivals` sorts the packed arrivals in runs of about this many
# and merges them this many at a time, in at most _MAX_WINDOWS windows.
_WINDOW_ARRIVALS = 4096
_MAX_WINDOWS = 16


def time_array(*parts):
    """The times of `parts`, concatenated, as an `array('q')` of machine
    ints, or as a list of Python ints when one is too late for 64 bits."""
    try:
        times = array("q", parts[0])
        for part in parts[1:]:
            times.extend(part)
    except OverflowError:
        return [t for part in parts for t in part]
    return times


def _packed(blocks, shift: int, pos_bits: int):
    """Per block, an iterator over its arrivals packed as
    time << shift | block << pos_bits | position."""
    for b, times in enumerate(blocks):
        start = b << pos_bits
        yield map(or_, map(lshift, times, repeat(shift)), range(start, start + len(times)))


def _sorted_list(blocks, shift: int, pos_bits: int) -> list:
    """The packed arrivals of `blocks` as one sorted list of Python ints."""
    packed = []
    for part in _packed(blocks, shift, pos_bits):
        packed.extend(part)
    packed.sort()
    return packed


def _sorted_in_windows(blocks, shift: int, pos_bits: int) -> array:
    """The packed arrivals of `blocks` in ascending order, as an `array('q')`.

    Sorting needs Python ints, and a list of all of them takes four and a
    half times the memory of the array. So the blocks are packed and sorted
    into consecutive runs of one array, one run per window, and the runs
    are then merged one window of values at a time: each run's share of a
    window is found by bisection, and the shares are sorted together and
    appended. A window holds about _WINDOW_ARRIVALS arrivals, and there are
    at most _MAX_WINDOWS; under two windows' worth the arrivals are sorted
    as one run. Each window ends at a quantile of a sample taken at even
    steps through the runs, so about one window of Python ints exists at
    once. Raises OverflowError for a packed value past 64 bits.
    """
    n = sum(map(len, blocks))
    windows = min(_MAX_WINDOWS, n // _WINDOW_ARRIVALS)
    if windows < 2:
        return array("q", _sorted_list(blocks, shift, pos_bits))
    runs = array("q")
    bounds = [0]
    chunk = []
    for part in _packed(blocks, shift, pos_bits):
        chunk.extend(part)
        if chunk and (len(chunk) * windows >= n or len(runs) + len(chunk) == n):
            chunk.sort()
            runs.fromlist(chunk)
            bounds.append(len(runs))
            chunk = []
    starts = bounds[:-1]
    ends = bounds[1:]
    sample = sorted(runs[:: max(1, n // (64 * windows))])
    edges = [sample[len(sample) * j // windows] for j in range(1, windows)]
    edges.append(max(runs[i - 1] for i in ends) + 1)
    out = array("q")
    for edge in edges:  # a window takes the values below its edge
        window = []
        for r, lo in enumerate(starts):
            hi = bisect_left(runs, edge, lo, ends[r])
            if hi > lo:
                window.extend(runs[lo:hi])
                starts[r] = hi
        window.sort()
        out.fromlist(window)
    return out


class SchedulingError(ValueError):
    """Scheduling an event before `now` is a causality bug in the caller."""


class TimerLine:
    """Events that each fire `delay` ns after they are scheduled, made by
    `Simulator.line`. `add(arg)` schedules one, which fires as
    `handler(arg)`; an event takes its id from the simulator's sequence, as
    `Simulator.schedule` gives it, so it fires exactly when a heap event
    scheduled at the same moment would. A delay of 0 puts the event in the
    same-instant lane.

    The events wait in `_queue` as (fire_time, id, arg), oldest first, and
    the oldest also sits on the simulator's heap. `Simulator.clear` empties
    the queue and drops the handler."""

    __slots__ = ("delay", "handler", "_sim", "_queue")

    def __init__(self, sim, delay: int, handler):
        self.delay = delay
        self.handler = handler
        self._sim = sim
        self._queue = deque()

    def add(self, arg):
        sim = self._sim
        event_id = sim._next_id
        sim._next_id = event_id + 1
        delay = self.delay
        if not delay:
            sim._lane.append(partial(self.handler, arg))
            return
        fire_time = sim.now + delay
        queue = self._queue
        queue.append((fire_time, event_id, arg))
        if len(queue) == 1:
            heappush(sim._heap, (fire_time, event_id, self.handler, queue))


class Simulator:
    """Single-threaded event queue over integer nanosecond virtual time.

    A runtime event is an opaque zero-argument callable; arrivals share one
    action that takes the arrival's block and position, and the events of
    one timer line share its handler, which takes the event's argument. A
    run owns all of its state: separate runs are independent and may
    execute in parallel processes.

    A heap entry is (fire_time, id, action, None) for an event of its own,
    or (fire_time, id, handler, queue) for the head of a timer line.

    `now` is the current virtual time in ns, a plain attribute that only
    `run_until` advances.
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._lane = deque()  # actions of the events for `now`, in scheduling order
        self._lines = []  # every TimerLine made by `line`
        self._next_id = 0
        self.fired_total = 0
        # Arrivals not yet fired, ascending:
        # fire_time << _shift | block << _pos_bits | position.
        self._arrivals = None
        self._shift = 0
        self._pos_bits = 0
        self._arrival_action = None

    def schedule(self, fire_time: int, action) -> int:
        """Queue `action` to run at `fire_time`; returns a unique event id."""
        now = self.now
        event_id = self._next_id
        if fire_time > now:
            self._next_id = event_id + 1
            heappush(self._heap, (fire_time, event_id, action, None))
        elif fire_time == now:
            self._next_id = event_id + 1
            self._lane.append(action)
        else:
            raise SchedulingError(f"event scheduled at {fire_time} ns, before now ({now} ns)")
        return event_id

    def schedule_after(self, delay: int, action) -> int:
        return self.schedule(self.now + delay, action)

    def line(self, delay: int, handler) -> TimerLine:
        """A new timer line whose events fire `delay` ns after they are
        scheduled, each as `handler(arg)`. Raises SchedulingError for a
        negative delay."""
        if delay < 0:
            raise SchedulingError(f"timer line delay {delay} ns is negative")
        line = TimerLine(self, delay, handler)
        self._lines.append(line)
        return line

    def schedule_arrivals(self, blocks, action):
        """Hand over all arrivals of the run at once; callable once.

        `blocks` is a sequence of sequences of fire times, such as a list
        of `array('q')`. Position k of block b is one arrival, which runs
        `action(b, k)`. At an equal fire time arrivals fire by block and
        then by position, ahead of every runtime event. Times need not be
        sorted. The arrivals are kept packed in one `array('q')`, or in a
        list when a fire time is too late for 64 bits, and each leaves it
        soon after it fires. Raises ValueError for a second call and
        SchedulingError for a time before `now`.
        """
        if self._arrivals is not None:
            raise ValueError("arrivals were already scheduled")
        pos_bits = max(map(len, blocks), default=0).bit_length()
        shift = pos_bits + len(blocks).bit_length()
        try:
            arrivals = _sorted_in_windows(blocks, shift, pos_bits)
        except OverflowError:
            arrivals = _sorted_list(blocks, shift, pos_bits)
        if arrivals and arrivals[0] >> shift < self.now:
            raise SchedulingError(
                f"arrival at {arrivals[0] >> shift} ns, before now ({self.now} ns)"
            )
        self._arrivals = arrivals
        self._shift = shift
        self._pos_bits = pos_bits
        self._arrival_action = action

    def run_until(self, t_end: int) -> int:
        """Fire every event and arrival with fire_time <= t_end, in order.

        Events fired may schedule further events inside the window; those fire
        in the same call. On return `now == t_end`.
        """
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end}) is before now ({self.now})")
        heap = self._heap
        pop = heappop
        replace = heapreplace
        lane = self._lane
        take = lane.popleft
        now = self.now
        arrivals = self._arrivals or ()
        n = len(arrivals)
        pos = 0  # arrivals[:pos] have fired
        shift = self._shift
        mask = (1 << shift) - 1
        pos_bits = self._pos_bits
        pos_mask = (1 << pos_bits) - 1
        arrive = self._arrival_action
        a_time = arrivals[pos] >> shift if pos < n else _NEVER
        fired = 0
        try:
            while True:
                if heap:
                    entry = heap[0]
                    fire_time = entry[0]
                    if fire_time < a_time:
                        # The lane waits for the heap events at now.
                        if lane and fire_time > now:
                            take()()
                            fired += 1
                            continue
                        if fire_time > t_end:
                            break
                        self.now = now = fire_time
                        _, _, action, queue = entry
                        if queue is None:
                            pop(heap)
                            action()
                        else:
                            # A timer line's head: the line's next event
                            # takes its place on the heap before the
                            # handler runs, so the handler may add to the line.
                            arg = queue.popleft()[2]
                            if queue:
                                head = queue[0]
                                replace(heap, (head[0], head[1], action, queue))
                            else:
                                pop(heap)
                            action(arg)
                        fired += 1
                        continue
                # The next arrival is no later than the heap; the lane
                # waits for an arrival at now.
                if lane and a_time > now:
                    take()()
                    fired += 1
                    continue
                if a_time > t_end:
                    break
                self.now = now = a_time
                low = arrivals[pos] & mask
                pos += 1
                arrive(low >> pos_bits, low & pos_mask)
                fired += 1
                if pos == _RELEASE_CHUNK:
                    del arrivals[:pos]
                    n -= pos
                    pos = 0
                a_time = arrivals[pos] >> shift if pos < n else _NEVER
        finally:
            if pos:
                del arrivals[:pos]
            self.fired_total += fired
        self.now = t_end
        return fired

    def clear(self):
        """Drop every event and arrival not yet fired, with their actions.

        Afterwards nothing is pending and `schedule_arrivals` may not be
        called; `now` and `fired_total` stay. An action usually refers to
        the model that scheduled it, which refers back to this simulator;
        clearing ends those reference cycles when a run is over. Each timer
        line is emptied and drops its handler."""
        self._heap.clear()
        self._lane.clear()
        for line in self._lines:
            line._queue.clear()
            line.handler = None
        self._lines = []
        self._arrivals = ()
        self._arrival_action = None

    def pending(self) -> int:
        """Runtime events waiting, on the heap, on a timer line or in the
        same-instant lane. Arrivals from `schedule_arrivals` are not
        counted."""
        behind_heads = sum(len(line._queue) - 1 for line in self._lines if line._queue)
        return len(self._heap) + len(self._lane) + behind_heads


def make_rng(seed: int) -> random.Random:
    """Seeded generator for a run (Mersenne Twister; stable per CPython docs).

    Identical seed + identical scenario gives a bit-identical event trace.
    """
    return random.Random(seed)
