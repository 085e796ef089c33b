"""Deterministic virtual-time event loop.

Time is an integer count of nanoseconds since simulation start. Events come
from three sources:

- Arrivals, whose times are all known at setup, are handed over once by
  `schedule_arrivals` in blocks and kept as one presorted array of machine
  ints, each fire time packed with its block and its position in the
  block. The loop drops fired arrivals from the array's front as it goes.
- Runtime events for a later time sit on a binary heap under an id that
  `schedule` hands out in one increasing sequence.
- Runtime events for the current instant, such as a ring-edge interrupt,
  wait in a FIFO lane instead.

One rule orders them. At any instant the arrivals fire first, by block and
then by position; then the heap events for that instant, by id; then
the same-instant lane, in the order it was filled, until it is empty. Every
heap entry at an instant was scheduled before the clock reached it and
every lane entry after, so heap and lane together fire in scheduling order.
The clock moves on only when all three are done with the instant. A run
with a fixed seed therefore replays identically event for event.
"""

import random
from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from collections import deque
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
# `schedule_arrivals` sorts this many runs of the packed arrivals and merges
# them this many windows at a time.
_WINDOWS = 16


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


def _sorted_in_windows(blocks, shift: int, pos_bits: int) -> array:
    """The packed arrivals of `blocks` in ascending order, as an `array('q')`.

    Sorting needs Python ints, and a list of all of them takes four and a
    half times the memory of the array. So the blocks are packed and sorted
    into about _WINDOWS consecutive runs of one array, and the runs are
    then merged one window of values at a time: each run's share of a
    window is found by bisection, and the shares are sorted together and
    appended. Each window ends at a quantile of a sample taken at even
    steps through the runs, so each holds about one _WINDOWS-th of the
    arrivals, and about that many Python ints exist at once. Raises
    OverflowError for a packed value past 64 bits.
    """
    n = sum(map(len, blocks))
    runs = array("q")
    bounds = [0]
    chunk = []
    for part in _packed(blocks, shift, pos_bits):
        chunk.extend(part)
        if chunk and (len(chunk) * _WINDOWS >= n or len(runs) + len(chunk) == n):
            chunk.sort()
            runs.fromlist(chunk)
            bounds.append(len(runs))
            chunk = []
    if not runs:
        return runs
    starts = bounds[:-1]
    ends = bounds[1:]
    sample = sorted(runs[:: max(1, n // (64 * _WINDOWS))])
    edges = [sample[len(sample) * j // _WINDOWS] for j in range(1, _WINDOWS)]
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


class Simulator:
    """Single-threaded event queue over integer nanosecond virtual time.

    A runtime event is an opaque zero-argument callable; arrivals share one
    action that takes the arrival's block and position. A run owns all of
    its state: separate runs are independent and may execute in parallel
    processes.

    `now` is the current virtual time in ns, a plain attribute that only
    `run_until` advances.
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._lane = deque()  # actions of the events for `now`, in scheduling order
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
            heappush(self._heap, (fire_time, event_id, action))
        elif fire_time == now:
            self._next_id = event_id + 1
            self._lane.append(action)
        else:
            raise SchedulingError(f"event scheduled at {fire_time} ns, before now ({now} ns)")
        return event_id

    def schedule_after(self, delay: int, action) -> int:
        return self.schedule(self.now + delay, action)

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
            arrivals = []
            for part in _packed(blocks, shift, pos_bits):
                arrivals.extend(part)
            arrivals.sort()
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
                    fire_time = heap[0][0]
                    if fire_time < a_time:
                        # The lane waits for the heap events at now.
                        if lane and fire_time > now:
                            take()()
                            fired += 1
                            continue
                        if fire_time > t_end:
                            break
                        self.now = now = fire_time
                        pop(heap)[2]()
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
        clearing ends those reference cycles when a run is over."""
        self._heap.clear()
        self._lane.clear()
        self._arrivals = ()
        self._arrival_action = None

    def pending(self) -> int:
        """Runtime events waiting, on the heap or in the same-instant lane.
        Arrivals from `schedule_arrivals` are not counted."""
        return len(self._heap) + len(self._lane)


def make_rng(seed: int) -> random.Random:
    """Seeded generator for a run (Mersenne Twister; stable per CPython docs).

    Identical seed + identical scenario gives a bit-identical event trace.
    """
    return random.Random(seed)
