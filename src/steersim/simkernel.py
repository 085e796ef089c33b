"""Deterministic virtual-time event loop.

Time is an integer count of nanoseconds since simulation start. Events come
from three sources:

- Arrivals, whose times are all known at setup, are handed over once by
  `schedule_arrivals` and kept as one presorted sequence.
- Runtime events for a later time sit on a binary heap under an id that
  `schedule` hands out in one increasing sequence.
- Runtime events for the current instant, such as a ring-edge interrupt,
  wait in a FIFO lane instead.

One rule orders them. At any instant the arrivals fire first, in the order
they were handed over; then the heap events for that instant, by id; then
the same-instant lane, in the order it was filled, until it is empty. Every
heap entry at an instant was scheduled before the clock reached it and
every lane entry after, so heap and lane together fire in scheduling order.
The clock moves on only when all three are done with the instant. A run
with a fixed seed therefore replays identically event for event.
"""

import random
from array import array
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


class SchedulingError(ValueError):
    """Scheduling an event before `now` is a causality bug in the caller."""


class Simulator:
    """Single-threaded event queue over integer nanosecond virtual time.

    A runtime event is an opaque zero-argument callable; arrivals share one
    action that takes the arrival's index. A run owns all of its state:
    separate runs are independent and may execute in parallel processes.

    `now` is the current virtual time in ns, a plain attribute that only
    `run_until` advances.
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._lane = deque()  # actions of the events for `now`, in scheduling order
        self._next_id = 0
        self.fired_total = 0
        # Arrivals: (fire_time << _shift | index), ascending; _arrival_pos is the next.
        self._arrivals = None
        self._shift = 0
        self._arrival_pos = 0
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

    def schedule_arrivals(self, count: int, blocks, action):
        """Hand over all `count` arrivals of the run at once; callable once.

        `blocks` yields sequences of fire times. The arrivals are numbered
        0, 1, ..., count - 1 in the order the blocks give them, and arrival
        i runs `action(i)`. At an equal fire time they fire in that order,
        ahead of every runtime event. Times need not be sorted. `blocks` may
        be a generator; each block is read once, so the caller can drop it
        as soon as the next one is asked for. Raises ValueError when the
        blocks hold other than `count` times or for a second call, and
        SchedulingError for a time before `now`.
        """
        if self._arrivals is not None:
            raise ValueError("arrivals were already scheduled")
        shift = count.bit_length()
        packed = []
        for times in blocks:
            start = len(packed)
            packed.extend(
                map(or_, map(lshift, times, repeat(shift)), range(start, start + len(times)))
            )
        if len(packed) != count:
            raise ValueError(f"{len(packed)} arrival times handed over, not {count}")
        packed.sort()
        if packed and packed[0] >> shift < self.now:
            raise SchedulingError(
                f"arrival at {packed[0] >> shift} ns, before now ({self.now} ns)"
            )
        try:
            arrivals = array("q", packed)
        except OverflowError:  # a fire time too late for 64 bits: keep the ints
            arrivals = packed
        self._arrivals = arrivals
        self._shift = shift
        self._arrival_pos = 0
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
        pos = self._arrival_pos
        shift = self._shift
        mask = (1 << shift) - 1
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
                index = arrivals[pos] & mask
                pos += 1
                arrive(index)
                fired += 1
                a_time = arrivals[pos] >> shift if pos < n else _NEVER
        finally:
            self._arrival_pos = pos
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
