"""Deterministic virtual-time event loop.

Time is an integer count of nanoseconds since simulation start. Every event
carries an integer id, and events dispatch in (fire_time, id) order, so a
run with a fixed seed replays identically event for event.

Ids are handed out in one increasing sequence. `schedule` takes the next id
when it is called; `reserve(n)` sets aside the next n ids at once. Events
come from three sources:

- Runtime events for a later time sit on a binary heap.
- Runtime events for the current instant, such as a ring-edge interrupt,
  wait in a FIFO lane instead. Every heap entry at the current instant
  was scheduled before the clock reached it, so it holds a smaller id
  than any lane entry and fires first. The lane is empty before the clock
  moves on.
- Arrivals, whose times are all known at setup, are handed over once by
  `schedule_arrivals` under reserved ids and kept as one presorted
  sequence.

`run_until` merges the three by (fire_time, id). So an arrival never
touches the heap yet ties as if it had been scheduled when its id was
reserved: at an equal fire time it beats every event scheduled after the
reservation and loses to every event scheduled before it.
"""

import random
from array import array
from bisect import bisect_right
from heapq import heappop, heappush
from collections import deque
from itertools import repeat
from operator import lshift, or_

# Unit multipliers for converting configuration values into nanoseconds.
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# Fire time and id of the arrival after the last one: later than any event.
_NEVER = 1 << 256


class SchedulingError(ValueError):
    """Scheduling an event before `now` is a causality bug in the caller."""


class Simulator:
    """Single-threaded event queue over integer nanosecond virtual time.

    A runtime event is an opaque zero-argument callable; arrivals share one
    action that takes the arrival's event id. Total dispatch order is
    (fire_time, event id). A run owns all of its state: separate runs are
    independent and may execute in parallel processes.

    `now` is the current virtual time in ns, a plain attribute that only
    `run_until` advances.
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._lane = deque()  # (id, action) of events for `now`, in id order
        self._next_id = 0
        self.fired_total = 0
        self._reserved_starts = []  # reserved id ranges [start, end), ascending
        self._reserved_ends = []
        # Arrivals: (fire_time << _shift | id), ascending; _arrival_pos is the next.
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
            self._lane.append((event_id, action))
        else:
            raise SchedulingError(f"event scheduled at {fire_time} ns, before now ({now} ns)")
        return event_id

    def schedule_after(self, delay: int, action) -> int:
        return self.schedule(self.now + delay, action)

    def reserve(self, n: int) -> int:
        """Set aside the next `n` event ids and return the first of them.

        The ids are first, first + 1, ..., first + n - 1, for
        `schedule_arrivals`. `reserve(0)` sets nothing aside and returns the
        id the next event will get. A negative `n` raises ValueError.
        """
        if n < 0:
            raise ValueError(f"cannot reserve {n} event ids")
        first = self._next_id
        if n:
            self._next_id = first + n
            self._reserved_starts.append(first)
            self._reserved_ends.append(first + n)
        return first

    def schedule_arrivals(self, blocks, action):
        """Hand over every arrival of the run at once; callable once.

        Each block is (first_id, times): arrival k of the block fires at
        times[k] under id first_id + k, and `action(first_id + k)` runs
        then. Ids must come from `reserve`, and no two blocks may share one.
        Times need not be sorted. `blocks` may be a generator; each block's
        times are read once, so the caller can drop them as soon as the next
        block is asked for. Raises ValueError for ids never reserved or
        shared by two blocks, and for a second call; SchedulingError for a
        time before `now`.
        """
        if self._arrivals is not None:
            raise ValueError("arrivals were already scheduled")
        shift = self._next_id.bit_length()
        starts, ends = self._reserved_starts, self._reserved_ends
        spans = []
        packed = []
        for first, times in blocks:
            end = first + len(times)
            if end == first:
                continue
            i = bisect_right(starts, first) - 1
            if i < 0 or end > ends[i]:
                raise ValueError(f"event ids {first}..{end - 1} were never reserved")
            spans.append((first, end))
            packed.extend(map(or_, map(lshift, times, repeat(shift)), range(first, end)))
        spans.sort()
        for (_, prev_end), (first, end) in zip(spans, spans[1:]):
            if first < prev_end:
                raise ValueError(f"event ids {first}..{min(end, prev_end) - 1} are in two blocks")
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
        if pos < n:
            packed = arrivals[pos]
            a_time, a_id = packed >> shift, packed & mask
        else:
            a_time = a_id = _NEVER
        fired = 0
        try:
            while True:
                # A lane entry waits only for heap entries at now, which
                # all have smaller ids, and for arrivals at now with a
                # smaller id.
                if lane and (not heap or heap[0][0] > now) and (
                    a_time > now or a_id > lane[0][0]
                ):
                    take()[1]()
                    fired += 1
                    continue
                if heap:
                    fire_time, event_id, action = heap[0]
                    if fire_time < a_time or (fire_time == a_time and event_id < a_id):
                        if fire_time > t_end:
                            break
                        pop(heap)
                        self.now = now = fire_time
                        action()
                        fired += 1
                        continue
                if a_time > t_end:
                    break
                self.now = now = a_time
                pos += 1
                arrive(a_id)
                fired += 1
                if pos < n:
                    packed = arrivals[pos]
                    a_time, a_id = packed >> shift, packed & mask
                else:
                    a_time = a_id = _NEVER
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
