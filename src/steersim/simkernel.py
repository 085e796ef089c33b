"""Deterministic virtual-time event loop.

Time is an integer count of nanoseconds since simulation start. Every event
carries an integer id, and events dispatch in (fire_time, id) order, so a
run with a fixed seed replays identically event for event.

Ids are handed out in one increasing sequence. `schedule` takes the next id
when it is called. `reserve(n)` sets aside the next n ids at once, and
`schedule_reserved` later pushes an event under one of them. A reserved
event therefore ties as if it had been scheduled when its id was reserved:
at an equal fire time it beats every event scheduled after the reservation,
however late it is pushed. The runner uses this to keep only each stream's
next arrival on the heap while dispatching in the order that scheduling
every arrival up front would give.
"""

import heapq
import random

# Unit multipliers for converting configuration values into nanoseconds.
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


class SchedulingError(ValueError):
    """Scheduling an event before now() is a causality bug in the caller."""


class Simulator:
    """Single-threaded event queue over integer nanosecond virtual time.

    An event is an opaque zero-argument callable; total dispatch order is
    (fire_time, event id). A run owns all of its state: separate runs are
    independent and may execute in parallel processes.
    """

    def __init__(self):
        self._heap = []
        self._next_id = 0
        self._now = 0
        self.fired_total = 0

    def now(self) -> int:
        return self._now

    def schedule(self, fire_time: int, action) -> int:
        """Queue `action` to run at `fire_time`; returns a unique event id."""
        if fire_time < self._now:
            raise SchedulingError(
                f"event scheduled at {fire_time} ns, before now ({self._now} ns)"
            )
        event_id = self._next_id
        self._next_id = event_id + 1
        heapq.heappush(self._heap, (fire_time, event_id, action))
        return event_id

    def schedule_after(self, delay: int, action) -> int:
        return self.schedule(self._now + delay, action)

    def reserve(self, n: int) -> int:
        """Set aside the next `n` event ids and return the first of them.

        The ids are first, first + 1, ..., first + n - 1; each may be passed
        to `schedule_reserved` once. `reserve(0)` sets nothing aside and
        returns the id the next event will get. A negative `n` raises
        ValueError.
        """
        if n < 0:
            raise ValueError(f"cannot reserve {n} event ids")
        first = self._next_id
        self._next_id = first + n
        return first

    def schedule_reserved(self, fire_time: int, event_id: int, action):
        """Queue `action` at `fire_time` under an id from `reserve`."""
        if fire_time < self._now:
            raise SchedulingError(
                f"event scheduled at {fire_time} ns, before now ({self._now} ns)"
            )
        if not 0 <= event_id < self._next_id:
            raise ValueError(f"event id {event_id} was never reserved")
        heapq.heappush(self._heap, (fire_time, event_id, action))

    def run_until(self, t_end: int) -> int:
        """Fire every event with fire_time <= t_end, in order.

        Events fired may schedule further events inside the window; those fire
        in the same call. On return now() == t_end.
        """
        if t_end < self._now:
            raise SchedulingError(f"run_until({t_end}) is before now ({self._now})")
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            fire_time, _, action = heapq.heappop(heap)
            self._now = fire_time
            action()
            fired += 1
        self._now = t_end
        self.fired_total += fired
        return fired

    def pending(self) -> int:
        return len(self._heap)


def make_rng(seed: int) -> random.Random:
    """Seeded generator for a run (Mersenne Twister; stable per CPython docs).

    Identical seed + identical scenario gives a bit-identical event trace.
    """
    return random.Random(seed)
