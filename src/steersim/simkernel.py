"""Deterministic virtual-time event loop.

Time is an integer count of nanoseconds since simulation start. Events come
from four sources:

- Arrivals, whose times are all known at setup, are handed over once by
  `schedule_arrivals` as runs of evenly spaced arrivals, such as the
  packets of one burst. Each arrival is packed as one int of its fire
  time, its block and its position in the block, so a run's packed values
  step evenly and one `range` holds them all. The runs wait, sorted by
  their first value, as 64-bit words in an `array`, or in a list when a
  run does not fit 64 bits. `run_until` expands and sorts them one window
  of about `_WINDOW_ARRIVALS` arrivals at a time, dropping each window's
  runs when it is made and its arrivals once they have fired.
- Runtime events for a later time sit on a binary heap under an id that
  `schedule` hands out in one increasing sequence.
- Timer lines (`Simulator.line`) hold events that fire in the order they
  were scheduled, each one fixed delay later, such as hold timers, or at
  explicit times that never decrease, such as the NIC's lookup pipeline.
  Only a line's head sits on the heap, under the id it took from the same
  sequence when it was scheduled, so a line event fires exactly when it
  would have as a heap event of its own.
- Runtime events for the current instant, such as a ring-edge interrupt,
  wait in a FIFO lane instead. A lane entry takes no id: ids only order
  heap entries.

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
from collections import deque
from functools import partial
from heapq import heappop, heappush, heapreplace

# Unit multipliers for converting configuration values into nanoseconds.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# `run_until` expands and sorts about this many arrivals at a time. A
# window's arrivals are Python ints while it waits to fire; at 1,024 a run
# of `memory10g` peaks about 0.2 MB lower than at 4,096, and no slower.
_WINDOW_ARRIVALS = 1024


class SchedulingError(ValueError):
    """Scheduling an event before `now` is a causality bug in the caller."""


class TimerLine:
    """Events that each fire as `handler(arg)`, made by `Simulator.line`:
    `add(arg)` schedules one `delay` ns from now, and `add_at` one at an
    explicit time, as the NIC's lookup pipeline does. An event takes its id
    from the simulator's sequence, as `Simulator.schedule` gives it, so it
    fires exactly when a heap event scheduled at the same moment would. An
    event for `now` goes to the same-instant lane, as `Simulator.soon`
    puts it, without an id.

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
        self.add_at(self._sim.now + self.delay, arg)

    def add_at(self, fire_time: int, arg):
        """Schedule an event at `fire_time`, which must not be earlier than
        the line's last event's; nothing checks this."""
        sim = self._sim
        if fire_time == sim.now:
            sim.soon(partial(self.handler, arg))
            return
        event_id = sim._next_id
        sim._next_id = event_id + 1
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
    `run_until` advances. `soon(action)` queues `action` in the
    same-instant lane: it fires at `now`, after the heap events for `now`
    and the lane entries before it, and takes no event id.
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._lane = deque()  # actions of the events for `now`, in scheduling order
        self.soon = self._lane.append
        self._lines = []  # every TimerLine made by `line`
        self._next_id = 0
        self.fired_total = 0
        # Arrivals not yet fired, each packed as
        # fire_time << _shift | block << _pos_bits | position: the runs not
        # yet expanded, the remainders of runs cut at the last window's
        # edge, as ranges, and the window being fired, from `_pos` on. A run
        # in `_runs` is one int, first << _run_bits | count << _step_bits |
        # the index of its step in `_steps`. `_runs` is an array('Q'), or a
        # list if a run needs more than 64 bits, in descending order, so the
        # next runs are taken from its end.
        self._runs = None
        self._run_bits = 0
        self._step_bits = 0
        self._steps = []
        self._carried = []
        self._window = []
        self._pos = 0
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

        `blocks` is a sequence of blocks. A block is a flat sequence of
        ints, an `array('q')` or a list (`spawn_streams` gives a list only
        when a value could reach 2^63), holding runs of three ints each,
        `first_time, count, spacing`: `count` arrivals at `first_time`,
        `first_time + spacing`, and so on. The runs of a block number its
        arrivals in turn, from position 0, and position k of block b runs
        `action(b, k)`. At an equal fire time arrivals fire by block and
        then by position, ahead of every runtime event. Neither runs nor
        blocks need be sorted by time, and times may be any ints.
        The runs wait packed in 64-bit words, or in a list of Python ints
        when one does not fit, such as a time past 2^63 ns.
        Raises ValueError for a second call, a block cut inside a run or a
        negative count or spacing, and SchedulingError for a time before
        `now`.
        """
        if self._runs is not None:
            raise ValueError("arrivals were already scheduled")
        pos_bits = max((sum(block[1::3]) for block in blocks), default=0).bit_length()
        shift = pos_bits + len(blocks).bit_length()
        spacings = sorted(set().union(*(block[2::3] for block in blocks)))
        if spacings and spacings[0] < 0:
            raise ValueError(f"arrivals spaced {spacings[0]} ns apart")
        step_of = {spacing: i for i, spacing in enumerate(spacings)}
        step_bits = (len(spacings) - 1).bit_length() if spacings else 0
        run_bits = pos_bits + step_bits  # below a run's first value: its count and step
        runs = []
        append = runs.append
        for b, block in enumerate(blocks):
            low = b << pos_bits
            arrivals = iter(block)
            for first_time, count, spacing in zip(arrivals, arrivals, arrivals, strict=True):
                if count > 0:
                    first = first_time << shift | low
                    append(first << run_bits | count << step_bits | step_of[spacing])
                    low += count
                elif count:
                    raise ValueError(f"run of {count} arrivals in block {b}")
        runs.sort(reverse=True)
        if runs and runs[-1] >> run_bits + shift < self.now:
            raise SchedulingError(
                f"arrival at {runs[-1] >> run_bits + shift} ns, before now ({self.now} ns)"
            )
        if runs and runs[0] >> 64 == 0:
            # Every run fits a 64-bit word: move them over a slice at a
            # time, so the list shrinks as the array grows.
            packed = array("Q")
            while runs:
                packed.extend(runs[:_WINDOW_ARRIVALS])
                del runs[:_WINDOW_ARRIVALS]
            runs = packed
        self._runs = runs
        self._run_bits = run_bits
        self._step_bits = step_bits
        # Each arrival of a run steps the time by its spacing and the position by 1.
        self._steps = [(spacing << shift) + 1 for spacing in spacings]
        self._shift = shift
        self._pos_bits = pos_bits
        self._arrival_action = action
        self._next_window()

    def _next_window(self):
        """Refill `_window`, in place, with the next arrivals to fire,
        sorted. The next runs, about `_WINDOW_ARRIVALS` arrivals' worth,
        join the remainders carried from the last window, and the window
        takes every packed value of theirs below an edge. The edge is at
        most the first value of the runs left, so no value below it is
        left out, and it is lowered where a run would give more than
        `_WINDOW_ARRIVALS` values. A run cut at the edge carries its
        remainder into the next window. The window is empty when no
        arrival is left."""
        runs = self._runs
        run_bits = self._run_bits
        step_bits = self._step_bits
        count_mask = (1 << run_bits - step_bits) - 1
        step_mask = (1 << step_bits) - 1
        steps = self._steps
        group = self._carried
        size = 0
        left = len(runs)
        while left and size < _WINDOW_ARRIVALS:
            left -= 1
            run = runs[left]
            first = run >> run_bits
            count = run >> step_bits & count_mask
            step = steps[run & step_mask]
            group.append(range(first, first + count * step, step))
            size += count
        # One deletion, so that an array's buffer shrinks as its runs fire.
        del runs[left:]
        # The edge: the first value of the runs left, lowered so that no run
        # gives the window more than _WINDOW_ARRIVALS values.
        edge = runs[-1] >> run_bits if runs else None
        for run in group:
            if len(run) > _WINDOW_ARRIVALS and (edge is None or run[_WINDOW_ARRIVALS] < edge):
                edge = run[_WINDOW_ARRIVALS]
        window = self._window
        window.clear()
        self._carried = carried = []
        for run in group:
            if edge is None or run[-1] < edge:
                window.extend(run)
                continue
            below = (edge - run.start + run.step - 1) // run.step
            if below > 0:
                window.extend(run[:below])
                run = run[below:]
            carried.append(run)
        window.sort()

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
        window = self._window
        n = len(window)
        pos = self._pos  # window[:pos] have fired
        shift = self._shift
        mask = (1 << shift) - 1
        pos_bits = self._pos_bits
        pos_mask = (1 << pos_bits) - 1
        arrive = self._arrival_action
        # The fire time of the arrival after the last one: past t_end, so
        # whatever the heap holds then, the loop fires no arrival.
        never = t_end + 1
        a_time = window[pos] >> shift if pos < n else never
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
                low = window[pos] & mask
                pos += 1
                if pos == n:
                    self._next_window()
                    n = len(window)
                    pos = 0
                arrive(low >> pos_bits, low & pos_mask)
                fired += 1
                a_time = window[pos] >> shift if pos < n else never
        finally:
            self._pos = pos
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
        self._runs = []
        self._carried = []
        self._window = []
        self._pos = 0
        self._arrival_action = None

    def pending(self) -> int:
        """Runtime events waiting, on the heap, on a timer line or in the
        same-instant lane. Arrivals from `schedule_arrivals` are not
        counted. No run reads it; the benchmark's traced pass
        (`perfbench/tracer.py`) reads it for `simkernel.heap_at_start`."""
        behind_heads = sum(len(line._queue) - 1 for line in self._lines if line._queue)
        return len(self._heap) + len(self._lane) + behind_heads


def make_rng(seed: int) -> random.Random:
    """Seeded generator for a run (Mersenne Twister; stable per CPython docs).

    Identical seed + identical scenario gives a bit-identical event trace.
    """
    return random.Random(seed)
