"""The scheduler's decisions, computed by walking every process.

`steersim.host.Host` keeps runnable counts per core up to date as its
processes change state and core, and walks its processes on a tick only
when it has one to move. The functions below are the walks it replaced:
they count and choose from the processes' current states alone, so tests
can check the host's counts and moves against them. They move nothing.
"""

from steersim.host import RUNNABLE


def runnable_counts(processes, num_cores: int, movable: list | None = None) -> list[int]:
    """Runnable processes per core, counted in one pass in pid order. With
    `movable`, one list per core, each core's runnable Free processes are
    appended to its list as well."""
    counts = [0] * num_cores
    for proc in processes:
        if proc.state in RUNNABLE:
            counts[proc.core] += 1
            if not proc.pinned and movable is not None:
                movable[proc.core].append(proc)
    return counts


def peak_moves(processes, num_cores: int) -> list[tuple[int, int]]:
    """The (pid, core) moves of one peak-performance tick, in order: Free
    processes go from the longest run queue to the shortest until
    balanced, lowest pid first."""
    movable = [[] for _ in range(num_cores)]
    counts = runnable_counts(processes, num_cores, movable)
    cores = range(num_cores)
    moves = []
    while True:
        busiest = max(cores, key=lambda c: (counts[c], -c))
        idlest = min(cores, key=lambda c: (counts[c], c))
        if counts[busiest] - counts[idlest] <= 1:
            return moves
        queue = movable[busiest]
        for i, proc in enumerate(queue):
            if idlest in proc.allowed_cores:
                break
        else:
            return moves
        del queue[i]
        movable[idlest].append(proc)
        counts[busiest] -= 1
        counts[idlest] += 1
        moves.append((proc.pid, idlest))


def power_moves(processes, cores) -> list[tuple[int, int]]:
    """The (pid, core) moves of one power-saving tick, in pid order: each
    Free process off processor 0 goes to the least counted of its allowed
    cores on processor 0, if it has one."""
    target_cores = [c.core_id for c in cores if c.processor_id == 0]
    counts = runnable_counts(processes, len(cores))
    moves = []
    for proc in processes:
        if proc.pinned or cores[proc.core].processor_id == 0:
            continue
        options = [c for c in proc.allowed_cores if c in target_cores]
        if not options:
            continue
        dest = min(options, key=lambda c: (counts[c], c))
        counts[dest] += 1
        moves.append((proc.pid, dest))
    return moves
