"""The scheduler's decisions, computed by walking every thread.

`steersim.host.Host` keeps runnable counts per core up to date as its
threads change state and core, and walks its threads on a tick only when
it has one to move. The functions below are the walks it replaced: they
count and choose from the threads' current states alone, so tests can
check the host's counts and moves against them. They take the host's
sockets, one per thread, in socket order, and move nothing. A move names
the thread by its socket's flow key.
"""

from steersim.host import RUNNABLE


def runnable_counts(socks, num_cores: int, movable: list | None = None) -> list[int]:
    """Runnable threads per core, counted in one pass in socket order. With
    `movable`, one list per core, the sockets of each core's runnable Free
    threads are appended to its list as well."""
    counts = [0] * num_cores
    for sock in socks:
        if sock.state in RUNNABLE:
            counts[sock.core] += 1
            if len(sock.next_core) > 1 and movable is not None:
                movable[sock.core].append(sock)
    return counts


def peak_moves(socks, num_cores: int) -> list[tuple[int, int]]:
    """The (key, core) moves of one peak-performance tick, in order: Free
    threads go from the longest run queue to the shortest until balanced,
    the first in socket order first."""
    movable = [[] for _ in range(num_cores)]
    counts = runnable_counts(socks, num_cores, movable)
    cores = range(num_cores)
    moves = []
    while True:
        busiest = max(cores, key=lambda c: (counts[c], -c))
        idlest = min(cores, key=lambda c: (counts[c], c))
        if counts[busiest] - counts[idlest] <= 1:
            return moves
        queue = movable[busiest]
        for i, sock in enumerate(queue):
            if idlest in sock.next_core:
                break
        else:
            return moves
        del queue[i]
        movable[idlest].append(sock)
        counts[busiest] -= 1
        counts[idlest] += 1
        moves.append((sock.key, idlest))


def power_moves(socks, processors) -> list[tuple[int, int]]:
    """The (key, core) moves of one power-saving tick, in socket order: each
    Free thread off processor 0 goes to the least counted of its allowed
    cores on processor 0, if it has one. `processors` lists each
    processor's cores, as `host.processors` does."""
    target_cores = processors[0]
    counts = runnable_counts(socks, sum(len(group) for group in processors))
    moves = []
    for sock in socks:
        if len(sock.next_core) == 1 or sock.core in target_cores:
            continue
        options = [c for c in sock.next_core if c in target_cores]
        if not options:
            continue
        dest = min(options, key=lambda c: (counts[c], c))
        counts[dest] += 1
        moves.append((sock.key, dest))
    return moves
