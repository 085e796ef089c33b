#!/usr/bin/env python3
"""Count the Python bytecodes of one simulated run, per steersim function.

Usage: python scripts/opcount.py SCENARIO [--mode M] [--seed N]

SCENARIO is a scenario file, or the name of one in scenarios/ (memory10g
for scenarios/memory10g.json). `--mode` overrides the NIC mode, `--seed`
the scenario's seed. The script builds one `Engine` and traces its `run`
(workload hand-over, event loop and report collection) with `sys.settrace`
opcode events, then prints, for every steersim function that ran, the
bytecodes it executed in its own frames and their number per generated
data packet, followed by the totals for steersim and for all Python code.
Last it prints the event heap's peak length, taken in a second, untraced
run of an equal `Engine` with `heappush` wrapped, so that the counts above
stay comparable, and the `tracemalloc` peaks, in KiB, of the arrival
hand-over (`Engine._schedule_streams`) and of the event loop
(`Simulator.run_until`), taken in a third, untraced run. Each phase's peak
is the most memory traced at once while it ran, the engine built before it
included.

A bytecode count does not drift with the machine's speed the way CPU time
does, so two trees can be compared from one run each. It says nothing of
what each bytecode costs, nor of time spent in C code such as `heapq` or
`deque`, so a speed claim still needs timings; the heap's peak shows part
of what the counts miss.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import steersim  # noqa: E402
from steersim import simkernel  # noqa: E402
from steersim.runner import Engine  # noqa: E402
from steersim.workload import Scenario  # noqa: E402

PACKAGE_DIR = str(Path(steersim.__file__).resolve().parent)


def scenario_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    return ROOT / "scenarios" / f"{name}.json"


def count_run(engine: Engine) -> tuple:
    """Run `engine` under an opcode tracer: the run's result and its
    bytecodes per code object."""
    counts = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        result = engine.run()
    finally:
        sys.settrace(None)
    return result, counts


def peak_heap(engine: Engine) -> int:
    """Run `engine` untraced with `simkernel.heappush` wrapped: the most
    entries the event heap held."""
    push = simkernel.heappush
    peak = 0

    def push_measured(heap, entry):
        nonlocal peak
        push(heap, entry)
        peak = max(peak, len(heap))

    simkernel.heappush = push_measured
    try:
        engine.run()
    finally:
        simkernel.heappush = push
    return peak


def phase_peaks(scenario: Scenario, seed: int) -> tuple:
    """Build an `Engine` and run it under `tracemalloc`: the traced peak, in
    bytes, of its arrival hand-over and of its event loop, each the most
    memory traced at once during that phase. A worst-case run has no
    hand-over; its first peak reads 0."""
    peaks = {}
    tracemalloc.start()
    try:
        engine = Engine(scenario, seed=seed)

        def measured(name, phase):
            def run(*args):
                tracemalloc.reset_peak()
                phase(*args)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            return run

        engine._schedule_streams = measured("hand-over", engine._schedule_streams)
        engine.sim.run_until = measured("loop", engine.sim.run_until)
        engine.run()
    finally:
        tracemalloc.stop()
    return peaks.get("hand-over", 0), peaks["loop"]


def function_name(code) -> str:
    module = Path(code.co_filename).stem
    return f"steersim.{module}:{getattr(code, 'co_qualname', code.co_name)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario")
    parser.add_argument("--mode", choices=("flowsteer", "rss"))
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    path = scenario_path(args.scenario)
    scenario = Scenario.load(path)
    if args.mode is not None:
        scenario.nic.mode = args.mode
    seed = scenario.seed if args.seed is None else args.seed
    scenario.validate()
    result, counts = count_run(Engine(scenario, seed=seed))
    heap_peak = peak_heap(Engine(scenario, seed=seed))
    hand_over_peak, loop_peak = phase_peaks(scenario, seed)
    packets = result.report.generated_data

    per_function = {}
    total = 0
    for code, n in counts.items():
        total += n
        if str(Path(code.co_filename).resolve()).startswith(PACKAGE_DIR):
            name = function_name(code)
            per_function[name] = per_function.get(name, 0) + n
    own = sum(per_function.values())

    def line(n: int, label: str) -> str:
        per_packet = n / packets if packets else 0.0
        return f"{n:>12,} {per_packet:>10.1f}  {label}"

    print(f"{path.stem}  mode={scenario.nic.mode}  seed={seed}  data packets={packets:,}")
    print(f"{'bytecodes':>12} {'per packet':>10}  function")
    for name, n in sorted(per_function.items(), key=lambda item: (-item[1], item[0])):
        print(line(n, name))
    print(line(own, "steersim total"))
    print(line(total, "total, all Python code"))
    print(f"{heap_peak:>12,} {'':>10}  event heap's peak length, untraced run")
    print(f"{hand_over_peak / 1024:>12,.1f} {'':>10}  traced KiB at most, arrival hand-over")
    print(f"{loop_peak / 1024:>12,.1f} {'':>10}  traced KiB at most, event loop")
    return 0


if __name__ == "__main__":
    sys.exit(main())
