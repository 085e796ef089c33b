#!/usr/bin/env python3
"""Run the bundled experiment set and print the headline tables.

Covers: steering-vs-RSS affinity comparisons on the pinned placements
(pinned_same/pinned_cross), reordering with and without the hold timer on the
migrating placements (migrate_same/migrate_cross), the admission sweep, the
worst-case migration schedule and the held-byte bound (memory10g).

Usage: python scripts/run_experiments.py [--seeds N] [--jobs N]

`--jobs N` runs the simulations in up to N worker processes; the tables are
the same as with the default of 1.
"""

import argparse
import statistics
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from steersim.metrics import occupancy_oracle  # noqa: E402
from steersim.runner import report_rows  # noqa: E402
from steersim.simkernel import US  # noqa: E402
from steersim.workload import nanoseconds  # noqa: E402
from write_golden_digests import bundled, overlay  # noqa: E402

# Each table function returns (runs, show): the (scenario, seed) runs it
# needs, and a function that prints the table from their report rows, given
# in the order of `runs`.


def mean_std(values):
    m = statistics.fmean(values)
    s = statistics.stdev(values) if len(values) > 1 else 0.0
    return m, s


def per_case(rows, n):
    """Split rows into consecutive groups of n, one group per case."""
    return [rows[i:i + n] for i in range(0, len(rows), n)]


def affinity_table(seeds):
    cases = [(name, mode) for name in ("pinned_same", "pinned_cross")
             for mode in ("flowsteer", "rss")]
    runs = [(bundled(name, {"nic": {"mode": mode}}), seed)
            for name, mode in cases for seed in seeds]

    def show(rows):
        print("== steering benefit (pinned apps) ==")
        print(f"{'scenario':<14} {'mode':<10} {'data_affinity':>14} {'cross_core':>11} "
              f"{'lock_conflicts':>15} {'proc_ctx%':>10}")
        for (name, mode), group in zip(cases, per_case(rows, len(seeds))):
            daff = [r["data_affinity"] for r in group]
            cross = [r["cross_core_packets"] for r in group]
            lock = [r["lock_conflict_events"] for r in group]
            pf = [r["process_context_fraction"] for r in group]
            print(f"{name:<14} {mode:<10}"
                  f" {mean_std(daff)[0]:>8.3f}±{mean_std(daff)[1]:.3f}"
                  f" {mean_std(cross)[0]:>10.1f}"
                  f" {mean_std(lock)[0]:>15.1f}"
                  f" {100 * mean_std(pf)[0]:>9.1f}%")
        print()

    return runs, show


def reordering_table(seeds):
    # Each placement at 40 streams and, in its many-flows regime, at 2000.
    cases = [bundled(name) for name in
             ("migrate_same", "migrate_same_2000", "migrate_cross", "migrate_cross_2000")]
    runs = []
    for s in cases:
        for seed in seeds:
            runs.append((overlay(s, {"flow_table": {"t_timer_us": 0.0}}), seed))
            runs.append((s, seed))

    def show(rows):
        print("== reordering ratio (migrating apps) ==")
        print(f"{'scenario':<14} {'streams':>8} {'timer=0':>12} {'timer=100us':>12}")
        for s, group in zip(cases, per_case(rows, 2 * len(seeds))):
            without = [r["reordering_ratio"] for r in group[0::2]]
            with_timer = [r["reordering_ratio"] for r in group[1::2]]
            print(f"{s.name:<14} {s.traffic.streams:>8}"
                  f" {mean_std(without)[0]:>12.3e} {mean_std(with_timer)[0]:>12.3e}")
        print()

    return runs, show


def admission_table(seeds):
    cases = [(mls, streams) for mls in (6, 1) for streams in (40, 200, 1000, 2000)]
    # Every point is admission_l6_n40 with its stream count, each stream
    # offered 0.12 Gbps (10k pps of 1500 B), and its chain cap.
    runs = [(bundled("admission_l6_n40", {
        "name": f"admission_l{mls}_n{streams}",
        "traffic": {"streams": streams, "link_gbps": 0.12 * streams},
        "flow_table": {"max_list_size": mls},
    }), seed) for mls, streams in cases for seed in seeds]

    def show(rows):
        print("== flows admitted to the steering table ==")
        print(f"{'streams':>8} {'chain cap':>10} {'simulated':>10} {'analytic':>9}")
        for (mls, streams), group in zip(cases, per_case(rows, len(seeds))):
            m, sd = mean_std([r["admitted_fraction"] for r in group])
            oracle = occupancy_oracle(256, streams, mls)
            print(f"{streams:>8} {mls:>10} {100 * m:>8.1f}%±{100 * sd:.1f} "
                  f"{100 * oracle:>8.1f}%")
        print()

    return runs, show


def worstcase_and_memory():
    timers = (0.0, 85.0, 100.0)
    runs = [(bundled("worstcase", {"flow_table": {"t_timer_us": t_timer}}), 1)
            for t_timer in timers]
    memory = bundled("memory10g")
    runs.append((memory, 1))
    # The held-byte bound: line rate x t_timer, in bytes.
    gbps, t_timer_ns = memory.traffic.link_gbps, nanoseconds(memory)["t_timer"]
    bound = gbps * t_timer_ns / 8

    def show(rows):
        print("== worst-case migration schedule ==")
        for t_timer, r in zip(timers, rows):
            print(f"t_timer={t_timer:>6.1f}us reordering={r['reordering_ratio']:.3e} "
                  f"held={r['held_packets']} max_hold={r['held_delay_max_ns']}ns")
        r = rows[-1]
        print(f"{gbps:g} Gbps, t_timer={t_timer_ns / US:g}us: peak held bytes "
              f"{r['peak_held_bytes']} (bound {bound:.0f}), table memory peak "
              f"{r['table_memory_peak_bytes']} bytes")
        print()

    return runs, show


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the runs (default 1: run in this process)")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    seeds = range(1, args.seeds + 1)
    tables = [affinity_table(seeds), reordering_table(seeds), admission_table(seeds),
              worstcase_and_memory()]
    # Every run is handed over at once, so workers stay busy across tables;
    # each table prints as soon as its own rows are in.
    rows = report_rows([run for runs, _ in tables for run in runs], args.jobs)
    for runs, show in tables:
        show(list(islice(rows, len(runs))))


if __name__ == "__main__":
    main()
