"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them live). Expensive run batches are shared
across criteria through module-scoped fixtures.
"""

import random
import statistics
import time

import pytest

from steersim.cli import main as cli_main
from steersim.flows import DATA, FlowKey
from steersim.flowtable import memory_estimate, search_time
from steersim.metrics import occupancy_oracle
from steersim.rss import DEFAULT_RSS_KEY, queue_of, toeplitz_hash
from steersim.runner import run_scenario

from bundled import bundled, migrating
from delivery_oracle import record_deliveries
from toeplitz_oracle import toeplitz_reference


def _verdict(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# --- shared run batches -------------------------------------------------------


@pytest.fixture(scope="module")
def inorder_batch():
    """Twenty migrating-app runs with the 100 us hold timer.

    D=256 and R_service=3e6/s give (D-1)/R = 85 us <= t_timer.
    """
    results = []
    with pytest.MonkeyPatch.context() as mp:
        logs = record_deliveries(mp)  # criterion 8 reads the delivery logs
        for name, seeds in (
            ("migrate_same", range(1, 7)),
            ("migrate_cross", range(1, 7)),
            ("migrate_same_2000", range(1, 5)),
            ("migrate_cross_2000", range(1, 5)),
        ):
            for seed in seeds:
                scenario = bundled(name)
                start = time.monotonic()
                result = run_scenario(scenario, seed=seed)
                elapsed = time.monotonic() - start
                results.append((scenario, seed, result, elapsed, dict(logs)))
                logs.clear()
    return results


@pytest.fixture(scope="module")
def zero_timer_batch():
    results = []
    for name in ("migrate_same", "migrate_cross"):
        for streams in (40, 200):
            for seed in (1, 2, 3):
                scenario = migrating(name, streams)
                scenario.flow_table.t_timer_us = 0.0
                results.append(run_scenario(scenario, seed=seed))
    return results


@pytest.fixture(scope="module")
def paired_affinity_runs():
    pairs = []
    for name in ("pinned_same", "pinned_cross"):
        for seed in (1, 2, 3):
            steer = run_scenario(bundled(name), seed=seed).report
            rss = run_scenario(bundled(name, {"nic": {"mode": "rss"}}), seed=seed).report
            pairs.append((name, seed, steer, rss))
    return pairs


# --- criteria -----------------------------------------------------------------


def test_criterion_1_inorder_guarantee(inorder_batch):
    worst_runtime = max(elapsed for _, _, _, elapsed, _ in inorder_batch)
    ratios = [res.report.reordering_ratio for _, _, res, _, _ in inorder_batch]
    migrations = min(res.report.migrations for _, _, res, _, _ in inorder_batch)
    ok = all(r == 0.0 for r in ratios) and worst_runtime < 60 and migrations > 0
    _verdict(
        "1",
        ok,
        f"{len(inorder_batch)} seeds, all reordering ratios == 0, "
        f"min migrations {migrations}, worst runtime {worst_runtime:.1f}s",
    )


def test_criterion_2_reordering_without_timer(zero_timer_batch):
    worst_scenario = bundled("worstcase")
    worst_scenario.flow_table.t_timer_us = 0.0
    worst_a = run_scenario(worst_scenario, seed=1).report.reordering_ratio
    worst_b = run_scenario(worst_scenario, seed=1).report.reordering_ratio

    ratios = [res.report.reordering_ratio for res in zero_timer_batch]
    mean_ratio = statistics.fmean(ratios)
    ok = worst_a > 0 and worst_a == worst_b and mean_ratio > 0
    _verdict(
        "2",
        ok,
        f"worst-case ratio {worst_a:.3e} deterministic; randomized mean {mean_ratio:.3e} "
        f"over {len(ratios)} forced-migration runs (reported, schedule-dependent)",
    )


def test_criterion_3_admission_table(capsys=None):
    expectations = [
        # (max_list_size, streams, reference percentage)
        (1, 2000, 0.127),
        (1, 1000, 0.245),
        (6, 2000, 0.717),
        (6, 1000, 0.957),
        (6, 200, 1.0),
        (6, 40, 1.0),
    ]
    seeds = (1, 2, 3, 4, 5)
    lines = []
    ok = True
    for mls, streams, ref in expectations:
        fractions = [
            run_scenario(bundled(f"admission_l{mls}_n{streams}"), seed=s).report.admitted_fraction
            for s in seeds
        ]
        mean = statistics.fmean(fractions)
        oracle = occupancy_oracle(256, streams, mls)
        within_ref = abs(mean - ref) <= 0.03
        within_oracle = abs(mean - oracle) <= 0.02
        exact_full = streams > 200 or all(f == 1.0 for f in fractions)
        ok = ok and within_ref and within_oracle and exact_full
        lines.append(
            f"mls={mls} n={streams}: sim={mean:.3f} oracle={oracle:.3f} ref={ref:.3f}"
        )
    _verdict("3", ok, "; ".join(lines))


def test_criterion_4_memory_model():
    exact = memory_estimate(10_000, 4, 0) == 200_000
    result = run_scenario(bundled("memory10g"), seed=1)
    peak = result.report.peak_held_bytes
    held = result.report.held_packets
    ok = exact and held > 0 and peak <= 250_000
    _verdict(
        "4",
        ok,
        f"10k v4 entries = 200000 bytes exactly; 10 Gbps run held {held} packets, "
        f"peak held bytes {peak} <= 250000",
    )


def test_criterion_5_search_time_model():
    ok = search_time(1) == 260 and search_time(6) == 1010
    _verdict("5", ok, "position 1 = 260 ns, position 6 = 1010 ns, exact")


def test_criterion_6_indirection_proportions():
    table = (0, 0, 0, 0, 1, 1, 2, 3)
    rng = random.Random(2024)
    counts = [0, 0, 0, 0]
    n = 1_000_000
    for _ in range(n):
        counts[queue_of(rng.getrandbits(32), 4, table)] += 1
    shares = [c / n for c in counts]
    targets = [0.5, 0.25, 0.125, 0.125]
    ok = all(abs(s - t) <= 0.01 for s, t in zip(shares, targets))
    _verdict(
        "6",
        ok,
        "shares " + "/".join(f"{s * 100:.2f}" for s in shares) + " vs 50/25/12.5/12.5",
    )


def test_criterion_7_affinity_benefit(paired_affinity_runs):
    ok = True
    details = []
    for name, seed, steer, rss in paired_affinity_runs:
        pair_ok = (
            steer.data_affinity == 1.0
            and steer.cross_core_packets == 0
            and rss.data_affinity < 1.0
            and rss.cross_core_packets > 0
            and steer.lock_conflict_events <= rss.lock_conflict_events
        )
        ok = ok and pair_ok
        details.append(
            f"{name}/s{seed}: steer(aff=1.0,cross=0,lock={steer.lock_conflict_events}) "
            f"rss(aff={rss.data_affinity:.3f},cross={rss.cross_core_packets},"
            f"lock={rss.lock_conflict_events})"
        )
    _verdict("7", ok, "; ".join(details[:3]) + f"; ... {len(details)} pairs total")


def test_criterion_8_property_suite(inorder_batch):
    from steersim.flowtable import FlowTable
    from steersim.workload import Scenario, TableSpec, nanoseconds

    # Toeplitz agreement with the independent bit-level oracle.
    rng = random.Random(0xACCE)
    toeplitz_ok = all(
        toeplitz_hash(DEFAULT_RSS_KEY, data) == toeplitz_reference(DEFAULT_RSS_KEY, data)
        for data in (rng.randbytes(rng.randrange(0, 17)) for _ in range(10_000))
    )

    # FIFO hold-flush order at the table level.
    ns = nanoseconds(Scenario())
    table = FlowTable(
        TableSpec(), bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]),  # packed addresses
        ns["t_delete"], ns["t_delete_pressure"],
        schedule_timer=lambda k: None, fallback_core=lambda k: 0,
    )
    k = FlowKey(40000, 5001)
    from steersim.flows import ACK, SYN

    table.on_rx_connection_tracking((k, SYN, -1), 0)
    table.note_tx_packet(k, 0)
    table.on_rx_connection_tracking((k, ACK, -1), 0)
    table.observe_tx(k, 1, 0)
    seqs = [rng.randrange(1000) for _ in range(64)]
    for i, seq in enumerate(seqs):
        table.steer((k, DATA, seq), i)
    _, flushed = table.on_timer_expire(k, ns["t_timer"])
    fifo_ok = [seq for (_, _, seq), _ in flushed] == seqs

    # Claims over the shared in-order batch: chain caps, occupancy bound,
    # held delay bound, exactly-once delivery.
    caps_ok = True
    held_ok = True
    once_ok = True
    for scenario, _, result, _, logs in inorder_batch:
        t_timer_ns = nanoseconds(scenario)["t_timer"]
        if result.hold_delays:
            held_ok = held_ok and max(result.hold_delays) <= t_timer_ns
        caps_ok = caps_ok and result.report.peak_entries <= 10_000
        for records in logs.values():
            data_seqs = [r.seq for r in records if r.kind == DATA]
            once_ok = once_ok and len(data_seqs) == len(set(data_seqs))

    ok = toeplitz_ok and fifo_ok and caps_ok and held_ok and once_ok
    _verdict(
        "8",
        ok,
        f"toeplitz oracle x10k={toeplitz_ok}, fifo flush={fifo_ok}, caps={caps_ok}, held<=t_timer={held_ok}, "
        f"exactly-once={once_ok}",
    )


def test_criterion_9_determinism(tmp_path):
    scenario = bundled("migrate_same")
    path = tmp_path / "det.json"
    scenario.save(path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main([
            "run", str(path), "--repeat", "3", "--seed", "7",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("runs.csv", "aggregate.csv", "summary.txt", "manifest.json")
    )
    _verdict("9", same, "re-run with same seed produced byte-identical outputs")
