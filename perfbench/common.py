"""Workload table, seed mapping and report digests shared by the benchmark's
scripts. Imports nothing from steersim, so run.py can load it before the
program is known to be importable."""

import hashlib
import json
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
RESULTS_DIR = BENCH_DIR / "results"

# Each workload stresses a different layer; README.md gives the reasons.
# `batch` is how many consecutive seeds one sample runs (as
# `steersim run --repeat batch` would), for runs too short to time alone.
WORKLOADS = {
    "migrate_2000": {"scenario": "scenarios/migrate_same_2000.json", "mode": None, "batch": 1},
    "hold_10g": {"scenario": "scenarios/memory10g.json", "mode": None, "batch": 1},
    "pinned_rss": {"scenario": "scenarios/pinned_same.json", "mode": "rss", "batch": 20},
}

# A benchmark run draws its simulation seeds from POOL_SIZE fixed batches,
# so every seed it can use has a golden digest. HELD_OUT_BASE starts a
# disjoint set that run.py never draws; only selfcheck.py replays it.
POOL_SIZE = 10
HELD_OUT_BATCHES = 2
HELD_OUT_BASE = 1001

# Report columns that the digest covers. Fixed here, not taken from the row,
# so that a column added to RunReport later is not counted as drift.
DIGEST_COLUMNS = (
    "scenario", "seed", "mode", "duration_us", "generated_data", "delivered_data",
    "delivered_interrupt", "delivered_process", "process_context_fraction",
    "reordering_ratio", "handshakes", "admitted", "rejected_bucket_full",
    "rejected_table_full", "admitted_fraction", "evictions", "peak_entries",
    "transitions", "held_packets", "peak_held_bytes", "held_delay_max_ns",
    "held_delay_mean_ns", "table_memory_peak_bytes", "drops", "interrupts",
    "migrations", "acks_sent", "flow_affinity", "data_affinity",
    "cross_core_packets", "cross_processor_packets", "alternations",
    "lock_conflict_events",
) + tuple(
    f"q{q}_{stat}" for q in range(4) for stat in ("queued", "dropped", "interrupts", "max_depth")
)


def batch_seeds(workload: str, index: int, base: int = 1) -> list:
    """The consecutive simulation seeds of batch `index`."""
    k = WORKLOADS[workload]["batch"]
    return [base + index * k + j for j in range(k)]


def seeds_for(workload: str, bench_seed: int) -> list:
    """Simulation seeds a benchmark run with `--seed bench_seed` uses."""
    return batch_seeds(workload, bench_seed % POOL_SIZE)


def pool_seeds(workload: str) -> list:
    return [s for i in range(POOL_SIZE) for s in batch_seeds(workload, i)]


def held_out_seeds(workload: str) -> list:
    return [s for i in range(HELD_OUT_BATCHES) for s in batch_seeds(workload, i, HELD_OUT_BASE)]


def row_digest(row: dict) -> str:
    """sha256 over the fixed columns; json renders floats exactly (repr)."""
    blob = json.dumps([row[c] for c in DIGEST_COLUMNS], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment for sample processes: the checkout's sources and a fixed
    string-hash seed, so dict layout (and so timing) repeats run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env
