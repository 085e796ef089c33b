"""The run report, the analytic admission oracle and CSV/report emission.

The delivery figures of a report (reordering, affinity and the contention
proxies) are tallied while the run goes, by `host.Host._deliver`. The CSV
schema is versioned: bump CSV_SCHEMA_VERSION when columns change meaning.
"""

import io
import math

from .flows import Record

CSV_SCHEMA_VERSION = 1


def admitted_fraction(admitted: int, total_handshaked: int) -> float:
    return admitted / total_handshaked if total_handshaked else 0.0


def occupancy_oracle(num_buckets: int, flows: int, max_list_size: int) -> float:
    """Analytic expected admitted fraction under uniform bucket hashing.

    Each bucket's occupancy is Binomial(flows, 1/num_buckets); a bucket
    admits at most max_list_size flows, so the expectation is
    B * E[min(X, m)] / N, computed exactly via log-space binomial terms.
    """
    if flows <= 0:
        return 1.0
    n, b, m = flows, num_buckets, max_list_size
    if m >= n:
        return 1.0
    if b == 1:
        return min(n, m) / n
    p = 1.0 / b
    log_p, log_q = math.log(p), math.log1p(-p)
    expected = float(m)
    for k in range(m):
        log_pmf = (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_q
        )
        expected -= (m - k) * math.exp(log_pmf)
    return min(1.0, b * expected / n)


# ---- run report -------------------------------------------------------------


class RunReport(Record):
    """One row per run. Its fields are the row's columns, in CSV order,
    apart from `queue_stats`: it maps each queue id to its counters, which
    `to_row` flattens into q<i>_<stat> columns after the others. Every
    ratio lies in [0, 1]."""

    scenario: str = ""
    seed: int = 0
    mode: str = ""
    duration_us: float = 0.0
    generated_data: int = 0
    delivered_data: int = 0
    delivered_interrupt: int = 0
    delivered_process: int = 0
    process_context_fraction: float = 0.0
    reordering_ratio: float = 0.0
    handshakes: int = 0
    admitted: int = 0
    rejected_bucket_full: int = 0
    rejected_table_full: int = 0
    admitted_fraction: float = 0.0
    evictions: int = 0
    peak_entries: int = 0
    transitions: int = 0
    held_packets: int = 0
    peak_held_bytes: int = 0
    held_delay_max_ns: int = 0
    held_delay_mean_ns: float = 0.0
    table_memory_peak_bytes: int = 0
    drops: int = 0
    interrupts: int = 0
    migrations: int = 0
    acks_sent: int = 0
    flow_affinity: float = 0.0
    data_affinity: float = 0.0
    cross_core_packets: int = 0
    cross_processor_packets: int = 0
    alternations: int = 0
    lock_conflict_events: int = 0
    queue_stats: dict | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.queue_stats is None:
            self.queue_stats = {}
        for name in (
            "process_context_fraction",
            "reordering_ratio",
            "admitted_fraction",
            "flow_affinity",
            "data_affinity",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")

    def to_row(self) -> dict:
        row = {"schema": CSV_SCHEMA_VERSION}
        for name in self.FIELDS:
            row[name] = getattr(self, name)
        queue_stats = row.pop("queue_stats")
        for q in sorted(queue_stats):
            for stat, value in queue_stats[q].items():
                row[f"q{q}_{stat}"] = value
        return row


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def rows_to_csv(rows) -> str:
    """CSV text with a header taken from the first row. Values holding a
    comma, quote or newline are quoted; others are written as they are."""
    import csv  # here, not at the top: a run writes no CSV

    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = list(rows[0])
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(row[col]) for col in header])
    return out.getvalue()


def aggregate_rows(rows) -> list:
    """Mean and sample stddev per numeric column, in column order."""
    # Imported here: statistics imports fractions and decimal, 3-5 ms of
    # start-up that a run, which aggregates nothing, would pay.
    import statistics

    if not rows:
        return []
    out = []
    for col in rows[0]:
        values = [r[col] for r in rows]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            continue
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        out.append(
            {
                "metric": col,
                "mean": mean,
                "stddev": std,
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
        )
    return out


def summary_text(scenario_name: str, mode: str, aggregates: list) -> str:
    lines = [f"scenario: {scenario_name}", f"mode: {mode}", ""]
    width = max((len(a["metric"]) for a in aggregates), default=10)
    for a in aggregates:
        lines.append(
            f"{a['metric']:<{width}}  mean={format_value(a['mean'])}"
            f"  stddev={format_value(a['stddev'])}"
            f"  min={format_value(a['min'])}  max={format_value(a['max'])}"
        )
    return "\n".join(lines) + "\n"
