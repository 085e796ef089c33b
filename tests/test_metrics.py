import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.metrics import (
    RunReport,
    aggregate_rows,
    format_value,
    occupancy_oracle,
    rows_to_csv,
)


class TestOccupancyOracle:
    def test_max_list_one_matches_closed_form(self):
        # With a one-deep chain the oracle reduces to occupied buckets:
        # B*(1-(1-1/B)^N)/N.
        for n in (40, 200, 1000, 2000):
            closed = 256 * (1 - (1 - 1 / 256) ** n) / n
            assert math.isclose(occupancy_oracle(256, n, 1), closed, rel_tol=1e-9)

    def test_monte_carlo_agreement(self):
        # Independent check: throw flows into buckets at random and cap each
        # chain, comparing the admitted fraction with the analytic value.
        rng = random.Random(5)
        for n, m in ((2000, 6), (1000, 6), (2000, 1)):
            total = 0
            trials = 60
            for _ in range(trials):
                counts = [0] * 256
                for _ in range(n):
                    counts[rng.randrange(256)] += 1
                total += sum(min(c, m) for c in counts) / n
            assert abs(total / trials - occupancy_oracle(256, n, m)) < 0.01

    def test_monotone_in_flows_and_list_size(self):
        # More flows cannot raise the admitted fraction; a longer chain
        # cannot lower it.
        fractions = [occupancy_oracle(256, n, 6) for n in (40, 200, 1000, 2000)]
        assert fractions == sorted(fractions, reverse=True)
        by_m = [occupancy_oracle(256, 2000, m) for m in (1, 2, 4, 6, 8)]
        assert by_m == sorted(by_m)

    @given(st.integers(1, 512), st.integers(1, 3000), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_stays_in_unit_interval(self, buckets, flows, m):
        assert 0.0 <= occupancy_oracle(buckets, flows, m) <= 1.0


class TestReportAndCsv:
    def test_ratios_validated(self):
        with pytest.raises(ValueError):
            RunReport(reordering_ratio=1.5)

    def test_csv_deterministic(self):
        rows = [
            RunReport(scenario="a", seed=1, reordering_ratio=0.25).to_row(),
            RunReport(scenario="a", seed=2, reordering_ratio=0.75).to_row(),
        ]
        assert rows_to_csv(rows) == rows_to_csv(rows)
        header = rows_to_csv(rows).splitlines()[0]
        assert header.startswith("schema,scenario,seed,mode")

    def test_row_columns_follow_field_order(self):
        report = RunReport(scenario="a", seed=3, queue_stats={1: {"queued": 5}, 0: {"queued": 2}})
        names = [name for name in RunReport.FIELDS if name != "queue_stats"]
        assert len(names) == 33  # with schema, the 34 scalar columns of CSV schema 1
        row = report.to_row()
        assert list(row) == ["schema", *names, "q0_queued", "q1_queued"]
        assert row["seed"] == 3 and row["q1_queued"] == 5
        same = RunReport(scenario="a", seed=3, queue_stats={1: {"queued": 5}, 0: {"queued": 2}})
        assert report == same
        same.queue_stats[1]["queued"] = 6
        assert report != same and "queue_stats" in repr(report)

    def test_aggregate_mean_and_stddev(self):
        rows = [
            RunReport(scenario="a", seed=1, reordering_ratio=0.2).to_row(),
            RunReport(scenario="a", seed=2, reordering_ratio=0.4).to_row(),
        ]
        agg = {a["metric"]: a for a in aggregate_rows(rows)}
        assert math.isclose(agg["reordering_ratio"]["mean"], 0.3)
        assert math.isclose(
            agg["reordering_ratio"]["stddev"], 0.14142135, rel_tol=1e-6
        )
        assert agg["reordering_ratio"]["n"] == 2

    def test_format_value_stable(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1 / 3) == "0.333333333"
        assert format_value(7) == "7"
