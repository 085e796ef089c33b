"""scripts/run_experiments.py builds every run of its tables from the
bundled files, some through an overlay. These tests build the run lists
without running them, so a broken import or overlay fails here and not
only in a manual run of the script."""

import sys
from pathlib import Path

import pytest

from steersim import Scenario

from bundled import bundled

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import run_experiments  # noqa: E402

SEEDS = (1,)

# Each table function's run list, by the table's name.
TABLES = {
    "affinity": lambda: run_experiments.affinity_table(SEEDS)[0],
    "reordering": lambda: run_experiments.reordering_table(SEEDS)[0],
    "admission": lambda: run_experiments.admission_table(SEEDS)[0],
    "worstcase_and_memory": lambda: run_experiments.worstcase_and_memory()[0],
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_every_run_validates(table):
    runs = TABLES[table]()
    assert runs
    for scenario, seed in runs:
        assert isinstance(scenario, Scenario) and seed in SEEDS
        assert scenario.validate() is scenario


def test_a_bundled_admission_point_is_its_file():
    # Every sweep point is an overlay on one file; where a point is bundled
    # too, the overlay must give that file, stream count, load and cap alike.
    bundled_points = {p.stem for p in (Path(__file__).resolve().parents[1] / "scenarios")
                      .glob("admission_*.json")}
    runs = TABLES["admission"]()
    points = {s.name: s for s, _ in runs}
    assert len(points) == len(runs) == 8
    assert bundled_points < set(points)
    for name in bundled_points:
        assert points[name].to_dict() == bundled(name).to_dict()
