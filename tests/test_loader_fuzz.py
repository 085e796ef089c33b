"""Mutation fuzz of the scenario loader over the bundled scenario files.

Each example takes one bundled file, shortens it (a few streams, a short
horizon) and applies one mutation at one key or list element: drop or
rename the key, or put in a value of the wrong type, a negative, zero, NaN
or huge number. The mutated scenario must either fail at load with a
ScenarioError or load and run without one, and `steersim run` must exit 0
or 2 with an `error:` line, never with a raw exception.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.cli import main
from steersim.runner import run_scenario
from steersim.workload import Scenario, ScenarioError

BUNDLED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
SHORT_US = 300.0
MAX_STREAMS = 8

MUTATIONS = ("drop", "rename", "wrong_type", "negative", "zero", "nan", "huge")
# A value of every JSON type; wrong for most fields.
OTHER_TYPES = ("text", 2.5, 7, True, None, [1, 2], {"a": 1})


def shortened(path: Path) -> dict:
    d = json.loads(path.read_text())
    d["duration_us"] = SHORT_US
    if "streams" in d["traffic"]:  # a worst case's file leaves it out
        d["traffic"]["streams"] = min(d["traffic"]["streams"], MAX_STREAMS)
    return d


def value_paths(value, prefix=()) -> list:
    """Every key and list element below `value`, as key/index paths."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for k, v in items:
        out.append(prefix + (k,))
        out += value_paths(v, prefix + (k,))
    return out


def mutate(d: dict, path: tuple, mutation: str, other):
    *parents, last = path
    owner = d
    for k in parents:
        owner = owner[k]
    old = owner[last]
    if mutation == "drop" or (mutation == "rename" and isinstance(owner, list)):
        del owner[last]
    elif mutation == "rename":
        owner[last + "_"] = owner.pop(last)
    elif mutation == "wrong_type":
        owner[last] = other
    elif mutation == "negative":
        owner[last] = -abs(old) if isinstance(old, (int, float)) else -1
    elif mutation == "zero":
        owner[last] = 0.0 if isinstance(old, float) else 0
    elif mutation == "nan":
        owner[last] = math.nan
    else:
        owner[last] = 1e300 if isinstance(old, float) else 10**18


@st.composite
def mutated_scenarios(draw):
    path = draw(st.sampled_from(BUNDLED))
    d = shortened(path)
    target = draw(st.sampled_from(value_paths(d)))
    mutation = draw(st.sampled_from(MUTATIONS))
    if target == ("duration_us",) and mutation == "huge":
        mutation = "nan"  # a huge horizon would only make the run long
    mutate(d, target, mutation, draw(st.sampled_from(OTHER_TYPES)))
    return d


@given(mutated_scenarios())
@settings(max_examples=80, deadline=None)
def test_mutated_scenario_runs_or_raises_scenario_error(d):
    try:
        scenario = Scenario.from_dict(d)
    except ScenarioError:
        pass
    else:
        run_scenario(scenario)  # a scenario that loads never fails mid-run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(d))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out"), "--quiet"])
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    assert (code, len(lines)) == (0, 0) or lines[0].startswith("error: "), lines
