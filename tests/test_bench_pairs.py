"""The summary step of scripts/bench_pairs.py, on synthetic result files,
and the extraction of a commit's files."""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs  # noqa: E402

END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "sim_pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "report_match", "unit": "ratio", "better": "higher", "bound": 0.01},
]
HOST = {"python": "3.11.7", "implementation": "CPython", "machine": "x86_64", "nproc": 2}


def write_results(directory: Path, workload: str, run_s: list, host=HOST):
    """One run.py result file per --seed k, with `run_s[k]` and the rate
    that 1,000 packets give at that time."""
    directory.mkdir(parents=True, exist_ok=True)
    for k, t in enumerate(run_s):
        result = {
            "meta": {**host, "workload": workload, "bench_seed": k, "traced": False},
            "metrics": {"run_s": {"value": t, "unit": "s"},
                        "sim_pkts_per_s": {"value": 1000 / t, "unit": "1/s"},
                        "report_match": {"value": 1.0, "unit": "ratio"}},
        }
        (directory / f"{workload}-seed{k}.json").write_text(json.dumps(result))


BASE = [0.250, 0.248, 0.252, 0.246, 0.260]
HEAD = [0.240, 0.241, 0.255, 0.239, 0.245]


def summary(tmp_path):
    write_results(tmp_path / "base", "hold_10g", BASE)
    write_results(tmp_path / "head", "hold_10g", HEAD)
    return bench_pairs.summarize(bench_pairs.load_runs(tmp_path / "base"),
                                 bench_pairs.load_runs(tmp_path / "head"), END_TO_END)


def test_medians_quartiles_and_pairs_won(tmp_path):
    base, head, _ = summary(tmp_path)
    assert base["host"] == head["host"] == HOST
    q1, _, q3 = statistics.quantiles(BASE, n=4)
    run_s = base["workloads"]["hold_10g"]["run_s"]
    assert run_s == {"q1": q1, "median": 0.250, "q3": q3, "n": 5, "unit": "s"}
    head_run_s = head["workloads"]["hold_10g"]["run_s"]
    assert (head_run_s["median"], head_run_s["n"]) == (0.241, 5)
    # Pair 2 (0.252 -> 0.255) is lost; a higher-is-better rate follows it.
    assert (head_run_s["won"], head_run_s["tied"]) == (4, 0)
    rate = head["workloads"]["hold_10g"]["sim_pkts_per_s"]
    assert (rate["won"], rate["tied"]) == (4, 0)
    match = head["workloads"]["hold_10g"]["report_match"]
    assert (match["won"], match["tied"], match["median"]) == (0, 5, 1.0)


def test_table_is_the_changes_format(tmp_path):
    _, _, table = summary(tmp_path)
    header, rule, row = table.splitlines()
    assert header == "| workload | `run_s` | `sim_pkts_per_s` | `report_match` |"
    assert rule == "| --- | --- | --- | --- |"
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[0] == "`hold_10g`"
    assert cells[1] == "0.25 [0.247, 0.256] -> 0.241 (-3.6 %, 4/5)"
    assert cells[2] == "4,000 [3,907, 4,049] -> 4,149 (+3.7 %, 4/5)"
    assert cells[3] == "1 [1, 1] -> 1 (5 tied)"


def test_only_complete_pairs_count(tmp_path):
    write_results(tmp_path / "base", "hold_10g", BASE)
    write_results(tmp_path / "head", "hold_10g", HEAD[:3])
    base, head, _ = bench_pairs.summarize(bench_pairs.load_runs(tmp_path / "base"),
                                          bench_pairs.load_runs(tmp_path / "head"), END_TO_END)
    assert base["workloads"]["hold_10g"]["run_s"]["n"] == 3
    assert head["workloads"]["hold_10g"]["run_s"]["won"] == 2


def test_results_from_two_hosts_are_refused(tmp_path):
    write_results(tmp_path / "base", "hold_10g", BASE)
    write_results(tmp_path / "head", "hold_10g", HEAD, host={**HOST, "nproc": 4})
    with pytest.raises(bench_pairs.PairsError, match="different hosts"):
        bench_pairs.summarize(bench_pairs.load_runs(tmp_path / "base"),
                              bench_pairs.load_runs(tmp_path / "head"), END_TO_END)


def test_extract_writes_the_committed_tree(tmp_path):
    # A repository made here, so that the test needs no checkout around it:
    # a copy of the files without .git runs it too.
    repo, out = tmp_path / "repo", tmp_path / "out"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("")
    (repo / "untracked.txt").write_text("")
    identity = ("-c", "user.name=steersim", "-c", "user.email=steersim@example.invalid",
                "-c", "commit.gpgsign=false")
    bench_pairs.git("init", "-q", cwd=repo)
    bench_pairs.git("add", "perfbench", cwd=repo)
    bench_pairs.git(*identity, "commit", "-q", "-m", "tree", cwd=repo)
    out.mkdir()
    tree = out / "head"
    bench_pairs.extract("HEAD", tree, repo)
    assert (tree / "perfbench" / "run.py").is_file()
    assert not (tree / ".git").exists()
    assert not (tree / "untracked.txt").exists()
    assert [p.name for p in out.iterdir()] == ["head"]
