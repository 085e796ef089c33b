import concurrent.futures
import csv
import json
import os
import re
from pathlib import Path

import pytest

from steersim import runner
from steersim.cli import main, scenario_hash
from steersim.workload import UNREAD, Scenario, ScenarioError

from bundled import bundled, pinned_same

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def small_scenario(tmp_path):
    s = pinned_same(8)
    s.traffic.data_packets_per_stream = 10
    path = tmp_path / "small.json"
    s.save(path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRun:
    def test_repeat_writes_aggregate(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", small_scenario, "--repeat", 5, "--out", out,
                       "--quiet") == 0
        runs = (out / "runs.csv").read_text().splitlines()
        assert len(runs) == 6  # header + 5 seeds
        agg = (out / "aggregate.csv").read_text()
        assert agg.splitlines()[0] == "metric,mean,stddev,min,max,n"
        assert "admitted_fraction" in agg
        assert (out / "summary.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2, 3, 4, 5]

    def test_invalid_t_timer_fails_validation(self, small_scenario, tmp_path):
        code = run_cli("run", small_scenario, "--t-timer", -1,
                       "--out", tmp_path / "x", "--quiet")
        assert code != 0

    def test_mode_override_runs_rss_baseline(self, small_scenario, tmp_path):
        out = tmp_path / "rss"
        assert run_cli("run", small_scenario, "--mode", "rss", "--out", out,
                       "--quiet") == 0
        runs = (out / "runs.csv").read_text()
        header, row = runs.splitlines()[:2]
        mode = dict(zip(header.split(","), row.split(",")))["mode"]
        assert mode == "rss"

    def test_unreadable_scenario_errors(self, tmp_path):
        assert run_cli("run", tmp_path / "missing.json", "--quiet") == 2

    def test_byte_identical_reruns(self, small_scenario, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", small_scenario, "--repeat", 3, "--out", out_a, "--quiet")
        run_cli("run", small_scenario, "--repeat", 3, "--out", out_b, "--quiet")
        for name in ("runs.csv", "aggregate.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_scenario_name_with_comma_round_trips(self, tmp_path):
        s = pinned_same(4)
        s.name = 'pinned, "quoted"'
        s.traffic.data_packets_per_stream = 5
        path = tmp_path / "comma.json"
        s.save(path)
        out = tmp_path / "out"
        assert run_cli("run", path, "--repeat", 2, "--out", out, "--quiet") == 0
        with open(out / "runs.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        assert [dict(zip(header, row))["scenario"] for row in rows] == [s.name] * 2
        assert run_cli("compare", out, out) == 0

    def test_unwritable_output_exits_2(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "runs.csv").mkdir(parents=True)
        assert run_cli("run", small_scenario, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file: ")

    def test_env_var_default_out(self, small_scenario, tmp_path, monkeypatch):
        monkeypatch.setenv("STEERSIM_OUT", str(tmp_path / "envout"))
        assert run_cli("run", small_scenario, "--quiet") == 0
        assert (tmp_path / "envout" / "pinned_same_flowsteer" / "runs.csv").exists()


class TestCompare:
    def test_mode_comparison_shows_steering_benefit(self, small_scenario, tmp_path):
        out_fs, out_rss = tmp_path / "fs", tmp_path / "rss"
        run_cli("run", small_scenario, "--repeat", 3, "--out", out_fs, "--quiet")
        run_cli("run", small_scenario, "--mode", "rss", "--repeat", 3,
                "--out", out_rss, "--quiet")
        assert run_cli("compare", out_fs, out_rss) == 0
        fs_cross = _mean_metric(out_fs, "cross_core_packets")
        rss_cross = _mean_metric(out_rss, "cross_core_packets")
        assert fs_cross < rss_cross  # steering lowers cross-core traffic

    def test_identical_dirs_all_deltas_zero(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "one"
        run_cli("run", small_scenario, "--repeat", 2, "--out", out, "--quiet")
        assert run_cli("compare", out, out) == 0
        printed = capsys.readouterr().out
        assert "b_is=higher" not in printed and "b_is=lower" not in printed

    def test_exhausted_ports_exit_2_with_message(self, tmp_path, capsys):
        s = pinned_same(20)
        s.traffic.ephemeral_start = 65530
        path = tmp_path / "ports.json"
        s.save(path)
        assert run_cli("run", path, "--out", tmp_path / "out", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: traffic.ephemeral_start")
        assert "Traceback" not in err

    def test_ring_of_zero_exits_2_without_traceback(self, tmp_path, capsys):
        s = pinned_same(8)
        s.nic.ring_capacity = 0
        path = tmp_path / "ring0.json"
        path.write_text(json.dumps(s.to_dict()))
        assert run_cli("run", path, "--out", tmp_path / "out", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: nic.ring_capacity")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("fields", ["foo"]),
        ("table", [0, 1, 2]),
        ("key_hex", "00"),
        ("table", [0, 9]),
    ])
    def test_bad_rss_input_exits_2_without_traceback(self, tmp_path, capsys, field, value):
        d = pinned_same(8).to_dict()
        d["rss"][field] = value
        path = tmp_path / "rss.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", path, "--out", tmp_path / "out", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: rss.{field}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, field, value, named", [
        ("", "duration_us", float("nan"), "duration_us"),
        ("traffic", "link_gbps", 0.0, "traffic.link_gbps"),
        ("traffic", "packet_bytes", 0, "traffic.packet_bytes"),
        ("traffic", "packet_bytes", -1, "traffic.packet_bytes"),
        ("traffic", "data_packets_per_stream", -1, "traffic.data_packets_per_stream"),
        ("flow_table", "t_timer", 100.0, "unknown scenario keys: flow_table.t_timer"),
        ("", "flowtable", {}, "unknown scenario keys: flowtable"),
        ("nic", "link_latency_us", -1e9, "unknown scenario keys: nic.link_latency_us"),
        ("rss", "table", [0, 1, 2], "rss.table"),
    ])
    def test_load_time_probes_exit_2_without_traceback(self, tmp_path, capsys, section, field,
                                                       value, named):
        d = pinned_same(8).to_dict()
        (d[section] if section else d)[field] = value
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", path, "--out", tmp_path / "out", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, field, value, named", [
        ("traffic", "burst_spacing_ns", 250.5, "traffic.burst_spacing_ns"),
        ("", "nic", 5, "nic"),
        ("traffic", "streams", "40", "traffic.streams"),
        ("traffic", "ports", 5001, "traffic.ports"),
        ("host", "ack_every", 2.5, "host.ack_every"),
        ("nic", "ring_capacity", True, "nic.ring_capacity"),
        ("nic", "latency_accounting", "yes", "nic.latency_accounting"),
        ("", "apps", [{"cores": [0]}], "apps[0].ports"),
    ])
    def test_wrong_value_types_exit_2_without_traceback(self, tmp_path, capsys, section, field,
                                                        value, named):
        d = pinned_same(4).to_dict()
        (d[section] if section else d)[field] = value
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", path, "--out", tmp_path / "out", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} ")
        assert "Traceback" not in err

    def test_scenario_error_during_setup_exits_2(self, small_scenario, tmp_path, capsys,
                                                 monkeypatch):
        def fail(scenario, seed=None):
            raise ScenarioError("traffic.streams must be at least 1, not 0")

        monkeypatch.setattr(runner, "run_scenario", fail)
        assert run_cli("run", small_scenario, "--out", tmp_path / "out", "--quiet") == 2
        assert capsys.readouterr().err == "error: traffic.streams must be at least 1, not 0\n"

    def test_worst_case_without_queue_0_exits_2_at_load(self, tmp_path, capsys):
        # The table sends every flow past queue 0, where the worst case
        # needs its victim and filler flows.
        d = bundled("worstcase").to_dict()
        d["rss"]["table"] = [1, 1, 1, 1]
        path = tmp_path / "noqueue0.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert run_cli("run", path, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err.startswith("error: rss.table [1, 1, 1, 1] ")
        assert not out.exists()

    def test_empty_aggregate_is_unreadable(self, small_scenario, tmp_path):
        out = tmp_path / "one"
        run_cli("run", small_scenario, "--out", out, "--quiet")
        (out / "aggregate.csv").write_text("")
        assert run_cli("compare", out, out) == 2

    @pytest.mark.parametrize("lacks", ["scenario_hash", "mode", "t_timer_us", "object"])
    def test_incomplete_manifest_is_unreadable(self, small_scenario, tmp_path, capsys, lacks):
        out = tmp_path / "one"
        run_cli("run", small_scenario, "--out", out, "--quiet")
        manifest = json.loads((out / "manifest.json").read_text())
        if lacks == "object":
            manifest = [manifest]
        else:
            del manifest[lacks]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("compare", out, out) == 2
        assert capsys.readouterr().err.startswith("error: unreadable run directory: ")

    def test_mismatched_scenarios_error(self, tmp_path):
        a = pinned_same(8)
        b = pinned_same(12)  # different stream count: different identity
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        run_cli("run", pa, "--out", out_a, "--quiet")
        run_cli("run", pb, "--out", out_b, "--quiet")
        assert run_cli("compare", out_a, out_b) == 1


class TestJobs:
    OUTPUTS = ("runs.csv", "aggregate.csv", "summary.txt", "manifest.json")

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Allow a pool of two workers even on a one-CPU machine."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_two_jobs_write_what_one_writes(self, small_scenario, tmp_path, capsys, two_cpus):
        printed = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("run", small_scenario, "--repeat", 4, "--jobs", jobs,
                           "--out", out) == 0
            printed[jobs] = capsys.readouterr().out.splitlines()
        for name in self.OUTPUTS:
            assert (tmp_path / "jobs1" / name).read_bytes() == \
                (tmp_path / "jobs2" / name).read_bytes()
        seed_lines = printed[2][:-1]  # the last line names the output directory
        assert seed_lines == printed[1][:-1]
        assert [line.split(":")[0] for line in seed_lines] == [f"seed {s}" for s in (1, 2, 3, 4)]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exit_2(self, small_scenario, tmp_path, capsys, jobs):
        assert run_cli("run", small_scenario, "--jobs", jobs, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == "error: --jobs must be at least 1\n"

    def test_scenario_error_in_a_worker_reaches_the_caller(self, two_cpus):
        # Engine.__init__ validates the scenario again inside each worker,
        # which rejects this one built in Python; the error comes back here.
        s = pinned_same(8)
        s.traffic.streams = 0
        with pytest.raises(ScenarioError, match="^traffic.streams must be at least 1, not 0$"):
            list(runner.report_rows([(s, 1), (s, 2)], jobs=2))

    @pytest.mark.parametrize("jobs, runs, cpus, workers", [
        (1, 3, 4, None), (2, 1, 4, None), (2, 3, 1, None),
        (2, 3, 4, 2), (8, 3, 4, 3), (8, 6, 4, 4),
    ])
    def test_pool_is_capped_by_cpus_and_runs(self, monkeypatch, jobs, runs, cpus, workers):
        pools = []

        class Pool:
            """Maps in this process and records the pool size asked for."""

            def __init__(self, max_workers, mp_context):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(runner, "report_row", lambda scenario, seed: {"seed": seed})
        rows = list(runner.report_rows([(None, seed) for seed in range(runs)], jobs))
        assert rows == [{"seed": seed} for seed in range(runs)]
        assert pools == ([] if workers is None else [workers])


class TestScenarioHash:
    def test_override_axes_do_not_change_hash(self):
        a = bundled("pinned_same")
        b = bundled("pinned_same")
        b.nic.mode = "rss"
        b.flow_table.t_timer_us = 0.0
        b.flow_table.max_list_size = 1
        b.seed = 99
        assert scenario_hash(a) == scenario_hash(b)

    def test_substantive_change_does(self):
        a = bundled("pinned_same")
        b = bundled("pinned_same")
        b.traffic.streams = 80
        assert scenario_hash(a) != scenario_hash(b)


WORST_CASE_UNREAD = {condition: paths for condition, _, paths in UNREAD}["kind 'worst_case'"]
# A value other than the default for each setting a worst case never reads.
UNREAD_VALUES = {
    "traffic.streams": 41,
    "traffic.data_packets_per_stream": 31,
    "traffic.link_gbps": 5.0,
    "traffic.burst": 4,
    "traffic.burst_spacing_ns": 0,
    "traffic.jitter_ns": 10,
    "traffic.ephemeral_ports": "random",
    "traffic.ephemeral_start": 65500,  # would leave no room for 40 sequential ports
    "traffic.start_spread_us": 0.0,
    "host.syscall_cadence_us": None,
    "scheduler.mode": "peak_performance",
    "scheduler.tick_us": 100.0,
    "scheduler.forced_migration_period_us": 10.0,
    "flow_table.num_buckets": 1,
    "flow_table.max_list_size": 1,
    "apps": [{"ports": [5001, 6001], "cores": [0, 3]}],
}


class TestWorstCase:
    def test_every_unread_setting_has_a_value(self):
        assert sorted(UNREAD_VALUES) == sorted(WORST_CASE_UNREAD)

    @pytest.mark.parametrize("path", WORST_CASE_UNREAD)
    def test_unread_setting_fails_at_load_naming_itself(self, path, tmp_path, capsys):
        d = json.loads((SCENARIOS / "worstcase.json").read_text())
        section, _, name = path.rpartition(".")
        (d.setdefault(section, {}) if section else d)[name] = UNREAD_VALUES[path]
        refusal = f"{path} is not read under kind 'worst_case' and must keep its default, "
        with pytest.raises(ScenarioError, match=f"^{re.escape(refusal)}"):
            Scenario.from_dict(d)
        probe, out = tmp_path / "probe.json", tmp_path / "out"
        probe.write_text(json.dumps(d))
        assert run_cli("run", probe, "--out", out, "--quiet") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {refusal}")
        assert not out.exists()

    def test_repeat_exits_2(self, tmp_path, capsys):
        # The schedule draws no randomness, so every seed gives the same row.
        out = tmp_path / "out"
        assert run_cli("run", SCENARIOS / "worstcase.json", "--repeat", 2, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --repeat must be 1 under kind 'worst_case', which is deterministic\n")
        assert not out.exists()

    def test_max_list_size_override_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", SCENARIOS / "worstcase.json", "--max-list-size", 3,
                       "--out", out, "--quiet") == 2
        assert capsys.readouterr().err.startswith("error: flow_table.max_list_size is not read ")

    def test_a_single_run_writes_its_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", SCENARIOS / "worstcase.json", "--repeat", 1, "--out", out,
                       "--quiet") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == json.loads((SCENARIOS / "worstcase.json").read_text())


def _mean_metric(out_dir, metric):
    lines = (Path(out_dir) / "aggregate.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["metric"] == metric:
            return float(row["mean"])
    raise KeyError(metric)
