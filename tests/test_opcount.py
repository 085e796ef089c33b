"""scripts/opcount.py on a cut-down scenario, in a fresh interpreter, since
it installs its own `sys.settrace` tracer."""

import re
import subprocess
import sys
from pathlib import Path

from bundled import bundled

ROOT = Path(__file__).resolve().parents[1]


def opcount(path: Path) -> list:
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "opcount.py"), str(path), "--seed", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()


def test_prints_counts_heap_peak_and_phase_peaks(tmp_path):
    s = bundled("migrate_same", {"traffic": {"streams": 8}})
    s.duration_us = 1_000.0
    path = tmp_path / "small.json"
    s.save(path)
    lines = opcount(path)
    assert lines[0].startswith("small  mode=flowsteer  seed=1  data packets=")
    assert re.fullmatch(r" +[\d,]+ +[\d.]+  steersim\.runner:Engine\._schedule_streams",
                        next(line for line in lines if line.endswith("_schedule_streams")))
    assert lines[-3].endswith("event heap's peak length, untraced run")
    peaks = {}
    for line in lines[-2:]:
        match = re.fullmatch(r" +([\d,]+\.\d)  +traced KiB at most, (arrival hand-over|event loop)",
                             line)
        assert match, line
        peaks[match[2]] = float(match[1].replace(",", ""))
    assert peaks.keys() == {"arrival hand-over", "event loop"}
    assert all(0 < kib < 10_000 for kib in peaks.values())


def test_module_lines_sum_to_the_steersim_total(tmp_path):
    s = bundled("pinned_same", {"traffic": {"streams": 4}})
    s.duration_us = 500.0
    path = tmp_path / "small.json"
    s.save(path)
    counts = {}  # label -> bytecodes, for every count line
    for line in opcount(path)[2:]:
        match = re.fullmatch(r" +([\d,]+) +[\d.]+  (.+)", line)
        if match:
            counts[match[2]] = int(match[1].replace(",", ""))
    functions = {k: n for k, n in counts.items() if k.startswith("steersim.") and ":" in k}
    modules = {k: n for k, n in counts.items() if k.startswith("steersim.") and ":" not in k}
    assert {"steersim.runner", "steersim.simkernel", "steersim.host"} <= modules.keys()
    for module, n in modules.items():
        assert n == sum(v for k, v in functions.items() if k.startswith(module + ":"))
    assert sum(modules.values()) == counts["steersim total"]
