"""steersim benchmark: host time per simulated run, with per-layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Runs samples of one workload (see common.WORKLOADS) as a closed loop of
fresh single-threaded processes, one after another, until S seconds have
passed. Every report row is checked against perfbench/golden.json. With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones from a traced pass. The last stdout line is one JSON
object; the samples and their metadata go to perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

from common import (
    BENCH_DIR, RESULTS_DIR, ROOT, SRC, WORKLOADS, child_env, load_golden, seeds_for,
)

RUN_LIMIT_S = 170  # whole run, warm-up included; a run must end within 180 s

# Median CPU seconds of sample.reference_kernel on the 2-CPU sandbox where
# the benchmark was defined. setup_s and run_s are CPU seconds scaled by
# REFERENCE_S / (mean of the two reference timings around the sample). That
# sandbox's CPU speed drifts by 15-20% over minutes; the kernel drifts with
# it and the ratio cancels the drift. The result file keeps raw wall and
# CPU times.
REFERENCE_S = 0.30
MIN_SAMPLES = {"timed": 3, "traced": 1}


class BenchError(Exception):
    pass


def spawn(mode, workload, seeds, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} sample")
    cmd = [sys.executable, str(BENCH_DIR / "sample.py"), mode, workload,
           ",".join(map(str, seeds))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} sample exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(mode, workload, seeds, seconds, deadline):
    """Closed loop: the next sample starts when the previous one has ended.
    A reference process runs before the first sample and after each one, so
    every sample is bracketed by two reference timings."""
    samples, longest = [], 0.0
    start = time.monotonic()
    before = spawn("reference", workload, seeds, deadline)["reference_s"]
    while len(samples) < MIN_SAMPLES[mode] or time.monotonic() - start < seconds:
        t = time.monotonic()
        if len(samples) >= MIN_SAMPLES[mode] and t + longest > deadline:
            break
        sample = spawn(mode, workload, seeds, deadline)
        after = spawn("reference", workload, seeds, deadline)["reference_s"]
        sample.update(reference_s=(before + after) / 2, wall_s=time.monotonic() - t)
        before = after
        longest = max(longest, sample["wall_s"])
        samples.append(sample)
    return samples


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(samples, golden):
    runs = [r for s in samples for r in s["runs"]]
    failed = sum(r["digest"] != golden.get(str(r["seed"])) for r in runs)
    scale = [REFERENCE_S / s["reference_s"] for s in samples]
    timed = [(r["run_cpu_s"] * k, r["generated"])
             for s, k in zip(samples, scale) for r in s["runs"] if "run_s" in r]
    values = {
        "setup_s": median([s["setup_cpu_s"] * k for s, k in zip(samples, scale)]),
        "run_s": median([t for t, _ in timed]),
        "sim_pkts_per_s": median([g / t for t, g in timed]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "report_match": 1.0 - failed / len(runs),
    }
    counts = {"setup_s": len(samples), "run_s": len(timed), "sim_pkts_per_s": len(timed),
              "peak_rss_mb": len(samples)}
    return values, counts, len(runs), failed, True


def per_layer(samples, golden):
    runs = [r for s in samples for r in s["runs"]]
    failed = sum(r.get(k) != golden.get(str(r["seed"]))
                 for r in runs for k in ("traced_digest", "digest"))
    layered = [r["layers"] for r in runs if "layers" in r]
    values = {name: median([m[name] for m in layered if name in m])
              for name in layered[0]} if layered else {}
    overhead = [
        sum(r["traced_run_s"] for r in s["runs"]) / sum(r["run_s"] for r in s["runs"]) - 1.0
        for s in samples if all("run_s" in r and "traced_run_s" in r for r in s["runs"])
    ]
    values["metrics.report_s"] = median([s["report_s"] for s in samples])
    values["bench.trace_overhead"] = median(overhead)
    values["bench.report_mismatch"] = failed / (2 * len(runs))
    counts = {name: len(layered) for name in values}
    counts["metrics.report_s"] = counts["bench.trace_overhead"] = len(samples)
    restored = all(s["restored"] for s in samples)
    return values, counts, 2 * len(runs), failed, restored


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "steersim").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, seeds):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "bench_seed": args.seed,
        "sim_seeds": seeds,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "steersim" / "__init__.py").is_file():
        raise BenchError(f"no steersim sources under {SRC}")
    with open(ROOT / "BENCHMARK.json") as fh:
        section = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    golden = load_golden()[args.workload]["pool"]
    seeds = seeds_for(args.workload, args.seed)
    meta = metadata(args, seeds)

    spawn("setup", args.workload, seeds, deadline)  # warm-up: byte-compiles, fills OS caches
    mode = "traced" if args.trace else "timed"
    samples = collect(mode, args.workload, seeds, args.seconds, deadline)
    summarize = per_layer if args.trace else end_to_end
    values, counts, attempted, failed, restored = summarize(samples, golden)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    result = {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({"meta": meta, "samples": samples, "counts": counts, **result}, fh, indent=1)
        fh.write("\n")
    for name in units:
        n = counts.get(name)
        note = f"  (median of {n})" if n else ""
        print(f"{name:32} {values[name]:>14.6g} {units[name]}{note}")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
