"""Self-check of the benchmark itself; takes a few minutes.

    python3 perfbench/selfcheck.py

1. Every metric in BENCHMARK.json has a valid name and a unit, and run.py
   prints exactly those metrics, with those units, for both --trace values.
2. The golden digests reproduce, the held-out seeds included. This process
   keeps the default random string-hash seed, while run.py pins it, so a
   pass also shows that reports do not depend on it.
3. In a traced run the self times of all spans sum to the traced run_s
   within the tracing overhead, every span belongs to a layer, the tracer
   restores what it wrapped, and the layers split as README.md predicts.

Exits 1 if any check fails.
"""

import json
import re
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, WORKLOADS, held_out_seeds, load_golden, pool_seeds, seeds_for
from golden import compute
from run import spawn
from tracer import LAYERS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def check_metric_names(bench):
    names = []
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            names.append(m["name"])
            check(NAME.fullmatch(m["name"]) is not None, f"metric name {m['name']!r}")
            check(UNIT.fullmatch(m.get("unit", "")) is not None, f"unit of {m['name']}")
    check(len(names) == len(set(names)), "metric names are unique")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "pinned_rss",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180,
        )
        check(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        if proc.returncode != 0:
            print(proc.stderr[-2000:])
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        declared = {m["name"]: m["unit"] for m in bench[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        check(printed == declared, f"run.py --trace {trace} prints the {section} metrics")
        check(result["correct"], f"run.py --trace {trace} reports correct")


def check_digests(golden):
    for name in WORKLOADS:
        for kind, seeds in (("pool", pool_seeds(name)), ("held_out", held_out_seeds(name))):
            got = compute(name, seeds)
            bad = sorted(s for s, d in got.items() if golden[name][kind].get(s) != d)
            check(not bad and len(got) == len(golden[name][kind]),
                  f"{name} {kind} digests reproduce ({len(got)} seeds){f', differ: {bad}' if bad else ''}")


def check_traced(golden):
    layers = {}
    for name in WORKLOADS:
        sample = spawn("traced", name, seeds_for(name, 0), time.monotonic() + 170)
        check(sample["restored"], f"{name}: tracer restores every wrapped attribute")
        for r in sample["runs"]:
            want = golden[name]["pool"][str(r["seed"])]
            check(r["traced_digest"] == want == r["digest"],
                  f"{name} seed {r['seed']}: traced and later untraced reports match golden")
            overhead = r["traced_run_s"] - r["run_s"]
            check(abs(r["self_sum_s"] - r["traced_run_s"]) <= max(overhead, 0.0),
                  f"{name} seed {r['seed']}: self times sum {r['self_sum_s']:.4f} s, traced "
                  f"run_s {r['traced_run_s']:.4f} s, overhead {overhead:.4f} s")
            stray = [s for s in r["span_names"] if s.split(".")[0] not in LAYERS]
            check(not stray, f"{name} seed {r['seed']}: every span is in a layer {stray or ''}")
        layers[name] = sample["runs"][0]["layers"]
    m, h, p = layers["migrate_2000"], layers["hold_10g"], layers["pinned_rss"]
    check(m["host.scheduler_s"] > 0 and p["host.scheduler_s"] == 0,
          "host.scheduler_s is nonzero on migrate_2000 and zero on pinned_rss")
    check(all(v == 0 for k, v in p.items() if k.startswith("flowtable.")),
          "flowtable.* is zero on pinned_rss")
    check(h["flowtable.held"] > 100 * m["flowtable.held"],
          f"flowtable.held on hold_10g ({h['flowtable.held']}) exceeds 100x migrate_2000's "
          f"({m['flowtable.held']})")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    golden = load_golden()
    check_metric_names(bench)
    check_traced(golden)
    check_digests(golden)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
