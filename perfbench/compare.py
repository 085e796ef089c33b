"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by run.py, or directories of them
(perfbench/results/ after a set of runs). Files are grouped by workload and
trace flag, and each metric's median is compared. An end-to-end metric is
"worse" when NEW's median is worse than OLD's by more than its bound in
BENCHMARK.json, and "unresolved" when OLD's own spread (distance between the
quartiles over its median) is wider than the bound. Refuses, with exit code
2, files from different interpreters or machines.
"""

import json
import statistics
import sys
from pathlib import Path

from common import ROOT

# Metadata that must agree for host times to be comparable.
HOST_KEYS = ("python", "implementation", "machine", "nproc")


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def group(results):
    out = {}
    for r in results:
        key = (r["meta"]["workload"], r["meta"]["traced"])
        out.setdefault(key, []).append(r["metrics"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    hosts = {tuple(r["meta"][k] for k in HOST_KEYS) for r in old + new}
    if len(hosts) != 1:
        print("error: results come from different hosts or interpreters:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    old_g, new_g = group(old), group(new)
    for key in sorted(old_g.keys() & new_g.keys()):
        print(f"== {key[0]} ({'traced' if key[1] else 'untraced'}): "
              f"{len(old_g[key])} old vs {len(new_g[key])} new runs")
        for name, m in spec.items():
            a = [r[name]["value"] for r in old_g[key] if name in r]
            b = [r[name]["value"] for r in new_g[key] if name in r]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            verdict = ""
            if "bound" in m:
                better_all = all(sign * (y - x) < 0 for x in a for y in b)
                if spread(a) > m["bound"] and not better_all:
                    verdict = "unresolved"
                else:
                    verdict = "WORSE" if worse > m["bound"] else "ok"
            print(f"  {name:32} {ma:>12.6g} -> {mb:<12.6g} {m['unit']:6} "
                  f"{-worse:+8.2%} better  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
