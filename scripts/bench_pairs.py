#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs on this machine.

    python3 scripts/bench_pairs.py BASE [--workload W ...] [--pairs N] [--seconds S]

Extracts the files committed at BASE and at HEAD with `git archive` into a
temporary directory, so each side runs its committed files from a fresh
tree and nothing under .git changes. For k in 0..N-1 and
each workload (default: every workload of BENCHMARK.json) it runs
`perfbench/run.py --workload W --seed k --seconds S --trace 0` in both
trees, BASE first at even k and HEAD first at odd k, so drift in the
machine's speed falls on both sides alike. Each result file is copied
away as soon as it is written, to bench_results/BASE-HEAD/BASE/ and
.../HEAD/ (short hashes), the directories `perfbench/compare.py` takes;
a new run for the same two commits replaces them.

Pair k sets BASE's run at --seed k against HEAD's. For each workload and
end-to-end metric, `BENCH_<base>.json` and `BENCH_<head>.json` at the
repository root hold the median of the N runs, their quartiles and n,
with the host keys that compare.py checks; the head file adds how many
pairs HEAD won and tied. Last, the script prints the table CHANGES.md
uses: BASE's median [quartiles] -> HEAD's median (change, pairs won).
A benchmark run that fails stops the script; the copied results stay.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench_results"
# Metadata that must agree for host times to be comparable; compare.py's.
HOST_KEYS = ("python", "implementation", "machine", "nproc")


class PairsError(Exception):
    pass


def git(*args, cwd=ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise PairsError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def extract(rev: str, tree: Path, repo: Path = ROOT):
    """Write the files committed at `rev` in the repository `repo` into the
    new directory `tree`."""
    archive = tree.with_name(tree.name + ".tar")
    git("archive", "--format=tar", "-o", str(archive), rev, cwd=repo)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()


def quartiles(values):
    """(q1, median, q3), as compare.py's spread computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_runs(directory: Path) -> dict:
    """The result files run.py wrote, in `directory`, by (workload, --seed)."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs[result["meta"]["workload"], result["meta"]["bench_seed"]] = result
    return runs


def summarize(base_runs: dict, head_runs: dict, end_to_end: list) -> tuple:
    """The two BENCH bodies and the table from paired results.

    `base_runs` and `head_runs` are `load_runs` maps; `end_to_end` is
    BENCHMARK.json's list. Only pairs with both sides count."""
    hosts = {tuple(r["meta"][key] for key in HOST_KEYS)
             for r in [*base_runs.values(), *head_runs.values()]}
    if len(hosts) != 1:
        raise PairsError(f"results come from different hosts or interpreters: {sorted(hosts)}")
    host = dict(zip(HOST_KEYS, hosts.pop()))
    base_body, head_body, rows = {}, {}, []
    for workload in sorted({w for w, _ in base_runs}):
        pairs = sorted(k for w, k in base_runs if w == workload and (w, k) in head_runs)
        base_w, head_w, cells = {}, {}, []
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            a = [base_runs[workload, k]["metrics"][name]["value"] for k in pairs]
            b = [head_runs[workload, k]["metrics"][name]["value"] for k in pairs]
            won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            tied = sum(x == y for x, y in zip(a, b))
            base_w[name], head_w[name] = (
                dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v), unit=metric["unit"])
                for v in (a, b))
            head_w[name].update(won=won, tied=tied)
            cells.append(cell(base_w[name], head_w[name]))
        base_body[workload], head_body[workload] = base_w, head_w
        rows.append(f"| `{workload}` | " + " | ".join(cells) + " |")
    header = ("| workload | " + " | ".join(f"`{m['name']}`" for m in end_to_end) + " |\n"
              "| --- |" + " --- |" * len(end_to_end))
    return ({"host": host, "workloads": base_body}, {"host": host, "workloads": head_body},
            "\n".join([header, *rows]))


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def cell(base: dict, head: dict) -> str:
    n, won, tied = head["n"], head["won"], head["tied"]
    before = f"{fmt(base['median'])} [{fmt(base['q1'])}, {fmt(base['q3'])}]"
    if tied == n:
        return f"{before} -> {fmt(head['median'])} ({n} tied)"
    change = (head["median"] / base["median"] - 1) * 100 if base["median"] else 0.0
    return f"{before} -> {fmt(head['median'])} ({change:+.1f} %, {won}/{n})"


def bench(tree: Path, workload: str, k: int, seconds: float, dest: Path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(k),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise PairsError(f"{' '.join(cmd[1:])} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    written = tree / "perfbench" / "results" / f"{workload}-seed{k}-trace0.json"
    shutil.copy2(written, dest)


def main(argv=None) -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE", help="commit to compare HEAD against")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench_spec["workloads"]],
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench_spec["workloads"]]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = [git("rev-parse", "--short", rev) for rev in (f"{args.base}^{{commit}}", "HEAD")]
    if sides[0] == sides[1]:
        parser.error("BASE is HEAD")
    out = OUT_DIR / "-".join(sides)
    shutil.rmtree(out, ignore_errors=True)
    for side in sides:
        (out / side).mkdir(parents=True)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, tree in trees.items():
            extract(side, tree)
        for k in range(args.pairs):
            order = sides if k % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side in order:
                    print(f"pair {k}: {workload} at {side}", file=sys.stderr, flush=True)
                    bench(trees[side], workload, k, args.seconds,
                          out / side / f"{workload}-seed{k}.json")

    base_body, head_body, table = summarize(load_runs(out / sides[0]), load_runs(out / sides[1]),
                                            bench_spec["end_to_end"])
    common = {"pairs": args.pairs, "seconds": args.seconds, "results": str(out.relative_to(ROOT))}
    for side, role, body in ((sides[0], "base", base_body), (sides[1], "head", head_body)):
        body = {"commit": side, "role": role, "base": sides[0], "head": sides[1],
                **common, **body}
        (ROOT / f"BENCH_{side}.json").write_text(json.dumps(body, indent=1) + "\n")
    print(table)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
