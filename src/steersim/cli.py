"""Batch scenario runner and report comparison.

`steersim run scenario.json` executes one or more seeded runs and writes
runs.csv (one row per run), aggregate.csv (mean and sample stddev per
metric), summary.txt and manifest.json into the output directory. With
`--jobs N` the seeds run in up to N worker processes; every output is the
same as with one.
`steersim compare A B` diffs two aggregate reports produced from the same
scenario (override axes excluded from the identity hash).
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

from .metrics import aggregate_rows, format_value, rows_to_csv, summary_text
from .runner import report_rows
from .workload import RULES, Scenario, ScenarioError

def scenario_hash(scenario: Scenario) -> str:
    # The CLI override axes (mode, hold timer, chain cap, seed) are excluded
    # from the identity hash so baseline-vs-variant runs remain comparable.
    d = scenario.to_dict()
    d.pop("seed", None)
    d["nic"] = dict(d["nic"])
    d["nic"].pop("mode", None)
    d["flow_table"] = dict(d["flow_table"])
    d["flow_table"].pop("t_timer_us", None)
    d["flow_table"].pop("max_list_size", None)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.mode is not None:
        scenario.nic.mode = args.mode
    if args.t_timer is not None:
        scenario.flow_table.t_timer_us = args.t_timer
    if args.max_list_size is not None:
        scenario.flow_table.max_list_size = args.max_list_size
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario.validate()


def default_out_dir(scenario: Scenario) -> Path:
    base = os.environ.get("STEERSIM_OUT", "out")
    return Path(base) / f"{scenario.name}_{scenario.nic.mode}"


def cmd_run(args) -> int:
    try:
        scenario = apply_overrides(Scenario.load(args.scenario), args)
        if scenario.kind == "worst_case" and args.repeat > 1:
            raise ValueError("--repeat must be 1 under kind 'worst_case', which is deterministic")
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) if args.out else default_out_dir(scenario)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    seeds = [scenario.seed + i for i in range(args.repeat)]
    rows = []
    try:
        for seed, row in zip(seeds, report_rows([(scenario, s) for s in seeds], args.jobs)):
            rows.append(row)
            if not args.quiet:
                print(
                    f"seed {seed}: delivered={row['delivered_data']}"
                    f" reordering={format_value(row['reordering_ratio'])}"
                    f" admitted={format_value(row['admitted_fraction'])}"
                    f" data_affinity={format_value(row['data_affinity'])}"
                )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # in this process or sent back by a --jobs worker
        print(f"error: {scenario.name} ran out of memory at seed {seeds[len(rows)]}",
              file=sys.stderr)
        return 2

    aggregates = aggregate_rows(rows)
    manifest = {
        "scenario_hash": scenario_hash(scenario),
        "scenario": scenario.to_dict(),
        "mode": scenario.nic.mode,
        "t_timer_us": scenario.flow_table.t_timer_us,
        "max_list_size": scenario.flow_table.max_list_size,
        "seeds": seeds,
    }
    outputs = {
        "runs.csv": rows_to_csv(rows),
        "aggregate.csv": rows_to_csv(aggregates),
        "summary.txt": summary_text(scenario.name, scenario.nic.mode, aggregates),
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    }
    try:
        for name, text in outputs.items():
            (out_dir / name).write_text(text)
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"wrote {out_dir}/runs.csv aggregate.csv summary.txt manifest.json")
    return 0


def _load_aggregate(run_dir: Path) -> tuple[dict, dict]:
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} holds no JSON object")
    missing = [k for k in ("scenario_hash", "mode", "t_timer_us") if k not in manifest]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(missing)}")
    with open(run_dir / "aggregate.csv", newline="") as fh:
        metrics = {row["metric"]: float(row["mean"]) for row in csv.DictReader(fh)}
    if not metrics:
        raise ValueError(f"{run_dir / 'aggregate.csv'} holds no metrics")
    return manifest, metrics


def cmd_compare(args) -> int:
    try:
        manifest_a, metrics_a = _load_aggregate(Path(args.dir_a))
        manifest_b, metrics_b = _load_aggregate(Path(args.dir_b))
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: unreadable run directory: {exc}", file=sys.stderr)
        return 2
    if manifest_a["scenario_hash"] != manifest_b["scenario_hash"]:
        print(
            "error: run directories come from different scenarios "
            f"({manifest_a['scenario_hash']} vs {manifest_b['scenario_hash']})",
            file=sys.stderr,
        )
        return 1

    label_a = f"{manifest_a['mode']}/t{manifest_a['t_timer_us']}"
    label_b = f"{manifest_b['mode']}/t{manifest_b['t_timer_us']}"
    print(f"comparing A={args.dir_a} ({label_a}) vs B={args.dir_b} ({label_b})")
    width = max(len(m) for m in metrics_a)
    for metric in metrics_a:
        if metric not in metrics_b:
            continue
        a, b = metrics_a[metric], metrics_b[metric]
        delta = b - a
        direction = "equal" if delta == 0 else ("higher" if delta > 0 else "lower")
        print(
            f"{metric:<{width}}  a={format_value(a)}  b={format_value(b)}"
            f"  delta={format_value(delta)}  b_is={direction}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steersim",
        description="NIC receive-steering simulator: scenario runner and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--mode", choices=RULES["nic.mode"],
                       help="override the NIC steering mode")
    run_p.add_argument("--t-timer", type=float, dest="t_timer", metavar="US",
                       help="override the transition hold timer (microseconds)")
    run_p.add_argument("--max-list-size", type=int, dest="max_list_size",
                       help="override the collision chain cap")
    run_p.add_argument("--seed", type=int, help="override the base seed")
    run_p.add_argument("--repeat", type=int, default=1,
                       help="number of runs, seeded seed, seed+1, ...")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the runs (default 1: run in this process)")
    run_p.add_argument("--out", help="output directory (default $STEERSIM_OUT/<name>_<mode>)")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="diff two run directories")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("repeat", "jobs"):
        if getattr(args, flag, 1) < 1:
            print(f"error: --{flag} must be at least 1", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
