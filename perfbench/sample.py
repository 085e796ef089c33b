"""One benchmark sample, run by run.py in a fresh single-threaded process.

    python3 sample.py {reference|setup|timed|traced} WORKLOAD SEED[,SEED...]

Prints one JSON object on stdout. `reference` times a fixed kernel that
shares no code with steersim; run.py runs it just before each sample and
scales times by it, to cancel the host's drifting CPU speed. It gets a
process of its own so that it cannot raise the sample's peak RSS and the
sample's heap cannot slow it. `setup` only imports, loads and builds the
first Engine. `timed` then runs each seed with nothing wrapped. `traced`
runs each seed under the span tracer, restores every wrapped function, and
runs the same seeds again untraced for the overhead ratio and the check that
tracing left no trace in the reports.
"""

import json
import resource
import sys
import time

from common import ROOT, WORKLOADS, row_digest
from tracer import LAYERS, Tracer


def load(workload):
    from steersim import Scenario

    spec = WORKLOADS[workload]
    scenario = Scenario.load(ROOT / spec["scenario"])
    if spec["mode"] is not None:
        scenario.nic.mode = spec["mode"]
    return scenario


def reference_kernel(n=60_000):
    """CPU seconds of a fixed pure-Python loop: heap, closures, dict."""
    import heapq

    c = time.process_time()
    heap, counts = [], {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 10007, i, lambda i=i: i))
    while heap:
        t, _, f = heapq.heappop(heap)
        counts[t & 1023] = counts.get(t & 1023, 0) + f()
    return time.process_time() - c


def run_one(engine, out):
    """Run and digest one engine, timing it in wall and CPU seconds; a
    raised error is recorded, not fatal."""
    clock = time.perf_counter
    t = clock()
    c = time.process_time()
    try:
        result = engine.run()
    except Exception as exc:  # counted as a report mismatch by run.py
        out.update(error=repr(exc), digest=None)
        return None
    out["run_s"] = clock() - t
    out["run_cpu_s"] = time.process_time() - c
    out["generated"] = result.report.generated_data
    out["digest"] = row_digest(result.report.to_row())
    return result


def timed(scenario, first, seeds):
    from steersim import Engine

    runs = []
    for k, seed in enumerate(seeds):
        engine = first if k == 0 else Engine(scenario, seed)
        rec = {"seed": seed}
        run_one(engine, rec)
        runs.append(rec)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"runs": runs, "peak_rss_mb": peak_kib / 1024.0}


def layer_metrics(st, engine, result):
    """Per-layer metrics of one traced run; simulated counts come from the
    report, host times from the spans."""
    rep = result.report
    offered = sum(q["queued"] + q["dropped"] for q in rep.queue_stats.values())
    queue_for_calls = st.n("rss.queue_for")
    ph = st.phases
    m = {
        "simkernel.heap_at_start": st.counters.get("simkernel.heap_at_start", 0),
        "simkernel.self_s": st.layer_self("simkernel"),
        "simkernel.scheduled": st.n("simkernel.schedule"),
        "simkernel.events": engine.sim.fired_total,
        "runner.schedule_s": ph["pre_loop"],
        "runner.collect_s": ph["collect"],
        "host.scheduler_s": st.t("host.scheduler_tick") + st.t("host.force_alternate"),
        "host.scheduler_calls": st.n("host.scheduler_tick") + st.n("host.force_alternate"),
        "host.migrations": rep.migrations,
        "host.event_self_s": st.s("host.event") + st.s("host.on_interrupt"),
        "host.interrupts": engine.host.stats.interrupts_serviced,
        "host.process_context_fraction": rep.process_context_fraction,
        "flowtable.steer_s": st.s("flowtable.steer"),
        "flowtable.direct": st.counters.get("flowtable.direct", 0),
        "flowtable.held": st.counters.get("flowtable.held", 0),
        "flowtable.fallback": st.counters.get("flowtable.fallback", 0),
        "flowtable.observe_tx_s": st.s("flowtable.observe_tx"),
        "flowtable.transitions": rep.transitions,
        "flowtable.conntrack_s": st.s("flowtable.on_rx_connection_tracking")
        + st.s("flowtable.note_tx_packet"),
        "flowtable.age_s": st.s("flowtable.age"),
        "flowtable.admit_ratio": rep.admitted / rep.handshakes if rep.handshakes else 0.0,
        "nic.rx_self_s": st.s("nic.rx"),
        "nic.tx_self_s": st.s("nic.tx"),
        "nic.flush_s": st.s("nic.on_hold_timer"),
        "nic.flushed_packets": len(result.hold_delays),
        "nic.drop_ratio": rep.drops / offered if offered else 0.0,
        "nic.ring_max_depth": max(q["max_depth"] for q in rep.queue_stats.values()),
        "rss.hash_calls": st.n("rss.toeplitz_hash"),
        "rss.queue_for_calls": queue_for_calls,
        "rss.cache_hit_ratio": (
            1.0 - st.n("rss.toeplitz_hash") / queue_for_calls if queue_for_calls else 0.0
        ),
        "rss.s": st.t("rss.queue_for"),
        "workload.spawn_s": st.t("workload.spawn_streams"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = st.layer_self(layer)
    return m


def traced(scenario, seeds):
    from steersim import Engine, metrics
    from steersim.simkernel import Simulator

    clock = time.perf_counter
    tracer = Tracer().install()
    runs, results = [], []
    for seed in seeds:
        engine = Engine(scenario, seed)
        tracer.reset()
        t = clock()
        try:
            result = engine.run()
        except Exception as exc:  # counted as a report mismatch by run.py
            runs.append({"seed": seed, "error": repr(exc), "traced_digest": None})
            continue
        traced_s = clock() - t
        st = tracer.stats()
        rec = {
            "seed": seed,
            "traced_run_s": traced_s,
            "self_sum_s": sum(st.self_time.values()),
            "span_names": sorted(st.count),
            "layers": layer_metrics(st, engine, result),
            "traced_digest": row_digest(result.report.to_row()),
        }
        runs.append(rec)
        results.append(result)

    # The report step over the sample's rows: to_row, CSV, aggregate.
    tracer.reset()
    rows = [r.report.to_row() for r in results]
    metrics.rows_to_csv(rows)
    metrics.aggregate_rows(rows)
    st = tracer.stats()
    report_s = st.t("metrics.to_row") + st.t("metrics.rows_to_csv") + st.t("metrics.aggregate_rows")
    del results, rows
    tracer.uninstall()

    # Untraced pass over the same seeds; only the loop is timed, by one
    # clock pair per run, to give events per second.
    run_until = Simulator.run_until
    loop_s = []

    def timed_loop(sim, t_end):
        t = clock()
        try:
            return run_until(sim, t_end)
        finally:
            loop_s.append(clock() - t)

    Simulator.run_until = timed_loop
    try:
        for rec in runs:
            engine = Engine(scenario, rec["seed"])
            run_one(engine, rec)
            if "run_s" in rec and "layers" in rec:
                rec["layers"]["simkernel.events_per_s"] = engine.sim.fired_total / loop_s[-1]
    finally:
        Simulator.run_until = run_until
    return {
        "runs": runs,
        "report_s": report_s,
        "restored": tracer.restored(),
    }


def main(argv):
    mode, workload, seed_list = argv
    seeds = [int(s) for s in seed_list.split(",")]
    if mode == "reference":
        print(json.dumps({"reference_s": reference_kernel()}))
        return
    t0 = time.perf_counter()
    c0 = time.process_time()
    from steersim import Engine

    scenario = load(workload)
    first = Engine(scenario, seeds[0])
    out = {"setup_s": time.perf_counter() - t0, "setup_cpu_s": time.process_time() - c0}
    if mode == "timed":
        out.update(timed(scenario, first, seeds))
    elif mode == "traced":
        del first
        out.update(traced(scenario, seeds))
    elif mode != "setup":
        raise SystemExit(f"unknown sample mode {mode!r}")
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
