"""Run one workload of the legladder benchmark and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: set-up time (median of
several fresh processes), then whole cycles of operations, closed loop
with one client, until S seconds have passed. --trace 1 runs a fixed set
of operations untraced and then traced, and reports the per-layer
metrics from the spans. Every operation's output is checked against a
reference outside the timed interval.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A result file with provenance, the per-operation
failures and (traced) the spans is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import tracer as tracing
import workloads
from harness import Tally, run_op


def timed_run(wl, seed: int, seconds: float):
    samples = [wl.setup_sample(seed) for _ in range(harness.SETUP_SAMPLES)]
    state = wl.setup(seed)
    tally = Tally()
    try:
        if wl.IN_PROCESS:
            wl.cycle(state, 0)[0].run()      # warm-up, neither timed nor counted
        cycles = harness.closed_loop(lambda k: wl.cycle(state, k), seconds, tally,
                                     wl.ERROR_CYCLES)
        rss = harness.self_peak_rss_mb() if wl.IN_PROCESS else state.peak_rss_mb
        wl.finish(state, tally)
    finally:
        wl.close(state)
    metrics = harness.end_to_end_metrics(tally, samples, rss, wl.ERROR_CYCLES)
    extra = {"setup_samples_s": samples, "cycles": cycles, "latency_samples": len(tally.latencies),
             "largest_error": max((e for e in tally.errors if e is not None), default=0.0),
             "latencies_s": tally.latencies, "kinds": tally.kinds}
    return tally, metrics, extra, None


def traced_run(wl, seed: int):
    import wl_sphere

    cpu0 = harness.cpu_seconds()
    tally = Tally()
    # The degree sweep belongs to sphere-roundtrip alone, and runs before any
    # wrapper is installed; the other workloads report its metrics as 0.
    sweep = wl_sphere.degree_sweep(seed, tally) if wl is wl_sphere else {}
    state = wl.setup(seed)
    try:
        def fixed_ops():
            return [op for k in range(wl.TRACE_CYCLES) for op in wl.cycle(state, k)]

        untraced = sum(run_op(op, tally) for op in fixed_ops())
        if wl.IN_PROCESS:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = sum(run_op(op, tally, tracer, i) for i, op in enumerate(fixed_ops()))
            totals = tracing.aggregate(tracer.spans, tracer.counts)
            spans = tracer.spans
        else:
            state.traced = True
            traced = sum(run_op(op, tally) for op in fixed_ops())
            totals, spans = wl.collect_trace(state)
        wl.finish(state, tally)
    finally:
        wl.close(state)
    totals.update(sweep)
    totals["trace.overhead_s"] = traced - untraced
    totals["process.cpu_s"] = harness.cpu_seconds() - cpu0
    extra = {"untraced_s": untraced, "traced_s": traced, "span_count": len(spans)}
    return tally, tracing.per_layer_metrics(totals), extra, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        harness.use_checkout_source()
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = workloads.get(args.workload)
    if args.trace:
        tally, metrics, extra, spans = traced_run(wl, args.seed)
    else:
        tally, metrics, extra, spans = timed_run(wl, args.seed, args.seconds)
    line = harness.result_line(tally, metrics)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    payload = {"provenance": harness.provenance(args.workload, args.seed, args.seconds,
                                                bool(args.trace), wl.SIZES),
               "result": line, "run": extra, "failures": tally.failures}
    if spans is not None:
        harness.write_result(f"{stem}-spans.json", {"fields": ["id", "parent", "name", "start",
                                                              "end", "op"], "spans": spans},
                             indent=None)
    path = harness.write_result(f"{stem}.json", payload)
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} failed; "
          f"result file {path.relative_to(harness.ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
