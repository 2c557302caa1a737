"""Summary math for the end-to-end benchmark.

Turns the raw JSON written by perfbench_e2e (per-step samples, counters,
spans) into the metrics named in BENCHMARK.json, and validates the result
line run.py prints.  Everything here is plain Python so the self-tests in
test_summary.py run without building anything.
"""

import math
import statistics

# The metric catalogue: name -> unit.  BENCHMARK.json lists the same names;
# test_summary.py checks that the two agree.
END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "throughput_MBps": "MB/s",
    "peak_rss_mb": "MiB",
    "lowlevel_ratio": "ratio",
}

PER_LAYER = {
    # Demoted from the end-to-end list: its run-to-run spread on kmeans_d64
    # (0.21 over ten seeds) exceeded the bound wall-time metrics can hold.
    "makespan_s": "s",
    "sim.step_ms": "ms",
    "core.run_ms": "ms",
    "core.run_other_ms": "ms",
    "core.reduction_s": "s",
    "core.ns_per_element": "ns",
    "core.local_combine_s": "s",
    "core.global_combine_s": "s",
    "core.codec_s": "s",
    "core.map_merges": "count",
    "core.map_serializes": "count",
    "core.peak_reduction_objects": "count",
    "core.early_emissions": "count",
    "analytics.flops": "count",
    "analytics.bytes": "B",
    "analytics.gflops": "GFLOP/s",
    "threading.worker_skew": "ratio",
    "threading.feed_block_ms": "ms",
    "threading.consumer_wait_ms": "ms",
    "threading.queue_depth": "count",
    "simmpi.bytes_per_step": "B",
    "simmpi.wire_bytes": "B",
    "simmpi.payload_bytes_copied": "B",
    "simmpi.send_stall_s": "s",
    "simmpi.barrier_wait_ms": "ms",
    "common.pool_hit_ratio": "ratio",
    "common.pool_acquires": "count",
    "baselines.lowlevel_step_ms": "ms",
    "self.sim_ms": "ms",
    "self.core_run_ms": "ms",
    "self.barrier_ms": "ms",
    "self.feed_ms": "ms",
    "self.consumer_wait_ms": "ms",
    "self.baseline_ms": "ms",
    "trace.unlabelled_share": "ratio",
    "trace.overhead_ms": "ms",
    "trace.traced_steps": "count",
    "trace.untraced_steps": "count",
    "trace.spans": "count",
}

# Span name -> the self.* metric its self time is reported under.  The
# root "step" span is tiled by its children, so its self time is not one.
SELF_TIME_METRIC = {
    "sim.step": "self.sim_ms",
    "core.run": "self.core_run_ms",
    "simmpi.barrier": "self.barrier_ms",
    "threading.feed": "self.feed_ms",
    "threading.consumer_wait": "self.consumer_wait_ms",
    "baselines.lowlevel": "self.baseline_ms",
}

# A timing is reported as its median and the highest percentile with at
# least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

# Step and rate metrics are the median over consecutive blocks of the
# timed steps, each long enough for its own p90.  A stretch of a few
# seconds in which the host runs everything slower lands in a minority of
# blocks and does not move the median; a slow step that the code causes
# recurs in every block and does.
BLOCK_STEPS = 100
MAX_BLOCKS = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th
    percentile."""
    return n - math.ceil(q * n)


def require_percentile(n, q):
    """Raises unless the q-th percentile of n samples has enough samples
    beyond it to be reported."""
    beyond = samples_beyond(n, q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}")


def blocks(values):
    """Splits per-step samples into consecutive blocks of at least
    BLOCK_STEPS (one block if there are fewer), at most MAX_BLOCKS."""
    n = len(values)
    count = max(1, min(MAX_BLOCKS, n // BLOCK_STEPS))
    return [values[i * n // count:(i + 1) * n // count] for i in range(count)]


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them: the run-to-run spread a bound is judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def paired_ratio(numerators, denominators):
    """Median over pairs of numerator / denominator, with its bases: the
    median of each side and the pair count.  Each pair is measured moments
    apart, so drift in host speed cancels, which a ratio of two medians
    would keep."""
    if not numerators or len(numerators) != len(denominators):
        raise ValueError("need equally many numerators and denominators")
    if any(d == 0 for d in denominators):
        raise ValueError("ratio with a zero base")
    return {"value": median([n / d for n, d in zip(numerators, denominators)]),
            "numerator": median(numerators), "denominator": median(denominators),
            "pairs": len(numerators)}


def self_times(lanes, rank=0):
    """Per-span-name self time summed over the traced steps of `rank`:
    a span's duration minus the part its child spans cover (children of
    one span never overlap)."""
    totals = {}
    for lane in lanes:
        if lane["rank"] != rank:
            continue
        spans = lane["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, step in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, step) in enumerate(spans):
            if step < 0:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


def _split_steps(raw, key="step_s"):
    traced = raw.get("traced") or [0] * len(raw[key])
    on = [s for s, t in zip(raw[key], traced) if t]
    off = [s for s, t in zip(raw[key], traced) if not t]
    return on, off


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus the bases and
    sample counts they were computed from."""
    _, steps = _split_steps(raw)
    _, intervals = _split_steps(raw, "interval_s")
    step_blocks = blocks(steps)
    for block in step_blocks:
        require_percentile(len(block), 0.9)
    lowlevel = paired_ratio(raw["smart_call_s"], raw["baseline_call_s"])
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "step_ms_p50": median([median(b) for b in step_blocks]) * 1e3,
        "step_ms_p90": median([percentile(b, 0.9) for b in step_blocks]) * 1e3,
        "throughput_MBps": median([len(b) * raw["bytes_per_step"] / sum(b)
                                   for b in blocks(intervals)]) / 1e6,
        "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
        "lowlevel_ratio": lowlevel["value"],
    }
    bases = {
        "step_samples": len(steps),
        "step_blocks": len(step_blocks),
        "block_samples_beyond_p90": min(samples_beyond(len(b), 0.9) for b in step_blocks),
        "setup_samples": len(raw["setup_s"]),
        "bytes_per_step": raw["bytes_per_step"],
        "timed_wall_s": sum(intervals),
        "lowlevel_ratio": {"smart_ms": lowlevel["numerator"] * 1e3,
                           "lowlevel_ms": lowlevel["denominator"] * 1e3,
                           "pairs": lowlevel["pairs"]},
    }
    return metrics, bases


def per_layer(raw, spans=None):
    """The per-layer metrics of a traced run.  A layer absent from the
    workload's path reports 0."""
    c = raw["counters"]
    samples = raw["samples"]
    steps = raw["steps"]

    def runstat(name):
        return c.get("runstats." + name, 0.0)

    def med_ms(name):
        values = samples.get(name)
        return median(values) * 1e3 if values else 0.0

    reduction_per_step = runstat("reduction_seconds") / steps
    elements = runstat("elements_processed")
    flops = c.get("analytics.flops_per_step", 0.0)
    hits = c.get("common.pool_hits", 0.0)
    acquires = hits + c.get("common.pool_misses", 0.0)
    depth = samples.get("threading.queue_depth")
    # Wall of run()/run2() once its input is there (run2 in space sharing
    # starts by waiting for its step to be fed) that no RunStats phase
    # accounts for: map distribution, output conversion, pool dispatch,
    # wake-ups, and time the phase timers' threads were not running.
    phases_s = sum(runstat(f) for f in ("reduction_seconds", "combination_seconds",
                                          "global_seconds"))
    unlabelled_s = sum(samples["core.analysis_s"]) - phases_s
    metrics = {
        "makespan_s": raw["vmakespan_s"],
        "sim.step_ms": med_ms("sim.step_s"),
        "core.run_ms": med_ms("core.run_s"),
        "core.run_other_ms": unlabelled_s / steps * 1e3,
        "core.reduction_s": reduction_per_step,
        "core.ns_per_element": runstat("reduction_seconds") / elements * 1e9 if elements else 0.0,
        "core.local_combine_s": runstat("combination_seconds") / steps,
        "core.global_combine_s": runstat("global_seconds") / steps,
        "core.codec_s": runstat("codec_seconds") / steps,
        "core.map_merges": runstat("map_merges") / steps,
        "core.map_serializes": runstat("map_serializes") / steps,
        "core.peak_reduction_objects": runstat("peak_reduction_objects"),
        "core.early_emissions": runstat("early_emissions") / steps,
        "analytics.flops": flops,
        "analytics.bytes": c.get("analytics.bytes_per_step", 0.0),
        "analytics.gflops": flops / reduction_per_step / 1e9 if reduction_per_step else 0.0,
        "threading.worker_skew": runstat("worker_skew"),
        "threading.feed_block_ms": med_ms("threading.feed_s"),
        "threading.consumer_wait_ms": med_ms("threading.consumer_wait_s"),
        "threading.queue_depth": statistics.fmean(depth) if depth else 0.0,
        "simmpi.bytes_per_step": c.get("simmpi.bytes_sent", 0.0) / steps,
        "simmpi.wire_bytes": runstat("wire_bytes") / steps,
        "simmpi.payload_bytes_copied": c.get("simmpi.payload_bytes_copied", 0.0) / steps,
        "simmpi.send_stall_s": c.get("simmpi.send_stall_s", 0.0),
        "simmpi.barrier_wait_ms": med_ms("simmpi.barrier_s"),
        "common.pool_hit_ratio": hits / acquires if acquires else 0.0,
        "common.pool_acquires": acquires / steps,
        "baselines.lowlevel_step_ms": median(raw["baseline_call_s"]) * 1e3,
        # Outside run() the benchmark's own spans (sim.step, feed, the
        # barrier) and, in space sharing, the time a fed step waits for
        # run2 to pick it up tile the step; inside it the RunStats phases
        # label the time.  Measured over every timed step, so it does not
        # depend on which steps carried spans.
        "trace.unlabelled_share": unlabelled_s / sum(raw["step_s"]),
    }
    on, off = _split_steps(raw)
    metrics["trace.traced_steps"] = len(on)
    metrics["trace.untraced_steps"] = len(off)
    metrics["trace.overhead_ms"] = (median(on) - median(off)) * 1e3 if on and off else 0.0
    for name in SELF_TIME_METRIC.values():
        metrics[name] = 0.0
    metrics["trace.spans"] = 0
    if spans is not None:
        lanes = spans["lanes"]
        metrics["trace.spans"] = sum(len(lane["spans"]) for lane in lanes)
        for name, seconds in self_times(lanes).items():
            key = SELF_TIME_METRIC.get(name)
            if key is not None and on:
                metrics[key] += seconds / len(on) * 1e3
    return metrics


def result_line(correct, attempted, failed, metrics, units):
    """The object run.py prints as its last line."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


def validate_result(obj, names):
    """Raises ValueError unless `obj` is a well-formed result line whose
    metrics are exactly `names`."""
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(f"{key} must be a non-negative whole number")
    if obj["attempted"] < 1 or obj["failed"] > obj["attempted"]:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(names):
        raise ValueError("metrics must be exactly " + ", ".join(sorted(names)))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ValueError(f"{name}: need exactly value and unit")
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"{name}: value must be a finite number")
        if not isinstance(entry["unit"], str) or not entry["unit"]:
            raise ValueError(f"{name}: unit must be a non-empty string")
