"""Reduction of the driver's raw samples to the reported metrics.

The C++ driver (driver.cc) records raw facts: set-up times, one entry per
attempted operation, quality figures, per-layer counters and, in traced
runs, a span log. Everything statistical happens here so it can be tested
without building the program.
"""

import json
import math
import statistics

# Percentiles considered for a tail figure, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def rank(n, pct):
    """1-based nearest-rank position of percentile `pct` among n samples."""
    return max(1, math.ceil(n * pct / 100.0))


def percentile(values, pct):
    """Nearest-rank percentile of `values` (non-empty)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_SAMPLES_BEYOND of n
    samples above it, or None when even the median has too few."""
    for pct in TAIL_CANDIDATES:
        if n - rank(n, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def summarize_ops(ops):
    """Failure accounting over attempted operations.

    Every attempted operation counts once; one that returned a non-OK status
    or failed its output check counts as failed and contributes no latency
    sample. Returns (attempted, failed, failed_op_share, ok walls by kind).
    """
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    walls = {}
    for op in ops:
        if op["ok"]:
            walls.setdefault(op["kind"], []).append(op["wall_s"])
    share = failed / attempted if attempted else 1.0
    return attempted, failed, share, walls


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval that its child spans cover (overlapping children count once,
    child time outside the parent's interval not at all)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        clipped = sorted((max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                         for c in children.get(s["id"], []))
        for a, b in clipped:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def root_of(spans_by_id, span):
    while span["parent"] >= 0:
        span = spans_by_id[span["parent"]]
    return span


def per_root_seconds(spans, name, root_name):
    """Seconds spent in spans called `name`, summed per root span called
    `root_name` (one entry per such root, zero when it has none)."""
    by_id = {s["id"]: s for s in spans}
    sums = {s["id"]: 0 for s in spans
            if s["parent"] < 0 and s["name"] == root_name}
    for s in spans:
        if s["name"] != name:
            continue
        root = root_of(by_id, s)
        if root["id"] in sums:
            sums[root["id"]] += s["end_ns"] - s["start_ns"]
    return [v / 1e9 for v in sums.values()]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end(raw):
    """End-to-end metrics of an untraced run."""
    _, _, _, walls = summarize_ops(raw["ops"])
    latency = walls.get(raw["latency_op"], [])
    through = [op for op in raw["ops"]
               if op["ok"] and op["kind"] == raw["throughput_op"]]
    if raw["throughput_reduce"] == "total":
        wall = sum(op["wall_s"] for op in through)
        rows_per_s = sum(op["rows"] for op in through) / wall if wall else 0.0
    else:
        med = statistics.median([op["wall_s"] for op in through]) if through \
            else 0.0
        rows_per_s = raw["rows"] / med if med else 0.0
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_ms": statistics.median(latency) * 1e3 if latency else 0.0,
        "clean_rows_per_s": rows_per_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "repair_quality": 1.0 - raw["quality"]["residual"],
    }


# Per-layer metrics measured by spans: name -> (span name, root span name).
SPAN_LAYERS = {
    "data.load_s": ("data.load", "setup"),
    "data.encode_s": ("data.encode", "data.encode"),
    "repair.pass_s": ("repair.pass", "repair.pass"),
    "repair.hypergraph_cc_s": ("repair.hypergraph_cc", "repair.hypergraph_cc"),
    "stream.append_s": ("stream.append", "window"),
    "stream.retract_s": ("stream.retract", "window"),
    "stream.poll_s": ("stream.poll", "window"),
    "stream.flush_s": ("stream.flush", "final"),
}


def per_layer(raw, spans, names):
    """Per-layer metrics `names` of a traced run; a layer the workload does
    not exercise reads 0."""
    out = {name: float(raw["layers"].get(name, 0.0)) for name in names}
    for metric, (name, root) in SPAN_LAYERS.items():
        values = per_root_seconds(spans, name, root)
        if values:
            out[metric] = mean(values)

    # Benchmark-side time inside a measured operation but outside every
    # program call (copies, bookkeeping).
    own = self_times(spans)
    roots = [s for s in spans
             if s["parent"] < 0 and s["name"] in ("rep", "window")]
    out["trace.driver_self_s"] = mean([own[s["id"]] / 1e9 for s in roots])

    # Traced and untraced operations alternate; their median ratio is the
    # cost of the spans themselves.
    kind = raw["latency_op"]
    traced = [op["wall_s"] for op in raw["ops"]
              if op["ok"] and op["kind"] == kind and op["traced"]]
    untraced = [op["wall_s"] for op in raw["ops"]
                if op["ok"] and op["kind"] == kind and not op["traced"]]
    if traced and untraced:
        out["trace.overhead_ratio"] = (statistics.median(traced) /
                                       statistics.median(untraced))

    if kind == "window":
        _, _, _, walls = summarize_ops(raw["ops"])
        windows = walls.get("window", [])
        out["stream.windows"] = float(len(windows))
        pct = tail_percentile(len(windows))
        if pct is not None:
            out["stream.window_tail_pct"] = pct
            out["stream.window_tail_ms"] = percentile(windows, pct) * 1e3

    out["quality.precision"] = raw["quality"]["precision"]
    out["quality.recall"] = raw["quality"]["recall"]
    return out


def load_spans(path):
    with open(path) as f:
        return json.load(f)
