"""Arithmetic of the end-to-end benchmark, kept apart so it can be tested.

Everything here is pure: percentiles by the tail rule, span self time, the
open loop's backlog-growth test, step validity and the max-rate search,
and the hardware/build fingerprint comparison.
"""

import math

# A tail percentile is reported only with at least this many samples
# beyond it; the candidates are the percentiles the metrics are named for.
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.0, 90.0, 50.0)

# Fingerprint fields that must match for two results to be comparable.
FINGERPRINT_KEYS = ("nproc", "cpu_model", "sha_ni", "avx2", "avx512f",
                    "compiler", "build_type")


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND
    samples beyond it, or None when n is too small for any."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median and tail of a sample list, with the count and the tail
    percentile used."""
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50) if n else None}
    p = tail_percentile(n)
    out["tail_p"] = p
    out["tail"] = percentile(values, p) if p is not None else None
    return out


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (children clipped to the parent; overlapping
    children, e.g. from parallel threads, count once).

    `spans` holds (id, parent, name, request, start, end) tuples. Returns
    {id: self_time}.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] in by_id:
            children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for sid, s in by_id.items():
        start, end = s[4], s[5]
        clipped = [(max(a, start), min(b, end))
                   for a, b in children.get(sid, ()) if min(b, end) > max(a, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out


def layer_totals(spans):
    """{name: (self_time_sum, count, [durations])} over all spans."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s[2], [0, 0, []])
        t[0] += selfs[s[0]]
        t[1] += 1
        t[2].append(s[5] - s[4])
    return {k: tuple(v) for k, v in totals.items()}


def backlog_grows(times, depths, min_growth, rel_growth):
    """True when the backlog rises over a step: the mean depth of the last
    third of the samples exceeds the first third's by more than
    max(min_growth, rel_growth * first-third mean). Fewer than six samples
    cannot show a trend."""
    if len(depths) != len(times):
        raise ValueError("times and depths differ in length")
    n = len(depths)
    if n < 6:
        return False
    paired = sorted(zip(times, depths))
    third = n // 3
    first = sum(d for _, d in paired[:third]) / third
    last = sum(d for _, d in paired[-third:]) / third
    return last - first > max(min_growth, rel_growth * first)


def generator_on_time(late_ms, late_limit_ms):
    """A step is valid when the generator issued its arrivals on schedule:
    the 99th-percentile lateness stays within the limit."""
    return not late_ms or percentile(late_ms, 99) <= late_limit_ms


def step_passes(step, limit_ms):
    """A valid step passes when nothing was shed, the tail latency (a shed
    counts as missing the limit) is within the limit and the backlog did
    not grow."""
    return (step["shed"] == 0 and step["tail_ms"] is not None
            and step["tail_ms"] <= limit_ms and not step["grows"])


def max_rate(steps, limit_ms):
    """Highest ladder rate that passes, scanning rates upwards and stopping
    at the first valid step that fails. Steps where the generator fell
    behind are invalid and neither pass nor fail. Returns None when no
    step passes."""
    best = None
    for step in sorted(steps, key=lambda s: s["rate"]):
        if not step["valid"]:
            continue
        if not step_passes(step, limit_ms):
            break
        best = step["rate"]
    return best


def fingerprint_mismatch(a, b):
    """Fingerprint fields on which two results differ (empty = comparable)."""
    return [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]


def compare(base, new):
    """Compares two result records metric by metric. The comparison is
    flagged, never silently made, when their fingerprints differ."""
    mismatch = fingerprint_mismatch(base["fingerprint"], new["fingerprint"])
    rows = []
    for name, m in sorted(base["metrics"].items()):
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        rows.append((name, m["unit"], a, b, (b - a) / a if a else None))
    return {"fingerprint_mismatch": mismatch, "rows": rows}
