#!/usr/bin/env python3
"""End-to-end marketplace benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload sell --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --compare A.json B.json          # two results

Run from the repository root. The first run builds perfbench/ (which builds
the library from ../src) into $CARGO_TARGET_DIR, default .bench_build. Each
run writes its full result record (fingerprint, metrics with sample counts,
rate steps, gates) to <build>/results/ and, with --trace 1, its spans to
<build>/spans/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer ones. The exit code is 0
only when every correctness gate passed.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import benchlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sell", "trace_warm", "registry_cold")
LAYER_PREFIXES = ("data.", "core.", "analysis.", "exec.")


def fail(message, code=3):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures and builds the benchmark; exits without a result on
    failure."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("library sources not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_e2e",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "perfbench_e2e"


def source_revision():
    """The git commit when there is one, and always a digest of the sources
    the benchmark builds."""
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(HERE.rglob("*"))):
        if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".json", ".py"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return commit, digest.hexdigest()


def metric(value, unit, n=None):
    m = {"value": value, "unit": unit}
    if n is not None:
        m["n"] = n
    return m


def median(values):
    """Nearest-rank median, the same rule as every other percentile here."""
    return benchlib.percentile(values, 50) if values else None


def ms(summary, key):
    return None if summary[key] is None else summary[key] * 1e3


# --------------------------------------------------------------- analysis

def step_summary(st, ac, limit):
    """Latency, validity and pass/fail of one rate step (or of the heavy
    segments combined)."""
    # For pass/fail a shed misses the latency limit: it joins the samples as
    # infinitely late, and a percentile that lands on one reads None.
    # The reported latencies are those of the verdicts; sheds are counted.
    s = benchlib.summarize(st["latency_ms"] + [math.inf] * st["shed"])
    v = benchlib.summarize(st["latency_ms"])
    out = {
        "rate": st["rate"], "heavy": st["heavy"], "arrivals": st["arrivals"],
        "shed": st["shed"], "n": v["n"], "p50_ms": v["p50"], "tail_ms": v["tail"],
        "tail_p": v["tail_p"], "duration_s": st["duration_s"],
        "limit_tail_ms": None if s["tail"] in (None, math.inf) else s["tail"],
        "late_p99_ms": benchlib.percentile(st["late_ms"], 99) if st["late_ms"] else 0.0,
        "queue_wait_p50_ms": benchlib.percentile(st["queue_wait_ms"], 50)
                             if st["queue_wait_ms"] else 0.0,
        # Drain start to verdict: the engine's share of each suspect's time.
        "drain_p50_ms": benchlib.percentile(
            [l - q for l, q in zip(st["latency_ms"], st["queue_wait_ms"])], 50)
                        if st["latency_ms"] else 0.0,
        "completed_per_s": sum(1 for t in st["done_s"] if t <= st["duration_s"])
                           / st["duration_s"],
        "service_per_s": st["drained"] / st["busy_s"] if st["busy_s"] else 0.0,
        "grows": benchlib.backlog_grows(st["backlog_t_s"], st["backlog_n"],
                                        ac["backlog_min_growth"], ac["backlog_rel_growth"]),
        "valid": benchlib.generator_on_time(st["late_ms"], ac["generator_late_limit_ms"]),
    }
    out["passes"] = out["valid"] and benchlib.step_passes(
        dict(out, tail_ms=out["limit_tail_ms"]), limit)
    return out


def analyze_steps(raw, spec):
    """The heavy-rate segments combined into one step, the ladder steps,
    and the max rate over the ladder."""
    ac = spec["analysis_constants"]
    limit = spec["constants"]["limit_ms"]
    segments = [st for st in raw["steps"] if st["heavy"]]
    heavy = {"rate": segments[0]["rate"], "heavy": True, "backlog_t_s": [], "backlog_n": []}
    for key in ("arrivals", "shed", "duration_s", "drained", "busy_s"):
        heavy[key] = sum(st[key] for st in segments)
    for key in ("latency_ms", "late_ms", "queue_wait_ms"):
        heavy[key] = [v for st in segments for v in st[key]]
    # Completions inside each segment's own window.
    heavy["done_s"] = [t for st in segments for t in st["done_s"] if t <= st["duration_s"]]
    heavy = step_summary(heavy, ac, limit)
    heavy["grows"] = any(step_summary(st, ac, limit)["grows"] for st in segments)
    ladder = [step_summary(st, ac, limit) for st in raw["steps"] if not st["heavy"]]
    best = benchlib.max_rate([dict(s, tail_ms=s["limit_tail_ms"]) for s in ladder], limit)
    return heavy, ladder, best


def named_metrics(raw, spec):
    """The named end-to-end metrics of spec.json for this workload, with units
    and sample counts."""
    w, samples, c = raw["workload"], raw["samples"], raw["counters"]
    out = {}
    out["setup_s"] = metric(median(samples["setup_s"]), "s", len(samples["setup_s"]))
    # raw["failed"] already holds the sheds at or below the heavy rate.
    overload_sheds = sum(st["shed"] for st in raw["steps"]
                         if st["rate"] > spec["constants"]["heavy_rate"])
    out["failed_share"] = metric((raw["failed"] + overload_sheds) / raw["attempted"],
                                 "share", raw["attempted"])
    for name in ("recover_s", "cold_trace_s"):
        out[name] = metric(median(samples[name]), "s", len(samples[name]))
    if w == "sell":
        op = samples["op_s"]
        s = benchlib.summarize(op)
        out["sell_per_s"] = metric(len(op) / sum(op), "1/s", len(op))
        out["sell_p50_ms"] = metric(ms(s, "p50"), "ms", len(op))
        out["sell_p%g_ms" % (s["tail_p"] or 0)] = metric(ms(s, "tail"), "ms", len(op))
        sim = samples["similarity_pct"]
        out["similarity_pct"] = metric(sum(sim) / len(sim), "%", len(sim))
    elif w == "trace_warm":
        heavy, ladder, best = analyze_steps(raw, spec)
        out["trace_p50_ms"] = metric(heavy["p50_ms"], "ms", heavy["n"])
        out["trace_p%g_ms" % (heavy["tail_p"] or 0)] = metric(heavy["tail_ms"], "ms", heavy["n"])
        out["trace_max_rate"] = metric(best if best is not None else 0, "1/s", len(ladder))
        leaked = c["trace.leaked"]
        out["attributed_share"] = metric(c["trace.attributed"] / leaked if leaked else 0,
                                         "share", int(leaked))
        out["false_accusations"] = metric(c["trace.false_accusations"], "count",
                                          int(c["exec.drain.cells"]))
    else:
        esc = samples["escrow_call_s"]
        s = benchlib.summarize(esc)
        out["escrow_per_s"] = metric(len(esc) / samples["escrow_phase_s"][0], "1/s", len(esc))
        out["escrow_p%g_us" % (s["tail_p"] or 0)] = metric(s["tail"] * 1e6, "us", len(esc))
    return out


def end_to_end(raw, spec):
    """The gated metrics of BENCHMARK.json; spec.json defines them for each
    workload's own operation."""
    w, samples = raw["workload"], raw["samples"]
    out = {"setup_s": metric(median(samples["setup_s"]), "s", len(samples["setup_s"]))}
    if w == "sell":
        op = samples["op_s"]
        out["ops_per_s"] = metric(len(op) / sum(op), "1/s", len(op))
        out["p50_ms"] = metric(median(op) * 1e3, "ms", len(op))
    elif w == "trace_warm":
        heavy, _, _ = analyze_steps(raw, spec)
        out["ops_per_s"] = metric(heavy["service_per_s"], "1/s", heavy["n"])
        out["p50_ms"] = metric(heavy["drain_p50_ms"], "ms", heavy["n"])
    else:
        esc, restart = samples["escrow_call_s"], samples["restart_s"]
        out["ops_per_s"] = metric(len(esc) / samples["escrow_phase_s"][0], "1/s", len(esc))
        out["p50_ms"] = metric(median(restart) * 1e3, "ms", len(restart))
    return out


def per_layer(raw, spans):
    """Per-layer metrics from the spans (self time) and the public stats."""
    c = raw["counters"]
    totals = benchlib.layer_totals(spans)

    def self_s(name):
        return totals.get(name, (0, 0, []))[0] * 1e-9

    escrow_durations = [d * 1e-9 for d in totals.get("analysis.escrow", (0, 0, []))[2]]
    esc = benchlib.summarize(escrow_durations)
    if esc["tail"] is None:  # too few calls for the rule: the slowest one
        esc["tail"] = max(escrow_durations, default=0.0)
        esc["p50"] = esc["p50"] or 0.0
    hits, misses = c.get("exec.cache.hits", 0), c.get("exec.cache.misses", 0)
    cells = c.get("exec.drain.cells", 0)
    drains = c.get("exec.drain.calls", 0)
    late = sum(raw["samples"].get("late_s", [])) + sum(
        sum(st["late_ms"]) for st in raw["steps"]) * 1e-3

    # Attribution covers the measured phase's operations: the direct
    # children of the "measure" span (buyers, rate steps, escrows and
    # restart cycles), not the gate work between them.
    measure_ids = {s[0] for s in spans if s[2] == "measure"}
    ops = [(s[4], s[5]) for s in spans if s[1] in measure_ids]
    base = max(1, benchlib.union_length(ops))
    m0, m1 = raw["measure_ns"]
    in_measure = [s for s in spans if s[4] >= m0 and s[5] <= m1]
    layer_spans = [(s[4], s[5]) for s in in_measure if s[2].startswith(LAYER_PREFIXES)]
    unattributed = 1 - benchlib.union_length(layer_spans) / base
    overhead = raw["span_cost_ns"] * len(in_measure) / base

    out = {
        "data.histogram.s": metric(self_s("data.histogram"), "s"),
        "data.histogram.rows": metric(c.get("data.histogram.rows", 0), "count"),
        "core.eligible.s": metric(self_s("core.eligible"), "s"),
        "core.eligible.pairs": metric(c.get("core.eligible.pairs", 0), "count"),
        "core.select.s": metric(self_s("core.select"), "s"),
        "core.select.chosen": metric(c.get("core.select.chosen", 0), "count"),
        "core.apply.s": metric(self_s("core.apply"), "s"),
        "core.transform.s": metric(self_s("core.transform"), "s"),
        "core.transform.rows": metric(c.get("core.transform.rows", 0), "count"),
        "analysis.escrow.s": metric(self_s("analysis.escrow"), "s"),
        "analysis.escrow.p50_s": metric(esc["p50"], "s"),
        "analysis.escrow.tail_s": metric(esc["tail"], "s"),
        "analysis.escrow.calls": metric(len(escrow_durations), "count"),
        "analysis.wal.bytes": metric(c.get("analysis.wal.bytes", 0), "B"),
        "analysis.wal.bytes_per_key_byte": metric(
            c.get("analysis.wal.bytes", 0) / c["analysis.key.bytes"]
            if c.get("analysis.key.bytes") else 0, "ratio"),
        "analysis.checkpoints": metric(c.get("analysis.checkpoints", 0), "count"),
        "analysis.recover.s": metric(self_s("analysis.recover"), "s"),
        "analysis.recover.records_replayed": metric(
            c.get("analysis.recover.records_replayed", 0), "count"),
        "analysis.recover.snapshot_loaded": metric(
            c.get("analysis.recover.snapshot_loaded", 0), "count"),
        "exec.prepare.s": metric(self_s("exec.prepare"), "s"),
        "exec.prepare.keys": metric(c.get("exec.prepare.keys", 0), "count"),
        "exec.cache.hits": metric(hits, "count"),
        "exec.cache.misses": metric(misses, "count"),
        "exec.cache.evictions": metric(c.get("exec.cache.evictions", 0), "count"),
        "exec.cache.hit_ratio": metric(hits / (hits + misses) if hits + misses else 0,
                                       "ratio"),
        "exec.admission.wait.s": metric(self_s("exec.admission"), "s"),
        "exec.admission.admitted": metric(c.get("exec.admission.admitted", 0), "count"),
        "exec.admission.shed_rate": metric(c.get("exec.admission.shed_rate", 0), "count"),
        "exec.admission.shed_capacity": metric(
            c.get("exec.admission.shed_capacity", 0), "count"),
        "exec.admission.shed_deadline": metric(
            c.get("exec.admission.shed_deadline", 0), "count"),
        "exec.queue.wait.s": metric(c.get("exec.queue.wait_s", 0), "s"),
        "exec.queue.depth.max": metric(c.get("exec.queue.depth.max", 0), "count"),
        "exec.drain.s": metric(self_s("exec.drain"), "s"),
        "exec.drain.batch_suspects": metric(
            c.get("exec.drain.suspects", 0) / drains if drains else 0, "count"),
        "exec.drain.cells": metric(cells, "count"),
        "exec.drain.cell_errors": metric(c.get("exec.drain.cell_errors", 0), "count"),
        "exec.drain.s_per_cell": metric(self_s("exec.drain") / cells if cells else 0, "s"),
        "bench.generator_late.s": metric(late, "s"),
        "bench.tracing_overhead": metric(overhead, "share"),
        "bench.unattributed_share": metric(unattributed, "share"),
    }
    attribution = {}
    selfs = benchlib.self_times(in_measure)
    for s in in_measure:
        if s[2].startswith(LAYER_PREFIXES):
            attribution[s[2]] = attribution.get(s[2], 0) + selfs[s[0]]
    attribution = {k: v / base for k, v in sorted(attribution.items())}
    attribution["unattributed"] = unattributed
    return out, attribution


# --------------------------------------------------------------- running

def run_workload(binary, spec, workload, seed, seconds, trace, out_dir):
    results = out_dir / "results"
    spans_dir = out_dir / "spans"
    results.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw_path = results / (tag + ".raw.json")
    spans_path = spans_dir / (tag + ".json")
    work = out_dir / "work" / ("%s-%d" % (workload, os.getpid()))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(raw_path), "--spans", str(spans_path),
           "--work-dir", str(work),
           "--restart-cycles", str(spec["restart_cycles"][workload])]
    for key, value in spec["constants"].items():
        flag = "--" + key.replace("_", "-")
        cmd += [flag, ",".join(str(v) for v in value) if isinstance(value, list) else str(value)]
    mix = spec["suspect_mix"]
    cmd += ["--mix", ",".join(str(mix[k]) for k in (
        "exact", "within_boundaries", "pct4_boundary", "sampled10", "unrelated"))]
    if raw_path.exists():
        raw_path.unlink()
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not raw_path.is_file():
        fail("%s produced no result (exit %d)" % (workload, proc.returncode), 4)
    raw = json.loads(raw_path.read_text())
    return raw, spans_path if trace else None


def report(raw, spec, spans_path, out_dir):
    commit, digest = source_revision()
    fingerprint = dict(raw["fingerprint"], commit=commit, source_sha256=digest)
    gates_ok = all(g["failures"] == 0 for g in raw["gates"].values())
    record = {"workload": raw["workload"], "seed": raw["seed"], "trace": raw["trace"],
              "fingerprint": fingerprint, "correct": gates_ok,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "gates": raw["gates"]}
    if raw["trace"]:
        spans = [tuple(s) for s in json.loads(spans_path.read_text())]
        record["metrics"], record["attribution"] = per_layer(raw, spans)
        record["spans_file"] = str(spans_path)
    else:
        record["metrics"] = end_to_end(raw, spec)
        record["named"] = named_metrics(raw, spec)
        if raw["workload"] == "trace_warm":
            heavy, ladder, _ = analyze_steps(raw, spec)
            record["steps"] = [heavy] + ladder
            record["in_flight_after_drain"] = raw["counters"]["trace.in_flight_after_drain"]
    path = out_dir / "results" / ("%s-seed%d-trace%d.json" % (
        raw["workload"], raw["seed"], raw["trace"]))
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record, path)
    return record


def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) and v is not None else str(v)


def print_summary(record, path):
    print("# %s seed=%d trace=%d correct=%s attempted=%d failed=%d" % (
        record["workload"], record["seed"], record["trace"], record["correct"],
        record["attempted"], record["failed"]))
    print("# fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, g in sorted(record["gates"].items()):
        print("# gate %-28s %s (%d checks)%s" % (
            name, "ok" if g["failures"] == 0 else "FAILED %d" % g["failures"],
            g["checks"], "" if g["failures"] == 0 else ": " + g["detail"]))
    for title, metrics in (("metric", record["metrics"]), ("named", record.get("named", {}))):
        for name, m in metrics.items():
            print("# %s %-34s %14s %-6s%s" % (title, name, fmt(m["value"]), m["unit"],
                                            " n=%d" % m["n"] if "n" in m else ""))
    leased = record.get("in_flight_after_drain")
    if leased:
        print("# note: %d admission unit(s) still leased after every admitted "
              "suspect was verdicted" % leased)
    for s in record.get("steps", []):
        print("# step rate=%-5g %s verdicts=%-5d shed=%-4d p50=%7.2fms tail(p%g)=%7.2fms "
              "queue_p50=%6.2fms late_p99=%6.2fms done/s=%7.1f grows=%s valid=%s pass=%s" % (
                  s["rate"], "heavy " if s["heavy"] else "ladder", s["n"], s["shed"],
                  s["p50_ms"] or 0, s["tail_p"] or 0, s["tail_ms"] or 0,
                  s["queue_wait_p50_ms"], s["late_p99_ms"], s["completed_per_s"],
                  s["grows"], s["valid"], s["passes"]))
    for name, share in record.get("attribution", {}).items():
        print("# share of measured operations' time %-20s %6.2f%%" % (name, 100 * share))
    if "spans_file" in record:
        print("# spans written to " + record["spans_file"])
    print("# full record: %s" % path)


def final_line(record, names):
    metrics = {n: {"value": record["metrics"][n]["value"], "unit": record["metrics"][n]["unit"]}
               for n in names}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics}, allow_nan=False)


def compare_files(a, b):
    base, new = json.loads(pathlib.Path(a).read_text()), json.loads(pathlib.Path(b).read_text())
    result = benchlib.compare(base, new)
    if result["fingerprint_mismatch"]:
        print("FINGERPRINT MISMATCH on %s: these results are not comparable; "
              "the deltas below are shown flagged, not as a verdict" %
              ", ".join(result["fingerprint_mismatch"]))
    for name, unit, a_v, b_v, rel in result["rows"]:
        print("%s%-34s %12s -> %12s %-6s %s" % (
            "[mismatch] " if result["fingerprint_mismatch"] else "", name, fmt(a_v), fmt(b_v),
            unit, "" if rel is None else "%+.1f%%" % (100 * rel)))
    return 2 if result["fingerprint_mismatch"] else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare_files(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    out_dir = build_dir()
    binary = build(out_dir)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for w in workloads:
        raw, spans_path = run_workload(binary, spec, w, args.seed, seconds, args.trace, out_dir)
        records.append(report(raw, spec, spans_path, out_dir))
    if len(records) == 1:
        print(final_line(records[0], names))
    else:
        merged = {"correct": all(r["correct"] for r in records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "metrics": {"%s.%s" % (r["workload"], n): {
                      "value": r["metrics"][n]["value"], "unit": r["metrics"][n]["unit"]}
                      for r in records for n in names}}
        print(json.dumps(merged, allow_nan=False))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
