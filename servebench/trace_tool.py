#!/usr/bin/env python3
"""Merge, align and split the traces of one traced benchmark run.

    python3 servebench/trace_tool.py .bench_build/runs/churn/traced

The daemon (coorm_rmsd --trace-out) keeps the newest 16384 spans per thread
and rebases timestamps to the earliest one it kept; the generator writes
its spans on the absolute steady clock.  After quiescing, the generator
sends sequential marker REQUESTs with nothing else in flight, so the
daemon's last "request" spans are those markers, in order.  Each marker
bounds the daemon's clock offset from both sides (its daemon span lies
inside the client's send..ack interval); the intersection over all markers
is the alignment, and its width the alignment uncertainty.

From the aligned traces this computes the traced split (per request:
interval wait + pass + preemption wait + delivery = start or resize
latency; wait-before-handling + daemon handling = ack), the per-layer self
times, and writes merged_trace.json (both processes, loadable in Perfetto).
"""

import bisect
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402

# Daemon spans whose self time is reported per second of traced wall time.
DAEMON_LAYERS = ("request", "fsync", "flush", "prune", "capture", "schedule",
                 "write_back", "views", "commit")
# Ops this close to the start of the daemon's retained trace are skipped:
# their passes may have fallen out of the ring.
EDGE_NS = 100_000_000


class Span:
    __slots__ = ("name", "pid", "tid", "start", "end")

    def __init__(self, name, pid, tid, start, end):
        self.name, self.pid, self.tid = name, pid, tid
        self.start, self.end = start, end

    @property
    def dur(self):
        return self.end - self.start


def load(path, offset_ns=0):
    """Spans of a Chrome trace, in absolute ns (ts is µs + offset)."""
    spans = []
    for e in json.loads(Path(path).read_text())["traceEvents"]:
        if e.get("ph") != "X":
            continue
        start = round(e["ts"] * 1000) + offset_ns
        spans.append(Span(e["name"], e["pid"], e["tid"], start,
                          start + round(e["dur"] * 1000)))
    spans.sort(key=lambda s: s.start)
    return spans


def align(daemon_rel, markers):
    """(offset_ns, width_ns) mapping daemon-relative ns to absolute ns."""
    requests = [s for s in daemon_rel if s.name == "request"]
    if len(markers) == 0 or len(requests) < len(markers):
        raise ValueError("trace alignment: marker requests missing")
    last = requests[-len(markers):]
    lo = max(send - d.start for d, (send, _) in zip(last, markers))
    hi = min(ack - d.end for d, (_, ack) in zip(last, markers))
    if lo > hi:
        raise ValueError(f"trace alignment inconsistent ({lo} > {hi} ns)")
    return (lo + hi) // 2, hi - lo


def self_times(spans):
    """name -> [count, total_ns, self_ns, covered_ns of its thread]."""
    table = defaultdict(lambda: [0, 0, 0, 0])
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[(s.pid, s.tid)].append(s)
    for thread in by_thread.values():
        thread.sort(key=lambda s: (s.start, -s.end))
        covered = thread[-1].end - thread[0].start if thread else 0
        child_ns = defaultdict(int)
        stack = []
        for s in thread:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack and s.end <= stack[-1].end:
                child_ns[id(stack[-1])] += s.dur
            stack.append(s)
        for s in thread:
            row = table[s.name]
            row[0] += 1
            row[1] += s.dur
            row[2] += s.dur - child_ns[id(s)]
            row[3] = max(row[3], covered)
    return table


def match_requests(client_reqs, daemon_requests):
    """Client REQUEST -> the daemon "request" span inside its send..ack."""
    reqs = sorted(client_reqs, key=lambda r: r["send"])
    matched = {}
    active, j = [], 0
    for d in daemon_requests:
        while j < len(reqs) and reqs[j]["send"] <= d.start:
            active.append(reqs[j])
            j += 1
        active = [r for r in active if r["ack"] >= d.start]
        candidates = [r for r in active if r["ack"] >= d.end]
        if not candidates:
            continue
        best = min(candidates, key=lambda r: r["ack"])
        matched[id(best)] = d
        active.remove(best)
    return matched


def split(begin, handled, started, pass_starts, pass_ends, passes):
    """(interval_wait, pass, preempt_wait, deliver) in ns, or None.
    P1 is the first pass launched after the operation was handled, Pk the
    last pass that ended before the client saw the start."""
    i = bisect.bisect_left(pass_starts, handled)
    k = bisect.bisect_right(pass_ends, started) - 1
    if i >= len(passes) or k < i:
        return None
    p1, pk = passes[i], passes[k]
    interval = p1.start - begin
    in_pass = p1.dur + (pk.dur if k != i else 0)
    preempt = pk.start - p1.end if k != i else 0
    deliver = started - pk.end
    return interval, in_pass, preempt, deliver


def p50(values):
    return measure.pct(values, 0.50)


def analyse(run_dir, run, client):
    """Per-layer metrics from the traced run (source T); `client` holds the
    traced run's client-timed metrics (measure.client_metrics)."""
    run_dir = Path(run_dir)
    daemon_rel = load(run_dir / "daemon_trace.json")
    offset, width = align(daemon_rel, run.markers)
    daemon = load(run_dir / "daemon_trace.json", offset)
    gen_spans = load(run_dir / "gen_trace.json")

    requests = [s for s in daemon if s.name == "request"][:-len(run.markers)]
    main_tid = requests[-1].tid if requests else None
    main = [s for s in daemon if s.tid == main_tid]
    passes = [s for s in main if s.name == "pass"]
    pass_starts = [p.start for p in passes]
    pass_ends = [p.end for p in passes]
    lo = (main[0].start if main else 0) + EDGE_NS

    def usable(t):
        return run.in_window(t) and t >= lo

    reqs = [r for r in run.reqs if r["ok"]]
    matched = match_requests(reqs, requests)
    wait_us, handle_us = [], []
    handled_at = {}
    for r in reqs:
        d = matched.get(id(r))
        if d is None:
            continue
        handled_at[(r["app"], r["id"])] = d.end
        if usable(r["sched"]):
            handle_us.append(d.dur / 1e3)
            wait_us.append((r["ack"] - r["sched"]) / 1e3 - d.dur / 1e3)

    start_parts = [[], [], [], []]
    for s in run.starts:
        handled = handled_at.get((s["app"], s["id"]))
        if handled is None or not usable(s["sched"]):
            continue
        parts = split(s["sched"], handled, s["started"], pass_starts,
                      pass_ends, passes)
        if parts is not None:
            for acc, v in zip(start_parts, parts):
                acc.append(v / 1e6)
    resize_parts = [[], [], [], []]
    for z in run.resizes:
        if not usable(z["begin"]):
            continue
        parts = split(z["begin"], z["begin"], z["started"], pass_starts,
                      pass_ends, passes)
        if parts is not None:
            for acc, v in zip(resize_parts, parts):
                acc.append(v / 1e6)

    def closure(parts, whole):
        """|sum of component medians - whole p50|, as % of the p50."""
        medians = [p50(p) for p in parts]
        if any(m is None for m in medians) or not whole:
            return None
        return 100.0 * abs(sum(medians) - whole) / whole

    by_name = defaultdict(list)
    for s in daemon:
        by_name[s.name].append(s.dur / 1e3)
    table = self_times(daemon)
    m = {
        "rms.server.request_wait_us_p50": p50(wait_us),
        "rms.server.request_handling_us_p50": p50(handle_us),
        "rms.server.interval_wait_ms_p50": p50(start_parts[0]),
        "rms.server.pass_ms_p50": p50(start_parts[1]),
        "rms.server.preempt_wait_ms_p50": p50(start_parts[2]),
        "rms.server.deliver_ms_p50": p50(start_parts[3]),
        "rms.server.resize_interval_wait_ms_p50": p50(resize_parts[0]),
        "rms.server.resize_pass_ms_p50": p50(resize_parts[1]),
        "rms.server.resize_preempt_wait_ms_p50": p50(resize_parts[2]),
        "rms.server.resize_deliver_ms_p50": p50(resize_parts[3]),
        "rms.scheduler.eq_step1_us_p50": p50(by_name["eq_step1"]),
        "rms.scheduler.eq_step2_us_p50": p50(by_name["eq_step2"]),
        "rms.scheduler.eq_step3_us_p50": p50(by_name["eq_step3"]),
        "net.daemon.flush_us_p50": p50(by_name["flush"]),
        "trace.ack_closure_pct": closure([wait_us, handle_us],
                                         client["ack_us_p50"]),
        "trace.start_closure_pct": closure(start_parts,
                                           client["start_ms_p50"]),
        "trace.resize_closure_pct": closure(resize_parts,
                                            client["resize_ms_p50"]),
        "trace.align_us": width / 1e3,
        "trace.split_samples": len(start_parts[0]) + len(resize_parts[0]),
    }
    for name in DAEMON_LAYERS:
        count, total, own, covered = table.get(name, (0, 0, 0, 1))
        m[f"trace.{name}.self_ms_per_s"] = own / 1e6 / (covered / 1e9 or 1)

    write_outputs(run_dir, daemon, gen_spans, table)
    return m


def write_outputs(run_dir, daemon, gen_spans, daemon_table):
    base = min(s.start for s in daemon + gen_spans)
    events = []
    for pid, label in ((daemon[0].pid, "coorm_rmsd"),
                       (gen_spans[0].pid if gen_spans else 0,
                        "servebench_gen")):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for s in daemon + gen_spans:
        events.append({"name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
                       "ts": (s.start - base) / 1e3, "dur": s.dur / 1e3})
    (run_dir / "merged_trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    lines = [format_table("coorm_rmsd", daemon_table),
             format_table("servebench_gen", self_times(gen_spans))]
    (run_dir / "trace_table.txt").write_text("\n".join(lines))


def format_table(title, table):
    out = [f"{title}: self time per span (each thread's retained window)",
           f"{'span':<16}{'count':>8}{'total_ms':>12}{'self_ms':>12}"
           f"{'self_ms/s':>11}"]
    for name, (count, total, own, covered) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        out.append(f"{name:<16}{count:>8}{total / 1e6:>12.2f}"
                   f"{own / 1e6:>12.2f}{own / 1e6 / (covered / 1e9 or 1):>11.2f}")
    return "\n".join(out) + "\n"


def main():
    run_dir = Path(sys.argv[1])
    run = measure.Run(run_dir)
    client, _ = measure.client_metrics(run, [0.0])
    metrics = analyse(run_dir, run, client)
    print((run_dir / "trace_table.txt").read_text())
    for name, value in sorted(metrics.items()):
        print(f"{name:<44} {value}")
    print(f"merged trace: {run_dir / 'merged_trace.json'}")


if __name__ == "__main__":
    main()
