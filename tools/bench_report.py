#!/usr/bin/env python3
"""Convert Google Benchmark output into the committed perf trajectory.

Reads `--benchmark_format=json` output (either from a file or by running
the benchmark binary directly) and merges one labelled run into
BENCH_scheduler.json, so every PR can compare its numbers against the
recorded history:

    # from a finished benchmark run
    build/bench/bench_scheduler_throughput \
        --benchmark_format=json --benchmark_out=/tmp/bench.json
    tools/bench_report.py --bench-json /tmp/bench.json \
        --label pr2-sweep --output BENCH_scheduler.json

    # or let the script drive the binary
    tools/bench_report.py --binary build/bench/bench_scheduler_throughput \
        --label pr2-sweep --output BENCH_scheduler.json

Runs are keyed by label: re-reporting an existing label replaces that run
in place (so iterating on a PR does not grow the file), anything else is
appended. Only aggregate-free iteration entries are recorded; per-run
context (CPU count, clock, load) is kept so trajectory numbers can be
read with the machine they came from.

Figure-reproduction benches (bench_fig*, plain binaries printing
TablePrinter tables of *simulated* evaluation metrics) fold into the same
run via repeatable --figure flags:

    tools/bench_report.py --binary build/bench/bench_scheduler_throughput \
        --figure build/bench/bench_fig11_filling \
        --label pr3-serial --output BENCH_scheduler.json

Each figure binary runs in the quick configuration with a single seed
(COORM_BENCH_QUICK=1, COORM_BENCH_SEEDS=1 — deterministic, so a changed
number in the committed trajectory is an evaluation regression, not
noise); its tables are recorded under the run's "figures" key.

Runtime counter snapshots fold in two ways: `--metrics FILE` records a
COORM_METRICS_OUT dump under the run's "metrics" key, and per-benchmark
user counters (arena_slow_path, writeback_clean, ...) are kept on each
entry. `--require-zero COUNTER` turns such a counter into a gate — CI
uses `--check-only --require-zero arena_slow_path` to fail the bench job
if the segment arena ever falls back to the heap at steady state — and
`--require-nonzero COUNTER` is the inverse gate: CI runs the incremental
scheduling bench under `--check-only --require-nonzero step2_ranges_reused
--require-nonzero pass_apps_clean` to fail the job if the pass-to-pass
cache ever stops engaging (a silent fall-back to full recomputes would
keep results correct but void the O(changed) claim).

`--compare BASE [--against LABEL]` reads two committed runs (LABEL
defaults to the newest) and prints, per benchmark, the median real time
over each run's repetitions and the relative delta. A delta is flagged
(`*`) when the compared median lies outside the base run's own spread
(min..max over its repetitions); with a single base repetition there is
no spread and the flag column reads `?`. Runs recorded on different hosts
(`host_name` or `num_cpus` differ) are refused:

    tools/bench_report.py --compare BASE_LABEL --against NEW_LABEL

The script needs nothing outside the Python standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

_TIME_TO_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def run_binary(binary: str, benchmark_filter: str | None) -> dict:
    """Run a Google Benchmark binary and return its parsed JSON report."""
    with tempfile.TemporaryDirectory() as tmpdir:
        out_path = Path(tmpdir) / "benchmark.json"
        cmd = [
            binary,
            "--benchmark_format=json",
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
        ]
        if benchmark_filter:
            cmd.append(f"--benchmark_filter={benchmark_filter}")
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(out_path, encoding="utf-8") as handle:
            return json.load(handle)


def summarize(report: dict) -> tuple[dict, list[dict]]:
    """Reduce a Google Benchmark report to (context, benchmark entries)."""
    raw_context = report.get("context", {})
    context = {
        key: raw_context[key]
        for key in ("date", "host_name", "num_cpus", "mhz_per_cpu",
                    "library_build_type")
        if key in raw_context
    }
    entries = []
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue  # keep iteration entries only; repetitions stay raw
        scale = _TIME_TO_US.get(bench.get("time_unit", "ns"))
        if scale is None:
            raise SystemExit(
                f"unknown time unit {bench.get('time_unit')!r} "
                f"in {bench.get('name')!r}")
        entry = {
            "name": bench["name"],
            "real_time_us": round(bench["real_time"] * scale, 3),
            "cpu_time_us": round(bench["cpu_time"] * scale, 3),
            "iterations": bench.get("iterations"),
        }
        if "requests/s" in bench:
            entry["requests_per_s"] = round(bench["requests/s"], 1)
        counters = {
            key: bench[key]
            for key in ("arena_slow_path", "arena_hits", "writeback_clean",
                        "writeback_dirty", "passes", "messages/s",
                        "pass_apps_clean", "pass_apps_dirty",
                        "step2_ranges_reused", "wire_bytes_per_pass",
                        "views_delta_sent", "views_delta_bytes_saved",
                        "frames_coalesced", "epoll_wakeups",
                        "pass_latency_samples", "request_rtt_samples",
                        "np_views_materialized")
            if key in bench
        }
        if counters:
            entry["counters"] = counters
        entries.append(entry)
    return context, entries


def check_zero_counters(entries: list[dict], names: list[str]) -> None:
    """Exit non-zero unless every named counter is reported and zero.

    As with check_nonzero_counters, at least one entry must carry the
    counter: a benchmark that stops reporting it would otherwise pass.
    """
    offenders = []
    for name in names:
        reporting = [
            entry for entry in entries
            if name in entry.get("counters", {})
        ]
        if not reporting:
            offenders.append(f"no benchmark entry reports counter {name!r}")
            continue
        offenders.extend(
            f"{entry['name']}: {name} = {entry['counters'][name]}"
            for entry in reporting
            if entry["counters"][name] not in (0, 0.0)
        )
    if offenders:
        raise SystemExit(
            "counter(s) required to be zero are not:\n  "
            + "\n  ".join(offenders))


def check_nonzero_counters(entries: list[dict], names: list[str]) -> None:
    """Exit non-zero unless every named counter is reported and positive.

    Every entry that carries the counter must have it > 0, and at least
    one entry must carry it at all — a silently dropped counter would
    otherwise pass the gate (e.g. the incremental cache never engaging
    would show up as a missing or zero step2_ranges_reused).
    """
    offenders = []
    for name in names:
        reporting = [
            entry for entry in entries
            if name in entry.get("counters", {})
        ]
        if not reporting:
            offenders.append(f"no benchmark entry reports counter {name!r}")
            continue
        offenders.extend(
            f"{entry['name']}: {name} = {entry['counters'][name]}"
            for entry in reporting
            if not entry["counters"][name] > 0
        )
    if offenders:
        raise SystemExit(
            "counter(s) required to be nonzero are not:\n  "
            + "\n  ".join(offenders))


def parse_tables(text: str) -> list[dict]:
    """Extract TablePrinter tables (header, dashed rule, rows) from stdout.

    Columns are split on runs of >= 2 spaces — TablePrinter pads cells to
    the column width with at least two spaces between columns.
    """
    split = re.compile(r"\s{2,}")
    lines = text.splitlines()
    tables = []
    for i, line in enumerate(lines):
        stripped = line.strip()
        if i == 0 or len(stripped) < 3 or set(stripped) != {"-"}:
            continue  # the rule under the header marks a table
        columns = split.split(lines[i - 1].strip())
        rows = []
        for row_line in lines[i + 1:]:
            cells = split.split(row_line.strip())
            if not row_line.strip() or len(cells) != len(columns):
                break
            rows.append(cells)
        if rows:
            tables.append({"columns": columns, "rows": rows})
    return tables


def run_figure(binary: str) -> dict:
    """Run one figure-reproduction binary at quick scale, single seed."""
    env = dict(os.environ, COORM_BENCH_QUICK="1", COORM_BENCH_SEEDS="1")
    try:
        result = subprocess.run(
            [binary], env=env, check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError as error:
        raise SystemExit(
            f"{binary}: exited with status {error.returncode}\n"
            f"--- stdout ---\n{error.stdout}\n"
            f"--- stderr ---\n{error.stderr}") from error
    tables = parse_tables(result.stdout)
    if not tables:
        raise SystemExit(f"{binary}: no tables found in its output")
    return {"tables": tables}


def load_trajectory(path: Path) -> dict:
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and isinstance(data.get("runs"), list):
            return data
        # The seed trajectory files were bare empty lists; upgrade in place.
        if isinstance(data, list) and not data:
            pass
        else:
            raise SystemExit(f"{path}: not a bench trajectory file")
    return {
        "description": (
            "Scheduler performance trajectory. One entry per labelled "
            "benchmark run of bench_scheduler_throughput; produced by "
            "tools/bench_report.py."),
        "runs": [],
    }


def find_run(trajectory: dict, label: str) -> dict:
    for run in trajectory["runs"]:
        if run.get("label") == label:
            return run
    known = ", ".join(run.get("label", "?") for run in trajectory["runs"])
    raise SystemExit(f"no run labelled {label!r} (known: {known})")


def repetitions(run: dict) -> dict[str, list[float]]:
    """Real times (us) per benchmark name, one value per repetition."""
    times: dict[str, list[float]] = {}
    for entry in run.get("benchmarks", []):
        times.setdefault(entry["name"], []).append(entry["real_time_us"])
    return times


def compare_runs(base: dict, against: dict) -> list[str]:
    """Per-benchmark median deltas of `against` relative to `base`."""
    for key in ("host_name", "num_cpus"):
        ours = base.get("context", {}).get(key)
        theirs = against.get("context", {}).get(key)
        if ours != theirs:
            raise SystemExit(
                f"refusing to compare runs from different hosts: "
                f"{base['label']!r} has {key}={ours!r}, "
                f"{against['label']!r} has {key}={theirs!r}")
    base_times = repetitions(base)
    against_times = repetitions(against)
    rows = [("benchmark", "base_us", "against_us", "delta", "reps",
             "outside")]
    for name, samples in base_times.items():
        if name not in against_times:
            continue
        other = against_times[name]
        base_median = statistics.median(samples)
        median = statistics.median(other)
        delta = (median - base_median) / base_median if base_median else 0.0
        if len(samples) < 2:
            flag = "?"
        else:
            flag = "*" if not min(samples) <= median <= max(samples) else ""
        rows.append((name, f"{base_median:.1f}", f"{median:.1f}",
                     f"{delta:+.1%}", f"{len(samples)}/{len(other)}", flag))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) if i == 0 else cell.rjust(width)
                  for i, (cell, width) in enumerate(zip(row, widths)))
        .rstrip()
        for row in rows
    ]
    for label, missing in (
            (against["label"], sorted(set(base_times) - set(against_times))),
            (base["label"], sorted(set(against_times) - set(base_times)))):
        if missing:
            lines.append(f"not in {label!r}: {', '.join(missing)}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--bench-json",
        help="existing --benchmark_format=json output to convert")
    source.add_argument(
        "--binary", action="append",
        help="benchmark binary to run with --benchmark_format=json; "
             "repeatable — entries from every binary merge into one run")
    parser.add_argument(
        "--filter", default=None,
        help="--benchmark_filter passed to --binary runs")
    parser.add_argument(
        "--figure", action="append", default=[],
        help="figure-reproduction binary to run (quick scale, one seed) and "
             "record under the run's 'figures' key; repeatable")
    parser.add_argument(
        "--metrics", default=None, type=Path,
        help="flat JSON counter snapshot (the bench binary's "
             "COORM_METRICS_OUT dump) folded into the run's 'metrics' key")
    parser.add_argument(
        "--series", action="append", default=[], metavar="NAME=FILE",
        help="JSON series file recorded under the run's 'series' key — "
             "e.g. connections_vs_latency=curve.json, where the file holds "
             "a list of data points such as the coorm_loadgen ramp's "
             "{connections, ramp_s, probe RTT percentiles}; repeatable")
    parser.add_argument(
        "--require-zero", action="append", default=[], metavar="COUNTER",
        help="fail (exit 1) unless at least one benchmark entry reports "
             "this per-bench counter and every reporting entry has it 0; "
             "repeatable")
    parser.add_argument(
        "--require-nonzero", action="append", default=[], metavar="COUNTER",
        help="fail (exit 1) unless at least one benchmark entry reports "
             "this per-bench counter and every reporting entry has it > 0; "
             "repeatable")
    parser.add_argument(
        "--check-only", action="store_true",
        help="run the benchmarks and --require-zero checks without touching "
             "the trajectory file (--label/--output not needed)")
    parser.add_argument(
        "--label",
        help="run label; an existing run with this label is replaced")
    parser.add_argument(
        "--commit", default=None,
        help="commit hash to record with the run (optional)")
    parser.add_argument(
        "--notes", default=None,
        help="free-form note stored with the run (optional)")
    parser.add_argument(
        "--output", type=Path,
        help="trajectory file to update, e.g. BENCH_scheduler.json")
    parser.add_argument(
        "--compare", metavar="BASE",
        help="print per-benchmark median deltas of a committed run against "
             "run BASE of the trajectory (no benchmark is run)")
    parser.add_argument(
        "--against", metavar="LABEL",
        help="the run --compare measures (default: the newest run)")
    parser.add_argument(
        "--trajectory", type=Path, default=Path("BENCH_scheduler.json"),
        help="trajectory file --compare reads (default: %(default)s)")
    args = parser.parse_args()
    if args.compare:
        trajectory = load_trajectory(args.trajectory)
        if not trajectory["runs"]:
            raise SystemExit(f"{args.trajectory}: no runs recorded")
        base = find_run(trajectory, args.compare)
        against = (find_run(trajectory, args.against) if args.against
                   else trajectory["runs"][-1])
        print(f"{against['label']} vs {base['label']} "
              f"(median real time over repetitions)")
        print("\n".join(compare_runs(base, against)))
        return
    if args.bench_json is None and args.binary is None:
        parser.error("one of --bench-json, --binary or --compare is required")
    if not args.check_only and (args.label is None or args.output is None):
        parser.error("--label and --output are required unless --check-only")

    if args.bench_json:
        with open(args.bench_json, encoding="utf-8") as handle:
            reports = [json.load(handle)]
    else:
        reports = [run_binary(binary, args.filter) for binary in args.binary]

    context: dict = {}
    entries: list[dict] = []
    for report in reports:
        report_context, report_entries = summarize(report)
        context = context or report_context
        entries.extend(report_entries)
    if not entries:
        raise SystemExit("no benchmark entries found in the report")

    if args.require_zero:
        check_zero_counters(entries, args.require_zero)
    if args.require_nonzero:
        check_nonzero_counters(entries, args.require_nonzero)
    if args.check_only:
        nchecks = len(args.require_zero) + len(args.require_nonzero)
        checks = f", {nchecks} counter check(s) passed" if nchecks else ""
        print(f"check-only: {len(entries)} benchmarks{checks}")
        return

    run = {
        "label": args.label,
        "recorded_at": datetime.now(timezone.utc)
        .isoformat(timespec="seconds"),
        "context": context,
        "benchmarks": entries,
    }
    if args.commit:
        run["commit"] = args.commit
    if args.notes:
        run["notes"] = args.notes
    if args.metrics:
        with open(args.metrics, encoding="utf-8") as handle:
            run["metrics"] = json.load(handle)
    if args.series:
        run["series"] = {}
        for spec in args.series:
            name, sep, path = spec.partition("=")
            if not sep or not name or not path:
                raise SystemExit(f"--series wants NAME=FILE, got {spec!r}")
            with open(path, encoding="utf-8") as handle:
                run["series"][name] = json.load(handle)
    if args.figure:
        run["figures"] = {
            Path(binary).name: run_figure(binary) for binary in args.figure
        }

    trajectory = load_trajectory(args.output)
    trajectory["runs"] = [
        existing for existing in trajectory["runs"]
        if existing.get("label") != args.label
    ]
    trajectory["runs"].append(run)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    figures = f" + {len(args.figure)} figure benches" if args.figure else ""
    print(f"{args.output}: recorded run {args.label!r} "
          f"({len(entries)} benchmarks{figures})")


if __name__ == "__main__":
    sys.exit(main())
