#!/usr/bin/env python3
"""Client-timed serving benchmark for coorm_rmsd.

    python3 servebench/run.py --workload churn|population --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds coorm_rmsd and the load generator
from source into .bench_build/ (first run only), spawns the real daemon
crash-safe (--journal on the host disk, --resched 0.01) and drives one
workload against it from the seeded generator (servebench_gen).  The last
line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, timed at the
client.  --trace 1 reports the per-layer metrics: it makes the same
untraced run (STATS deltas, /proc, generator and in-process timings), then
one traced run (daemon --trace-out plus generator spans) for the traced
split and the tracing overhead.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import measure  # noqa: E402
import trace_tool  # noqa: E402

RESCHED = "0.01"      # seconds; the interval the repo's network benches use
SETUPS = 5            # setups per run; setup_s is their median
NODES = {"churn": 384, "population": 1024}
LIVE_APPS = 4
# The generator is the bottleneck, not the daemon, when it sends this late.
MAX_GEN_LATE_MS = 5.0


def log(*parts):
    print("servebench:", *parts, file=sys.stderr, flush=True)


class Proc:
    """A child process whose stdout is read line by line with deadlines."""

    def __init__(self, argv, stdin=False, stderr_path=None):
        self.argv = argv
        self.err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
        self.p = subprocess.Popen(
            argv, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self.err)
        self.buf = b""

    def readline(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.p.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError(f"{Path(self.argv[0]).name}: no output "
                                   f"within {timeout} s")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"{Path(self.argv[0]).name} exited "
                                   f"(code {self.p.wait()})")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode(errors="replace")

    def expect(self, prefix, timeout):
        while True:
            line = self.readline(timeout)
            if prefix in line:
                return line

    def send(self, text):
        self.p.stdin.write(text.encode())
        self.p.stdin.flush()

    def stop(self, sig=signal.SIGTERM, timeout=30):
        if self.p.poll() is None:
            self.p.send_signal(sig)
            try:
                self.p.wait(timeout)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        if self.err is not subprocess.DEVNULL:
            self.err.close()
        return self.p.returncode


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        log("configuring", build_dir)
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "coorm_rmsd", "servebench_gen", "-j", "4"], check=True,
                   stdout=sys.stderr)
    return build_dir / "coorm" / "tools" / "coorm_rmsd", build_dir / "servebench_gen"


def host_context(path):
    """nproc, CPU model, kernel and the filesystem type holding `path`."""
    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    fstype, best = "unknown", ""
    target = str(path.resolve())
    for line in Path("/proc/self/mountinfo").read_text().splitlines():
        left, right = line.split(" - ", 1)
        mount = left.split()[4]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return {"nproc": os.cpu_count(), "cpu": model,
            "kernel": platform.release(), "journal_fs": fstype,
            "journal_mount": best}


class Bench:
    def __init__(self, args, rmsd, gen, work_dir):
        self.args = args
        self.rmsd, self.gen = str(rmsd), str(gen)
        self.work = work_dir
        self.nodes = NODES[args.workload]
        self.population = None
        self.pristine = work_dir / "population.journal"

    def make_population(self):
        out = subprocess.run(
            [self.gen, "population", "--seed", str(self.args.seed),
             "--journal", str(self.pristine), "--out", str(self.work)],
            check=True, capture_output=True, text=True, timeout=120)
        self.population = json.loads(out.stdout.strip().splitlines()[-1])

    def one_run(self, run_dir, traced, setups):
        """`setups` daemon+generator set-ups; the last one runs the
        workload.  Returns the set-up times (s)."""
        run_dir.mkdir(parents=True, exist_ok=True)
        journal = run_dir / "daemon.journal"
        times = []
        for i in range(setups):
            last = i == setups - 1
            gen_argv = [self.gen, "run", "--workload", self.args.workload,
                        "--seed", str(self.args.seed),
                        "--seconds", str(self.args.seconds),
                        "--out", str(run_dir)]
            if not last:
                gen_argv.append("--setup-only")
            if traced and last:
                gen_argv.append("--trace")
            rmsd_argv = [self.rmsd, "--listen", "127.0.0.1:0",
                         "--nodes", str(self.nodes), "--resched", RESCHED,
                         "--journal", str(journal), "--resume-grace", "3600"]
            if traced and last:
                rmsd_argv += ["--trace-out", str(run_dir / "daemon_trace.json")]
            for stale in (journal, Path(str(journal) + ".tmp")):
                if stale.exists():
                    stale.unlink()
            if self.population is not None:
                shutil.copyfile(self.pristine, journal)
            gen = Proc(gen_argv, stdin=True,
                       stderr_path=run_dir / f"gen{i}.stderr")
            daemon = None
            try:
                gen.expect("wait", 30)
                t0 = time.monotonic_ns()
                daemon = Proc(rmsd_argv, stderr_path=run_dir / f"rmsd{i}.stderr")
                line = daemon.expect("serving", 60)
                port = line.rsplit(":", 1)[1].split()[0]
                gen.send(f"go {port} {daemon.p.pid} {t0}\n")
                ready = int(gen.expect("ready", 60).split()[1])
                times.append((ready - t0) / 1e9)
                if last:
                    gen.expect("done", self.args.seconds + 90)
                if gen.p.wait(30) != 0:
                    raise RuntimeError(f"generator exited {gen.p.returncode}")
            finally:
                gen.stop(signal.SIGKILL)
                if daemon is not None:
                    code = daemon.stop()
                    if code not in (0, None) and last:
                        raise RuntimeError(f"coorm_rmsd exited {code}")
        return times

    def replay_ms(self, run_dir):
        """Journal::scan + Server::restoreFromJournal, timed in-process on
        the population journal (population) or the run's own (churn)."""
        source = self.pristine if self.population else run_dir / "daemon.journal"
        copy = run_dir / "replay.journal"
        shutil.copyfile(source, copy)
        out = subprocess.run([self.gen, "replay", "--journal", str(copy),
                              "--nodes", str(self.nodes), "--reps", "5"],
                             check=True, capture_output=True, text=True,
                             timeout=120)
        return json.loads(out.stdout.strip().splitlines()[-1])


def verify(run, population):
    """Output checks; returns a list of failures (empty: correct)."""
    errors = []
    lines = (run.dir / "events.tsv").read_text().splitlines()
    if population is not None:
        lines += (run.dir.parent / "population.tsv").read_text().splitlines()
    errors += check.check_lines(lines)
    replayed = run.gen["stats_start"]["events"]["journal_records_replayed"]
    live = run.gen["stats_start"]["gauges"]["live_sessions"]
    want_replayed = population["records"] if population else 0
    want_live = (population["apps"] if population else 0) + LIVE_APPS
    if replayed != want_replayed:
        errors.append(f"journal_records_replayed {replayed}, generated "
                      f"{want_replayed}")
    if live != want_live:
        errors.append(f"live_sessions {live}, expected {want_live}")
    return errors


def validity(run, context):
    """Reasons the run says more about the generator than the daemon
    (empty: valid).  Reported beside the result, not as an output error."""
    problems = []
    late = measure.pct(run.late, 0.99)
    if late is not None and late / 1e6 > MAX_GEN_LATE_MS:
        problems.append(f"generator ran {late / 1e6:.2f} ms late at p99")
    if run.gen["max_threads"] > context["nproc"]:
        problems.append(f"generator used {run.gen['max_threads']} threads")
    if run.gen["max_sockets"] > context["nproc"]:
        problems.append(f"generator opened {run.gen['max_sockets']} sockets")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NODES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        rmsd, gen = build(build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as error:
        log("build failed:", error)
        return 1

    work = build_dir / "runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    context = host_context(work)
    bench = Bench(args, rmsd, gen, work)
    try:
        if args.workload == "population":
            bench.make_population()
        setups = bench.one_run(work / "untraced", False, SETUPS)
        run = measure.Run(work / "untraced")
        client, samples = measure.client_metrics(run, setups)
        log("setup_s", " ".join(f"{t:.4f}" for t in setups))
        errors = verify(run, bench.population)
        problems = validity(run, context)
        attempted, failed = run.attempted(), run.failed()
        if args.trace:
            layer = measure.per_layer(run, client,
                                      bench.replay_ms(work / "untraced"))
            traced_setups = bench.one_run(work / "traced", True, 1)
            traced = measure.Run(work / "traced")
            t_client, _ = measure.client_metrics(traced, traced_setups)
            errors += verify(traced, bench.population)
            problems += validity(traced, context)
            attempted += traced.attempted()
            failed += traced.failed()
            layer.update(trace_tool.analyse(work / "traced", traced, t_client))
            for name, value in client.items():
                layer[f"trace.overhead_pct.{name}"] = (
                    100.0 * (t_client[name] - value) / value)
            metrics = {name: {"value": value, "unit": measure.unit_of(name)}
                       for name, value in layer.items()}
        else:
            metrics = {name: {"value": value, "unit": measure.UNITS[name]}
                       for name, value in measure.end_to_end(client).items()}
    except (RuntimeError, ValueError, subprocess.SubprocessError,
            OSError) as error:
        log("run failed:", error)
        return 1

    for error in errors:
        log("CHECK FAILED:", error)
    for problem in problems:
        log("INVALID RUN:", problem)
    context["valid"] = not problems
    context["invalid_reasons"] = problems
    missing = [n for n, m in metrics.items() if m["value"] is None]
    if missing:
        log("metrics without enough samples:", ", ".join(missing))
        return 1
    print("context " + json.dumps(context))
    print("samples " + json.dumps(samples))
    print(json.dumps({"correct": not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
