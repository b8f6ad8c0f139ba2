// The one runtime-tuning surface shared by every entry point.
//
// Scheduler worker threads, pipelined serving, the re-scheduling interval
// and strict equi-partitioning used to be scattered across
// SchedulerOptions, Server::Config and per-tool flag parsing.
// RuntimeOptions collects them: tools parse into it once
// (tools/cli_options.hpp), Server::Config::fromRuntime() and
// SchedulerOptions(const RuntimeOptions&) project out the layer-specific
// subsets. Endpoints stay in cli::Options — they are per-tool wiring, not
// runtime tuning.
//
// Every knob keeps the paper-faithful default; any combination yields
// bit-identical schedules (threads and pipeline change only latency).
#pragma once

#include "coorm/common/time.hpp"

namespace coorm {

struct RuntimeOptions {
  /// Scheduler worker threads (>= 1; 1 = serial, no OS threads spawned).
  int threads = 1;
  /// Two-stage pipelined serving (snapshot passes on a background lane);
  /// false restores the serial back-to-back server.
  bool pipeline = true;
  /// Re-scheduling interval (paper: 1 s).
  Time reschedInterval = sec(1);
  /// Strict equi-partitioning (no filling).
  bool strictEquiPartition = false;
  /// Incremental scheduling passes: epoch-clean all-started applications
  /// are served from the previous pass's cache and eqSchedule Step 2
  /// rewrites only the breakpoint ranges whose inputs changed. Output is
  /// bit-identical to a full recompute; false restores the always-full
  /// pass.
  bool incremental = true;
};

}  // namespace coorm
