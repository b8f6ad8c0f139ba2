// The one runtime-tuning surface shared by every entry point.
//
// Scheduler worker threads, the re-scheduling interval and strict
// equi-partitioning used to be scattered across SchedulerOptions,
// Server::Config and per-tool flag parsing.
// RuntimeOptions collects them: tools parse into it once
// (tools/cli_options.hpp), Server::Config::fromRuntime() and
// SchedulerOptions(const RuntimeOptions&) project out the layer-specific
// subsets. Endpoints stay in cli::Options — they are per-tool wiring, not
// runtime tuning.
//
// Every knob keeps the paper-faithful default; `threads` changes only
// latency (any value yields bit-identical schedules).
#pragma once

#include "coorm/common/time.hpp"

namespace coorm {

struct RuntimeOptions {
  /// Scheduler worker threads (>= 1; 1 = serial, no OS threads spawned).
  int threads = 1;
  /// Re-scheduling interval (paper: 1 s).
  Time reschedInterval = sec(1);
  /// Strict equi-partitioning (no filling).
  bool strictEquiPartition = false;
};

}  // namespace coorm
