// The one runtime-tuning surface shared by every entry point.
//
// The re-scheduling interval and strict equi-partitioning used to be
// scattered across Server::Config and per-tool flag parsing.
// RuntimeOptions collects them: tools parse into it once
// (tools/cli_options.hpp) and Server::Config::fromRuntime() projects out
// the server's subset. Endpoints stay in cli::Options — they are per-tool
// wiring, not runtime tuning.
//
// Every knob keeps the paper-faithful default.
#pragma once

#include "coorm/common/time.hpp"

namespace coorm {

struct RuntimeOptions {
  /// Re-scheduling interval (paper: 1 s).
  Time reschedInterval = sec(1);
  /// Strict equi-partitioning (no filling).
  bool strictEquiPartition = false;
};

}  // namespace coorm
