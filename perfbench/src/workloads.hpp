#pragma once
// The benchmark's workloads.  Each one generates its inputs from the seed,
// times its set-up, runs a warm-up job outside the measured phase, measures
// for the requested seconds, and checks every output it timed.

#include <string>

#include "perfbench/src/util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir;
};

/// "genome_device" and "genome_host_deep": whole genomes through
/// core::run_genome.  With opts.trace the run replays one chromosome through
/// each layer instead (see replay.hpp) and reports the per-layer metrics.
Result run_genome_workload(const Options& opts);

/// "service_mixed": an in-process Daemon loaded closed-loop by line-protocol
/// clients.  With opts.trace the run adds the service-layer metrics and a
/// per-layer replay of one service chromosome on both backends.
Result run_service_workload(const Options& opts);

/// Exactness and replay-fidelity checks of the benchmark itself; returns the
/// number of failed checks.
int run_self_test(const fs::path& workdir);

}  // namespace perfbench
