#pragma once
// Per-layer replay: one chromosome driven through each layer's public entry
// points in the order the engine calls them, with every call timed from the
// benchmark, its device counter delta taken, and the delta priced by the
// PerfModel.  The engines' own stage spans are not used: they pin the host
// seconds of every device stage to 0, so the simulator's real cost would
// show up nowhere.
//
// The replay writes its own output file; measure_ledger() checks it is
// byte-identical to an untraced run_genome of the same chromosome, and that
// the replay moved the device counters exactly as the engine did.

#include <filesystem>

#include "perfbench/src/util.hpp"
#include "src/core/backend.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/device/device.hpp"

namespace perfbench {

/// Real seconds, counts and modeled seconds of one replayed chromosome.
/// `*_device_s` is host wall time spent inside a simulated device call;
/// `*_host_s` is host wall time of host code; `*_modeled_s` is the PerfModel
/// price of the call's counter delta.
struct LayerTimes {
  double reads_s = 0, cal_p_s = 0, temp_input_s = 0;
  double window_read_s = 0, count_s = 0;
  double sort_device_s = 0, sort_host_s = 0, sort_modeled_s = 0;
  double lik_device_s = 0, lik_host_s = 0, lik_modeled_s = 0;
  double post_device_s = 0, post_host_s = 0, post_modeled_s = 0;
  double out_device_s = 0, out_host_s = 0, out_modeled_s = 0;
  double transfer_s = 0, transfer_modeled_s = 0;
  double plan_s = 0;
  double crc_s = 0;  ///< crc32 over crc_bytes (a probe, not a layer)
  u64 crc_bytes = 0;
  u64 records = 0, bad_records = 0, temp_bytes = 0;
  u64 sites = 0, words = 0, output_bytes = 0;
  u64 sort_instructions = 0, lik_instructions = 0, lik_global_loads = 0;
  u64 elements_real = 0, elements_padded = 0;
  u64 batches = 0, actual_peak_bytes = 0;
  gsnp::device::DeviceCounters counters;  ///< whole-replay delta
  double wall_s = 0;  ///< whole replay, start to finish

  /// Sums every field; the peak batch footprint takes the maximum.
  LayerTimes& operator+=(const LayerTimes& o);
  /// Sum of every layer's self time (the probe excluded).
  double self_seconds() const;
  double device_seconds() const {
    return sort_device_s + lik_device_s + post_device_s + out_device_s;
  }
  double modeled_seconds() const {
    return sort_modeled_s + lik_modeled_s + post_modeled_s + out_modeled_s +
           transfer_modeled_s;
  }
};

/// Replay `job` on `kind` (kGsnp needs `dev`) with the engine's shipped
/// defaults and the given batch budget, writing `temp_file` and
/// `output_file`.
LayerTimes replay_chromosome(const gsnp::core::ChromosomeJob& job,
                             gsnp::core::EngineKind kind,
                             gsnp::device::Device* dev, u64 batch_bytes,
                             const fs::path& temp_file,
                             const fs::path& output_file);

/// One chromosome measured three ways, `reps` times each, interleaved:
/// untraced run_genome (publish, fsync and manifest included), the bare
/// engine call (core::run_backend), and the traced replay.  Ratios are
/// taken within each repetition, then the median over repetitions.
struct Ledger {
  LayerTimes layers;         ///< from the repetition with the median
                             ///< unattributed share
  double untraced_wall = 0;  ///< median run_genome wall
  double engine_wall = 0;    ///< median run_backend wall
  /// Median of (run_genome wall - run_backend wall): publish, fsync, CRC
  /// and manifest work around the engine call.
  double pipeline_overhead = 0;
  /// Median of 1 - (layer self time + pipeline overhead) / run_genome wall.
  double unattributed_frac = 0;
  /// Median of replay wall / run_backend wall - 1.
  double trace_overhead_frac = 0;
  bool bytes_identical = false;     ///< every replay output == run_genome's
  bool counters_identical = false;  ///< every replay delta == the engine's
  u64 degraded = 0;                 ///< degraded chromosomes seen
  double modeled_wall_s = 0;        ///< RunReport::modeled_wall_seconds
};

Ledger measure_ledger(const gsnp::core::ChromosomeJob& job,
                      gsnp::core::EngineKind kind, u64 batch_bytes,
                      const fs::path& dir, int reps);

/// Add every per-layer metric, summed over `ledgers`.
void add_layer_metrics(Result& result, const std::vector<Ledger>& ledgers);

/// Fail `result` unless every ledger replayed byte- and counter-exactly.
void check_ledgers(Result& result, const std::vector<Ledger>& ledgers);

}  // namespace perfbench

namespace perfbench {

/// Service-layer figures of one service run (all zero on the genome
/// workloads, which run no service).
struct ServiceLayer {
  double queue_wait_p50_s = 0;
  double run_p50_s = 0;
  double rpc_p50_s = 0;
  double workers_busy_frac = 0;
  double events_per_job = 0;
  double spool_bytes_per_job = 0;
  u64 shed = 0;
  u64 failed = 0;
};

void add_service_layer_metrics(Result& result, const ServiceLayer& service);

}  // namespace perfbench
