#pragma once
// Shared helpers of the benchmark program: result printing, order
// statistics, process memory, file digests and seed derivation.

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/timer.hpp"
#include "src/common/types.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using gsnp::u64;

/// One named metric with its unit, printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result of one benchmark run: the last line of standard output.
struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons for `correct == false` or failed operations,
  /// printed to standard error.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit);
  /// Record a failed check: the run is no longer correct.
  void fail(std::string what);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;
};

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);
/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it; 0 if empty.
double nearest_rank(std::vector<double> v, double q);

/// Reset the kernel's peak-RSS mark of this process (VmHWM); false when the
/// kernel does not allow it.
bool reset_peak_rss();
/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Write back every dirty page of the filesystem holding `dir` (syncfs).
/// Called right before a measured phase, so that writeback of the inputs
/// and warm-up outputs, which the kernel would otherwise start about 30 s
/// after they were written, does not land inside the phase.
void flush_filesystem(const fs::path& dir);

/// SHA-256 of a file's bytes, hex.
std::string file_sha256(const fs::path& path);
/// Whole file as a byte string.
std::string read_bytes(const fs::path& path);

/// A 64-bit seed derived from the run seed and two salts (splitmix64).
u64 derive_seed(u64 seed, u64 a, u64 b = 0);

/// One JSON object describing the machine and environment the run used:
/// nproc, CPU model, SIMD dispatch level, OMP_* and GSNP_* variables.
std::string environment_json();

/// Print "perfbench: <what> <seconds>s" to standard error and restart
/// `timer`: the run's stage timeline.
void log_stage(const char* what, gsnp::Timer& timer);

/// Print "perfbench: <what> n=<size> min/median/max" to standard error.
void log_samples(const char* what, const std::vector<double>& v);

/// JSON string literal for `s`.
std::string json_quote(const std::string& s);

}  // namespace perfbench
