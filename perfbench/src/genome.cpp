// The two whole-genome workloads.
//
//   genome_device     8 karyotype-scaled chromosomes at 10x with dbSNP
//                     priors on backend gsnp, shipped defaults (serial,
//                     256K window, no batching): the paper's production
//                     setting, where the simulated device layers dominate.
//   genome_host_deep  the same karyotype shape at 30x plus deep pileup
//                     islands on backend gsnp-cpu: ingest, cal_p and the
//                     host layers dominate and the simulator does no work,
//                     so a device-only change must leave it unchanged.
//
// A job is one core::run_genome over the whole genome.  Every job's output
// files must be byte-identical to the other backend's output for the same
// input (the engines' bit-exactness contract), and calls are scored against
// the planted truth.

#include <cstdio>

#include "perfbench/src/inputs.hpp"
#include "perfbench/src/replay.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/core/backend.hpp"
#include "src/core/genome_pipeline.hpp"

namespace perfbench {

using namespace gsnp;

namespace {

/// Set-up repetitions per sampling point; set-up is sampled before the
/// warm-up and again after the measured phase, and the median of all
/// samples is reported, so one slow stretch of the run does not decide it.
constexpr int kSetupReps = 15;
/// A measured phase runs at least this many jobs, whatever --seconds says.
constexpr int kMinJobs = 3;
/// Interleaved repetitions of each ledger measurement in a traced run.
constexpr int kLedgerReps = 5;

struct GenomeWorkload {
  const char* name;
  core::EngineKind kind;       ///< the backend measured
  core::EngineKind reference;  ///< the backend whose bytes are the reference
  GenomeShape shape;
};

GenomeWorkload find_workload(const std::string& name) {
  if (name == "genome_device")
    return {"genome_device", core::EngineKind::kGsnp,
            core::EngineKind::kGsnpCpu, karyotype_shape(8, 150'000, 10.0)};
  GSNP_CHECK_MSG(name == "genome_host_deep", "unknown workload " << name);
  GenomeShape shape = karyotype_shape(8, 100'000, 30.0);
  shape.hotspots = true;
  return {"genome_host_deep", core::EngineKind::kGsnpCpu,
          core::EngineKind::kGsnp, shape};
}

struct JobOutcome {
  double wall = 0.0;
  double modeled = 0.0;  ///< summed modeled_wall_seconds
  bool degraded = false;
  std::vector<std::string> digests;  ///< per chromosome, in job order
  std::vector<fs::path> outputs;
};

JobOutcome run_job(const LoadedGenome& genome, core::EngineKind kind,
                   device::Device* dev, const fs::path& out_dir) {
  fs::remove_all(out_dir);
  core::GenomeRunConfig config;
  config.chromosomes = genome.jobs;
  config.output_dir = out_dir;
  JobOutcome out;
  Timer timer;
  const core::GenomeReport report = core::run_genome(
      config, kind, core::backend_info(kind).needs_device ? dev : nullptr);
  out.wall = timer.seconds();
  out.degraded = report.any_degraded();
  for (const core::RunReport& r : report.per_chromosome)
    out.modeled += r.modeled_wall_seconds;
  out.outputs = report.output_files;
  for (const fs::path& p : report.output_files)
    out.digests.push_back(file_sha256(p));
  return out;
}

Result trace_run(const Options& opts, const GenomeWorkload& wl,
                 const LoadedGenome& genome) {
  Result r;
  // The largest chromosome, chr1, is replayed.
  const Ledger ledger = measure_ledger(genome.jobs.front(), wl.kind, 0,
                                       opts.workdir / "ledger", kLedgerReps);
  add_layer_metrics(r, {ledger});
  add_service_layer_metrics(r, ServiceLayer{});
  check_ledgers(r, {ledger});
  r.attempted = 3 * kLedgerReps;
  r.failed = ledger.degraded;
  if (ledger.degraded) r.fail("a replayed chromosome degraded to the CPU engine");
  return r;
}

}  // namespace

Result run_genome_workload(const Options& opts) {
  const GenomeWorkload wl = find_workload(opts.workload);
  Timer stage;
  const std::vector<ChromInput> inputs =
      make_inputs(opts.workdir / "inputs", wl.shape, opts.seed);
  log_stage("inputs", stage);

  // Set-up: read every FASTA and dbSNP file and construct the device.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      Timer timer;
      const std::unique_ptr<LoadedGenome> loaded = load_inputs(inputs);
      const device::Device probe;
      setup.push_back(timer.seconds());
    }
  };
  sample_setup();
  const std::unique_ptr<LoadedGenome> genome = load_inputs(inputs);
  device::Device dev;
  log_stage("set-up", stage);
  if (opts.trace) return trace_run(opts, wl, *genome);

  Result r;
  // The reference bytes come from the other backend (§IV-G).
  device::Device reference_dev;
  const JobOutcome reference = run_job(*genome, wl.reference, &reference_dev,
                                       opts.workdir / "reference");
  log_stage("reference", stage);
  const auto check = [&](const JobOutcome& job, const char* what) {
    bool ok = true;
    if (job.degraded) {
      r.problems.push_back(std::string(what) + ": a chromosome degraded to the CPU engine");
      ok = false;
    }
    if (job.digests != reference.digests) {
      r.fail(std::string(what) + ": output bytes differ from the " +
             core::backend_info(wl.reference).name + " reference");
      ok = false;
    }
    return ok;
  };

  reset_peak_rss();
  const JobOutcome warmup = run_job(*genome, wl.kind, &dev, opts.workdir / "job");
  check(warmup, "warm-up job");
  Score score;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    score += score_output(warmup.outputs[i], inputs[i].truth);
  log_stage("warm-up", stage);

  std::vector<double> walls;
  std::vector<double> modeled;
  flush_filesystem(opts.workdir);
  Timer phase;
  while (static_cast<int>(walls.size()) < kMinJobs || phase.seconds() < opts.seconds) {
    ++r.attempted;
    try {
      const JobOutcome job = run_job(*genome, wl.kind, &dev, opts.workdir / "job");
      walls.push_back(job.wall);
      modeled.push_back(job.modeled);
      if (job.modeled != warmup.modeled)
        r.fail("modeled device seconds differ between identical jobs");
      if (!check(job, "measured job")) ++r.failed;
    } catch (const std::exception& e) {
      ++r.failed;
      r.problems.push_back(std::string("job failed: ") + e.what());
      if (walls.empty() && phase.seconds() > opts.seconds) break;
    }
  }
  log_stage("measured", stage);
  log_samples("jobs", walls);
  const double peak_rss = peak_rss_mb();
  sample_setup();
  log_samples("set-up", setup);
  double total_wall = 0.0;
  for (const double w : walls) total_wall += w;
  const double sites = static_cast<double>(genome->sites);

  r.add("sites_per_s", total_wall > 0 ? sites * walls.size() / total_wall : 0.0, "1/s");
  r.add("job_p50_s", median(walls), "s");
  r.add("job_p90_s", nearest_rank(walls, 0.9), "s");
  r.add("peak_rss_mb", peak_rss, "MiB");
  r.add("setup_s", median(setup), "s");
  // Device seconds are modeled for whichever run used the device: the
  // measured jobs on genome_device, the reference run on genome_host_deep.
  r.add("modeled_device_s",
        core::backend_info(wl.kind).needs_device ? median(modeled) : reference.modeled,
        "s");
  r.add("ok_frac",
        r.attempted ? 1.0 - static_cast<double>(r.failed) / r.attempted : 0.0,
        "frac");
  r.add("snp_precision", score.precision(), "frac");
  r.add("snp_recall", score.recall(), "frac");
  std::fprintf(stderr,
               "perfbench: %s seed=%llu jobs=%zu sites=%llu tp=%llu fp=%llu fn=%llu\n",
               wl.name, static_cast<unsigned long long>(opts.seed), walls.size(),
               static_cast<unsigned long long>(genome->sites),
               static_cast<unsigned long long>(score.tp),
               static_cast<unsigned long long>(score.fp),
               static_cast<unsigned long long>(score.fn));
  return r;
}

}  // namespace perfbench
