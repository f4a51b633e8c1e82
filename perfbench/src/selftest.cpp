// The benchmark's own tests.
//
//   exactness        The exact figures — modeled device seconds, device
//                    counters, output bytes, precision/recall and the
//                    batcher counts — are bit-identical across two runs of
//                    the same inputs.  A difference is a bug, not noise.
//   replay fidelity  The traced per-layer replay of a small chromosome
//                    writes bytes identical to run_genome and moves the
//                    device counters exactly as the engine does, for gsnp,
//                    gsnp-cpu and batched gsnp; it reports the ledger's
//                    unattributed share and the tracing overhead.

#include <cstdio>
#include <cstring>
#include <map>

#include "perfbench/src/inputs.hpp"
#include "perfbench/src/replay.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/genome_pipeline.hpp"

namespace perfbench {

using namespace gsnp;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct GenomeRun {
  std::vector<std::string> digests;
  double modeled = 0.0;
  device::DeviceCounters counters;
  core::BatchStats batch;
  Score score;
};

GenomeRun run_once(const std::vector<ChromInput>& inputs, core::EngineKind kind,
                   u64 batch_bytes, const fs::path& out_dir) {
  const std::unique_ptr<LoadedGenome> genome = load_inputs(inputs);
  core::GenomeRunConfig config;
  config.chromosomes = genome->jobs;
  config.output_dir = out_dir;
  config.batch_bytes = batch_bytes;
  device::Device dev;
  const core::GenomeReport report = core::run_genome(config, kind, &dev);
  GenomeRun run;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    run.digests.push_back(file_sha256(report.output_files[i]));
    run.score += score_output(report.output_files[i], inputs[i].truth);
    const core::RunReport& r = report.per_chromosome[i];
    run.modeled += r.modeled_wall_seconds;
    run.counters += core::backend_info(kind).needs_device
                        ? r.device_counters
                        : device::DeviceCounters{};
    run.batch.batches += r.batch.batches;
    run.batch.planned_peak_bytes =
        std::max(run.batch.planned_peak_bytes, r.batch.planned_peak_bytes);
    run.batch.actual_peak_bytes =
        std::max(run.batch.actual_peak_bytes, r.batch.actual_peak_bytes);
  }
  return run;
}

bool same(const device::DeviceCounters& a, const device::DeviceCounters& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void test_exactness(const fs::path& dir) {
  GenomeShape shape = karyotype_shape(2, 40'000, 10.0);
  const std::vector<ChromInput> a = make_inputs(dir / "in_a", shape, 7);
  const std::vector<ChromInput> b = make_inputs(dir / "in_b", shape, 7);
  bool same_inputs = true;
  for (std::size_t i = 0; i < a.size(); ++i)
    same_inputs &= read_bytes(a[i].alignment) == read_bytes(b[i].alignment) &&
                   read_bytes(a[i].fasta) == read_bytes(b[i].fasta) &&
                   read_bytes(a[i].dbsnp) == read_bytes(b[i].dbsnp);
  expect(same_inputs, "exactness: one seed generates byte-identical inputs");

  const u64 budget = 256ull << 10;
  const GenomeRun d1 = run_once(a, core::EngineKind::kGsnp, 0, dir / "d1");
  const GenomeRun d2 = run_once(b, core::EngineKind::kGsnp, 0, dir / "d2");
  const GenomeRun c1 = run_once(a, core::EngineKind::kGsnpCpu, 0, dir / "c1");
  const GenomeRun b1 = run_once(a, core::EngineKind::kGsnp, budget, dir / "b1");
  const GenomeRun b2 = run_once(b, core::EngineKind::kGsnp, budget, dir / "b2");
  expect(d1.modeled > 0 && d1.modeled == d2.modeled,
         "exactness: modeled device seconds bit-identical across runs");
  expect(same(d1.counters, d2.counters),
         "exactness: device counters identical across runs");
  expect(d1.digests == d2.digests, "exactness: output bytes identical across runs");
  expect(d1.digests == c1.digests, "exactness: gsnp and gsnp-cpu outputs identical");
  expect(d1.score.tp == d2.score.tp && d1.score.fp == d2.score.fp &&
             d1.score.fn == d2.score.fn && d1.score.tp > 0,
         "exactness: precision/recall identical across runs");
  expect(b1.batch.batches > a.size() && b1.batch.batches == b2.batch.batches &&
             b1.batch.planned_peak_bytes == b2.batch.planned_peak_bytes &&
             b1.batch.actual_peak_bytes == b2.batch.actual_peak_bytes &&
             b1.batch.actual_peak_bytes <= budget,
         "exactness: batcher counts identical across runs, peak within budget");
  expect(b1.digests == d1.digests && b1.modeled == b2.modeled &&
             same(b1.counters, b2.counters),
         "exactness: batched output identical, batched counters repeat");
}

void test_replay(const fs::path& dir) {
  const std::vector<ChromInput> inputs =
      make_inputs(dir / "in", karyotype_shape(1, 60'000, 10.0), 11);
  const std::unique_ptr<LoadedGenome> genome = load_inputs(inputs);
  const struct {
    core::EngineKind kind;
    u64 batch_bytes;
    const char* label;
  } cases[] = {{core::EngineKind::kGsnp, 0, "gsnp"},
               {core::EngineKind::kGsnpCpu, 0, "gsnp-cpu"},
               {core::EngineKind::kGsnp, 256ull << 10, "gsnp batched"},
               {core::EngineKind::kGsnpCpu, 256ull << 10, "gsnp-cpu batched"}};
  for (const auto& c : cases) {
    const Ledger l = measure_ledger(genome->jobs.front(), c.kind, c.batch_bytes,
                                    dir / c.label, 3);
    expect(l.bytes_identical,
           std::string("replay: ") + c.label + " output identical to run_genome");
    expect(l.counters_identical,
           std::string("replay: ") + c.label + " device counters identical");
    expect(l.degraded == 0, std::string("replay: ") + c.label + " not degraded");
    expect(std::abs(l.layers.modeled_seconds() - l.modeled_wall_s) <=
               1e-9 * l.modeled_wall_s,
           std::string("replay: ") + c.label +
               " layer modeled seconds sum to the run's modeled wall");
    Result r;
    add_layer_metrics(r, {l});
    for (const Metric& m : r.metrics)
      if (m.name == "ledger.unattributed_frac" || m.name == "obs.trace_overhead_frac")
        std::printf("     %s %s = %.4f\n", c.label, m.name.c_str(), m.value);
  }
}

/// The workloads themselves: two runs on one seed agree exactly on every
/// exact metric.
void test_workload_exact(const fs::path& dir, const std::string& workload) {
  std::map<std::string, double> first;
  for (int run = 0; run < 2; ++run) {
    Options opts;
    opts.workload = workload;
    opts.seed = 3;
    opts.seconds = 0.0;
    opts.workdir = dir / (workload + std::to_string(run));
    const Result r = workload == "service_mixed" ? run_service_workload(opts)
                                                 : run_genome_workload(opts);
    expect(r.correct && r.failed == 0, workload + ": run " +
                                           std::to_string(run) + " correct");
    for (const Metric& m : r.metrics) {
      if (m.name != "modeled_device_s" && m.name != "snp_precision" &&
          m.name != "snp_recall" && m.name != "ok_frac")
        continue;
      if (run == 0) first[m.name] = m.value;
      else
        expect(first.at(m.name) == m.value,
               workload + ": " + m.name + " identical across runs");
    }
  }
}

}  // namespace

int run_self_test(const fs::path& workdir) {
  test_exactness(workdir / "exactness");
  test_replay(workdir / "replay");
  test_workload_exact(workdir / "workloads", "genome_device");
  test_workload_exact(workdir / "workloads", "service_mixed");
  std::printf("%s: %d failed check(s)\n", g_failures ? "FAIL" : "PASS",
              g_failures);
  return g_failures;
}

}  // namespace perfbench
