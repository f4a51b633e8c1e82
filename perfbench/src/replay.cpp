#include "perfbench/src/replay.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/batcher.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/posterior.hpp"
#include "src/core/window.hpp"
#include "src/device/perf_model.hpp"
#include "src/reads/alignment.hpp"
#include "src/sortnet/multipass.hpp"

namespace perfbench {

using namespace gsnp;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call and, with a device, takes its counter delta and model
/// price: the measurement wrapped around every device entry point.
struct DeviceCall {
  device::Device* dev;
  const device::PerfModel& model;

  template <typename Fn>
  void operator()(double& wall, double& modeled, u64* instructions, Fn&& fn) {
    const device::DeviceCounters before = dev->counters();
    const auto t0 = Clock::now();
    fn();
    wall += since(t0);
    const device::DeviceCounters delta =
        device::counters_delta(before, dev->counters());
    modeled += model.seconds(delta);
    if (instructions) *instructions += delta.instructions;
  }
};

/// The engines' per-window row assembly (prior lookup, genotype selection
/// unless the device already selected, statistics columns).
void assemble_rows(const core::ChromosomeJob& job, core::PriorCache& priors,
                   const core::WindowRecords& win, const core::WindowObs& obs,
                   const std::vector<core::SiteStats>& stats,
                   const std::vector<core::TypeLikely>& type_likely,
                   const std::vector<core::PosteriorCall>* calls,
                   std::vector<core::SnpRow>& rows) {
  const genome::Reference& ref = *job.reference;
  const core::PriorParams params;
  rows.resize(win.size);
  for (u32 s = 0; s < win.size; ++s) {
    const u64 pos = win.start + s;
    const genome::KnownSnpEntry* known = job.dbsnp ? job.dbsnp->find(pos) : nullptr;
    core::PosteriorCall call;
    if (calls) {
      call = (*calls)[s];
    } else if (known) {
      call = core::select_genotype(
          core::genotype_log_priors(ref.base(pos), known, params),
          type_likely[s]);
    } else {
      call = core::select_genotype(priors.get(ref.base(pos), nullptr),
                                   type_likely[s]);
    }
    rows[s] = core::assemble_row(pos, ref.base(pos), known != nullptr, call,
                                 stats[s], obs.site(s), obs.site_hits(s));
  }
}

std::vector<core::GenotypePriors> window_priors(const core::ChromosomeJob& job,
                                                core::PriorCache& priors,
                                                const core::WindowRecords& win) {
  std::vector<core::GenotypePriors> out(win.size);
  for (u32 s = 0; s < win.size; ++s) {
    const u64 pos = win.start + s;
    out[s] = priors.get(job.reference->base(pos),
                        job.dbsnp ? job.dbsnp->find(pos) : nullptr);
  }
  return out;
}

void add_sort_stats(LayerTimes& t, const sortnet::SortStats& s) {
  t.elements_real += s.elements_real;
  t.elements_padded += s.elements_padded;
}

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  reads_s += o.reads_s;
  cal_p_s += o.cal_p_s;
  temp_input_s += o.temp_input_s;
  window_read_s += o.window_read_s;
  count_s += o.count_s;
  sort_device_s += o.sort_device_s;
  sort_host_s += o.sort_host_s;
  sort_modeled_s += o.sort_modeled_s;
  lik_device_s += o.lik_device_s;
  lik_host_s += o.lik_host_s;
  lik_modeled_s += o.lik_modeled_s;
  post_device_s += o.post_device_s;
  post_host_s += o.post_host_s;
  post_modeled_s += o.post_modeled_s;
  out_device_s += o.out_device_s;
  out_host_s += o.out_host_s;
  out_modeled_s += o.out_modeled_s;
  transfer_s += o.transfer_s;
  transfer_modeled_s += o.transfer_modeled_s;
  plan_s += o.plan_s;
  crc_s += o.crc_s;
  crc_bytes += o.crc_bytes;
  records += o.records;
  bad_records += o.bad_records;
  temp_bytes += o.temp_bytes;
  sites += o.sites;
  words += o.words;
  output_bytes += o.output_bytes;
  sort_instructions += o.sort_instructions;
  lik_instructions += o.lik_instructions;
  lik_global_loads += o.lik_global_loads;
  elements_real += o.elements_real;
  elements_padded += o.elements_padded;
  batches += o.batches;
  counters += o.counters;
  wall_s += o.wall_s;
  actual_peak_bytes = std::max(actual_peak_bytes, o.actual_peak_bytes);
  return *this;
}

double LayerTimes::self_seconds() const {
  return reads_s + cal_p_s + temp_input_s + window_read_s + count_s +
         sort_device_s + sort_host_s + lik_device_s + lik_host_s +
         post_device_s + post_host_s + out_device_s + out_host_s + transfer_s +
         plan_s;
}

LayerTimes replay_chromosome(const core::ChromosomeJob& job,
                             core::EngineKind kind, device::Device* dev,
                             u64 batch_bytes, const fs::path& temp_file,
                             const fs::path& output_file) {
  GSNP_CHECK(kind == core::EngineKind::kGsnp ||
             kind == core::EngineKind::kGsnpCpu);
  const bool on_device = kind == core::EngineKind::kGsnp;
  GSNP_CHECK(!on_device || dev != nullptr);
  const genome::Reference& ref = *job.reference;
  const u32 window_size = core::EngineConfig::kDefaultGsnpWindow;
  const device::PerfModel model;
  LayerTimes t;
  t.sites = ref.size();
  const auto start = Clock::now();
  const device::DeviceCounters dev_start =
      on_device ? dev->counters() : device::DeviceCounters{};
  DeviceCall call{dev, model};

  // -- cal_p pass: ingest, temporary input, recalibration counts.
  core::PMatrix pm;
  std::optional<core::NewPMatrix> npm;
  {
    auto t0 = Clock::now();
    reads::AlignmentReader reader(job.alignment_file, IngestPolicy{}, ref.size());
    compress::TempInputWriter temp(temp_file, ref.name());
    core::PMatrixCounter counter;
    t.reads_s += since(t0);
    for (;;) {
      t0 = Clock::now();
      std::optional<reads::AlignmentRecord> rec = reader.next();
      const auto t1 = Clock::now();
      t.reads_s += std::chrono::duration<double>(t1 - t0).count();
      if (!rec) break;
      ++t.records;
      temp.add(*rec);
      const auto t2 = Clock::now();
      t.temp_input_s += std::chrono::duration<double>(t2 - t1).count();
      if (rec->hit_count == 1) {
        const u64 hi = std::min<u64>(rec->pos + rec->length, ref.size());
        for (u64 p = rec->pos; p < hi; ++p) {
          const u8 r = ref.base(p);
          if (r >= kNumBases) continue;
          reads::SiteObservation so;
          if (!reads::observe_site(*rec, p, so)) continue;
          counter.add(so.quality, so.coord, r, so.base);
        }
      }
      t.cal_p_s += since(t2);
    }
    t.bad_records = reader.stats().records_quarantined +
                    reader.stats().records_unsupported;
    t0 = Clock::now();
    t.temp_bytes = temp.finish();
    t.temp_input_s += since(t0);
    t0 = Clock::now();
    pm = core::finalize_p_matrix(counter);
    npm.emplace(pm);
    t.cal_p_s += since(t0);
  }
  std::optional<core::DeviceScoreTables> tables;
  if (on_device)
    call(t.transfer_s, t.transfer_modeled_s, nullptr,
         [&] { tables.emplace(*dev, pm, *npm); });

  // -- windows.
  auto t0 = Clock::now();
  core::BaseWordWindow sparse(window_size);
  auto temp_reader = std::make_shared<compress::TempInputReader>(temp_file);
  core::WindowLoader loader([temp_reader] { return temp_reader->next(); },
                            ref.size(), window_size);
  t.window_read_s += since(t0);
  t0 = Clock::now();
  core::SnpOutputWriter writer(output_file, ref.name());
  t.out_host_s += since(t0);
  core::PriorCache priors{core::PriorParams{}};
  core::WindowRecords win;
  core::WindowObs obs;
  std::vector<core::SiteStats> stats;
  std::vector<core::TypeLikely> type_likely;
  std::vector<core::SnpRow> rows;
  std::vector<u32> last_words;

  double rle_wall = 0.0;
  const core::RleDictFn device_rle = [&](std::span<const u32> column,
                                         std::vector<u8>& out) {
    const auto r0 = Clock::now();
    compress::device_encode_rle_dict(*dev, column, out);
    rle_wall += since(r0);
  };
  const core::RleDictFn host_rle = core::host_rle_dict();

  for (;;) {
    t0 = Clock::now();
    const bool more = loader.next(win);
    t.window_read_s += since(t0);
    if (!more) break;
    t0 = Clock::now();
    core::count_window(win, obs, stats, nullptr, &sparse);
    t.count_s += since(t0);
    t.words += sparse.words.size();

    std::optional<core::BatchPlan> plan;
    const auto plan_window = [&] {
      if (batch_bytes == 0) return;
      const auto p0 = Clock::now();
      plan = core::plan_batches(sparse.offsets, batch_bytes);
      t.plan_s += since(p0);
      t.batches += plan->batches.size();
    };

    if (on_device) {
      plan_window();
      if (plan) {
        t0 = Clock::now();
        const std::vector<core::GenotypePriors> wp = window_priors(job, priors, win);
        t.post_host_s += since(t0);
        type_likely.resize(win.size);
        std::vector<core::PosteriorCall> calls(win.size);
        for (const core::SiteBatch& b : plan->batches) {
          const u64 batch_base = dev->allocated_bytes();
          dev->reset_peak_watermark();
          std::vector<u64> boffsets(b.sites() + 1);
          for (u32 s = 0; s <= b.sites(); ++s)
            boffsets[s] = sparse.offsets[b.begin + s] - b.words_begin;
          {
            std::optional<device::DeviceBuffer<u32>> words_dev;
            std::optional<device::DeviceBuffer<u64>> offsets_dev;
            call(t.transfer_s, t.transfer_modeled_s, nullptr, [&] {
              words_dev.emplace(dev->to_device(
                  std::span<const u32>(sparse.words)
                      .subspan(b.words_begin, b.words())));
            });
            call(t.sort_device_s, t.sort_modeled_s, &t.sort_instructions, [&] {
              add_sort_stats(t, sortnet::sort_device_multipass_resident(
                                    *dev, *words_dev, boffsets));
            });
            call(t.transfer_s, t.transfer_modeled_s, nullptr, [&] {
              offsets_dev.emplace(dev->to_device(std::span<const u64>(boffsets)));
            });
            const device::DeviceCounters before = dev->counters();
            call(t.lik_device_s, t.lik_modeled_s, &t.lik_instructions, [&] {
              const std::vector<core::TypeLikely> btl =
                  core::device_likelihood_sparse_resident(
                      *dev, *words_dev, *offsets_dev, b.sites(), *tables);
              std::copy(btl.begin(), btl.end(), type_likely.begin() + b.begin);
            });
            t.lik_global_loads +=
                device::counters_delta(before, dev->counters()).global_loads();
          }
          call(t.post_device_s, t.post_modeled_s, nullptr, [&] {
            const std::vector<core::PosteriorCall> bcalls = core::device_posterior(
                *dev,
                std::span<const core::TypeLikely>(type_likely).subspan(b.begin, b.sites()),
                std::span<const core::GenotypePriors>(wp).subspan(b.begin, b.sites()));
            std::copy(bcalls.begin(), bcalls.end(), calls.begin() + b.begin);
          });
          t.actual_peak_bytes = std::max(
              t.actual_peak_bytes, dev->peak_since_watermark() - batch_base);
        }
        t0 = Clock::now();
        assemble_rows(job, priors, win, obs, stats, type_likely, &calls, rows);
        t.post_host_s += since(t0);
      } else {
        {
          std::optional<device::DeviceBuffer<u32>> words_dev;
          std::optional<device::DeviceBuffer<u64>> offsets_dev;
          call(t.transfer_s, t.transfer_modeled_s, nullptr, [&] {
            words_dev.emplace(dev->to_device(std::span<const u32>(sparse.words)));
          });
          call(t.sort_device_s, t.sort_modeled_s, &t.sort_instructions, [&] {
            add_sort_stats(t, sortnet::sort_device_multipass_resident(
                                  *dev, *words_dev, sparse.offsets));
          });
          call(t.transfer_s, t.transfer_modeled_s, nullptr, [&] {
            offsets_dev.emplace(
                dev->to_device(std::span<const u64>(sparse.offsets)));
          });
          const device::DeviceCounters before = dev->counters();
          call(t.lik_device_s, t.lik_modeled_s, &t.lik_instructions, [&] {
            type_likely = core::device_likelihood_sparse_resident(
                *dev, *words_dev, *offsets_dev, win.size, *tables);
          });
          t.lik_global_loads +=
              device::counters_delta(before, dev->counters()).global_loads();
        }
        t0 = Clock::now();
        const std::vector<core::GenotypePriors> wp = window_priors(job, priors, win);
        t.post_host_s += since(t0);
        std::vector<core::PosteriorCall> calls;
        call(t.post_device_s, t.post_modeled_s, nullptr,
             [&] { calls = core::device_posterior(*dev, type_likely, wp); });
        t0 = Clock::now();
        assemble_rows(job, priors, win, obs, stats, type_likely, &calls, rows);
        t.post_host_s += since(t0);
      }
      rle_wall = 0.0;
      double out_wall = 0.0;
      call(out_wall, t.out_modeled_s, nullptr,
           [&] { writer.write_window(rows, device_rle); });
      t.out_device_s += rle_wall;
      t.out_host_s += out_wall - rle_wall;
    } else {
      t0 = Clock::now();
      core::likelihood_sort_cpu(sparse);
      t.sort_host_s += since(t0);
      plan_window();
      t0 = Clock::now();
      type_likely.resize(win.size);
      if (plan) {
        for (const core::SiteBatch& b : plan->batches)
          for (u32 s = b.begin; s < b.end; ++s)
            type_likely[s] = core::likelihood_sparse_site(sparse.site(s), *npm);
      } else {
        for (u32 s = 0; s < win.size; ++s)
          type_likely[s] = core::likelihood_sparse_site(sparse.site(s), *npm);
      }
      t.lik_host_s += since(t0);
      t0 = Clock::now();
      assemble_rows(job, priors, win, obs, stats, type_likely, nullptr, rows);
      t.post_host_s += since(t0);
      t0 = Clock::now();
      writer.write_window(rows, host_rle);
      t.out_host_s += since(t0);
    }
    if (on_device) last_words = sparse.words;
    t0 = Clock::now();
    sparse.reset(window_size);
    t.count_s += since(t0);
  }
  t0 = Clock::now();
  t.output_bytes = writer.finish();
  t.out_host_s += since(t0);
  t.wall_s = since(start);
  if (on_device) t.counters = device::counters_delta(dev_start, dev->counters());

  // Probe: the CRC-32 every transfer verifies, over the last window's
  // base words (outside the replay wall).
  if (!last_words.empty()) {
    const std::size_t bytes = last_words.size() * sizeof(u32);
    for (int i = 0; i < 5; ++i) {
      t0 = Clock::now();
      const u32 crc = crc32(last_words.data(), bytes);
      // Keep the unused checksum (and so the timed work) from being
      // optimized away.
      asm volatile("" : : "r"(crc) : "memory");
      t.crc_s += since(t0);
      t.crc_bytes += bytes;
    }
  }
  return t;
}

namespace {

bool same_counters(const device::DeviceCounters& a,
                   const device::DeviceCounters& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

Ledger measure_ledger(const core::ChromosomeJob& job, core::EngineKind kind,
                      u64 batch_bytes, const fs::path& dir, int reps) {
  const core::BackendInfo& backend = core::backend_info(kind);
  fs::create_directories(dir);
  flush_filesystem(dir);
  Ledger ledger;
  ledger.bytes_identical = true;
  ledger.counters_identical = true;
  std::vector<double> untraced, engine, overhead, unattributed, trace_overhead;
  std::vector<LayerTimes> layers;
  for (int rep = 0; rep < reps; ++rep) {
    double untraced_s = 0.0, engine_s = 0.0;
    LayerTimes replayed;
    std::string reference;
    device::DeviceCounters engine_counters;
    // Untraced: the chromosome as the pipeline runs it.
    const auto run_untraced = [&] {
      const fs::path untraced_dir = dir / "untraced";
      fs::remove_all(untraced_dir);
      core::GenomeRunConfig config;
      config.chromosomes = {job};
      config.output_dir = untraced_dir;
      config.batch_bytes = batch_bytes;
      std::optional<device::Device> dev;
      if (backend.needs_device) dev.emplace();
      Timer timer;
      const core::GenomeReport report =
          core::run_genome(config, kind, dev ? &*dev : nullptr);
      untraced_s = timer.seconds();
      if (report.any_degraded()) ++ledger.degraded;
      ledger.modeled_wall_s = report.per_chromosome.at(0).modeled_wall_seconds;
      engine_counters = report.per_chromosome.at(0).device_counters;
      reference = read_bytes(report.output_files.at(0));
    };
    // The bare engine call the pipeline wraps.
    core::EngineConfig ec;
    ec.alignment_file = job.alignment_file;
    ec.reference = job.reference;
    ec.dbsnp = job.dbsnp;
    ec.batch_bytes = batch_bytes;
    ec.temp_file = dir / "engine.tmp";
    ec.output_file = dir / "engine.out";
    const auto run_engine = [&] {
      std::optional<device::Device> dev;
      if (backend.needs_device) dev.emplace();
      Timer timer;
      (void)core::run_backend(backend, ec, dev ? &*dev : nullptr);
      engine_s = timer.seconds();
    };
    const auto run_replay = [&] {
      std::optional<device::Device> dev;
      if (backend.needs_device) dev.emplace();
      replayed = replay_chromosome(job, kind, dev ? &*dev : nullptr,
                                   batch_bytes, dir / "replay.tmp",
                                   dir / "replay.out");
    };
    // Rotate the order so that no run always goes first (cold) or last.
    const std::function<void()> steps[] = {run_untraced, run_engine, run_replay};
    for (int k = 0; k < 3; ++k) steps[(rep + k) % 3]();

    untraced.push_back(untraced_s);
    engine.push_back(engine_s);
    layers.push_back(replayed);
    if (read_bytes(dir / "replay.out") != reference ||
        read_bytes(ec.output_file) != reference)
      ledger.bytes_identical = false;
    if (backend.needs_device && !same_counters(replayed.counters, engine_counters))
      ledger.counters_identical = false;

    // Ratios within one repetition, whose three runs follow each other, so
    // machine speed drifting between repetitions cancels out.
    overhead.push_back(untraced.back() - engine.back());
    unattributed.push_back(
        1.0 - (layers.back().self_seconds() + overhead.back()) / untraced.back());
    trace_overhead.push_back(layers.back().wall_s / engine.back() - 1.0);
  }
  ledger.untraced_wall = median(untraced);
  ledger.engine_wall = median(engine);
  ledger.pipeline_overhead = median(overhead);
  ledger.unattributed_frac = median(unattributed);
  ledger.trace_overhead_frac = median(trace_overhead);
  // The layer figures come from the repetition whose unattributed share is
  // the median one.
  double best = 1e300;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const double d = std::abs(unattributed[i] - ledger.unattributed_frac);
    if (d < best) {
      best = d;
      ledger.layers = layers[i];
    }
  }
  return ledger;
}

void check_ledgers(Result& result, const std::vector<Ledger>& ledgers) {
  for (const Ledger& l : ledgers) {
    if (!l.bytes_identical)
      result.fail("replayed output differs from the untraced run_genome output");
    if (!l.counters_identical)
      result.fail("replay moved the device counters differently from the engine");
  }
}

void add_layer_metrics(Result& r, const std::vector<Ledger>& ledgers) {
  LayerTimes s;
  double untraced = 0, engine = 0, overhead = 0;
  double unattributed = 0, trace_overhead = 0;  // wall-weighted sums
  u64 degraded = 0;
  for (const Ledger& l : ledgers) {
    s += l.layers;
    untraced += l.untraced_wall;
    engine += l.engine_wall;
    overhead += l.pipeline_overhead;
    unattributed += l.unattributed_frac * l.untraced_wall;
    trace_overhead += l.trace_overhead_frac * l.engine_wall;
    degraded += l.degraded;
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto count = [](u64 v) { return static_cast<double>(v); };

  r.add("reads.ingest_s", s.reads_s, "s");
  r.add("reads.ns_per_record", 1e9 * ratio(s.reads_s, count(s.records)), "ns");
  r.add("reads.bad_records", count(s.bad_records), "count");
  r.add("core.cal_p_s", s.cal_p_s, "s");
  r.add("compress.temp_input_s", s.temp_input_s, "s");
  r.add("compress.temp_bytes_per_record",
        ratio(count(s.temp_bytes), count(s.records)), "B");
  r.add("core.window.read_s", s.window_read_s, "s");
  r.add("core.window.count_s", s.count_s, "s");
  r.add("core.window.words_per_site", ratio(count(s.words), count(s.sites)),
        "words");
  r.add("sortnet.device_s", s.sort_device_s, "s");
  r.add("sortnet.host_s", s.sort_host_s, "s");
  r.add("sortnet.modeled_s", s.sort_modeled_s, "s");
  r.add("sortnet.padded_frac",
        ratio(count(s.elements_padded), count(s.elements_real)), "ratio");
  r.add("sortnet.sim_instructions", count(s.sort_instructions), "count");
  r.add("core.likelihood.device_s", s.lik_device_s, "s");
  r.add("core.likelihood.host_s", s.lik_host_s, "s");
  r.add("core.likelihood.modeled_s", s.lik_modeled_s, "s");
  r.add("core.likelihood.sim_instructions", count(s.lik_instructions), "count");
  r.add("core.likelihood.global_loads", count(s.lik_global_loads), "count");
  r.add("core.posterior.device_s", s.post_device_s, "s");
  r.add("core.posterior.host_s", s.post_host_s, "s");
  r.add("core.posterior.modeled_s", s.post_modeled_s, "s");
  r.add("compress.output_device_s", s.out_device_s, "s");
  r.add("compress.output_host_s", s.out_host_s, "s");
  r.add("compress.output_modeled_s", s.out_modeled_s, "s");
  r.add("compress.output_bytes_per_site",
        ratio(count(s.output_bytes), count(s.sites)), "B");
  r.add("device.transfer_s", s.transfer_s, "s");
  r.add("device.h2d_bytes", count(s.counters.h2d_bytes), "B");
  r.add("device.d2h_bytes", count(s.counters.d2h_bytes), "B");
  r.add("device.crc_gbps", ratio(count(s.crc_bytes), s.crc_s) / 1e9, "GB/s");
  r.add("device.kernel_launches", count(s.counters.kernel_launches), "count");
  r.add("device.sim_ns_per_inst",
        1e9 * ratio(s.device_seconds(), count(s.counters.instructions)), "ns");
  r.add("core.batcher.plan_s", s.plan_s, "s");
  r.add("core.batcher.batches", count(s.batches), "count");
  r.add("core.batcher.actual_peak_bytes", count(s.actual_peak_bytes), "B");
  r.add("core.pipeline.overhead_s", overhead, "s");
  r.add("core.pipeline.degraded", count(degraded), "count");
  r.add("ledger.unattributed_frac", ratio(unattributed, untraced), "frac");
  r.add("obs.trace_overhead_frac", ratio(trace_overhead, engine), "frac");
}

void add_service_layer_metrics(Result& r, const ServiceLayer& s) {
  r.add("service.queue_wait_p50_s", s.queue_wait_p50_s, "s");
  r.add("service.run_p50_s", s.run_p50_s, "s");
  r.add("service.rpc_p50_s", s.rpc_p50_s, "s");
  r.add("service.workers_busy_frac", s.workers_busy_frac, "frac");
  r.add("service.events_per_job", s.events_per_job, "count");
  r.add("service.spool_bytes_per_job", s.spool_bytes_per_job, "B");
  r.add("service.shed", static_cast<double>(s.shed), "count");
  r.add("service.failed", static_cast<double>(s.failed), "count");
}

}  // namespace perfbench
