#include "src/core/engine.hpp"

#include <algorithm>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/posterior.hpp"
#include "src/core/simd.hpp"
#include "src/core/window.hpp"
#include "src/device/stream.hpp"
#include "src/obs/stream_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/reads/alignment.hpp"
#include "src/sortnet/multipass.hpp"

namespace gsnp::core {

double RunReport::total() const {
  double t = 0.0;
  for (const char* name : kComponents) t += component(name);
  return t;
}

namespace {

/// The cal_p_matrix pass: stream the alignment text file once, accumulate
/// the recalibration counts (unique hits vs the reference base), and — for
/// the GSNP engines — write the compressed temporary input alongside
/// (paper §V-A).
struct CalPResult {
  PMatrix pm;
  u64 records = 0;
  u64 temp_bytes = 0;
  IngestStats ingest;
};

CalPResult cal_p_pass(const EngineConfig& config, bool write_temp) {
  const genome::Reference& ref = *config.reference;
  const bool reuse_matrix = !config.p_matrix_in.empty();

  CalPResult result;
  // With a reloaded matrix and no temp file to produce (SOAPsnp engine), the
  // whole input pass is skipped — the point of the matrix-reuse feature.
  if (reuse_matrix && !write_temp) {
    result.pm = read_p_matrix(config.p_matrix_in);
    reads::AlignmentReader reader(config.alignment_file, config.ingest,
                                  ref.size());
    while (reader.next()) {  // count only (no calibration)
      if ((++result.records & 0xFFF) == 0) check_cancel(config.cancel, "cal_p");
    }
    result.ingest = reader.stats();
    if (!config.p_matrix_out.empty())
      write_p_matrix(config.p_matrix_out, result.pm);
    return result;
  }

  reads::AlignmentReader reader(config.alignment_file, config.ingest,
                                ref.size());
  std::optional<compress::TempInputWriter> temp;
  if (write_temp) {
    GSNP_CHECK_MSG(!config.temp_file.empty(),
                   "GSNP engines need config.temp_file");
    temp.emplace(config.temp_file, ref.name());
  }

  PMatrixCounter counter;
  while (auto rec = reader.next()) {
    if ((++result.records & 0xFFF) == 0) check_cancel(config.cancel, "cal_p");
    if (temp) temp->add(*rec);
    if (reuse_matrix || rec->hit_count != 1) continue;
    const u64 lo = rec->pos;
    const u64 hi = std::min<u64>(rec->pos + rec->length, ref.size());
    for (u64 p = lo; p < hi; ++p) {
      const u8 r = ref.base(p);
      if (r >= kNumBases) continue;
      reads::SiteObservation so;
      if (!reads::observe_site(*rec, p, so)) continue;
      counter.add(so.quality, so.coord, r, so.base);
    }
  }
  result.ingest = reader.stats();
  if (temp) result.temp_bytes = temp->finish();
  result.pm = reuse_matrix ? read_p_matrix(config.p_matrix_in)
                           : finalize_p_matrix(counter);
  if (!config.p_matrix_out.empty())
    write_p_matrix(config.p_matrix_out, result.pm);
  return result;
}

/// Posterior for a whole window -> rows (shared by all engines; identical
/// results by construction).  When `device_calls` is non-null the genotype
/// selection came from the device posterior kernel; only the statistics
/// columns are assembled on the host.  `lanes` caps the parallel_for
/// (1 = inline on the calling thread).
void window_posterior(const EngineConfig& config, PriorCache& priors,
                      const WindowRecords& win, const WindowObs& obs,
                      const std::vector<SiteStats>& stats,
                      const std::vector<TypeLikely>& type_likely,
                      std::vector<SnpRow>& rows,
                      const std::vector<PosteriorCall>* device_calls = nullptr,
                      std::size_t lanes = 1,
                      simd::SelectFn select = &select_genotype) {
  const genome::Reference& ref = *config.reference;
  rows.resize(win.size);
  parallel_for(win.size, 1024, [&](std::size_t si, std::size_t) {
    const u32 s = static_cast<u32>(si);
    const u64 pos = win.start + s;
    const genome::KnownSnpEntry* known =
        config.dbsnp ? config.dbsnp->find(pos) : nullptr;
    PosteriorCall call;
    if (device_calls) {
      call = (*device_calls)[s];
    } else if (known) {
      // dbSNP priors are site-specific; compute directly (thread-safe).
      call = select(genotype_log_priors(ref.base(pos), known, config.prior),
                    type_likely[s]);
    } else {
      // Novel sites share one of five cached priors (read-only access).
      call = select(priors.get(ref.base(pos), nullptr), type_likely[s]);
    }
    rows[s] = assemble_row(pos, ref.base(pos), known != nullptr, call,
                           stats[s], obs.site(s), obs.site_hits(s));
  }, lanes);
}

/// Window-pass record source over the raw text (SOAPsnp engine).  The cal_p
/// pass already quarantined and counted this file; the second pass must skip
/// the same records without double-writing the quarantine, so the policy's
/// quarantine_file is cleared here (skips are deterministic, so both passes
/// see the identical surviving record stream).
WindowLoader::RecordSource text_source(const std::filesystem::path& path,
                                       IngestPolicy policy, u64 ref_len) {
  policy.quarantine_file.clear();
  auto reader = std::make_shared<reads::AlignmentReader>(
      path, std::move(policy), ref_len);
  return [reader] { return reader->next(); };
}

WindowLoader::RecordSource temp_source(const std::filesystem::path& path) {
  auto reader = std::make_shared<compress::TempInputReader>(path);
  return [reader] { return reader->next(); };
}

/// One pipeline stage, measured once and recorded in both views: the
/// RunReport stopwatch (the Tables I/IV breakdowns) and — when a tracer is
/// attached — a span.  The stopwatch receives exactly the seconds the span
/// reports as host_sec, so the two views cannot drift.
class StageScope {
 public:
  StageScope(StopwatchSet& set, obs::Tracer* tracer, const char* name)
      : set_(set), name_(name), span_(tracer, name, "stage") {}

  /// Subtract simulator wall time misattributed to this stage: the GSNP
  /// engine runs device kernels through the host simulator, and that wall
  /// time belongs to the modeled device, not the host component.
  void deduct(double seconds) { deduct_ += seconds; }

  /// Annotate the stage's span (backend tag, SIMD dispatch level).
  void note(std::string_view key, std::string_view value) {
    span_.note(key, value);
  }

  ~StageScope() {
    const double sec = std::max(0.0, timer_.seconds() - deduct_);
    set_.add(name_, sec);
    span_.set_host_seconds(sec);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StopwatchSet& set_;
  const char* name_;
  obs::Tracer::Scope span_;  // declared before timer_: dtor order measures
  Timer timer_;              // the stage, then finishes the span
  double deduct_ = 0.0;
};

/// Run totals into the tracer's metrics registry (exported with the run).
void record_run_metrics(obs::Tracer* tracer, const char* engine,
                        const RunReport& report) {
  if (!tracer) return;
  obs::Metrics& m = tracer->metrics();
  m.add(std::string("runs_") + engine);
  m.add("sites", report.sites);
  m.add("windows", report.windows);
  m.add("records", report.records);
  m.add("output_bytes", report.output_bytes);
  m.add("temp_bytes", report.temp_bytes);
  m.add("records_quarantined", report.ingest.records_quarantined);
  m.set_gauge("peak_host_bytes", static_cast<double>(report.peak_host_bytes));
  m.set_gauge("peak_device_bytes",
              static_cast<double>(report.peak_device_bytes));
  if (report.batch.batches > 0) {
    m.add("batches", report.batch.batches);
    m.set_gauge("batch_budget_bytes",
                static_cast<double>(report.batch.budget_bytes));
    m.set_gauge("batch_planned_peak_bytes",
                static_cast<double>(report.batch.planned_peak_bytes));
    m.set_gauge("batch_actual_peak_bytes",
                static_cast<double>(report.batch.actual_peak_bytes));
  }
  if (const double total = report.total(); total > 0.0)
    m.set_gauge("sites_per_sec", static_cast<double>(report.sites) / total);
}

/// Plan the window's batches when batching is on (EngineConfig::batch_bytes
/// > 0) and fold the plan into the run aggregate.  The device engine packs
/// from the sparse base-word CSR (the payload that actually lands on the
/// card); SOAPsnp, which has no sparse CSR, packs from the observation CSR —
/// per-site observation counts, the same depth signal.  Only the device
/// engine executes the plan; the host backends plan to keep RunReport::batch
/// meaningful on every backend (their per-site loops are batch-invariant).
std::optional<BatchPlan> maybe_plan_batches(const EngineConfig& config,
                                            std::span<const u64> offsets,
                                            RunReport& report) {
  if (config.batch_bytes == 0) return std::nullopt;
  BatchPlan plan = plan_batches(offsets, config.batch_bytes);
  report.batch.absorb(plan);
  return plan;
}

// ---- the windowed pipeline driver ------------------------------------------
//
// Every engine is one loop over loader windows (paper Fig. 2): read and count
// window i into a slot, compute its likelihood and posterior, emit its rows.
// run_pipeline owns that loop; an engine supplies only the stages.  The slot
// ring has depth 1 when config.streams <= 1: every stage runs inline on the
// calling thread and device work goes to the default queue — the serial
// reference path.  Otherwise it has max(2, pipeline_depth) slots: a host
// thread pool prefetches window i+1 into the next slot while window i
// computes, and window i's output is deferred so it overlaps window i+1 (an
// ordered pool task on the host engines, the device's output lane on gsnp).
//
// Any depth produces byte-identical output (tests/test_determinism) because
// the same arithmetic runs on the same data in the same order: every
// per-window artifact is produced by exactly one stage, the stages of one
// window are chained in serial order, and concurrent stages never share
// mutable state — a slot's load writes everything but `rows`, and the
// deferred output reads only `rows`, in window order.

/// One window in flight.  `Store` is the engine's per-site structure: dense
/// base_occ (SOAPsnp) or sparse base_word (the GSNP engines).
template <class Store>
struct Slot {
  explicit Slot(u32 window) : store(window) {}
  WindowRecords win;
  WindowObs obs;
  std::vector<SiteStats> stats;
  Store store;
  std::optional<BatchPlan> plan;
  std::vector<SnpRow> rows;
  std::shared_future<void> write_done;  // deferred output of `rows`
  bool loaded = false;
};

using DenseSlot = Slot<BaseOccWindow>;
using SparseSlot = Slot<BaseWordWindow>;

void count(DenseSlot& s) {
  count_window(s.win, s.obs, s.stats, &s.store, nullptr);
}
void count(SparseSlot& s) {
  count_window(s.win, s.obs, s.stats, nullptr, &s.store);
}
/// Dense recycle is the full memset of the window (Table IV's dominant
/// SOAPsnp cost); sparse recycle only resets the offsets.
void recycle(DenseSlot& s, u32) { s.store.recycle(); }
void recycle(SparseSlot& s, u32 window) { s.store.reset(window); }
std::span<const u64> plan_offsets(const DenseSlot& s) { return s.obs.offsets; }
std::span<const u64> plan_offsets(const SparseSlot& s) {
  return s.store.offsets;
}
u64 store_bytes(const DenseSlot& s) { return s.store.bytes(); }
u64 store_bytes(const SparseSlot& s) {
  return s.store.words.size() * sizeof(u32);
}

/// Runs `Engine`'s stages over every window of the input; see above.  The
/// engine is constructed from (config, report, args...) and provides:
///   Slot                  DenseSlot or SparseSlot
///   kDeviceOutput         emit() defers on the device's own output lane, so
///                         the driver calls it inline even on the ring
///   name()                metrics tag
///   calibrate(pm)         score tables from the cal_p matrix
///   open(ring) -> u32     create the output writer; returns device streams
///   compute(slot)         likelihood + posterior -> slot.rows
///   emit(slot)            write slot.rows
///   finish() -> u64       flush, fill the run totals; returns output bytes
///   table_bytes()         host bytes of the score tables
template <class Engine, class... Args>
RunReport run_pipeline(const EngineConfig& config, Args&&... args) {
  GSNP_CHECK(config.reference != nullptr);
  const genome::Reference& ref = *config.reference;
  obs::Tracer* const tracer = config.tracer;
  RunReport report;
  report.sites = ref.size();
  Engine eng(config, report, std::forward<Args>(args)...);
  using EngineSlot = typename Engine::Slot;
  constexpr bool kSparse = std::is_same_v<EngineSlot, SparseSlot>;

  {
    // cal_p includes temp-file generation (the sparse engines stream their
    // windows from it) plus the score tables (paper Table IV note).
    const StageScope scope(report.host, tracer, "cal_p");
    CalPResult cal = cal_p_pass(config, /*write_temp=*/kSparse);
    report.records = cal.records;
    report.temp_bytes = cal.temp_bytes;
    report.ingest = cal.ingest;
    eng.calibrate(std::move(cal.pm));
  }

  const bool ring = config.streams >= 2;
  const u32 depth = ring ? std::max<u32>(2, config.pipeline_depth) : 1;
  const u32 window = config.window_size ? config.window_size
                     : kSparse          ? EngineConfig::kDefaultGsnpWindow
                                        : EngineConfig::kDefaultSoapsnpWindow;
  std::vector<EngineSlot> slots;
  slots.reserve(depth);
  for (u32 i = 0; i < depth; ++i) slots.emplace_back(window);
  WindowLoader loader(
      kSparse ? temp_source(config.temp_file)
              : text_source(config.alignment_file, config.ingest, ref.size()),
      ref.size(), window);
  report.streams_used = eng.open(ring);
  u64 max_store_bytes = 0;

  // On the ring this runs on the pool, one prefetch at a time, so loader
  // access is serialized; a failure (CancelledError, BatchBudgetError, ...)
  // unwinds through the prefetch future into the main loop.
  const auto load = [&](EngineSlot& s) {
    check_cancel(config.cancel, "window");
    {
      const StageScope scope(report.host, tracer, "read");
      s.loaded = loader.next(s.win);
    }
    if (!s.loaded) return;
    if (ring) {
      // The slot's previous occupant is recycled on the way in rather than
      // after its output, which may still be draining: numerically identical
      // (a zeroed matrix is a zeroed matrix), and it rides the prefetch.
      const StageScope scope(report.host, tracer, "recycle");
      recycle(s, window);
    }
    {
      const StageScope scope(report.host, tracer, "count");
      count(s);
    }
    max_store_bytes = std::max(max_store_bytes, store_bytes(s));
    s.plan = maybe_plan_batches(config, plan_offsets(s), report);
  };

  std::shared_future<void> last_write;  // ordered output chain (ring)
  std::future<void> prefetch;
  std::optional<ThreadPool> pool;  // last: joined before what its tasks use
  if (ring) {
    pool.emplace(std::max<u32>(1, config.host_threads));
    prefetch = pool->submit([&, s = &slots[0]] { load(*s); });
  }
  for (u64 i = 0;; ++i) {
    EngineSlot& slot = slots[i % depth];
    if (ring)
      prefetch.get();  // window i ingested (or end of input); rethrows
    else
      load(slot);
    if (!slot.loaded) break;
    ++report.windows;
    if (ring)
      prefetch = pool->submit([&, s = &slots[(i + 1) % depth]] { load(*s); });
    // The slot's previous occupant may still be writing its rows.
    if (slot.write_done.valid()) slot.write_done.wait();
    eng.compute(slot);
    if (ring && !Engine::kDeviceOutput) {
      // Window i writes while window i+1 computes.  Each task waits its
      // predecessor, so windows reach the file in index order.
      last_write = pool->submit([&eng, s = &slot, prev = last_write] {
                         if (prev.valid()) prev.wait();
                         eng.emit(*s);
                       })
                       .share();
      slot.write_done = last_write;
    } else {
      eng.emit(slot);
    }
    if (!ring) {
      const StageScope scope(report.host, tracer, "recycle");
      recycle(slot, window);
    }
  }
  // Join every outstanding write; get() rethrows the first failure.
  for (EngineSlot& s : slots)
    if (s.write_done.valid()) s.write_done.get();
  report.output_bytes = eng.finish();
  report.peak_host_bytes = depth * max_store_bytes + eng.table_bytes();
  record_run_metrics(tracer, eng.name(), report);
  return report;
}

// ---- per-engine stages -------------------------------------------------------

/// SOAPsnp: dense base_occ, Algorithm 1 likelihood (optionally over
/// soapsnp_threads), plain text output.
class SoapsnpEngine {
 public:
  using Slot = DenseSlot;
  static constexpr bool kDeviceOutput = false;

  SoapsnpEngine(const EngineConfig& config, RunReport& report)
      : config_(config),
        report_(report),
        priors_(config.prior),
        threads_(std::max(1, config.soapsnp_threads)) {}
  // The driver's deferred output tasks hold the engine's address.
  SoapsnpEngine(const SoapsnpEngine&) = delete;
  SoapsnpEngine& operator=(const SoapsnpEngine&) = delete;

  const char* name() const { return "soapsnp"; }
  void calibrate(PMatrix pm) { pm_ = std::move(pm); }
  u32 open(bool) {
    writer_.emplace(config_.output_file, config_.reference->name());
    return 0;
  }

  void compute(Slot& s) {
    {
      const StageScope scope(report_.host, config_.tracer, "likeli");
      type_likely_.resize(s.win.size);
      parallel_for(
          s.win.size, 64,
          [&](std::size_t i, std::size_t) {
            type_likely_[i] =
                likelihood_dense_site(s.store.site(static_cast<u32>(i)), pm_);
          },
          threads_);
    }
    const StageScope scope(report_.host, config_.tracer, "post");
    window_posterior(config_, priors_, s.win, s.obs, s.stats, type_likely_,
                     s.rows, nullptr, threads_);
  }

  void emit(const Slot& s) {
    const StageScope scope(report_.host, config_.tracer, "output");
    writer_->write_window(s.rows);
  }

  u64 finish() { return writer_->finish(); }
  u64 table_bytes() const { return pm_.flat().size() * sizeof(double); }

 private:
  const EngineConfig& config_;
  RunReport& report_;
  PriorCache priors_;
  const int threads_;  // parallel_for lane cap; 1 = inline
  PMatrix pm_;
  std::vector<TypeLikely> type_likely_;
  std::optional<SnpTextWriter> writer_;
};

/// Parameterization of the host sparse engine: gsnp_cpu and gsnp_simd run
/// the identical pipeline over the identical data; only the per-site
/// kernels (and the labels describing them) differ.  gsnp_cpu binds the
/// scalar reference kernels, gsnp_simd the dispatch level simd::kernels()
/// selected — so "forced scalar" gsnp_simd and gsnp_cpu execute the very
/// same functions.
struct HostSparseOps {
  const char* engine;      ///< metrics tag: "gsnp_cpu" / "gsnp_simd"
  const char* simd_level;  ///< non-null: span/metrics annotation
  simd::SparseSiteFn sparse_site;
  simd::SelectFn select;
};

/// What both sparse engines share: the score tables, the prior cache and
/// the compressed (GSNPOUT2) writer.
class SparseEngineBase {
 public:
  using Slot = SparseSlot;

  SparseEngineBase(const EngineConfig& config, RunReport& report)
      : config_(config),
        report_(report),
        tracer_(config.tracer),
        priors_(config.prior) {}
  // Deferred output tasks, stream ops and the RLE callback hold the
  // engine's address.
  SparseEngineBase(const SparseEngineBase&) = delete;
  SparseEngineBase& operator=(const SparseEngineBase&) = delete;

  void calibrate(PMatrix pm) {
    pm_ = std::move(pm);
    npm_.emplace(pm_);
  }
  u64 table_bytes() const {
    return (npm_->flat().size() + pm_.flat().size()) * sizeof(double);
  }

 protected:
  void open_writer() {
    writer_.emplace(config_.output_file, config_.reference->name());
  }

  const EngineConfig& config_;
  RunReport& report_;
  obs::Tracer* const tracer_;
  PriorCache priors_;
  PMatrix pm_;
  std::optional<NewPMatrix> npm_;
  std::vector<TypeLikely> type_likely_;
  std::optional<SnpOutputWriter> writer_;
};

/// GSNP's algorithm on the host (gsnp_cpu / gsnp_simd): per-array
/// quicksort, new_p_matrix likelihood, host RLE-DICT output.
class HostSparseEngine : public SparseEngineBase {
 public:
  static constexpr bool kDeviceOutput = false;

  HostSparseEngine(const EngineConfig& config, RunReport& report,
                   const HostSparseOps& ops)
      : SparseEngineBase(config, report), ops_(ops) {}

  const char* name() const { return ops_.engine; }
  u32 open(bool) {
    open_writer();
    return 0;
  }

  void compute(Slot& s) {
    {
      // The aggregate "likeli" component is measured directly as the scope
      // enclosing both phases, so it cannot drift from sort + comp.
      const StageScope likeli(report_.host, tracer_, "likeli");
      {
        const StageScope sort(report_.host, tracer_, "likeli_sort");
        likelihood_sort_cpu(s.store);
      }
      StageScope comp(report_.host, tracer_, "likeli_comp");
      annotate(comp);
      type_likely_.resize(s.win.size);
      for (u32 i = 0; i < s.win.size; ++i)
        type_likely_[i] = ops_.sparse_site(s.store.site(i), *npm_);
    }
    StageScope post(report_.host, tracer_, "post");
    annotate(post);
    window_posterior(config_, priors_, s.win, s.obs, s.stats, type_likely_,
                     s.rows, nullptr, 1, ops_.select);
  }

  void emit(const Slot& s) {
    const StageScope scope(report_.host, tracer_, "output");
    writer_->write_window(s.rows, rle_);
  }

  u64 finish() { return writer_->finish(); }

 private:
  void annotate(StageScope& scope) const {
    if (ops_.simd_level == nullptr) return;
    scope.note("backend", ops_.engine);
    scope.note("simd", ops_.simd_level);
  }

  const HostSparseOps ops_;
  const RleDictFn rle_ = host_rle_dict();
};

/// GSNP: multipass batch bitonic sort, the optimized likelihood kernel and
/// the posterior on the device, device RLE-DICT output compression.  Device
/// time is modeled from measured counters; host time is wall-clock.
class GsnpEngine : public SparseEngineBase {
 public:
  static constexpr bool kDeviceOutput = true;

  GsnpEngine(const EngineConfig& config, RunReport& report,
             device::Device& dev, const device::PerfModel& model)
      : SparseEngineBase(config, report),
        dev_(dev),
        model_(model),
        run_start_(dev.counters()) {}

  const char* name() const { return "gsnp"; }

  void calibrate(PMatrix pm) {
    SparseEngineBase::calibrate(std::move(pm));
    // load_table (Fig 2): tables uploaded once, before any likelihood work.
    device_scope("cal_p", [&] { tables_.emplace(dev_, pm_, *npm_); });
  }

  /// Serial work uses the device's default queue.  The ring opens a
  /// StreamPool: sort + likelihood + posterior on the compute lane, uploads
  /// on the copy lane, output on its own lane from three streams up.
  u32 open(bool ring) {
    open_writer();
    if (!ring) return 1;
    const u32 n = std::min<u32>(std::max<u32>(config_.streams, 2), 8);
    pool_.emplace(dev_, n);
    pool_->set_listener(&stream_spans_);
    compute_ = &pool_->stream(0);
    copy_ = &pool_->stream(1);
    out_ = &pool_->stream(n >= 3 ? 2 : 1);
    return n;
  }

  void compute(Slot& s) {
    std::vector<PosteriorCall> calls;
    if (s.plan) {
      for (const SiteBatch& b : s.plan->batches) run_batch(s, b, calls);
    } else {
      SiteBatch whole;  // a fixed window is the single batch [0, win.size)
      whole.end = s.win.size;
      whole.words_end = s.store.words.size();
      run_batch(s, whole, calls);
    }
    // Statistics columns assembled on the host (measured).
    const StageScope scope(report_.host, tracer_, "post");
    window_posterior(config_, priors_, s.win, s.obs, s.stats, type_likely_,
                     s.rows, &calls);
  }

  /// Serial: write now.  Ring: the write rides the output lane beside the
  /// next window's likelihood (flush_output).
  void emit(const Slot& s) {
    if (pool_)
      pending_ = &s;
    else
      write(s);
  }

  u64 finish() {
    flush_output();
    report_.device_modeled.add("likeli",
                               report_.device_modeled.get("likeli_sort") +
                                   report_.device_modeled.get("likeli_comp"));
    const u64 output_bytes = writer_->finish();
    report_.peak_device_bytes = dev_.peak_allocated_bytes();
    report_.device_counters = dev_.counters();
    const device::DeviceCounters run_delta =
        device::counters_delta(run_start_, dev_.counters());
    // No-overlap baseline; the serial path's wall is exactly this.
    report_.modeled_serial_seconds = model_.seconds(run_delta);
    report_.modeled_wall_seconds = report_.modeled_serial_seconds;
    if (pool_) {
      // Overlap-aware replay of the stream timelines, plus the device work
      // that ran outside any stream (the cal_p table upload) charged
      // serially.
      for (u32 i = 0; i < pool_->size(); ++i)
        report_.stream_counters.push_back(pool_->stream_counters(i));
      report_.modeled_wall_seconds =
          pool_->modeled_wall_seconds(model_) +
          model_.seconds(device::counters_delta(
              pool_->total_stream_counters(), run_delta));
    }
    return output_bytes;
  }

 private:
  using Work = std::function<void()>;

  /// A device stage: the counter delta over `body` is modeled into GPU
  /// seconds (Table IV's device columns).  The span mirrors the same delta
  /// and model, with host_sec pinned to zero — the wall time `body` burns is
  /// simulator time, not time on the modeled hardware.
  template <class Body>
  void device_scope(const char* name, Body&& body) {
    obs::Tracer::Scope span(tracer_, name, "stage", &dev_, &model_);
    span.set_host_seconds(0.0);
    const device::DeviceCounters before = dev_.counters();
    body();
    report_.device_modeled.add(
        name, model_.seconds(device::counters_delta(before, dev_.counters())));
  }

  /// Issues `kernel` as device stage `stage`, preceded by `upload` (op name
  /// `h2d`) when one is given.  Serial: both run now on the default queue
  /// under one device_scope.  Ring: the upload is enqueued on the copy lane
  /// and the kernel on `lane` behind its event, each running under a
  /// device_scope of the same stage when the pool drains.  Either way the
  /// report and the trace see the same exact counter deltas.
  void issue(const char* stage, device::Stream* lane, Work kernel,
             const char* h2d = nullptr, Work upload = {}) {
    const auto transfer = [this, h2d, upload] {
      obs::Tracer::Scope span(tracer_, h2d, "transfer", &dev_, &model_);
      span.set_host_seconds(0.0);
      upload();
    };
    if (!pool_) {
      device_scope(stage, [&] {
        if (upload) transfer();
        kernel();
      });
      return;
    }
    if (upload) {
      const device::Event uploaded = pool_->create_event();
      copy_->enqueue(device::StreamOpKind::kH2d, h2d,
                     [this, stage, transfer](device::Device&) {
                       device_scope(stage, transfer);
                     });
      copy_->record(uploaded);
      lane->wait(uploaded);
    }
    lane->enqueue(device::StreamOpKind::kLaunch, stage,
                  [this, stage, kernel](device::Device&) {
                    device_scope(stage, kernel);
                  });
  }

  void drain() {
    if (pool_) pool_->sync();
  }

  /// The device chain for sites [b.begin, b.end) of the window: upload,
  /// multipass sort, likelihood, posterior.  A fixed window is the single
  /// batch [0, win.size).  Per-site arithmetic is batch-invariant and rows
  /// are assembled and written once per window, so output is byte-identical
  /// at any budget; only the launch geometry (and the counters) change.
  void run_batch(const Slot& s, const SiteBatch& b,
                 std::vector<PosteriorCall>& calls) {
    // A real budget on the serial path: span the batch and measure its
    // actual allocation watermark against the planned peak — the property
    // admission control relies on.  The watermark covers the batch's
    // incremental footprint over the resident score tables (the budget
    // bounds the batch; worst_case_device_bytes accounts for the tables).
    // On the ring the previous window's output shares the device, so
    // nothing is measured there.
    const bool measured = s.plan && !pool_;
    std::optional<obs::Tracer::Scope> batch_span;
    u64 batch_base = 0;
    if (measured) {
      batch_span.emplace(tracer_, "batch", "batcher", &dev_, &model_);
      batch_span->set_host_seconds(0.0);
      batch_span->note("sites", std::to_string(b.sites()));
      batch_span->note("words", std::to_string(b.words()));
      batch_span->note("planned_peak_bytes",
                       std::to_string(b.planned_peak_bytes));
      batch_base = dev_.allocated_bytes();
      dev_.reset_peak_watermark();
    }

    // Batch-local CSR: site i owns words [offsets[i], offsets[i+1]) of the
    // batch's word upload.
    const std::span<const u32> words =
        std::span<const u32>(s.store.words).subspan(b.words_begin, b.words());
    std::span<const u64> offsets =
        std::span<const u64>(s.store.offsets).subspan(b.begin, b.sites() + 1);
    if (b.words_begin != 0) {
      rebased_.assign(offsets.begin(), offsets.end());
      for (u64& o : rebased_) o -= b.words_begin;
      offsets = rebased_;
    }
    const u32 first = b.begin;
    const u32 sites = b.sites();
    {
      // The words go to the device once and stay resident through sorting
      // and likelihood (the production data flow); only the ten
      // log-likelihoods per site come back.  This span's delta is
      // likeli_sort + likeli_comp (the model is linear in the counters), so
      // the trace agrees with the aggregate component.
      obs::Tracer::Scope likeli(tracer_, "likeli", "stage", &dev_, &model_);
      likeli.set_host_seconds(0.0);
      issue(
          "likeli_sort", compute_,
          [this, offsets] {
            sortnet::sort_device_multipass_resident(
                dev_, *words_dev_, offsets, sortnet::kDefaultClassBounds,
                tracer_);
          },
          "h2d:base_word",
          [this, words] { words_dev_.emplace(dev_.to_device(words)); });
      issue(
          "likeli_comp", compute_,
          [this, &s, first, sites] {
            land(type_likely_,
                 device_likelihood_sparse_resident(dev_, *words_dev_,
                                                   *offsets_dev_, sites,
                                                   *tables_),
                 first, s.win.size);
          },
          "h2d:offsets",
          [this, offsets] { offsets_dev_.emplace(dev_.to_device(offsets)); });
      drain();
    }
    flush_output();
    words_dev_.reset();
    offsets_dev_.reset();
    // Posterior: priors on the host (measured), genotype selection on the
    // device (modeled); the statistics columns follow in compute().
    std::vector<GenotypePriors> batch_priors(sites);
    {
      const StageScope scope(report_.host, tracer_, "post");
      for (u32 i = 0; i < sites; ++i) {
        const u64 pos = s.win.start + first + i;
        const genome::KnownSnpEntry* known =
            config_.dbsnp ? config_.dbsnp->find(pos) : nullptr;
        batch_priors[i] = priors_.get(config_.reference->base(pos), known);
      }
    }
    issue("post", compute_, [this, &s, &batch_priors, &calls, first, sites] {
      land(calls,
           device_posterior(dev_,
                            std::span<const TypeLikely>(type_likely_)
                                .subspan(first, sites),
                            batch_priors),
           first, s.win.size);
    });
    drain();

    if (measured) {
      const u64 actual = dev_.peak_since_watermark() - batch_base;
      report_.batch.record_actual(actual);
      batch_span->note("actual_peak_bytes", std::to_string(actual));
    }
  }

  /// Places one batch's per-site results at their window offset.  A
  /// whole-window batch hands its vector over instead of copying it.
  template <class T>
  static void land(std::vector<T>& window, std::vector<T>&& batch, u32 first,
                   u32 window_sites) {
    if (batch.size() == window_sites) {
      window = std::move(batch);
      return;
    }
    window.resize(window_sites);
    std::copy(batch.begin(), batch.end(), window.begin() + first);
  }

  /// Host output seconds = wall time minus the simulator wall burned inside
  /// the device RLE-DICT kernels (their time is modeled, not measured).
  void write(const Slot& s) {
    StageScope scope(report_.host, tracer_, "output");
    rle_sim_wall_ = 0.0;
    device_scope("output", [&] { writer_->write_window(s.rows, rle_); });
    scope.deduct(rle_sim_wall_);
  }

  /// Ring: the previous window's output goes on the output lane behind this
  /// window's uploads, so the modeled timeline overlaps it with the
  /// likelihood; it drains after them (drain order does not move the
  /// per-stream timelines), keeping the "likeli" span free of output work.
  void flush_output() {
    if (pending_ == nullptr) return;
    out_->enqueue(device::StreamOpKind::kLaunch, "output",
                  [this, s = pending_](device::Device&) { write(*s); });
    pending_ = nullptr;
    drain();
  }

  device::Device& dev_;
  const device::PerfModel& model_;
  const device::DeviceCounters run_start_;
  std::optional<DeviceScoreTables> tables_;
  // The six quality columns go through the device RLE-DICT kernels; their
  // modeled time is charged to "output" by the enclosing device_scope.
  double rle_sim_wall_ = 0.0;
  const RleDictFn rle_ = [this](std::span<const u32> column,
                                std::vector<u8>& out) {
    obs::Tracer::Scope span(tracer_, "rle_dict", "compress", &dev_, &model_);
    span.set_host_seconds(0.0);
    const Timer t;
    compress::device_encode_rle_dict(dev_, column, out);
    rle_sim_wall_ += t.seconds();
  };

  // One batch's device-chain state (all of it retires within compute()).
  std::vector<u64> rebased_;
  std::optional<device::DeviceBuffer<u32>> words_dev_;
  std::optional<device::DeviceBuffer<u64>> offsets_dev_;

  // The ring (null on the serial path).
  obs::StreamSpanListener stream_spans_{tracer_, &dev_, &model_};
  std::optional<device::StreamPool> pool_;
  device::Stream* compute_ = nullptr;
  device::Stream* copy_ = nullptr;
  device::Stream* out_ = nullptr;
  const Slot* pending_ = nullptr;  // emitted, not yet on the output lane
};

}  // namespace

RunReport run_soapsnp(const EngineConfig& config) {
  return run_pipeline<SoapsnpEngine>(config);
}

RunReport run_gsnp_cpu(const EngineConfig& config) {
  static constexpr HostSparseOps kScalarOps{
      "gsnp_cpu", nullptr, &likelihood_sparse_site, &select_genotype};
  return run_pipeline<HostSparseEngine>(config, kScalarOps);
}

RunReport run_gsnp_simd(const EngineConfig& config) {
  // Resolve the dispatch level once per run (env override or CPU detection;
  // see simd.hpp) so every window of one run uses one kernel set.
  const simd::Kernels& kernels = simd::active_kernels();
  const HostSparseOps ops{"gsnp_simd", simd::level_name(kernels.level),
                          kernels.sparse_site, kernels.select_genotype};
  RunReport report = run_pipeline<HostSparseEngine>(config, ops);
  if (config.tracer != nullptr)
    config.tracer->metrics().add(std::string("simd_level_") +
                                 simd::level_name(kernels.level));
  return report;
}

RunReport run_gsnp(const EngineConfig& config, device::Device& dev,
                   const device::PerfModel& model) {
  return run_pipeline<GsnpEngine>(config, dev, model);
}

}  // namespace gsnp::core
