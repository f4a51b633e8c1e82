#include "src/service/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/reference.hpp"
#include "src/obs/prometheus.hpp"
#include "src/service/journal.hpp"

namespace gsnp::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Has the job reached a resting state (nothing left for this daemon to do)?
/// kInterrupted rests too — only a future recover() wakes it.
bool settled(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kInterrupted;
}

/// Every metric the daemon can ever emit, pre-registered at construction so
/// the Prometheus exposition shows the full family set (at zero) from the
/// first scrape — scripts/metrics_inventory.txt mirrors this list plus the
/// fsck_* verdict counters recover() registers.
constexpr const char* kDaemonCounters[] = {
    "jobs_submitted",       "jobs_admitted",
    "jobs_completed",       "jobs_failed",
    "jobs_cancelled",       "jobs_interrupted",
    "jobs_shed_queue_full", "jobs_shed_quota",
    "jobs_shed_payload",    "jobs_rejected_bad_request",
    "jobs_rejected_invalid_argument",
    "jobs_rejected_device_budget",
    "jobs_rejected_storage", "jobs_deduplicated",
    "jobs_resumed",         "journal_write_failures",
    "manifest_write_failures",
    "chromosomes_done",     "chromosomes_degraded",
    "chromosomes_failed",   "eventlog_write_failures",
};
constexpr const char* kDaemonGauges[] = {
    "jobs_active", "queue_depth", "workers_busy", "spool_bytes"};
constexpr const char* kDaemonHistograms[] = {
    "job_queue_wait_seconds", "chromosome_compute_seconds",
    "job_completion_seconds"};

}  // namespace

bool terminal_job_state(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kInterrupted: return "interrupted";
  }
  return "?";
}

/// All mutable job state is guarded by the daemon's single mutex; workers
/// only touch it through the record/finish helpers, so the heavy engine work
/// runs unlocked.
struct Daemon::Job {
  JobSpec spec;
  std::string id;
  JobState state = JobState::kQueued;
  core::EngineKind kind = core::EngineKind::kGsnp;
  CancelToken token;
  bool resume = false;  ///< re-admitted by recover(); skip verified work
  core::RunManifest previous;  ///< prior manifest (resume verification)
  std::vector<std::optional<core::ManifestEntry>> entries;
  std::size_t remaining = 0;   ///< chromosome tasks not yet finished
  std::size_t done_count = 0;
  bool failing = false;        ///< a chromosome failed beyond retries
  bool degraded = false;
  std::string error;
  CancelReason observed = CancelReason::kNone;
  std::string manifest_digest;
  std::filesystem::path dir;
  std::filesystem::path manifest_path;
  std::filesystem::path output_dir;
  Clock::time_point submitted{};
  Clock::time_point started{};
  Clock::time_point finished{};
  bool started_any = false;
  double wait_seconds = 0.0;
  double run_seconds = 0.0;
};

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {
  GSNP_CHECK_MSG(!config_.spool_dir.empty(), "daemon needs a spool_dir");
  if (config_.workers < 1) config_.workers = 1;
  std::filesystem::create_directories(config_.spool_dir / "jobs");
  for (const char* name : kDaemonCounters) metrics_.add(name, 0);
  for (const char* name : kDaemonGauges) metrics_.set_gauge(name, 0.0);
  for (const char* name : kDaemonHistograms) metrics_.histogram(name);
  if (config_.event_log) {
    try {
      events_ = std::make_unique<obs::EventLog>(config_.spool_dir /
                                                "events.jsonl");
    } catch (const Error&) {
      // An unopenable flight recorder must not ground the plane; jobs run,
      // the loss is counted.
      metrics_.add("eventlog_write_failures");
    }
  }
  update_spool_gauge();
  devices_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    devices_.push_back(std::make_unique<device::Device>());
  pool_ = std::make_unique<ThreadPool>(config_.workers);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Daemon::~Daemon() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    if (!crashed_.load()) {
      // Park unfinished work for the next incarnation: kShutdown journals
      // as "interrupted", which recover() re-admits.
      for (auto& [id, job] : jobs_)
        if (!settled(job->state)) job->token.cancel(CancelReason::kShutdown);
    }
  }
  // Drain the pool first: queued tasks short-circuit on the cancelled token
  // (or on crashed_) and finalize their jobs before the maps go away.
  pool_.reset();
  watchdog_stop_.store(true);
  if (watchdog_.joinable()) watchdog_.join();
}

void Daemon::log_event(obs::JobEvent event) {
  if (!events_ || crashed_.load()) return;
  try {
    events_->append(std::move(event));
  } catch (const FsFaultError&) {
    // A lost flight-recorder record under storage faults is survivable: the
    // job journal and manifest stay the source of truth.
    metrics_.add("eventlog_write_failures");
  }
}

void Daemon::update_spool_gauge() {
  if (crashed_.load()) return;
  u64 total = 0;
  std::error_code walk_ec;
  for (auto it = std::filesystem::recursive_directory_iterator(
           config_.spool_dir, walk_ec);
       !walk_ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(walk_ec)) {
    // Workers publish and unlink concurrently; races surface as per-entry
    // errors here and the entry is simply not counted this round.
    std::error_code ec;
    if (!it->is_regular_file(ec) || ec) continue;
    const std::uintmax_t size = it->file_size(ec);
    if (!ec) total += static_cast<u64>(size);
  }
  metrics_.set_gauge("spool_bytes", static_cast<double>(total));
}

device::Device& Daemon::worker_device() {
  // Dense per-thread slot: each pool worker claims one device the first time
  // it runs a GSNP chromosome and keeps it for life, so fault plans armed
  // against "the device this attempt will use" stay attached to it.
  thread_local std::size_t slot = static_cast<std::size_t>(-1);
  if (slot == static_cast<std::size_t>(-1))
    slot = next_worker_slot_.fetch_add(1);
  return *devices_[slot % devices_.size()];
}

void Daemon::write_job_journal(const Job& job) {
  if (crashed_.load()) return;  // a dead process writes nothing
  JobJournal journal;
  journal.id = job.id;
  journal.state = job.state;
  journal.resumed = job.resume;
  journal.error = job.error;
  journal.digest = job.manifest_digest;
  journal.spec = job.spec;
  const std::filesystem::path target = job.dir / "job.json";
  try {
    write_file_atomic(target, encode_job_journal(journal));
  } catch (const FsFaultError& e) {
    // ENOSPC/EIO-class failure (real or injected): the previous journal, if
    // any, is intact — atomicity holds — but this state change is NOT
    // durable.  Surface it typed; callers decide whether that is fatal
    // (admission: yes, the client must know) or survivable (progress
    // journals: recover() just reruns a little more work).
    metrics_.add("journal_write_failures");
    throw ServiceError(ErrorCode::kStorageFailure,
                       std::string("job journal not durable: ") + e.what());
  }
}

std::string Daemon::admit_locked(JobSpec&& spec, bool resume,
                                 std::unique_lock<std::mutex>& lock) {
  metrics_.add("jobs_submitted");
  if (shutting_down_ || crashed_.load())
    throw ServiceError(ErrorCode::kShuttingDown, "daemon is draining");

  // Event-log note: daemon-assigned ids are allocated below, so a
  // "submitted" record carries the client-supplied id or none; the job's
  // replayable per-id sequence starts at "admitted" either way.
  if (!resume) {
    obs::JobEvent submitted;
    submitted.event = "submitted";
    submitted.job_id = spec.job_id;
    submitted.tenant = spec.tenant;
    submitted.backend = spec.engine;
    log_event(std::move(submitted));
  }

  const auto reject = [&](ErrorCode code, const std::string& counter,
                          const std::string& message) -> ServiceError {
    metrics_.add(counter);
    // "shed" = well-formed work refused for load (queue/quota/payload);
    // "rejected" = the request itself is unusable.  Both carry the typed
    // snake_case code, so the log answers "why did tenant X lose jobs?".
    obs::JobEvent refused;
    refused.event = counter.rfind("jobs_shed_", 0) == 0 ? "shed" : "rejected";
    refused.job_id = spec.job_id;
    refused.tenant = spec.tenant;
    refused.backend = spec.engine;
    refused.reason = error_code_name(code);
    refused.error = message;
    log_event(std::move(refused));
    return ServiceError(code, message);
  };

  // Backend names resolve through the registry (canonical or id spelling);
  // unknown names are a typed invalid_argument rejection that lists every
  // valid name, so clients can self-correct.
  const core::BackendInfo* backend = core::find_backend(spec.engine);
  if (backend == nullptr)
    throw reject(ErrorCode::kInvalidArgument, "jobs_rejected_invalid_argument",
                 "unknown backend '" + spec.engine +
                     "' (valid: " + core::backend_name_list() + ")");
  const auto kind = std::optional<core::EngineKind>(backend->kind);
  if (spec.chromosomes.empty())
    throw reject(ErrorCode::kBadRequest, "jobs_rejected_bad_request",
                 "job has no chromosomes");

  u64 payload = 0;
  for (std::size_t i = 0; i < spec.chromosomes.size(); ++i) {
    const ChromosomeSpec& c = spec.chromosomes[i];
    if (c.name.empty() || c.alignment_file.empty() || c.reference_file.empty())
      throw reject(ErrorCode::kBadRequest, "jobs_rejected_bad_request",
                   "chromosome " + std::to_string(i) +
                       " needs name/align/ref");
    for (std::size_t j = 0; j < i; ++j)
      if (spec.chromosomes[j].name == c.name)
        throw reject(ErrorCode::kBadRequest, "jobs_rejected_bad_request",
                     "duplicate chromosome '" + c.name + "'");
    std::error_code ec;
    const u64 bytes = std::filesystem::file_size(c.alignment_file, ec);
    if (ec)
      throw reject(ErrorCode::kBadRequest, "jobs_rejected_bad_request",
                   "missing alignment file " + c.alignment_file);
    if (!std::filesystem::exists(c.reference_file))
      throw reject(ErrorCode::kBadRequest, "jobs_rejected_bad_request",
                   "missing reference file " + c.reference_file);
    payload += bytes;
  }

  // Device-capacity gate: with batching, a job's worst-case device footprint
  // is a closed-form number (score tables + one batch at the budget +
  // per-window output scratch), so admission can refuse work the card could
  // never hold *before* any of it runs.  Without a batch budget the
  // footprint depends on input depth, which is exactly what the gate exists
  // to rule out — such jobs are rejected when the gate is armed.  Recovery
  // skips the gate like the shed gates: the work was already admitted.
  if (!resume && config_.max_device_bytes > 0) {
    const u64 budget =
        spec.batch_bytes != 0 ? spec.batch_bytes : config_.batch_bytes;
    if (budget == 0)
      throw reject(ErrorCode::kDeviceBudgetExceeded,
                   "jobs_rejected_device_budget",
                   "daemon enforces a device budget of " +
                       std::to_string(config_.max_device_bytes) +
                       " bytes but the job has no batch_bytes budget, so its "
                       "worst-case device footprint is unbounded");
    const u32 window = spec.window_size != 0
                           ? spec.window_size
                           : core::EngineConfig::kDefaultGsnpWindow;
    const u64 worst = core::worst_case_device_bytes(budget, window);
    if (worst > config_.max_device_bytes)
      throw reject(ErrorCode::kDeviceBudgetExceeded,
                   "jobs_rejected_device_budget",
                   "worst-case device footprint " + std::to_string(worst) +
                       " bytes (batch budget " + std::to_string(budget) +
                       ", window " + std::to_string(window) +
                       ") exceeds device capacity " +
                       std::to_string(config_.max_device_bytes));
  }

  // Recovery bypasses the load-shedding gates: this work was admitted (and
  // paid for) by a previous incarnation; dropping it would break the
  // exactly-once resume contract.  The payload cap still applies on first
  // admission only, where the files were measured.
  if (!resume) {
    if (payload > config_.max_payload_bytes)
      throw reject(ErrorCode::kPayloadTooLarge, "jobs_shed_payload",
                   "payload " + std::to_string(payload) + " bytes > cap " +
                       std::to_string(config_.max_payload_bytes));
    if (active_jobs_ >= config_.queue_capacity)
      throw reject(ErrorCode::kQueueFull, "jobs_shed_queue_full",
                   "admission queue at capacity (" +
                       std::to_string(config_.queue_capacity) + " jobs)");
    const auto it = tenant_active_.find(spec.tenant);
    if (it != tenant_active_.end() && it->second >= config_.tenant_quota)
      throw reject(ErrorCode::kQuotaExceeded, "jobs_shed_quota",
                   "tenant '" + spec.tenant + "' at quota (" +
                       std::to_string(config_.tenant_quota) + " jobs)");
  }

  if (spec.job_id.empty())
    spec.job_id = "job-" + std::to_string(next_job_number_++);
  if (jobs_.count(spec.job_id) != 0 && !resume) {
    // Idempotent resubmit: a client retrying after a lost ack re-sends the
    // same spec under its client-supplied id; admitting it again would
    // double-run the genome.  Accept iff the spec is byte-identical (modulo
    // the output_dir the daemon resolved on first admission) and hand back
    // the original id; a *different* spec under a taken id stays an error.
    const Job& existing = *jobs_.at(spec.job_id);
    JobSpec normalized = spec;
    if (normalized.output_dir.empty())
      normalized.output_dir = existing.spec.output_dir;
    std::ostringstream incoming, original;
    encode_job_spec(incoming, normalized);
    encode_job_spec(original, existing.spec);
    if (incoming.str() == original.str()) {
      metrics_.add("jobs_deduplicated");
      return spec.job_id;
    }
    throw reject(ErrorCode::kBadRequest, "jobs_rejected_bad_request",
                 "duplicate job id '" + spec.job_id + "' with different spec");
  }

  auto job = std::make_shared<Job>();
  job->id = spec.job_id;
  job->kind = *kind;
  job->resume = resume;
  job->dir = config_.spool_dir / "jobs" / job->id;
  job->manifest_path = job->dir / "manifest.json";
  std::filesystem::create_directories(job->dir);
  if (spec.output_dir.empty())
    spec.output_dir = (job->dir / "out").string();  // journaled resolved
  job->output_dir = spec.output_dir;
  std::filesystem::create_directories(job->output_dir);
  job->spec = std::move(spec);
  job->entries.resize(job->spec.chromosomes.size());
  job->remaining = job->spec.chromosomes.size();
  job->submitted = Clock::now();
  if (resume && std::filesystem::exists(job->manifest_path))
    job->previous = core::read_run_manifest(job->manifest_path);

  try {
    write_job_journal(*job);  // durable before any work runs
  } catch (const ServiceError&) {
    // Not journaled -> not admitted: the job was never inserted, so the
    // typed kStorageFailure rejection leaves no half-admitted state and the
    // client may retry the identical submit once the disk recovers.
    metrics_.add("jobs_rejected_storage");
    throw;
  }

  if (jobs_.count(job->id) == 0) job_order_.push_back(job->id);
  jobs_[job->id] = job;
  ++active_jobs_;
  ++tenant_active_[job->spec.tenant];
  metrics_.add("jobs_admitted");
  metrics_.set_gauge("jobs_active", static_cast<double>(active_jobs_));
  {
    obs::JobEvent admitted;
    admitted.event = resume ? "recovered" : "admitted";
    admitted.job_id = job->id;
    admitted.tenant = job->spec.tenant;
    admitted.backend = job->spec.engine;
    log_event(std::move(admitted));
  }

  lock.unlock();
  update_spool_gauge();
  enqueue_job(job);
  return job->id;
}

std::string Daemon::submit(JobSpec spec) {
  std::unique_lock<std::mutex> lock(mu_);
  return admit_locked(std::move(spec), /*resume=*/false, lock);
}

void Daemon::enqueue_job(const std::shared_ptr<Job>& job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    pending_tasks_ += job->spec.chromosomes.size();
    metrics_.set_gauge("queue_depth", static_cast<double>(pending_tasks_));
  }
  for (std::size_t i = 0; i < job->spec.chromosomes.size(); ++i)
    // Futures dropped on purpose: run_chromosome never lets an exception
    // escape, and the pool destructor drains everything submitted.
    (void)pool_->submit([this, job, i] { run_chromosome(job, i); });
}

core::GenomeRunConfig Daemon::job_run_config(const Job& job) {
  core::GenomeRunConfig cfg;
  cfg.output_dir = job.output_dir;
  cfg.window_size = job.spec.window_size;
  cfg.batch_bytes =
      job.spec.batch_bytes != 0 ? job.spec.batch_bytes : config_.batch_bytes;
  cfg.retry = config_.retry;
  cfg.ingest = config_.ingest;
  cfg.resume = job.resume;
  cfg.manifest_file = job.manifest_path;
  cfg.run_id = job.id;  // namespaces quarantine/temp/.part per job
  cfg.cancel = &job.token;
  if (config_.checkpoint_hook)
    cfg.checkpoint_hook = [this, id = job.id](std::string_view point,
                                              const std::string& chrom) {
      config_.checkpoint_hook(point, id, chrom);
    };
  return cfg;
}

void Daemon::run_chromosome(const std::shared_ptr<Job>& job, std::size_t index) {
  if (crashed_.load()) return;  // the "process" died; leave everything as-is

  // Queue-depth/busy-worker bookkeeping brackets the task itself; the scope
  // closes before chromosome_finished so wait_idle never observes a stale
  // workers_busy from the job it just waited on.
  struct BusyScope {
    Daemon& d;
    explicit BusyScope(Daemon& daemon) : d(daemon) {
      const std::lock_guard<std::mutex> lock(d.mu_);
      if (d.pending_tasks_ > 0) --d.pending_tasks_;
      ++d.busy_workers_;
      d.metrics_.set_gauge("queue_depth",
                           static_cast<double>(d.pending_tasks_));
      d.metrics_.set_gauge("workers_busy",
                           static_cast<double>(d.busy_workers_));
    }
    ~BusyScope() {
      const std::lock_guard<std::mutex> lock(d.mu_);
      if (d.busy_workers_ > 0) --d.busy_workers_;
      d.metrics_.set_gauge("workers_busy",
                           static_cast<double>(d.busy_workers_));
    }
  };

  {
    BusyScope busy_scope(*this);
    run_chromosome_task(job, index);
  }
  chromosome_finished(job);  // no-op when crashed_ tripped mid-task
}

void Daemon::run_chromosome_task(const std::shared_ptr<Job>& job,
                                 std::size_t index) {
  Job& j = *job;
  const ChromosomeSpec& cs = j.spec.chromosomes[index];

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!j.started_any) {
      j.started_any = true;
      j.started = Clock::now();
      j.wait_seconds = seconds_between(j.submitted, j.started);
      j.state = JobState::kRunning;
      metrics_.record("job_queue_wait_seconds", j.wait_seconds);
      obs::JobEvent started;
      started.event = "started";
      started.job_id = j.id;
      started.tenant = j.spec.tenant;
      started.backend = j.spec.engine;
      started.wall_seconds = j.wait_seconds;
      log_event(std::move(started));
      try {
        write_job_journal(j);
      } catch (const ServiceError&) {
        // Journal stuck at "queued": after a crash, recover() reruns the
        // whole job, whose outputs rename over identical bytes — safe to
        // keep working (the failure is already counted).
      }
    }
    if (j.failing) {
      // A sibling chromosome already failed the job; don't start new work.
      return;
    }
  }
  if (j.token.cancelled()) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (j.observed == CancelReason::kNone) j.observed = j.token.reason();
    // fall through to finished in the caller, outside this lock
  }
  if (j.token.cancelled()) return;

  try {
    // Inputs load on the worker, per chromosome: jobs reference files, the
    // daemon never holds a genome in memory longer than the attempt.
    const std::vector<genome::Reference> refs =
        genome::read_fasta_file(cs.reference_file);
    GSNP_CHECK_MSG(refs.size() == 1, "reference " << cs.reference_file
                                                  << " must hold exactly one "
                                                     "sequence");
    std::optional<genome::DbSnpTable> dbsnp;
    if (!cs.dbsnp_file.empty())
      dbsnp = genome::read_dbsnp_file(cs.dbsnp_file, {}, nullptr,
                                      refs[0].size());

    core::ChromosomeJob chrom;
    chrom.name = cs.name;
    chrom.alignment_file = cs.alignment_file;
    chrom.reference = &refs[0];
    chrom.dbsnp = dbsnp ? &*dbsnp : nullptr;

    device::Device* dev = nullptr;
    if (core::backend_info(j.kind).needs_device) {
      dev = &worker_device();
      if (config_.fault_arm) config_.fault_arm(*dev, j.id, cs.name);
    }

    const core::GenomeRunConfig cfg = job_run_config(j);
    const Clock::time_point compute_start = Clock::now();
    core::ChromosomeRunResult r = core::run_one_chromosome(
        cfg, j.kind, dev, chrom, j.resume ? &j.previous : nullptr);
    const double compute_seconds =
        seconds_between(compute_start, Clock::now());

    if (r.fault != nullptr) {
      // Retries + fallback exhausted: journal the failed entry first, then
      // fail the whole job (siblings short-circuit; running ones complete).
      record_entry(job, index, std::move(r.entry));
      const std::string why = std::move(r.status.error);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        j.failing = true;
        if (j.error.empty()) j.error = why;
      }
      metrics_.add("chromosomes_failed");
    } else {
      record_entry(job, index, std::move(r.entry));
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++j.done_count;
        if (r.status.degraded) j.degraded = true;
      }
      metrics_.add("chromosomes_done");
      if (r.status.degraded) metrics_.add("chromosomes_degraded");
      metrics_.record("chromosome_compute_seconds", compute_seconds);
      obs::JobEvent done;
      done.event = "chromosome_done";
      done.job_id = j.id;
      done.tenant = j.spec.tenant;
      done.backend = j.spec.engine;
      done.chromosome = cs.name;
      done.degraded = r.status.degraded;
      done.wall_seconds = compute_seconds;
      done.modeled_seconds = r.run.modeled_wall_seconds;
      log_event(std::move(done));
    }
  } catch (const CancelledError& cancelled) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (j.observed == CancelReason::kNone) j.observed = cancelled.reason();
  } catch (const std::exception& e) {
    if (crashed_.load()) return;  // simulated crash unwound through the hook
    const std::lock_guard<std::mutex> lock(mu_);
    j.failing = true;
    if (j.error.empty()) j.error = e.what();
  }
}

void Daemon::record_entry(const std::shared_ptr<Job>& job, std::size_t index,
                          core::ManifestEntry entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  job->entries[index] = std::move(entry);
  flush_manifest_locked(*job);
}

void Daemon::flush_manifest_locked(Job& job) {
  if (crashed_.load()) return;
  // Entries appear in submission (chromosome) order with gaps elided, so a
  // complete job's manifest is byte-comparable with a serial run_genome of
  // the same spec — the chaos harness compares manifest digests.
  core::RunManifest m;
  m.engine = core::engine_name(job.kind);
  for (const auto& e : job.entries)
    if (e.has_value()) m.chromosomes.push_back(*e);
  try {
    core::write_run_manifest(job.manifest_path, m);
  } catch (const FsFaultError&) {
    // The manifest is rebuilt from scratch on every entry and again at
    // finalize; a failed intermediate flush costs only resume granularity
    // (recover() re-verifies or reruns the unlisted chromosomes).
    metrics_.add("manifest_write_failures");
  }
}

void Daemon::chromosome_finished(const std::shared_ptr<Job>& job) {
  if (crashed_.load()) return;
  bool last = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    last = (--job->remaining == 0);
  }
  if (last) {
    finalize(job);
    update_spool_gauge();
  }
}

void Daemon::finalize(const std::shared_ptr<Job>& job) {
  const std::lock_guard<std::mutex> lock(mu_);
  Job& j = *job;
  if (settled(j.state)) return;

  JobState final_state;
  if (j.done_count == j.entries.size()) {
    final_state = JobState::kDone;  // a cancel that raced the finish loses
  } else if (j.failing) {
    final_state = JobState::kFailed;
  } else if (j.observed == CancelReason::kDeadline) {
    final_state = JobState::kFailed;
    j.error = error_code_name(ErrorCode::kDeadlineExceeded);
  } else if (j.observed == CancelReason::kClient) {
    final_state = JobState::kCancelled;
    if (j.error.empty()) j.error = "cancelled_by_client";
  } else if (j.observed != CancelReason::kNone) {
    final_state = JobState::kInterrupted;  // shutdown/signal: park for resume
  } else {
    final_state = JobState::kFailed;  // incomplete without a recorded cause
    if (j.error.empty()) j.error = "internal: chromosomes unaccounted for";
  }

  j.state = final_state;
  j.finished = Clock::now();
  j.run_seconds = seconds_between(j.submitted, j.finished);
  if (final_state == JobState::kDone) {
    // Every entry landed: derive the canonical result digest from the same
    // manifest the journal holds (computed here, not in record_entry, because
    // concurrent workers record entries before siblings have finished).
    core::RunManifest m;
    m.engine = core::engine_name(j.kind);
    for (const auto& e : j.entries) m.chromosomes.push_back(*e);
    j.manifest_digest = core::manifest_digest(m);
  } else {
    j.manifest_digest.clear();
  }
  try {
    write_job_journal(j);
  } catch (const ServiceError&) {
    // Terminal state not durable: the in-memory state machine still settles
    // (clients see the true verdict); the next recover() will rerun a done
    // job to identical bytes or re-fail a failed one.  Counted above.
  }

  --active_jobs_;
  auto it = tenant_active_.find(j.spec.tenant);
  if (it != tenant_active_.end() && --it->second == 0)
    tenant_active_.erase(it);

  const char* event_name = nullptr;
  switch (final_state) {
    case JobState::kDone:
      metrics_.add("jobs_completed");
      event_name = "published";
      // End-to-end latency (admission -> every chromosome published), the
      // distribution bench_service cross-checks against client clocks; the
      // per-tenant series feeds quota tuning.
      metrics_.record("job_completion_seconds", j.run_seconds);
      metrics_.record(obs::labeled_series("job_completion_seconds", "tenant",
                                          j.spec.tenant),
                      j.run_seconds);
      break;
    case JobState::kFailed:
      metrics_.add("jobs_failed");
      event_name = "failed";
      break;
    case JobState::kCancelled:
      metrics_.add("jobs_cancelled");
      event_name = "cancelled";
      break;
    case JobState::kInterrupted:
      metrics_.add("jobs_interrupted");
      event_name = "interrupted";
      break;
    default: break;
  }
  if (event_name != nullptr) {
    obs::JobEvent terminal;
    terminal.event = event_name;
    terminal.job_id = j.id;
    terminal.tenant = j.spec.tenant;
    terminal.backend = j.spec.engine;
    terminal.wall_seconds = j.run_seconds;
    if (!j.error.empty()) terminal.error = j.error;
    log_event(std::move(terminal));
  }
  metrics_.set_gauge("jobs_active", static_cast<double>(active_jobs_));
  cv_.notify_all();
}

JobStatus Daemon::status_locked(const Job& job) const {
  JobStatus s;
  s.job_id = job.id;
  s.tenant = job.spec.tenant;
  s.engine = job.spec.engine;
  s.state = job.state;
  s.chromosomes_total = job.entries.size();
  s.chromosomes_done = job.done_count;
  s.degraded = job.degraded;
  s.resumed = job.resume;
  s.error = job.error;
  s.manifest_digest = job.manifest_digest;
  s.manifest_file = job.manifest_path;
  s.output_dir = job.output_dir;
  s.wait_seconds = job.wait_seconds;
  s.run_seconds = settled(job.state)
                      ? job.run_seconds
                      : seconds_between(job.submitted, Clock::now());
  return s;
}

JobStatus Daemon::status(const std::string& job_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    throw ServiceError(ErrorCode::kNotFound, "unknown job '" + job_id + "'");
  return status_locked(*it->second);
}

std::vector<JobStatus> Daemon::jobs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> all;
  all.reserve(job_order_.size());
  for (const std::string& id : job_order_) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) all.push_back(status_locked(*it->second));
  }
  return all;
}

void Daemon::cancel(const std::string& job_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    throw ServiceError(ErrorCode::kNotFound, "unknown job '" + job_id + "'");
  if (!settled(it->second->state))
    it->second->token.cancel(CancelReason::kClient);
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.submitted = metrics_.counter("jobs_submitted");
  s.admitted = metrics_.counter("jobs_admitted");
  s.completed = metrics_.counter("jobs_completed");
  s.failed = metrics_.counter("jobs_failed");
  s.cancelled = metrics_.counter("jobs_cancelled");
  s.interrupted = metrics_.counter("jobs_interrupted");
  s.shed_queue_full = metrics_.counter("jobs_shed_queue_full");
  s.shed_quota = metrics_.counter("jobs_shed_quota");
  s.shed_payload = metrics_.counter("jobs_shed_payload");
  s.rejected_bad_request = metrics_.counter("jobs_rejected_bad_request");
  s.rejected_invalid_argument =
      metrics_.counter("jobs_rejected_invalid_argument");
  s.rejected_storage = metrics_.counter("jobs_rejected_storage");
  s.rejected_device_budget = metrics_.counter("jobs_rejected_device_budget");
  s.deduplicated = metrics_.counter("jobs_deduplicated");
  s.journal_write_failures = metrics_.counter("journal_write_failures");
  s.manifest_write_failures = metrics_.counter("manifest_write_failures");
  s.chromosomes_done = metrics_.counter("chromosomes_done");
  s.chromosomes_degraded = metrics_.counter("chromosomes_degraded");
  s.eventlog_write_failures = metrics_.counter("eventlog_write_failures");
  s.spool_bytes = static_cast<u64>(metrics_.gauge("spool_bytes"));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.active = active_jobs_;
    s.queue_depth = pending_tasks_;
    s.workers_busy = busy_workers_;
  }
  return s;
}

DaemonHealth Daemon::health() const {
  DaemonHealth h;
  h.queue_capacity = config_.queue_capacity;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    h.active_jobs = active_jobs_;
    h.queue_depth = pending_tasks_;
    h.shutting_down = shutting_down_;
  }
  h.workers_alive = pool_ != nullptr && !crashed_.load();
  // A real probe write through the fault-checked atomic path: when the
  // spool's disk is full (or a chaos plan says it is), readiness drops
  // before admissions start failing typed.
  try {
    const std::filesystem::path probe = config_.spool_dir / ".health.probe";
    write_file_atomic(probe, "ok\n");
    std::error_code ec;
    std::filesystem::remove(probe, ec);
    h.spool_writable = true;
  } catch (const std::exception&) {
    h.spool_writable = false;
  }
  h.ready = h.spool_writable && h.workers_alive && !h.shutting_down &&
            !crashed_.load();
  return h;
}

std::string Daemon::prometheus_text() const {
  return obs::render_prometheus(metrics_, "gsnpd_");
}

std::size_t Daemon::recover() {
  const std::filesystem::path jobs_root = config_.spool_dir / "jobs";
  if (!std::filesystem::exists(jobs_root)) return 0;

  if (config_.fsck_on_recover) {
    // Scrub before trusting: corrupt journals quarantine, orphans move to
    // lost+found, torn staging disappears, and unverifiable "done" jobs
    // demote to interrupted — so the resume scan below only ever sees
    // journals whose claims have been checked.
    FsckOptions fsck_options;
    fsck_options.repair = true;
    fsck_options.deep_verify = config_.fsck_deep_verify;
    last_fsck_ = fsck_spool(config_.spool_dir, fsck_options);
    for (int i = 0; i <= static_cast<int>(FsckVerdict::kCorruptQuarantined);
         ++i) {
      const auto verdict = static_cast<FsckVerdict>(i);
      metrics_.add(std::string("fsck_") + fsck_verdict_name(verdict),
                   last_fsck_.count(verdict));
    }
    metrics_.add("fsck_repairs", last_fsck_.repairs_applied);
  }

  std::vector<std::filesystem::path> dirs;
  for (const auto& entry : std::filesystem::directory_iterator(jobs_root))
    if (entry.is_directory()) dirs.push_back(entry.path());
  std::sort(dirs.begin(), dirs.end());  // deterministic resume order

  std::size_t resumed = 0;
  for (const std::filesystem::path& dir : dirs) {
    const std::filesystem::path journal = dir / "job.json";
    if (!std::filesystem::exists(journal)) continue;

    std::string text;
    {
      std::ifstream in(journal, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    JobSpec spec;
    JobState state;
    std::string error, digest;
    try {
      JobJournal parsed = parse_job_journal(text);
      spec = std::move(parsed.spec);
      state = parsed.state;
      error = std::move(parsed.error);
      digest = std::move(parsed.digest);
    } catch (const Error&) {
      continue;  // torn/corrupt journal: nothing trustworthy to resume
    }

    {
      // Keep id allocation ahead of every recovered id.
      const std::lock_guard<std::mutex> lock(mu_);
      if (spec.job_id.rfind("job-", 0) == 0) {
        char* end = nullptr;
        const unsigned long long n =
            std::strtoull(spec.job_id.c_str() + 4, &end, 10);
        if (end != nullptr && *end == '\0' && n >= next_job_number_)
          next_job_number_ = n + 1;
      }
      if (jobs_.count(spec.job_id) != 0) continue;
    }

    if (terminal_job_state(state)) {
      // History only: queryable, not re-run.
      auto job = std::make_shared<Job>();
      job->id = spec.job_id;
      job->kind =
          core::engine_kind_from_name(spec.engine).value_or(job->kind);
      job->state = state;
      job->error = std::move(error);
      job->manifest_digest = std::move(digest);
      job->dir = dir;
      job->manifest_path = dir / "manifest.json";
      job->output_dir = spec.output_dir;
      job->entries.resize(spec.chromosomes.size());
      if (state == JobState::kDone)
        job->done_count = spec.chromosomes.size();
      job->spec = std::move(spec);
      const std::lock_guard<std::mutex> lock(mu_);
      job_order_.push_back(job->id);
      jobs_[job->id] = job;
      continue;
    }

    // Incomplete (queued/running/interrupted): exactly-once resume.
    try {
      std::unique_lock<std::mutex> lock(mu_);
      admit_locked(std::move(spec), /*resume=*/true, lock);
      ++resumed;
      metrics_.add("jobs_resumed");
    } catch (const ServiceError&) {
      // Inputs vanished since first admission; nothing to run.  The stale
      // journal stays for the operator.
    }
  }
  update_spool_gauge();
  return resumed;
}

bool Daemon::wait_job(const std::string& job_id, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    throw ServiceError(ErrorCode::kNotFound, "unknown job '" + job_id + "'");
  const std::shared_ptr<Job> job = it->second;
  const auto done = [&] { return settled(job->state) || crashed_.load(); };
  if (timeout_seconds < 0.0) {
    cv_.wait(lock, done);
    return settled(job->state);
  }
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      done) &&
         settled(job->state);
}

void Daemon::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return active_jobs_ == 0 || crashed_.load(); });
}

void Daemon::simulate_crash() {
  crashed_.store(true);
  cv_.notify_all();
}

void Daemon::watchdog_loop() {
  while (!watchdog_stop_.load()) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.watchdog_interval_seconds));
    if (crashed_.load()) continue;
    const std::lock_guard<std::mutex> lock(mu_);
    const auto now = Clock::now();
    for (auto& [id, job] : jobs_) {
      if (settled(job->state)) continue;
      if (job->spec.deadline_seconds > 0.0 &&
          seconds_between(job->submitted, now) > job->spec.deadline_seconds)
        job->token.cancel(CancelReason::kDeadline);
    }
  }
}

}  // namespace gsnp::service
