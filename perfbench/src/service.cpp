// service_mixed: the engines run concurrently on small inputs inside gsnpd.
//
// An in-process service::Daemon with 2 workers, device batching (1 MiB
// budget), the max_device_bytes admission gate and events.jsonl on, is
// loaded closed-loop by 3 clients from 2 tenants.  Each client submits over
// the AF_UNIX line protocol (LineServer/LineClient), then waits for the job
// with Daemon::wait_job, so latency is not rounded to a status-poll
// interval, and only then submits its next job.  Each job is 2 chromosomes
// of 20K sites at 10x; two jobs in three run gsnp, the others gsnp-cpu.  Per-job
// fixed costs, spool and journal fsyncs, queueing and nested OpenMP teams
// across workers all show here, so a gain on large genomes that adds
// per-job cost shows up here as a loss.
//
// Every job's outputs must be byte-identical to a serial run_genome of the
// same inputs, and calls are scored against the planted truth.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "perfbench/src/inputs.hpp"
#include "perfbench/src/replay.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/core/batcher.hpp"
#include "src/obs/eventlog.hpp"
#include "src/service/daemon.hpp"
#include "src/service/dispatch.hpp"
#include "src/service/protocol.hpp"
#include "src/service/socket.hpp"

namespace perfbench {

using namespace gsnp;

namespace {

constexpr std::size_t kPool = 8;        ///< distinct job inputs, cycled
constexpr std::size_t kClients = 3;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMinJobs = 100;   ///< >= 10 samples beyond p90
constexpr int kSetupReps = 15;
constexpr int kLedgerReps = 15;
constexpr u64 kBatchBytes = 1ull << 20;
constexpr double kJobTimeoutSeconds = 120.0;
/// Engine schedule: two gsnp jobs in three.  An even split puts the latency
/// median in the gap between the two engines' latency modes, where it jumps
/// with the mix; a gsnp majority keeps both p50 and p90 inside one mode.
const char* const kEngineCycle[] = {"gsnp", "gsnp", "gsnp-cpu"};
constexpr std::size_t kCycle = std::size(kEngineCycle);
const char* const kTenants[] = {"tenant-a", "tenant-b"};

/// One job input of the pool with its reference output digests.
struct PoolJob {
  std::vector<ChromInput> inputs;
  std::vector<std::string> digests;  ///< serial run_genome output, per chromosome
  u64 sites = 0;
};

/// One job as a client saw it.
struct JobRecord {
  std::size_t pool = 0;
  std::string engine;
  std::string job_id;  ///< "" when the submit was refused
  std::string refusal;
  double rpc_s = 0.0;
  double latency_s = 0.0;
  bool finished = false;
};

service::JobSpec make_spec(const PoolJob& job, const char* engine,
                           const char* tenant) {
  service::JobSpec spec;
  spec.tenant = tenant;
  spec.engine = engine;
  for (const ChromInput& in : job.inputs)
    spec.chromosomes.push_back({in.name, in.alignment.string(),
                                in.fasta.string(), in.dbsnp.string()});
  return spec;
}

/// Closed-loop load: `kClients` threads, each submitting its next job only
/// after the previous one finished.  Job n uses pool input n % kPool and an
/// engine slot that shifts every pass over the pool, so every pool input
/// runs every slot within kCycle * kPool jobs.  Stops starting jobs once
/// `more(n)` is false.
template <typename More>
std::vector<JobRecord> closed_loop(service::Daemon& daemon,
                                   const fs::path& socket,
                                   const std::vector<PoolJob>& pool, More more) {
  std::mutex mu;
  std::vector<JobRecord> records;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  std::vector<std::string> errors(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        service::LineClient client(socket);
        for (;;) {
          const std::size_t n = next.fetch_add(1);
          if (!more(n)) break;
          JobRecord rec;
          rec.pool = n % kPool;
          rec.engine = kEngineCycle[(n % kPool + n / kPool) % kCycle];
          service::Request request;
          request.op = "submit";
          request.job = make_spec(pool[rec.pool], rec.engine.c_str(), kTenants[c % 2]);
          Timer timer;
          const service::Response response =
              service::parse_response(client.request(service::encode_request(request)));
          rec.rpc_s = timer.seconds();
          if (response.ok) {
            rec.job_id = response.fields.at("job_id");
            rec.finished = daemon.wait_job(rec.job_id, kJobTimeoutSeconds);
          } else {
            rec.refusal = service::error_code_name(response.error);
          }
          rec.latency_s = timer.seconds();
          const std::lock_guard<std::mutex> lock(mu);
          records.push_back(std::move(rec));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& e : errors)
    GSNP_CHECK_MSG(e.empty(), "client failed: " << e);
  return records;
}

/// Outcome checks of finished jobs.
struct Checked {
  u64 failed = 0;       ///< refused, failed, degraded or wrong output
  u64 wrong = 0;        ///< output bytes differ from the serial reference
  Score score;
  std::vector<double> modeled;  ///< per gsnp job, from events.jsonl
  std::vector<double> wait, run;
  u64 sites = 0;
};

Checked check_jobs(const service::Daemon& daemon,
                   const std::vector<JobRecord>& records,
                   const std::vector<PoolJob>& pool, bool score,
                   const std::map<std::string, double>& modeled_by_job,
                   std::vector<std::string>& problems) {
  Checked out;
  for (const JobRecord& rec : records) {
    if (rec.job_id.empty()) {
      ++out.failed;
      problems.push_back("submit refused: " + rec.refusal);
      continue;
    }
    const service::JobStatus st = daemon.status(rec.job_id);
    if (!rec.finished || st.state != service::JobState::kDone || st.degraded) {
      ++out.failed;
      problems.push_back("job " + rec.job_id + " ended " +
                         service::job_state_name(st.state) +
                         (st.degraded ? " (degraded)" : "") + " " + st.error);
      continue;
    }
    const PoolJob& job = pool[rec.pool];
    const char* id = core::require_backend(rec.engine).id;
    bool same = true;
    for (std::size_t i = 0; i < job.inputs.size(); ++i) {
      const fs::path output =
          st.output_dir / (job.inputs[i].name + "." + id + ".snp");
      if (file_sha256(output) != job.digests[i]) same = false;
      if (score) out.score += score_output(output, job.inputs[i].truth);
    }
    if (!same) {
      ++out.failed;
      ++out.wrong;
      continue;
    }
    out.sites += job.sites;
    out.wait.push_back(st.wait_seconds);
    out.run.push_back(st.run_seconds - st.wait_seconds);
    if (rec.engine == "gsnp") {
      const auto it = modeled_by_job.find(rec.job_id);
      out.modeled.push_back(it == modeled_by_job.end() ? 0.0 : it->second);
    }
  }
  return out;
}

std::map<std::string, double> modeled_by_job(const fs::path& events) {
  std::map<std::string, double> out;
  for (const obs::JobEvent& e : obs::read_event_log(events))
    if (e.event == "chromosome_done") out[e.job_id] += e.modeled_seconds;
  return out;
}

double compute_seconds(service::Daemon& daemon) {
  const auto h = daemon.metrics().histograms();
  const auto it = h.find("chromosome_compute_seconds");
  return it == h.end() ? 0.0 : it->second.sum;
}

}  // namespace

Result run_service_workload(const Options& opts) {
  Timer stage;
  std::vector<PoolJob> pool(kPool);
  GenomeShape shape;
  shape.names = {"chrA", "chrB"};
  shape.sites = {20'000, 20'000};
  for (std::size_t p = 0; p < kPool; ++p) {
    pool[p].inputs = make_inputs(opts.workdir / "inputs" / std::to_string(p),
                                 shape, derive_seed(opts.seed, 1000 + p));
    for (const ChromInput& in : pool[p].inputs) pool[p].sites += in.sites;
    // Reference: a serial run_genome of the same input, unbatched.
    const std::unique_ptr<LoadedGenome> genome = load_inputs(pool[p].inputs);
    core::GenomeRunConfig config;
    config.chromosomes = genome->jobs;
    config.output_dir = opts.workdir / "reference" / std::to_string(p);
    const core::GenomeReport report =
        core::run_genome(config, core::EngineKind::kGsnpCpu);
    for (const fs::path& out : report.output_files)
      pool[p].digests.push_back(file_sha256(out));
  }
  log_stage("inputs", stage);

  service::DaemonConfig config;
  config.spool_dir = opts.workdir / "spool";
  config.workers = kWorkers;
  config.batch_bytes = kBatchBytes;
  config.max_device_bytes = core::worst_case_device_bytes(
      kBatchBytes, core::EngineConfig::kDefaultGsnpWindow);
  const fs::path socket = opts.workdir / "gsnpd.sock";
  const auto serve = [&](service::Daemon& daemon) {
    return std::make_unique<service::LineServer>(
        socket, [&daemon](const std::string& line) {
          return service::handle_line(daemon, line);
        });
  };

  Result r;
  // Warm-up: every pool input in every engine slot; this is also the job
  // history the set-up's recover() scans.
  {
    service::Daemon daemon(config);
    const auto server = serve(daemon);
    const std::vector<JobRecord> warm = closed_loop(
        daemon, socket, pool, [](std::size_t n) { return n < kCycle * kPool; });
    const Checked c = check_jobs(daemon, warm, pool, false, {}, r.problems);
    if (c.wrong) r.fail("warm-up output bytes differ from the serial run_genome reference");
  }
  log_stage("warm-up", stage);

  // Set-up: a daemon restart plus recover() over the warm-up's spool.
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    Timer timer;
    service::Daemon daemon(config);
    daemon.recover();
    setup.push_back(timer.seconds());
  }
  log_stage("set-up", stage);
  log_samples("set-up", setup);

  reset_peak_rss();
  service::Daemon daemon(config);
  daemon.recover();
  const auto server = serve(daemon);
  const service::DaemonStats before = daemon.stats();
  const fs::path events = config.spool_dir / "events.jsonl";
  const std::size_t events_before = obs::read_event_log(events).size();
  const double compute_before = compute_seconds(daemon);

  flush_filesystem(opts.workdir);
  Timer phase;
  const std::vector<JobRecord> records =
      closed_loop(daemon, socket, pool, [&](std::size_t n) {
        return n < kMinJobs || phase.seconds() < opts.seconds;
      });
  const double phase_s = phase.seconds();
  log_stage("measured", stage);

  const service::DaemonStats after = daemon.stats();
  const Checked c = check_jobs(daemon, records, pool, true,
                               modeled_by_job(events), r.problems);
  if (c.wrong) r.fail("service output bytes differ from the serial run_genome reference");
  r.attempted = records.size();
  r.failed = c.failed;

  if (opts.trace) {
    ServiceLayer s;
    std::vector<double> rpc;
    for (const JobRecord& rec : records) rpc.push_back(rec.rpc_s);
    s.queue_wait_p50_s = median(c.wait);
    s.run_p50_s = median(c.run);
    s.rpc_p50_s = median(rpc);
    s.workers_busy_frac =
        (compute_seconds(daemon) - compute_before) / (kWorkers * phase_s);
    s.events_per_job =
        static_cast<double>(obs::read_event_log(events).size() - events_before) /
        static_cast<double>(records.size());
    s.spool_bytes_per_job = static_cast<double>(after.spool_bytes) /
                            static_cast<double>(daemon.jobs().size());
    s.shed = after.shed_total() - before.shed_total();
    s.failed = after.failed - before.failed;

    // Replay the first chromosome of the first pool input on both backends
    // with the service's batch budget.
    const std::unique_ptr<LoadedGenome> genome = load_inputs(pool[0].inputs);
    std::vector<Ledger> ledgers;
    for (const core::EngineKind kind :
         {core::EngineKind::kGsnp, core::EngineKind::kGsnpCpu})
      ledgers.push_back(measure_ledger(
          genome->jobs.front(), kind, kBatchBytes,
          opts.workdir / "ledger" / core::engine_name(kind), kLedgerReps));
    log_stage("ledger", stage);
    add_layer_metrics(r, ledgers);
    add_service_layer_metrics(r, s);
    check_ledgers(r, ledgers);
    return r;
  }

  std::vector<double> latency;
  std::map<std::string, std::vector<double>> by_engine;
  for (const JobRecord& rec : records)
    if (!rec.job_id.empty()) {
      latency.push_back(rec.latency_s);
      by_engine[rec.engine].push_back(rec.latency_s);
    }
  for (const auto& [engine, v] : by_engine) log_samples(engine.c_str(), v);
  r.add("sites_per_s", static_cast<double>(c.sites) / phase_s, "1/s");
  r.add("job_p50_s", median(latency), "s");
  r.add("job_p90_s", nearest_rank(latency, 0.9), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("setup_s", median(setup), "s");
  r.add("modeled_device_s", median(c.modeled), "s");
  r.add("ok_frac",
        r.attempted ? 1.0 - static_cast<double>(r.failed) / r.attempted : 0.0,
        "frac");
  r.add("snp_precision", c.score.precision(), "frac");
  r.add("snp_recall", c.score.recall(), "frac");
  std::fprintf(stderr, "perfbench: service_mixed seed=%llu jobs=%zu tp=%llu fp=%llu fn=%llu\n",
               static_cast<unsigned long long>(opts.seed), records.size(),
               static_cast<unsigned long long>(c.score.tp),
               static_cast<unsigned long long>(c.score.fp),
               static_cast<unsigned long long>(c.score.fn));
  return r;
}

}  // namespace perfbench
