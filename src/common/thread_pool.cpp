#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace gsnp {
namespace {

/// The process-wide pool behind parallel_for.  The calling thread is the
/// remaining lane, so the pool keeps one core for it.
ThreadPool& shared_pool() {
  static ThreadPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1u;
  }());
  return pool;
}

using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

/// One parallel_for call.  Helper tasks hold it by shared_ptr, because a
/// helper may leave the pool's queue after the call has returned; such a
/// late helper finds no chunk left and never touches `chunk`.
struct ParallelCall {
  ParallelCall(std::size_t n, std::size_t grain, std::size_t chunks,
               const ChunkFn& chunk)
      : n(n), grain(grain), chunks(chunks), chunk(&chunk) {}

  /// Claims and runs chunks on `lane` until none is left or one has thrown.
  void run(std::size_t lane) {
    while (!cancelled.load(std::memory_order_relaxed)) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t begin = c * grain;
      try {
        (*chunk)(begin, std::min(n, begin + grain), lane);
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        return;
      }
    }
  }

  /// A pool worker's share: joins as a new lane unless the work is gone.
  void help() {
    std::size_t lane = 0;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (cancelled.load(std::memory_order_relaxed) ||
          next.load(std::memory_order_relaxed) >= chunks)
        return;
      lane = lanes++;
      ++helping;
    }
    run(lane);
    const std::lock_guard<std::mutex> lock(mu);
    if (--helping == 0) idle.notify_all();
  }

  const std::size_t n;
  const std::size_t grain;
  const std::size_t chunks;
  const ChunkFn* const chunk;  // valid until the caller returns
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable idle;  // signalled when `helping` drops to 0
  std::size_t lanes = 1;         // lane 0 is the caller's
  std::size_t helping = 0;       // helpers inside run()
  std::exception_ptr error;      // the first exception thrown
};

}  // namespace

std::size_t parallel_width() { return shared_pool().size() + 1; }

namespace detail {

void parallel_chunks(std::size_t n, std::size_t grain, std::size_t max_lanes,
                     const ChunkFn& chunk) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = n / grain + (n % grain != 0);
  std::size_t lanes = parallel_width();
  if (max_lanes != 0) lanes = std::min(lanes, max_lanes);
  lanes = std::min(lanes, chunks);
  if (lanes <= 1) {
    chunk(0, n, 0);
    return;
  }

  auto call = std::make_shared<ParallelCall>(n, grain, chunks, chunk);
  ThreadPool& pool = shared_pool();
  for (std::size_t h = 1; h < lanes; ++h) {
    try {
      pool.post([call] { call->help(); });
    } catch (...) {
      break;  // no memory to queue a helper: fewer lanes, same result
    }
  }
  call->run(0);
  // Every chunk is claimed (or the call is cancelled); wait only for the
  // helpers still running one.  Helpers that have not started will find
  // nothing to do.
  std::unique_lock<std::mutex> lock(call->mu);
  call->idle.wait(lock, [&] { return call->helping == 0; });
  if (call->error) std::rethrow_exception(call->error);
}

}  // namespace detail
}  // namespace gsnp
