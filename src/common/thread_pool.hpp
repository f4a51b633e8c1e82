#pragma once
// Host threads: a small fixed-size ThreadPool for the overlapped genome
// pipeline and the daemon (window ingest/pack prefetch, deferred output,
// per-chromosome jobs), and parallel_for, the one data-parallel loop (device
// thread blocks, CPU sorts, per-site host loops) over a process-wide pool.
//
// ThreadPool semantics are chosen for pipeline correctness rather than
// generality:
//  - submit() returns a std::future; task exceptions are delivered through
//    it (never std::terminate).
//  - FIFO dispatch: with one worker, tasks run in submission order, so a
//    pool of size 1 degenerates to deferred-but-ordered execution.
//  - The destructor DRAINS the queue: every task submitted before
//    destruction runs to completion.  This matters during exception unwind —
//    an output task chained on a predecessor's future must not be silently
//    dropped, or the successor (possibly already running) would wait
//    forever on a future that will never be set.

#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gsnp {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_threads) {
    if (n_threads < 1) n_threads = 1;
    workers_.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue `fn` and return a future for its result.  Exceptions thrown by
  /// `fn` surface from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    post([task] { (*task)(); });
    return fut;
  }

  /// Enqueue `task` with no future.  It must not throw: an exception
  /// escaping a worker ends the program.
  void post(std::function<void()> task) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void worker() {
    // Bind this thread to its malloc arena now.  glibc hands a thread its
    // arena at its first allocation, preferring one an exited thread left
    // behind, with all the free memory that arena still holds.  A worker
    // that allocates late can take such an arena from the threads that will
    // fill one, which then grow fresh arenas: with a daemon restarted
    // in-process that cost 25 MiB of peak RSS per adopted arena (4-core
    // host, perfbench service_mixed).
    void* volatile probe = std::malloc(1);
    std::free(probe);
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

namespace detail {
/// Runs chunk(begin, end, lane) over [0, n) split into `grain`-sized chunks;
/// parallel_for's engine (thread_pool.cpp).
void parallel_chunks(
    std::size_t n, std::size_t grain, std::size_t max_lanes,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk);
}  // namespace detail

/// Lanes a parallel_for can use at once: the process-wide pool's workers
/// (hardware_concurrency() - 1, at least one) plus the calling thread.
std::size_t parallel_width();

/// Runs body(i, lane) once for every i in [0, n), in chunks of `grain`
/// consecutive indices (0 counts as 1) claimed dynamically by the calling
/// thread and the workers of one process-wide pool.
///  - At most `max_lanes` bodies run at once (0 = parallel_width()).  A call
///    with a single chunk, or with max_lanes == 1, runs inline.
///  - `lane` < parallel_width() and no two bodies of one call running at once
///    share it, so it can index per-lane scratch without locking.
///  - Nested calls and concurrent callers share the same workers.  A caller
///    never waits for a worker to come free, only for chunks that already
///    started, so neither can deadlock.
///  - The first exception a body throws cancels the chunks not yet started
///    and is rethrown here once the running ones have finished.
template <typename F>
void parallel_for(std::size_t n, std::size_t grain, F&& body,
                  std::size_t max_lanes = 0) {
  detail::parallel_chunks(
      n, grain, max_lanes,
      [&body](std::size_t begin, std::size_t end, std::size_t lane) {
        for (std::size_t i = begin; i < end; ++i) body(i, lane);
      });
}

}  // namespace gsnp
