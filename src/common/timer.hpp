#pragma once
// Wall-clock timing utilities.  StopwatchSet accumulates named component
// times; it backs the per-component breakdown tables (paper Tables I and IV).

#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gsnp {

/// Simple monotonic wall-clock timer returning seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A set of named accumulating stopwatches, used for component breakdowns.
/// Components are registered lazily; iteration order is insertion order so
/// breakdown tables print in pipeline order.
///
/// Thread-safe: the engines run Scope timers inside and around parallel
/// loops (per-window worker tasks, parallel likelihood), so every
/// accumulation and read takes the internal mutex.  The hot path is a
/// per-stage add — a few per window — never per-site, so one mutex is cheap.
class StopwatchSet {
 public:
  StopwatchSet() = default;
  StopwatchSet(const StopwatchSet& o) {
    const std::lock_guard<std::mutex> lock(o.mu_);
    entries_ = o.entries_;
  }
  StopwatchSet(StopwatchSet&& o) noexcept {
    const std::lock_guard<std::mutex> lock(o.mu_);
    entries_ = std::move(o.entries_);
  }
  StopwatchSet& operator=(const StopwatchSet& o) {
    if (this != &o) {
      const std::scoped_lock lock(mu_, o.mu_);
      entries_ = o.entries_;
    }
    return *this;
  }
  StopwatchSet& operator=(StopwatchSet&& o) noexcept {
    if (this != &o) {
      const std::scoped_lock lock(mu_, o.mu_);
      entries_ = std::move(o.entries_);
    }
    return *this;
  }

  /// Add `seconds` to the named component.
  void add(const std::string& name, double seconds) {
    const std::lock_guard<std::mutex> lock(mu_);
    find_or_insert(name) += seconds;
  }

  /// Accumulated seconds for a component (0 if never recorded).
  double get(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, value] : entries_)
      if (key == name) return value;
    return 0.0;
  }

  /// Sum of all components.
  double total() const {
    const std::lock_guard<std::mutex> lock(mu_);
    double t = 0.0;
    for (const auto& [key, value] : entries_) t += value;
    return t;
  }

  /// Snapshot of (name, seconds) pairs in insertion order.
  std::vector<std::pair<std::string, double>> entries() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  /// RAII scope that adds its lifetime to the named component on destruction.
  class Scope {
   public:
    Scope(StopwatchSet& set, std::string name)
        : set_(set), name_(std::move(name)) {}
    ~Scope() { set_.add(name_, timer_.seconds()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StopwatchSet& set_;
    std::string name_;
    Timer timer_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

 private:
  /// Callers must hold mu_.
  double& find_or_insert(const std::string& name) {
    for (auto& [key, value] : entries_)
      if (key == name) return value;
    entries_.emplace_back(name, 0.0);
    return entries_.back().second;
  }

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, double>> entries_;
};

}  // namespace gsnp
