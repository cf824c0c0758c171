// Timing decorator for core::ObjectiveFunction: the benchmark's view of the
// evaluation layer (the simulator, for the simulated workloads) from outside
// the library.
//
// Every virtual is forwarded, so a wrapped session runs exactly the pipeline
// an unwrapped one runs. concurrent_runs_safe() matters most: it decides
// whether the async executor serializes run() calls, so a decorator that
// fell back to the base-class default would silently change the pipeline
// the async workload measures. The benchmark's traced pass runs wrapped and
// is compared bit for bit against an unwrapped untraced pass.
#pragma once

#include <time.h>

#include <chrono>
#include <optional>
#include <vector>

#include "core/tuner_types.h"
#include "util/annotations.h"

namespace autodml::bench {

/// CPU seconds consumed so far by the calling thread.
inline double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One run() call: host wall seconds and the CPU seconds of the thread
/// that executed it.
struct RunSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class TimingObjective final : public core::ObjectiveFunction {
 public:
  /// `inner` must outlive the decorator.
  explicit TimingObjective(core::ObjectiveFunction& inner) : inner_(&inner) {}

  const conf::ConfigSpace& space() const override { return inner_->space(); }

  core::RunOutcome run(const conf::Config& config,
                       core::RunController* controller) override {
    const double cpu_start = thread_cpu_seconds();
    const auto start = std::chrono::steady_clock::now();
    {
      util::MutexLock lock(mu_);
      if (!first_start_) first_start_ = start;
    }
    core::RunOutcome outcome = inner_->run(config, controller);
    const RunSample sample{
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count(),
        thread_cpu_seconds() - cpu_start};
    util::MutexLock lock(mu_);
    samples_.push_back(sample);
    return outcome;
  }

  double target_metric() const override { return inner_->target_metric(); }
  bool objective_is_cost() const override {
    return inner_->objective_is_cost();
  }
  bool concurrent_runs_safe() const override {
    return inner_->concurrent_runs_safe();
  }
  void notify_replayed(const core::Trial& trial) override {
    inner_->notify_replayed(trial);
  }

  /// Every run() call so far, in completion order.
  std::vector<RunSample> samples() const {
    util::MutexLock lock(mu_);
    return samples_;
  }

  /// When the first run() call began: the session's first proposal reaching
  /// its evaluator. Empty before any run.
  std::optional<std::chrono::steady_clock::time_point> first_start() const {
    util::MutexLock lock(mu_);
    return first_start_;
  }

 private:
  core::ObjectiveFunction* inner_;
  // The async executor calls run() from its worker threads.
  mutable util::Mutex mu_;
  std::vector<RunSample> samples_ ADML_GUARDED_BY(mu_);
  std::optional<std::chrono::steady_clock::time_point> first_start_
      ADML_GUARDED_BY(mu_);
};

}  // namespace autodml::bench
