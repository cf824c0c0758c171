// Asynchronous trial executor: up to q evaluations in flight on a
// util::ThreadPool, with results collected strictly in submission (proposal)
// order.
//
// The determinism contract this layer upholds:
//   - Starts are ticket-ordered. Evaluation i begins only after evaluation
//     i-1 has *started* (or, in serialized mode, finished), regardless of
//     how many workers the pool has. Objectives that claim per-run state
//     (run counters, seed-derived rng streams) therefore consume it in
//     proposal order at any worker count.
//   - Ingestion is FIFO. next_result() returns evaluation results in
//     submission order even though wall-clock completion races freely, so
//     the caller's journal appends, surrogate updates, and rng draws happen
//     in one canonical order — journals are byte-identical and incumbents
//     bit-identical across worker counts.
//   - Serialized mode (the default for ObjectiveFunction implementations,
//     see concurrent_runs_safe) additionally makes evaluation i wait for
//     i-1 to *complete*: evaluations never overlap, but they still overlap
//     with the caller's proposal work on the main thread, and a
//     concurrent-safe objective opts in to full q-way overlap.
//
// Submission order is the ticket order: submit() must be called from a
// single thread (the tuner's ask loop). A task that throws surfaces its
// exception from next_result() for the matching ticket.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>

#include "core/tuner_types.h"
#include "util/annotations.h"
#include "util/thread_pool.h"

namespace autodml::core {

class AsyncEvalExecutor {
 public:
  /// `workers` pool threads (>= 1). With `serialize_runs` the executed
  /// closures are mutually exclusive and ordered; otherwise only the start
  /// order is enforced.
  AsyncEvalExecutor(std::size_t workers, bool serialize_runs);
  ~AsyncEvalExecutor();

  AsyncEvalExecutor(const AsyncEvalExecutor&) = delete;
  AsyncEvalExecutor& operator=(const AsyncEvalExecutor&) = delete;

  /// Enqueue evaluation `run` under the next ticket. Single-producer: call
  /// from one thread only.
  void submit(std::function<Trial()> run);

  /// Blocks for — and returns — the oldest uncollected submission's result
  /// (FIFO), rethrowing the task's exception if it threw. At least one
  /// submission must be outstanding.
  Trial next_result();

  /// Submitted but not yet collected through next_result().
  std::size_t in_flight() const { return results_.size(); }

  util::ThreadPool::Stats pool_stats() const { return pool_->stats(); }

 private:
  const bool serialize_runs_;
  /// Pending results in ticket order; next_result() pops the front.
  std::deque<std::future<Trial>> results_;

  /// Start gate: a task with ticket t runs its closure only once
  /// next_to_start_ == t (and, serialized, once the previous closure
  /// finished). Tasks are enqueued in ticket order onto a FIFO pool, so the
  /// gate never deadlocks: the ticket a task waits for is always held by a
  /// task already running or already completed.
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::size_t next_ticket_ = 0;                      // producer thread only
  std::size_t next_to_start_ ADML_GUARDED_BY(mu_) = 0;
  /// Declared last so it is destroyed first: ~ThreadPool drains and joins
  /// the workers while the gate they lock and notify is still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace autodml::core
