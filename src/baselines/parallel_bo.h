// Synchronous parallel Bayesian optimization.
//
// When `batch_size` training runs can execute concurrently (separate
// clusters), the tuner proposes a batch per round — `batch_size`
// outstanding asks of one BoTuner session, each conditioned on
// kriging-believer fantasies of the ones before it — and the round's
// wall-clock time is the *maximum* of its runs' evaluation times instead of
// their sum. This driver executes rounds sequentially (the simulated
// evaluations are single-threaded) but accounts wall clock as a parallel
// executor would — the quantity experiment R-F13 reports. Acquisition
// scoring inside each proposal can optionally run on a thread pool
// (`acq_threads`) without changing any proposal.
#pragma once

#include "core/bo_tuner.h"
#include "core/tuner_types.h"

namespace autodml::baselines {

struct ParallelBoOptions {
  int batch_size = 4;
  int rounds = 8;  // total evaluations = batch_size * rounds, design included
  core::AcquisitionKind acquisition = core::AcquisitionKind::kLogEi;
  core::EarlyTermOptions early_term;
  core::SurrogateOptions surrogate;
  core::AcqOptimizerOptions acq_optimizer;
  /// Worker threads for acquisition-candidate scoring inside each
  /// proposal (1 = serial). Deterministic at any value: the batches — and
  /// every number this baseline reports — are identical.
  int acq_threads = 1;
  std::uint64_t seed = 1;
};

struct ParallelBoResult {
  core::TuningResult tuning;
  /// Simulated wall-clock the search occupies with `batch_size`-way
  /// parallelism: sum over rounds of the round's slowest evaluation.
  double wall_clock_seconds = 0.0;
};

/// First round is a Latin-hypercube design of `batch_size` points; every
/// later round is a kriging-believer batch. Early termination applies once
/// an incumbent exists, racing each run against the incumbent its round
/// started with.
ParallelBoResult parallel_bo(core::ObjectiveFunction& objective,
                             const ParallelBoOptions& options);

}  // namespace autodml::baselines
