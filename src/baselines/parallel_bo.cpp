#include "baselines/parallel_bo.h"

#include <algorithm>
#include <vector>

namespace autodml::baselines {

// A synchronous-rounds driver over a BoTuner ask/tell session: ask
// `batch_size` tickets, evaluate them one after another, tell them, and
// charge the round its *slowest* member — modeling q machines running in
// parallel, the counterpart of tune()'s async_q pump, which overlaps
// evaluations for real.
ParallelBoResult parallel_bo(core::ObjectiveFunction& objective,
                             const ParallelBoOptions& options) {
  if (options.batch_size < 1 || options.rounds < 1)
    throw std::invalid_argument("parallel_bo: bad batch/round counts");
  core::BoOptions bo;
  bo.initial_design_size = options.batch_size;
  bo.max_evaluations = options.batch_size * options.rounds;
  bo.acquisition = options.acquisition;
  bo.random_interleave_prob = 0.0;  // every batch member is model-guided
  bo.early_term = options.early_term;
  bo.surrogate = options.surrogate;
  bo.acq_optimizer = options.acq_optimizer;
  bo.acq_threads = options.acq_threads;
  bo.seed = options.seed;
  core::BoTuner tuner(objective, bo);

  ParallelBoResult result;
  std::vector<core::BoTuner::SessionAsk> round;
  while (true) {
    round.clear();
    while (static_cast<int>(round.size()) < options.batch_size) {
      std::optional<core::BoTuner::SessionAsk> ask = tuner.ask_next();
      if (!ask) break;
      round.push_back(std::move(*ask));
    }
    if (round.empty()) break;
    double slowest = 0.0;
    for (const core::BoTuner::SessionAsk& ask : round) {
      core::Trial trial = tuner.evaluate(ask);
      slowest = std::max(slowest, trial.outcome.spent_seconds);
      tuner.tell_next(ask.ticket, std::move(trial));
    }
    result.wall_clock_seconds += slowest;
  }
  result.tuning = tuner.session_result();
  return result;
}

}  // namespace autodml::baselines
