#include "core/acquisition_optimizer.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace autodml::core {

namespace {

/// Acquisition value of every encoded row, serially or chunked across the
/// pool. Writes into per-index slots so the result is independent of
/// scheduling order.
std::vector<double> score_candidates(const SurrogateModel& surrogate,
                                     AcquisitionKind kind,
                                     std::span<const double> rows,
                                     std::size_t count,
                                     const AcqOptimizerOptions& options) {
  ADML_SPAN("acq.score");
  const std::size_t dim = surrogate.space().encoded_dimension();
  std::vector<SurrogateScore> posterior(count);
  std::vector<double> scores(count);
  const auto score_range = [&](std::size_t begin, std::size_t end) {
    surrogate.score_batch(rows.subspan(begin * dim, (end - begin) * dim),
                          std::span(posterior).subspan(begin, end - begin));
    for (std::size_t i = begin; i < end; ++i) {
      AcquisitionInputs in;
      in.mean = posterior[i].mean;
      in.variance = posterior[i].variance;
      in.incumbent = surrogate.incumbent_log();
      in.prob_feasible = posterior[i].prob_feasible;
      in.log_cost = posterior[i].log_cost;
      in.ucb_beta = options.ucb_beta;
      scores[i] = score_acquisition(kind, in);
    }
  };
  if (options.pool == nullptr || options.pool->size() < 2 || count < 2) {
    score_range(0, count);
    return scores;
  }
  // Lock discipline: the workers share no guarded state — each chunk
  // writes a disjoint index range of `posterior` and `scores`, and the
  // surrogate is only read — so there is deliberately no mutex here for
  // -Wthread-safety to track; the submit/join pair in util::ThreadPool is
  // the only synchronization. Oversplit relative to the thread count so a
  // slow chunk (e.g. one hitting the feasibility GP) does not serialize
  // the tail.
  const std::size_t chunks = std::min(count, options.pool->size() * 4);
  const std::size_t per_chunk = (count + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t begin = 0; begin < count; begin += per_chunk) {
    const std::size_t end = std::min(begin + per_chunk, count);
    futures.push_back(
        options.pool->submit([&score_range, begin, end] {
          // One span per chunk, emitted from the worker thread: the trace
          // shows how candidate scoring fans out across the pool.
          ADML_SPAN("acq.score_chunk");
          score_range(begin, end);
        }));
  }
  for (auto& f : futures) f.get();
  return scores;
}

}  // namespace

std::vector<std::size_t> unique_pool_rows(std::span<const double> rows,
                                          std::size_t dim,
                                          std::size_t first_pool_row) {
  const std::size_t count = dim == 0 ? 0 : rows.size() / dim;
  const auto row = [&](std::size_t r) { return rows.subspan(r * dim, dim); };
  // Row indices sorted by content, equal rows in index order: each run of
  // equal rows starts with its first occurrence. Rows compare with `<`, as
  // the ordered set this replaced did, so 0.0 and -0.0 are equal.
  const auto less = [&](std::size_t a, std::size_t b) {
    const auto ra = row(a), rb = row(b);
    return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                        rb.end());
  };
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), less);
  std::vector<std::size_t> unique;
  for (std::size_t i = 0; i < count; ++i) {
    const bool first = i == 0 || less(order[i - 1], order[i]);
    if (first && order[i] >= first_pool_row) unique.push_back(order[i]);
  }
  std::sort(unique.begin(), unique.end());
  return unique;
}

std::optional<conf::Config> propose_candidate(
    const SurrogateModel& surrogate, AcquisitionKind kind,
    std::span<const Trial> history, util::Rng& rng,
    const AcqOptimizerOptions& options) {
  ADML_SPAN("acq.propose");
  if (kind == AcquisitionKind::kEiPerCost && !surrogate.models_cost()) {
    // Scoring would read log_cost = 0 and silently rank by log-EI.
    throw std::logic_error(
        "propose_candidate: eipercost needs a surrogate built with the cost "
        "model (SurrogateModel acquisition = kEiPerCost)");
  }
  const conf::ConfigSpace& space = surrogate.space();

  std::vector<conf::Config> candidates;
  candidates.reserve(
      static_cast<std::size_t>(options.random_candidates) +
      static_cast<std::size_t>(options.top_k * options.neighbors_per_seed));
  for (int i = 0; i < options.random_candidates; ++i) {
    candidates.push_back(space.sample_uniform(rng));
  }

  // Local neighborhoods around the best successful trials.
  std::vector<const Trial*> ranked;
  for (const Trial& t : history) {
    if (t.succeeded()) ranked.push_back(&t);
  }
  std::sort(ranked.begin(), ranked.end(), [](const Trial* a, const Trial* b) {
    return a->outcome.objective < b->outcome.objective;
  });
  const std::size_t k =
      std::min<std::size_t>(ranked.size(), static_cast<std::size_t>(options.top_k));
  for (std::size_t i = 0; i < k; ++i) {
    for (int j = 0; j < options.neighbors_per_seed; ++j) {
      candidates.push_back(
          space.neighbor(ranked[i]->config, rng, options.neighbor_sigma));
    }
  }

  // Encode the history, then the pool, once each into one row buffer; dedup
  // serially in generation order on the rows (against the history and
  // within the pool), compact the survivors to the front, and score them —
  // concurrently when a pool is supplied.
  const std::size_t dim = space.encoded_dimension();
  std::vector<double> rows((history.size() + candidates.size()) * dim);
  std::size_t next_row = 0;
  const auto encode_next = [&](const conf::Config& c) {
    space.encode_into(c, std::span(rows).subspan(next_row++ * dim, dim));
  };
  for (const Trial& t : history) encode_next(t.config);
  for (const conf::Config& c : candidates) encode_next(c);
  const std::vector<std::size_t> unique =
      unique_pool_rows(rows, dim, history.size());
  for (std::size_t u = 0; u < unique.size(); ++u) {
    if (unique[u] == u) continue;  // already in place (unique[u] >= u)
    std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(unique[u] * dim),
                dim, rows.begin() + static_cast<std::ptrdiff_t>(u * dim));
  }
  rows.resize(unique.size() * dim);
  ADML_COUNT("acq.candidates_generated",
             static_cast<std::int64_t>(candidates.size()));
  ADML_COUNT("acq.candidates_scored",
             static_cast<std::int64_t>(unique.size()));
  const std::vector<double> scores =
      score_candidates(surrogate, kind, rows, unique.size(), options);

  // Lowest-index argmax: the strict `>` keeps the earliest of tied scores,
  // matching the serial reduction regardless of thread count.
  double best_score = -std::numeric_limits<double>::infinity();
  std::optional<std::size_t> best;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    if (scores[u] > best_score) {
      best_score = scores[u];
      best = unique[u] - history.size();
    }
  }
  if (!best) return std::nullopt;
  return std::move(candidates[*best]);
}

Trial make_fantasy_trial(const conf::Config& config,
                         double posterior_log_mean) {
  Trial fantasy;
  fantasy.config = config;
  fantasy.fantasized = true;
  // The outcome is a belief, never an observation: `feasible` + zero cost
  // make the trial *parse* as a completed run, but SurrogateModel::update
  // routes fantasized trials into the objective posterior only.
  fantasy.outcome.feasible = true;
  fantasy.outcome.spent_seconds = 0.0;
  if (!std::isnan(posterior_log_mean)) {
    // Kriging believer: believe the posterior mean at the pending point.
    fantasy.outcome.objective = std::exp(posterior_log_mean);
    ADML_COUNT("acq.fantasized", 1);
  }
  // No posterior mean: objective stays +infinity — no belief to condition
  // on, the fantasy only dedups the pending configuration. (The previous
  // constant-liar code fabricated an arbitrary `objective = 1.0` here.)
  return fantasy;
}

}  // namespace autodml::core
