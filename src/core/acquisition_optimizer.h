// Acquisition maximization over the mixed configuration space.
//
// The space is mostly discrete (menus, categoricals, conditionals), so
// gradient ascent on the acquisition is meaningless. Instead: score a large
// uniform candidate pool (global exploration) plus neighborhoods of the best
// trials so far (local exploitation), deduplicated against the history, and
// return the argmax. This is the standard recipe for CherryPick-class tuners
// and is exact enough when one real evaluation costs hours.
//
// The pool lives in the encoded space: each candidate is encoded once into
// a row, deduplicated on its row, and scored with the surrogate's batched
// prediction (SurrogateModel::score_batch).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/acquisition.h"
#include "core/surrogate.h"
#include "core/tuner_types.h"

namespace autodml::util {
class ThreadPool;
}

namespace autodml::core {

struct AcqOptimizerOptions {
  int random_candidates = 512;
  int top_k = 5;               // seed neighborhoods from the k best trials
  int neighbors_per_seed = 16;
  double neighbor_sigma = 0.12;
  double ucb_beta = 2.0;
  /// Optional worker pool for concurrent candidate scoring (not owned;
  /// nullptr = serial). Determinism contract: candidates are generated and
  /// deduplicated serially from the caller's RNG, scored concurrently into
  /// per-candidate slots (a candidate's score does not depend on its chunk
  /// or block), and reduced to the lowest-index argmax — the proposal is
  /// identical at any thread count, including serial.
  util::ThreadPool* pool = nullptr;
};

/// Best candidate by acquisition score, or nullopt when every candidate is
/// a duplicate of an already-evaluated configuration (caller should fall
/// back to a random sample). Throws std::logic_error when `kind` is
/// kEiPerCost and the surrogate has no cost model.
std::optional<conf::Config> propose_candidate(
    const SurrogateModel& surrogate, AcquisitionKind kind,
    std::span<const Trial> history, util::Rng& rng,
    const AcqOptimizerOptions& options = {});

/// propose_candidate's dedup step, exposed for tests. `rows` is row-major,
/// `dim` wide: the encoded history first, then the encoded pool from row
/// `first_pool_row` on. Returns, in ascending order, the pool rows that
/// equal (element-wise, so 0.0 and -0.0 match) no history row and no
/// earlier pool row: the first occurrence of each pooled encoding
/// survives.
std::vector<std::size_t> unique_pool_rows(std::span<const double> rows,
                                          std::size_t dim,
                                          std::size_t first_pool_row);

/// Kriging-believer fantasy for a pending evaluation at `config`: a tagged
/// placeholder trial whose objective is exp(`posterior_log_mean`), the
/// surrogate's posterior mean of log objective there (the "believer" step
/// of Ginsbourger's kriging believer), or +infinity — no belief at all, the
/// trial only contributes dedup pressure — when `posterior_log_mean` is NaN
/// because no model was ready. The trial carries `fantasized = true`, which
/// excludes it from feasibility/cost training, incumbent updates, and
/// neighborhood seeding (see SurrogateModel::update and Trial::succeeded).
Trial make_fantasy_trial(const conf::Config& config,
                         double posterior_log_mean);

}  // namespace autodml::core
