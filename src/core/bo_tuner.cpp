#include "core/bo_tuner.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>

#include "analysis/space_lint.h"
#include "config/sampler.h"
#include "core/async_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace autodml::core {

BoTuner::BoTuner(ObjectiveFunction& objective, BoOptions options)
    : objective_(&objective),
      options_(std::move(options)),
      rng_(options_.seed),
      surrogate_(objective.space(), options_.surrogate,
                 util::Rng(options_.seed).split().next_u64(),
                 options_.acquisition),
      fantasy_model_(objective.space(), options_.surrogate,
                     util::Rng(options_.seed ^ 0x517cc1b727220a95ULL)
                         .split()
                         .next_u64(),
                     options_.acquisition) {
  if (options_.async_q < 1) {
    throw std::invalid_argument("BoTuner: async_q must be >= 1 (got " +
                                std::to_string(options_.async_q) + ")");
  }
  if (options_.async_workers < 0) {
    throw std::invalid_argument("BoTuner: async_workers must be >= 0 (got " +
                                std::to_string(options_.async_workers) + ")");
  }
  if (options_.acq_threads > 1) {
    acq_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(options_.acq_threads));
    options_.acq_optimizer.pool = acq_pool_.get();
  }
  // Lint before any budget is spent: one evaluation is expensive, and a
  // broken space (dead conditional, log range crossing zero, ...) would
  // silently waste the whole run. Errors are fatal; warnings are logged.
  const analysis::LintReport report =
      analysis::SpaceLinter().lint(objective.space());
  for (const auto& d : report.diagnostics) {
    if (d.severity == analysis::Severity::kWarning) {
      ADML_WARN << "config-space lint: " << d.to_string();
    }
  }
  analysis::throw_if_errors(report, "BoTuner");
  for (const Trial& t : options_.warm_start) {
    if (t.config.size() != objective.space().num_params()) {
      throw std::invalid_argument(
          "BoTuner: warm-start trial carries " +
          std::to_string(t.config.size()) + " values but the space has " +
          std::to_string(objective.space().num_params()) +
          " parameters (stale session file?)");
    }
  }
  options_.early_term.target_metric = objective.target_metric();
  options_.early_term.objective_is_cost = objective.objective_is_cost();
  history_ = options_.warm_start;

  if (!options_.journal_path.empty()) {
    LoadedJournal loaded = load_journal(options_.journal_path,
                                        objective.space());
    if (!loaded.trials.empty() || loaded.header.num_params != 0) {
      if (loaded.header.seed != options_.seed) {
        throw std::invalid_argument(
            "BoTuner: journal " + options_.journal_path +
            " was written with seed " + std::to_string(loaded.header.seed) +
            " but this tuner is configured with seed " +
            std::to_string(options_.seed) +
            " (resume requires identical options)");
      }
      if (loaded.header.num_params != objective.space().num_params()) {
        throw std::invalid_argument(
            "BoTuner: journal " + options_.journal_path + " covers " +
            std::to_string(loaded.header.num_params) +
            " parameters but the space has " +
            std::to_string(objective.space().num_params()) +
            " (stale journal?)");
      }
      if (loaded.torn_tail) {
        ADML_WARN << "journal " << options_.journal_path
                  << ": torn final record skipped (crash mid-append); the "
                     "trial will be re-evaluated";
      }
      if (loaded.deduped_tail) {
        ADML_WARN << "journal " << options_.journal_path
                  << ": duplicated trailing record dropped (crash between "
                     "append and acknowledgement)";
      }
      if (loaded.torn_tail || loaded.deduped_tail) {
        // Drop the partial/duplicate record from disk before appending
        // resumes, or the next append would land after the bad line.
        std::string repaired = dump_journal(loaded.header, loaded.trials);
        util::write_file_atomic(options_.journal_path, repaired);
      }
      replay_ = std::move(loaded.trials);
    }
    JournalHeader header;
    header.seed = options_.seed;
    header.num_params = objective.space().num_params();
    journal_ = std::make_unique<TrialJournal>(options_.journal_path, header);
  }
}

std::vector<conf::Config> BoTuner::initial_configs() {
  const auto n = static_cast<std::size_t>(options_.initial_design_size);
  switch (options_.initial_design) {
    case InitialDesign::kLatinHypercube:
      return conf::latin_hypercube(objective_->space(), n, rng_);
    case InitialDesign::kHalton:
      return conf::halton_sequence(objective_->space(), n, rng_);
    case InitialDesign::kUniform:
      return conf::sample_uniform_batch(objective_->space(), n, rng_);
  }
  return {};
}

conf::Config BoTuner::fallback_config() {
  // Regenerate the scrambled-Halton stream from scratch on each call: the
  // scramble permutations are a pure function of the dedicated seed, so
  // proposal i is the same value whether the process ran straight through,
  // resumed from a journal, or used a different acq_threads. The prefix
  // recomputation is O(i) per call and i stays tiny (degraded iterations).
  util::Rng halton_rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<conf::Config> seq = conf::halton_sequence(
      objective_->space(), fallback_index_ + 1, halton_rng);
  ++fallback_index_;
  return seq.back();
}

Trial BoTuner::evaluate(const SessionAsk& ask) const {
  Trial trial;
  trial.config = ask.config;
  if (ask.allow_early_term) {
    EarlyTerminationPolicy policy(options_.early_term, ask.incumbent);
    trial.outcome = objective_->run(ask.config, &policy);
    if (trial.outcome.aborted) {
      trial.outcome.projected_objective = policy.last_projection_unbiased();
    }
  } else {
    trial.outcome = objective_->run(ask.config, nullptr);
  }
  return trial;
}

namespace {

/// Simulated per-trial evaluation cost in hours; deterministic, so it is
/// safe for the golden-run snapshot.
constexpr double kSpentHoursBuckets[] = {0.5, 1.0, 2.0, 4.0, 8.0,
                                         16.0, 32.0, 64.0, 128.0};

/// Standardized residual z = (log y - mu) / sigma of a trial against the
/// objective posterior it was proposed under; a calibrated surrogate puts
/// about 5% of its mass beyond |z| = 2.
constexpr double kResidualZBuckets[] = {-4.0, -3.0, -2.0, -1.0, -0.5, 0.0,
                                        0.5,  1.0,  2.0,  3.0,  4.0};

/// Draws a fallback proposal may take before the space counts as
/// exhausted. A continuous parameter makes the first draw unique.
constexpr int kFallbackDraws = 64;

}  // namespace

Trial BoTuner::consume_replay(const conf::Config& config) {
  Trial trial = replay_[replay_cursor_];
  // The journaled config went through a JSON round trip; the regenerated
  // proposal is the bit-exact original. Verify they agree, then keep the
  // proposal so the surrogate sees identical inputs to an uninterrupted
  // run (any real divergence means the options or space changed).
  const math::Vec a = objective_->space().encode(trial.config);
  const math::Vec b = objective_->space().encode(config);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  if (a.size() != b.size() || max_diff > 1e-9) {
    throw std::runtime_error(
        "BoTuner: journal replay diverged at trial " +
        std::to_string(replay_cursor_) + " (journaled " +
        trial.config.to_string() + ", proposed " + config.to_string() +
        "); the journal was written with different options or a "
        "different space");
  }
  ++replay_cursor_;
  trial.config = config;
  objective_->notify_replayed(trial);
  ADML_COUNT("tuner.replayed", 1);
  return trial;
}

/// One outstanding ticket: what the evaluator was handed, plus the
/// kriging-believer placeholder conditioning later asks (never trained
/// into feasibility/cost models, never journaled).
struct BoTuner::Proposal {
  SessionAsk ask;
  Trial fantasy;
  /// Objective posterior (log objective) at the proposal, when a model was
  /// ready at ask time; the mean is the fantasy's belief, and both feed the
  /// surrogate.residual_z calibration histogram at ingest. NaN otherwise.
  double posterior_mean = std::numeric_limits<double>::quiet_NaN();
  double posterior_sd = std::numeric_limits<double>::quiet_NaN();
};

/// Session bookkeeping shared by every driver. `pending` holds outstanding
/// tickets in ask order; `told` buffers results (live or replayed) until
/// their ticket reaches the front, so ingestion stays strict-FIFO whatever
/// order a driver reports in.
struct BoTuner::SessionState {
  std::vector<conf::Config> design;
  std::deque<Proposal> pending;
  std::int64_t next_index = 0;
  std::map<std::int64_t, Trial> told;
  TuningResult result;
  /// The space ran out of unseen configurations (see unseen_draw).
  bool exhausted = false;
  /// tune()'s inline depth-one pump. No ask ever sees another ticket
  /// outstanding, so it computes no fantasies, and its journal records stay
  /// unstamped (no proposal_index) — byte-compatible with journals and
  /// metrics snapshots of every earlier revision.
  bool inline_depth_one = false;
};

BoTuner::~BoTuner() = default;

BoTuner::SessionState& BoTuner::begin_session(bool inline_depth_one) {
  session_ = std::make_unique<SessionState>();
  session_->design = initial_configs();
  session_->inline_depth_one = inline_depth_one;
  return *session_;
}

BoTuner::SessionState& BoTuner::ensure_session() {
  if (tuned_) {
    throw std::logic_error(
        "BoTuner: ask/tell session cannot start after tune()");
  }
  return session_ ? *session_ : begin_session(/*inline_depth_one=*/false);
}

bool BoTuner::session_can_propose() const {
  static const SessionState kFresh;
  const SessionState& s = session_ ? *session_ : kFresh;
  return !s.exhausted &&
         static_cast<int>(s.result.trials.size() + s.pending.size()) <
             options_.max_evaluations &&
         s.result.total_spent_seconds < options_.max_spent_seconds;
}

std::optional<conf::Config> BoTuner::unseen_draw(
    const std::function<conf::Config()>& draw) {
  const conf::ConfigSpace& space = objective_->space();
  std::set<math::Vec> seen;
  for (const Trial& t : history_) seen.insert(space.encode(t.config));
  for (const Proposal& p : session_->pending)
    seen.insert(space.encode(p.ask.config));
  for (int attempt = 0; attempt < kFallbackDraws; ++attempt) {
    conf::Config config = draw();
    if (seen.count(space.encode(config)) == 0) return config;
  }
  return std::nullopt;
}

std::optional<BoTuner::SessionAsk> BoTuner::ask() {
  SessionState& s = *session_;
  Proposal p;
  p.ask.ticket = s.next_index;
  p.ask.incumbent = s.result.best_objective;
  SurrogateModel* model = &surrogate_;
  if (p.ask.ticket < static_cast<std::int64_t>(s.design.size())) {
    // Initial design: run to completion (uncensored anchors). No model is
    // consulted, so the fantasy below carries no belief (+inf objective)
    // and only dedups the pending point.
    p.ask.config = s.design[static_cast<std::size_t>(p.ask.ticket)];
  } else {
    p.ask.allow_early_term = options_.early_term.enabled;
    // With tickets outstanding, condition the proposal on the history plus
    // their kriging-believer fantasies, refit into the separate fantasy
    // model, so the acquisition repels the pending points instead of
    // re-proposing next to them. The augmented view also dedups them
    // (propose_candidate rejects exact repeats).
    std::vector<Trial> augmented;
    if (!s.pending.empty()) {
      augmented = history_;
      augmented.reserve(history_.size() + s.pending.size());
      for (const Proposal& pe : s.pending) augmented.push_back(pe.fantasy);
      model = &fantasy_model_;
    }
    const std::vector<Trial>& seen = s.pending.empty() ? history_ : augmented;
    model->update(seen);
    std::optional<conf::Config> candidate;
    const bool explore = rng_.bernoulli(options_.random_interleave_prob);
    if (model->ready() && !explore) {
      ADML_SPAN("tuner.propose");
      candidate = propose_candidate(*model, options_.acquisition, seen, rng_,
                                    options_.acq_optimizer);
    }
    if (!candidate && model->degraded()) {
      // Degraded surrogate: no posterior to maximize, but the run should
      // still make progress. Quasi-random coverage beats iid uniform here,
      // and the dedicated stream keeps it reproducible (see
      // fallback_config).
      ADML_COUNT("tuner.fallback_proposals", 1);
      candidate = unseen_draw([this] { return fallback_config(); });
    }
    if (!candidate) {
      ADML_COUNT("tuner.random_proposals", 1);
      candidate = unseen_draw(
          [this] { return objective_->space().sample_uniform(rng_); });
    }
    if (!candidate) {
      // Every bounded draw was already evaluated or is pending: resubmitting
      // one would waste a full (hours-long) evaluation.
      s.exhausted = true;
      return std::nullopt;
    }
    p.ask.config = std::move(*candidate);
    if (model->ready()) {
      const SurrogateScore prior = model->score(p.ask.config);
      p.posterior_mean = prior.mean;
      p.posterior_sd = std::sqrt(prior.variance);
    }
  }
  if (!s.inline_depth_one) {
    p.fantasy = make_fantasy_trial(p.ask.config, p.posterior_mean);
  }
  ++s.next_index;
  if (replay_cursor_ < replay_.size()) {
    // Journal record i is ticket i's result. Consuming it here, at ask
    // time, advances the objective's per-run state in ticket order
    // relative to the live evaluations asked after it.
    s.told.emplace(p.ask.ticket, consume_replay(p.ask.config));
  }
  SessionAsk out = p.ask;
  s.pending.push_back(std::move(p));
  return out;
}

void BoTuner::ingest_front() {
  SessionState& s = *session_;
  const Proposal front = std::move(s.pending.front());
  s.pending.pop_front();
  const auto it = s.told.find(front.ask.ticket);
  Trial trial = std::move(it->second);
  s.told.erase(it);
  // Keep the bit-exact regenerated proposal config: a remote caller's copy
  // went through a JSON round trip (consume_replay applies the same rule).
  trial.config = front.ask.config;
  if (!s.inline_depth_one) trial.proposal_index = front.ask.ticket;
  // Ticket i < replay_.size() was replayed from journal record i: already
  // journaled, and already counted when it was first evaluated.
  if (front.ask.ticket >= static_cast<std::int64_t>(replay_.size())) {
    ADML_HISTOGRAM("tuner.trial_spent_hours", kSpentHoursBuckets,
                   trial.outcome.spent_seconds / 3600.0);
    if (trial.outcome.aborted) ADML_COUNT("tuner.early_terminated", 1);
    if (trial.succeeded() && front.posterior_sd > 0.0) {
      // Same log transform as the objective model's training targets.
      ADML_HISTOGRAM("surrogate.residual_z", kResidualZBuckets,
                     (std::log(std::max(trial.outcome.objective, 1e-9)) -
                      front.posterior_mean) /
                         front.posterior_sd);
    }
    if (journal_) {
      ADML_SPAN("tuner.journal_append");
      journal_->append(trial);
    }
  }
  ADML_DEBUG << "trial " << s.result.trials.size() << ": "
             << trial.config.to_string() << " -> "
             << (trial.succeeded() ? trial.outcome.objective : -1.0);
  history_.push_back(trial);
  record_trial(s.result, std::move(trial));
}

std::size_t BoTuner::drain_replay() {
  SessionState& s = ensure_session();
  std::size_t drained = 0;
  while (replay_cursor_ < replay_.size() && s.pending.empty() &&
         session_can_propose() && ask()) {
    ingest_front();
    ++drained;
  }
  return drained;
}

std::optional<BoTuner::SessionAsk> BoTuner::ask_next() {
  SessionState& s = ensure_session();
  drain_replay();
  if (!session_can_propose()) return std::nullopt;
  std::optional<SessionAsk> out = ask();
  if (out) {
    ADML_GAUGE_MAX("tuner.session_pending_peak",
                   static_cast<double>(s.pending.size()));
  }
  return out;
}

void BoTuner::tell_next(std::int64_t ticket, Trial trial) {
  SessionState& s = ensure_session();
  const bool outstanding =
      std::any_of(s.pending.begin(), s.pending.end(),
                  [&](const Proposal& p) { return p.ask.ticket == ticket; });
  if (!outstanding || s.told.count(ticket) != 0) {
    throw std::invalid_argument(
        "BoTuner: tell_next ticket " + std::to_string(ticket) +
        (s.told.count(ticket) != 0 || ticket < s.next_index
             ? " was already reported"
             : " was never asked"));
  }
  s.told.emplace(ticket, std::move(trial));
  // Strict-FIFO ingestion: fold in the front ticket and everything buffered
  // contiguously behind it. Journal bytes, surrogate inputs and rng state
  // stay one canonical sequence whatever order reports arrive in.
  while (!s.pending.empty() && s.told.count(s.pending.front().ask.ticket))
    ingest_front();
}

const TuningResult& BoTuner::session_result() const {
  static const TuningResult kEmpty;
  return session_ ? session_->result : kEmpty;
}

std::size_t BoTuner::session_pending() const {
  return session_ ? session_->pending.size() : 0;
}

bool BoTuner::session_done() const {
  return !session_can_propose() && session_pending() == 0;
}

TuningResult BoTuner::tune() {
  ADML_SPAN("tuner.tune");
  if (session_) {
    throw std::logic_error("BoTuner: tune() after an ask/tell session began");
  }
  // Decided once: the executor only when evaluations may overlap (or
  // async_workers forces it); otherwise every ticket is evaluated inline.
  const bool use_executor = options_.async_q > 1 || options_.async_workers > 0;
  SessionState& s = begin_session(/*inline_depth_one=*/!use_executor);
  tuned_ = true;
  util::Stopwatch wall;
  const auto wall_seconds = [&] {
    return options_.wall_clock ? options_.wall_clock()
                               : wall.elapsed_seconds();
  };
  // Deadline watchdog: checked before each ask, never mid-evaluation.
  // Outstanding tickets still drain into the fsynced journal, so hitting
  // the deadline is a clean checkpoint-and-exit, not an abort.
  const auto can_ask = [&] {
    if (!session_can_propose()) return false;
    if (s.result.wall_deadline_hit) return false;
    if (!(wall_seconds() >= options_.max_wall_seconds)) return true;
    s.result.wall_deadline_hit = true;
    ADML_COUNT("tuner.wall_deadline_hits", 1);
    ADML_WARN << "tuner: wall-clock deadline (" << options_.max_wall_seconds
              << "s) reached after " << s.result.trials.size()
              << " trials; checkpointing and stopping (journal is resumable)";
    return false;
  };

  if (use_executor) {
    // Objectives with per-run deterministic state run serialized (starts
    // are still pipelined with proposal work); a concurrent-safe objective
    // gets real q-way overlap. Either way results ingest in ticket order.
    AsyncEvalExecutor executor(
        static_cast<std::size_t>(options_.async_workers > 0
                                     ? options_.async_workers
                                     : options_.async_q),
        !objective_->concurrent_runs_safe());
    const auto depth = static_cast<std::size_t>(options_.async_q);
    while (true) {
      while (s.pending.size() < depth && can_ask()) {
        const std::optional<SessionAsk> a = ask();
        if (!a) break;
        if (s.told.count(a->ticket) == 0)  // not replayed from the journal
          executor.submit([this, a = *a] { return evaluate(a); });
        ADML_GAUGE_SET("tuner.in_flight",
                       static_cast<double>(executor.in_flight()));
        ADML_GAUGE_MAX("tuner.in_flight_peak",
                       static_cast<double>(executor.in_flight()));
      }
      if (s.pending.empty()) break;
      // Tell the oldest ticket. Strict FIFO — completion order never
      // reaches this thread, so journal bytes, surrogate inputs, and rng
      // state are one canonical sequence at any worker count.
      const std::int64_t front = s.pending.front().ask.ticket;
      if (s.told.count(front) == 0) s.told.emplace(front, executor.next_result());
      ingest_front();
      ADML_GAUGE_SET("tuner.in_flight",
                     static_cast<double>(executor.in_flight()));
    }
    const util::ThreadPool::Stats stats = executor.pool_stats();
    ADML_GAUGE_SET("threadpool.eval.submitted",
                   static_cast<double>(stats.submitted));
    ADML_GAUGE_SET("threadpool.eval.completed",
                   static_cast<double>(stats.completed));
    ADML_GAUGE_MAX("threadpool.eval.peak_queue_depth",
                   static_cast<double>(stats.peak_queue_depth));
  } else {
    // Inline depth one: ask, evaluate on this thread, tell.
    const auto step = [&] {
      const std::optional<SessionAsk> a = ask();
      if (!a) return;
      ADML_SPAN("tuner.evaluate");
      if (s.told.count(a->ticket) == 0) s.told.emplace(a->ticket, evaluate(*a));
      ingest_front();
    };
    {
      ADML_SPAN("tuner.initial_design");
      while (s.next_index < static_cast<std::int64_t>(s.design.size()) &&
             can_ask())
        step();
    }
    while (can_ask()) {
      ADML_SPAN("tuner.iteration");
      step();
    }
  }

  // Leave the surrogate fitted on everything seen (sensitivity analysis) —
  // unless the wall deadline fired: the watchdog's contract is a prompt
  // exit, and a resumed process refits from the journal anyway.
  if (!s.result.wall_deadline_hit) surrogate_.update(history_);
  ADML_COUNT("tuner.trials",
             static_cast<std::int64_t>(s.result.trials.size()));
  if (s.result.found_feasible())
    ADML_GAUGE_SET("tuner.best_objective", s.result.best_objective);
  ADML_GAUGE_ADD("tuner.simulated_spent_seconds",
                 s.result.total_spent_seconds);
  if (acq_pool_) {
    const util::ThreadPool::Stats stats = acq_pool_->stats();
    ADML_GAUGE_SET("threadpool.acq.submitted",
                   static_cast<double>(stats.submitted));
    ADML_GAUGE_SET("threadpool.acq.completed",
                   static_cast<double>(stats.completed));
    ADML_GAUGE_MAX("threadpool.acq.peak_queue_depth",
                   static_cast<double>(stats.peak_queue_depth));
  }
  return std::move(s.result);
}

}  // namespace autodml::core
