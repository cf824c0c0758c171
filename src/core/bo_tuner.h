// The AutoDML tuner: Bayesian optimization over distributed-ML system
// configurations. This is the paper's primary contribution.
//
// Loop structure: one ask/tell core, driven three ways.
//   ask   — the next proposal. The first initial_design_size tickets are a
//           space-filling design (Latin hypercube by default), evaluated to
//           completion: the model needs uncensored observations to anchor.
//           Every later ticket fits the surrogate (objective and, once
//           failures exist, feasibility GPs; a cost GP only under the
//           EI-per-cost acquisition, its sole reader) and maximizes the
//           acquisition over a mixed candidate pool, conditioned on
//           kriging-believer fantasies of the tickets still outstanding.
//   evaluate — run the proposal under the early-termination policy
//           (hopeless runs are killed from their learning curve).
//   tell  — record the trial; results are ingested strictly in ticket order.
// Drivers: tune() pumps up to async_q tickets (evaluated inline, or on an
// AsyncEvalExecutor when async_q > 1 or async_workers > 0) and adds the
// wall-clock deadline; ask_next()/tell_next() hand the loop to an external
// driver (the service daemon, baselines::parallel_bo).
// Warm-start trials (R-F9) are folded into the surrogate but are not
// charged against the budget or reported in the result's trial list.
//
// Crash safety: with `journal_path` set, every evaluated trial is appended
// to a fsynced line-delimited journal before the loop proceeds. A process
// killed mid-tune resumes by pointing a new tuner (same seed, same options)
// at the same journal: journal record i is *replayed* when ticket i is
// asked — folded into the result, the budget, and the surrogate without
// re-evaluating, while the objective advances its deterministic per-run
// state via notify_replayed — so the continuation is bit-identical to an
// uninterrupted run.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/acquisition_optimizer.h"
#include "core/early_termination.h"
#include "core/session_io.h"
#include "core/surrogate.h"
#include "core/tuner_types.h"
#include "util/thread_pool.h"

namespace autodml::core {

enum class InitialDesign { kLatinHypercube, kHalton, kUniform };

struct BoOptions {
  int initial_design_size = 8;
  InitialDesign initial_design = InitialDesign::kLatinHypercube;
  AcquisitionKind acquisition = AcquisitionKind::kLogEi;
  int max_evaluations = 30;
  double max_spent_seconds = std::numeric_limits<double>::infinity();
  /// Wall-clock deadline for tune() in *real* seconds (max_spent_seconds is
  /// simulated evaluation time). When the deadline passes, the loop stops
  /// proposing after the in-flight trial: everything finished is already in
  /// the fsynced journal, so the process can exit cleanly and a later run
  /// resumes where it stopped. TuningResult::wall_deadline_hit reports it.
  double max_wall_seconds = std::numeric_limits<double>::infinity();
  /// Test seam for the deadline watchdog: returns seconds elapsed since an
  /// arbitrary fixed origin. Defaults to a monotonic clock started when
  /// tune() begins.
  std::function<double()> wall_clock;
  double random_interleave_prob = 0.05;  // epsilon of pure exploration
  EarlyTermOptions early_term;  // target_metric is filled from the objective
  SurrogateOptions surrogate;
  AcqOptimizerOptions acq_optimizer;
  std::vector<Trial> warm_start;
  /// Append-only trial journal for crash-safe sessions (empty = disabled).
  /// An existing journal written with the same seed/space is resumed.
  std::string journal_path;
  /// Worker threads for acquisition-candidate scoring (1 = serial). The
  /// tuner owns the pool; proposals are bit-identical at any thread count
  /// (see AcqOptimizerOptions::pool for the determinism contract), so this
  /// only changes latency, never results.
  int acq_threads = 1;
  /// tune() keeps up to async_q tickets in flight (1 = one proposal at a
  /// time, evaluated inline on the calling thread). Proposals made while
  /// evaluations are pending are conditioned on kriging-believer fantasies
  /// of the pending points (see make_fantasy_trial); results are ingested,
  /// journaled, and folded into the surrogate strictly in ticket order, so
  /// incumbents are bit-identical and journals byte-identical at any
  /// async_workers count. Resume requires the same async_q (like seed).
  /// Budget note: max_spent_seconds is checked at proposal time, so a run
  /// can overshoot it by up to async_q in-flight evaluations.
  int async_q = 1;
  /// Executor worker threads for tune() (0 = use async_q). tune() evaluates
  /// on an AsyncEvalExecutor when async_q > 1 or this is set, and inline
  /// otherwise; the executor changes latency only, never results. Setting
  /// this with async_q == 1 forces the executor at depth one, which
  /// reproduces the inline loop's trial sequence bit for bit (tested) but
  /// stamps journal records with their proposal_index.
  int async_workers = 0;
  std::uint64_t seed = 1;
};

class BoTuner {
 public:
  BoTuner(ObjectiveFunction& objective, BoOptions options);
  ~BoTuner();

  /// Runs the full loop: pumps the ask/tell core below until the budget or
  /// the wall deadline is exhausted. Call once.
  TuningResult tune();

  /// Surrogate after tune(); used by the sensitivity experiment.
  const SurrogateModel& surrogate() const { return surrogate_; }

  /// Trials recovered from the journal instead of evaluated.
  std::size_t replayed_count() const { return replay_cursor_; }

  // ---- ask/tell session mode (the driving API for external loops) --------
  //
  // Instead of tune() owning the loop, an external driver alternates
  // ask_next() (get a proposal to evaluate elsewhere) and tell_next()
  // (report the outcome). The op sequence fully determines the results:
  // a serial ask->tell drive is bit-identical to tune() with
  // async_workers == 1 (the forced-executor depth-one pump), and a
  // k-outstanding drive matches async_q == k with the same interleave.
  // Results are ingested — journaled, folded into the surrogate, recorded —
  // in strict ticket order regardless of tell arrival order, exactly like
  // tune()'s FIFO collection. tune() and session mode are mutually
  // exclusive on one instance.

  /// One proposal handed to an evaluator. `incumbent` snapshots the best
  /// objective at ask time so an early-termination policy can race the run
  /// against it.
  struct SessionAsk {
    std::int64_t ticket = 0;
    conf::Config config;
    bool allow_early_term = false;
    double incumbent = std::numeric_limits<double>::infinity();
  };

  /// Next proposal, conditioned on history plus kriging-believer fantasies
  /// of every outstanding (asked, not yet told) ticket. Replays any pending
  /// journal records first (see drain_replay). Returns nullopt when the
  /// evaluation/spent budget cannot pay for another proposal, or when the
  /// space is exhausted (every bounded fallback draw was already evaluated
  /// or is pending).
  std::optional<SessionAsk> ask_next();

  /// Reports the outcome for an outstanding ticket. The trial's config is
  /// replaced by the bit-exact proposal config (client copies go through a
  /// JSON round trip); out-of-order tells are buffered and ingested once
  /// every earlier ticket has reported. Throws std::invalid_argument for an
  /// unknown or already-told ticket.
  void tell_next(std::int64_t ticket, Trial trial);

  /// Evaluates `ask` locally: runs the objective under the early-termination
  /// policy when the ask allows it, racing the run against the ask's
  /// incumbent snapshot. Touches no tuner state, so a driver may call it
  /// from any thread (tune()'s executor does).
  Trial evaluate(const SessionAsk& ask) const;

  /// Replays every journaled trial into the session (resume-by-replay) as a
  /// serial ask->tell drive, returning how many were recovered. Called
  /// implicitly by ask_next(); explicit use lets a daemon restore state
  /// before serving traffic.
  std::size_t drain_replay();

  /// Live view of the session's result (incumbent, trials, curve).
  const TuningResult& session_result() const;

  /// Outstanding tickets: asked but not yet ingested.
  std::size_t session_pending() const;

  /// True once no further ticket can be asked and every ticket was told.
  bool session_done() const;

 private:
  struct Proposal;      // an outstanding ticket (see bo_tuner.cpp)
  struct SessionState;  // ask/tell session bookkeeping (see bo_tuner.cpp)

  /// Session for the public ask/tell API; starts it on first use and
  /// throws after tune().
  SessionState& ensure_session();
  /// Starts the session: draws the initial design (the first rng_ use).
  /// `inline_depth_one` marks tune()'s inline pump (see SessionState).
  SessionState& begin_session(bool inline_depth_one);
  /// Budget gate shared by every driver: trials recorded plus tickets
  /// outstanding must fit max_evaluations, spent time max_spent_seconds,
  /// and the space must not be exhausted. tune() adds the wall deadline.
  bool session_can_propose() const;
  /// The ask half: the next ticket, pushed onto the outstanding queue.
  /// Deterministic — all rng draws happen here, on the caller's thread.
  /// When journal record `ticket` exists it is consumed here, as the
  /// ticket's result. nullopt (and the session marked exhausted) when
  /// every bounded fallback draw collides with a seen configuration.
  std::optional<SessionAsk> ask();
  /// The single ingest path: pops the oldest outstanding ticket, whose
  /// result must already be told, and folds it in — proposal-index stamp,
  /// metrics and journal append (live results only), surrogate history,
  /// incumbent update.
  void ingest_front();
  /// Pops journal record `replay_cursor_`, verifying it matches the
  /// regenerated proposal `config`, and advances the objective's replay
  /// state.
  Trial consume_replay(const conf::Config& config);
  /// First of a bounded number of `draw()` results that is neither in the
  /// history nor outstanding; nullopt when every draw collides.
  std::optional<conf::Config> unseen_draw(
      const std::function<conf::Config()>& draw);
  std::vector<conf::Config> initial_configs();
  /// Quasi-random proposal used while the surrogate is degraded. Driven by
  /// a dedicated seed-derived Halton stream — not rng_ and not the thread
  /// pool — so fallback proposals are bit-identical across reruns and
  /// acq_threads settings.
  conf::Config fallback_config();

  ObjectiveFunction* objective_;
  BoOptions options_;
  util::Rng rng_;
  std::unique_ptr<util::ThreadPool> acq_pool_;  // when acq_threads > 1
  SurrogateModel surrogate_;
  /// The surrogate refit on history + fantasies of the outstanding tickets,
  /// used by every ask made while another ticket is outstanding. Kept
  /// separate from surrogate_ so fantasy beliefs never leak into the model
  /// the sensitivity analysis (and the final fit) reads.
  SurrogateModel fantasy_model_;
  std::vector<Trial> history_;  // warm start + own trials
  std::vector<Trial> replay_;  // journaled trials; record i is ticket i
  std::size_t replay_cursor_ = 0;
  std::unique_ptr<TrialJournal> journal_;
  std::size_t fallback_index_ = 0;  // Halton cursor for degraded proposals
  std::unique_ptr<SessionState> session_;  // non-null once a driver began
  bool tuned_ = false;                     // tune() ran (or is running)
};

}  // namespace autodml::core
