// The chaos layer end to end: crash-point arming and termination (death
// tests), fault windows, duplicated-tail journal dedup, degraded-mode
// fallback determinism, and the wall-clock deadline watchdog.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "obs/metrics.h"
#include "synthetic_objective.h"
#include "util/chaos.h"
#include "util/fs.h"
#include "util/json.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;
namespace chaos = util::chaos;

BoOptions fast_options(std::uint64_t seed, int evals) {
  BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = 6;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.max_iterations = 30;
  options.acq_optimizer.random_candidates = 256;
  return options;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

// ---- crash points ----------------------------------------------------------

TEST(ChaosDeathTest, ArmedCrashPointExitsWithDistinctiveCode) {
  EXPECT_EXIT(
      {
        chaos::disarm_all();
        chaos::arm_crash_point("test.point");
        chaos::hit_crash_point("test.point");
      },
      ::testing::ExitedWithCode(chaos::kCrashExitCode),
      "crash point 'test.point'");
}

TEST(ChaosDeathTest, CrashPointHonorsTheHitIndex) {
  EXPECT_EXIT(
      {
        chaos::disarm_all();
        chaos::arm_crash_point("test.nth", 3);
        chaos::hit_crash_point("test.nth");  // 1: survives
        chaos::hit_crash_point("test.nth");  // 2: survives
        chaos::hit_crash_point("test.nth");  // 3: dies
      },
      ::testing::ExitedWithCode(chaos::kCrashExitCode), "\\(hit 3\\)");
}

TEST(ChaosDeathTest, CrashAfterCountsHitsAcrossSites) {
  EXPECT_EXIT(
      {
        chaos::disarm_all();
        chaos::arm_crash_after(3);
        chaos::hit_crash_point("site.a");
        chaos::hit_crash_point("site.b");
        chaos::hit_crash_point("site.c");
      },
      ::testing::ExitedWithCode(chaos::kCrashExitCode), "site\\.c");
}

TEST(Chaos, UnarmedAndMismatchedHitsAreInert) {
  chaos::disarm_all();
  chaos::hit_crash_point("some.point");  // disarmed: must not terminate
  EXPECT_FALSE(chaos::armed());

  chaos::arm_crash_point("other.point");
  EXPECT_TRUE(chaos::armed());
  chaos::hit_crash_point("some.point");  // armed for a different site
  EXPECT_EQ(chaos::total_crash_point_hits(), 1u);
  chaos::disarm_all();
  EXPECT_EQ(chaos::total_crash_point_hits(), 0u);
}

TEST(Chaos, FaultWindowCoversExactlyTheConfiguredHits) {
  chaos::disarm_all();
  chaos::arm_fault_point("test.fault", /*first_hit=*/2, /*count=*/2);
  EXPECT_FALSE(chaos::fault_requested("test.fault"));  // hit 1
  EXPECT_TRUE(chaos::fault_requested("test.fault"));   // hit 2
  EXPECT_TRUE(chaos::fault_requested("test.fault"));   // hit 3
  EXPECT_FALSE(chaos::fault_requested("test.fault"));  // hit 4
  EXPECT_FALSE(chaos::fault_requested("unrelated.fault"));
  chaos::disarm_all();
}

// ---- duplicated trailing record --------------------------------------------

TEST(Journal, DuplicatedTailIsDedupedAndResumeMatchesReference) {
  SyntheticObjective reference;
  BoTuner full(reference, fast_options(17, 7));
  const TuningResult want = full.tune();

  const std::string journal = temp_path("chaos_dup.journal");
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(17, 5);
    options.journal_path = journal;
    BoTuner(objective, options).tune();
  }
  // A crash between a durable append and the tuner acting on it makes a
  // restart re-append the same record; fabricate that duplicate.
  std::string contents = util::read_file(journal);
  const std::size_t prev_nl = contents.rfind('\n', contents.size() - 2);
  contents += contents.substr(prev_nl + 1);
  util::write_file_atomic(journal, contents);

  const SyntheticObjective probe;
  const LoadedJournal loaded = load_journal(journal, probe.space());
  EXPECT_TRUE(loaded.deduped_tail);
  EXPECT_EQ(loaded.trials.size(), 5u);

  SyntheticObjective resumed;
  BoOptions options = fast_options(17, 7);
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  // Construction repaired the file on disk.
  const LoadedJournal repaired = load_journal(journal, probe.space());
  EXPECT_FALSE(repaired.deduped_tail);
  EXPECT_EQ(repaired.trials.size(), 5u);

  const TuningResult got = tuner.tune();
  EXPECT_EQ(tuner.replayed_count(), 5u);
  EXPECT_EQ(resumed.total_runs(), 2);
  ASSERT_EQ(got.trials.size(), want.trials.size());
  EXPECT_DOUBLE_EQ(got.best_objective, want.best_objective);
  EXPECT_TRUE(got.best_config == want.best_config);
  std::remove(journal.c_str());
}

// ---- graceful degradation --------------------------------------------------

TuningResult run_degraded(std::uint64_t seed, int acq_threads) {
  chaos::disarm_all();
  // Every fit attempt of surrogate updates 1..3 fails; update 4 recovers.
  chaos::arm_fault_point("surrogate.refit", /*first_hit=*/1, /*count=*/3);
  SyntheticObjective objective;
  BoOptions options = fast_options(seed, 10);
  options.acq_threads = acq_threads;
  BoTuner tuner(objective, options);
  TuningResult result = tuner.tune();
  EXPECT_FALSE(tuner.surrogate().degraded());  // recovered before the end
  chaos::disarm_all();
  return result;
}

TEST(Degradation, FallbackProposalsAreBitIdenticalAcrossThreadCounts) {
  const TuningResult serial = run_degraded(23, 1);
  const TuningResult again = run_degraded(23, 1);
  const TuningResult threaded = run_degraded(23, 4);
  ASSERT_EQ(serial.trials.size(), 10u);
  ASSERT_EQ(again.trials.size(), serial.trials.size());
  ASSERT_EQ(threaded.trials.size(), serial.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_TRUE(serial.trials[i].config == again.trials[i].config) << i;
    EXPECT_TRUE(serial.trials[i].config == threaded.trials[i].config) << i;
    EXPECT_DOUBLE_EQ(serial.trials[i].outcome.objective,
                     threaded.trials[i].outcome.objective)
        << i;
  }
  EXPECT_DOUBLE_EQ(serial.best_objective, threaded.best_objective);
}

TEST(Degradation, EntryRecoveryAndFallbacksAreObservable) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.enable();
  run_degraded(23, 1);
  registry.disable();
  EXPECT_EQ(registry.counter("surrogate.degraded_entries").value(), 1);
  EXPECT_EQ(registry.counter("surrogate.recoveries").value(), 1);
  EXPECT_GE(registry.counter("tuner.fallback_proposals").value(), 1);
  EXPECT_EQ(registry.gauge("tuner.degraded_mode").value(), 0.0);
}

TEST(Degradation, HealthyRunsEmitNoDegradedMetrics) {
  chaos::disarm_all();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.enable();
  SyntheticObjective objective;
  BoTuner(objective, fast_options(23, 10)).tune();
  registry.disable();
  // Transition-only emission: a healthy run's metrics snapshot must not
  // contain any degraded-mode keys (the golden-run test depends on this).
  const std::string json = util::dump_json(registry.snapshot_json(), 1);
  EXPECT_EQ(json.find("degraded"), std::string::npos);
  EXPECT_EQ(json.find("fallback"), std::string::npos);
}

// ---- wall-clock watchdog ---------------------------------------------------

TEST(Watchdog, DeadlineCheckpointsAndResumeMatchesReference) {
  SyntheticObjective reference;
  BoTuner full(reference, fast_options(21, 10));
  const TuningResult want = full.tune();

  const std::string journal = temp_path("chaos_watchdog.journal");
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(21, 10);
    options.journal_path = journal;
    options.max_wall_seconds = 4.0;
    double fake_now = 0.0;
    options.wall_clock = [&fake_now] {
      fake_now += 1.0;
      return fake_now;
    };
    BoTuner tuner(objective, options);
    const TuningResult partial = tuner.tune();
    EXPECT_TRUE(partial.wall_deadline_hit);
    EXPECT_GE(partial.trials.size(), 1u);
    EXPECT_LT(partial.trials.size(), 10u);
  }

  SyntheticObjective resumed;
  BoOptions options = fast_options(21, 10);
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const TuningResult got = tuner.tune();
  EXPECT_FALSE(got.wall_deadline_hit);
  EXPECT_GT(tuner.replayed_count(), 0u);
  ASSERT_EQ(got.trials.size(), want.trials.size());
  EXPECT_DOUBLE_EQ(got.best_objective, want.best_objective);
  EXPECT_TRUE(got.best_config == want.best_config);
  std::remove(journal.c_str());
}

TEST(Watchdog, InfiniteDeadlineNeverTrips) {
  SyntheticObjective objective;
  BoOptions options = fast_options(5, 8);
  BoTuner tuner(objective, options);
  const TuningResult result = tuner.tune();
  EXPECT_FALSE(result.wall_deadline_hit);
  EXPECT_EQ(result.trials.size(), 8u);
}

}  // namespace
}  // namespace autodml::core
