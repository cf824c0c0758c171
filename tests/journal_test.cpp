// Crash-safe tuning sessions: the append-only trial journal, resume
// semantics (a killed process continues to the same incumbent), torn-tail
// tolerance, and atomic session saves.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "synthetic_objective.h"
#include "util/fs.h"
#include "workloads/eval_supervisor.h"
#include "workloads/objective_adapter.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

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

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(Journal, ResumeReachesTheSameIncumbentAsUninterruptedRun) {
  const int full_budget = 12;
  const int crash_after = 7;

  // Reference: an uninterrupted run.
  SyntheticObjective reference;
  BoTuner full(reference, fast_options(42, full_budget));
  const TuningResult want = full.tune();

  // "Crashed" run: journal the first trials, then abandon the process.
  const std::string journal = temp_path("autodml_resume.journal");
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(42, crash_after);
    options.journal_path = journal;
    BoTuner tuner(objective, options);
    tuner.tune();
  }

  // Resumed run: same seed and options, bigger budget. The journaled
  // trials replay without touching the objective.
  SyntheticObjective resumed;
  BoOptions options = fast_options(42, full_budget);
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const TuningResult got = tuner.tune();

  EXPECT_EQ(tuner.replayed_count(), static_cast<std::size_t>(crash_after));
  EXPECT_EQ(resumed.total_runs(), full_budget - crash_after);
  ASSERT_EQ(got.trials.size(), want.trials.size());
  EXPECT_DOUBLE_EQ(got.best_objective, want.best_objective);
  EXPECT_TRUE(got.best_config == want.best_config);
  for (std::size_t i = 0; i < got.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.trials[i].outcome.objective,
                     want.trials[i].outcome.objective)
        << i;
  }
  std::remove(journal.c_str());
}

TEST(Journal, ResumeReproducesSupervisedEvaluatorRuns) {
  // End-to-end with the real evaluator under faults: the resumed session
  // must reproduce the uninterrupted one bit-for-bit, which exercises
  // notify_replayed's seed-stream advancement (per-run and per-eval).
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  const int full_budget = 8;
  wl::EvaluatorOptions eval_options;
  eval_options.faults = sim::light_fault_spec();

  const auto run_tuner = [&](int evals, const std::string& journal_path) {
    wl::Evaluator evaluator(workload, /*seed=*/31, eval_options);
    wl::EvalSupervisor supervisor(evaluator, wl::RetryPolicy{}, 31);
    wl::SupervisedObjective objective(supervisor);
    BoOptions options = fast_options(31, evals);
    options.initial_design_size = 4;
    options.journal_path = journal_path;
    BoTuner tuner(objective, options);
    return tuner.tune();
  };

  const TuningResult want = run_tuner(full_budget, "");
  const std::string journal = temp_path("autodml_supervised.journal");
  run_tuner(5, journal);
  const TuningResult got = run_tuner(full_budget, journal);

  ASSERT_EQ(got.trials.size(), want.trials.size());
  EXPECT_TRUE(got.best_config == want.best_config);
  EXPECT_DOUBLE_EQ(got.best_objective, want.best_objective);
  for (std::size_t i = 0; i < got.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.trials[i].outcome.objective,
                     want.trials[i].outcome.objective)
        << i;
    EXPECT_EQ(got.trials[i].outcome.attempts, want.trials[i].outcome.attempts)
        << i;
    EXPECT_DOUBLE_EQ(got.trials[i].outcome.spent_seconds,
                     want.trials[i].outcome.spent_seconds)
        << i;
  }
  std::remove(journal.c_str());
}

TEST(Journal, ReplayedTrialsCountTowardTheBudget) {
  const std::string journal = temp_path("autodml_budget.journal");
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(7, 6);
    options.journal_path = journal;
    BoTuner(objective, options).tune();
  }
  SyntheticObjective resumed;
  BoOptions options = fast_options(7, 6);
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const TuningResult result = tuner.tune();
  EXPECT_EQ(result.trials.size(), 6u);
  EXPECT_EQ(resumed.total_runs(), 0);  // everything came from the journal
  std::remove(journal.c_str());
}

TEST(Journal, TornTailIsSkippedAndRepaired) {
  const std::string journal = temp_path("autodml_torn.journal");
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(9, 5);
    options.journal_path = journal;
    BoTuner(objective, options).tune();
  }
  // Simulate a crash mid-append: a partial record with no closing brace.
  {
    std::ofstream file(journal, std::ios::app);
    file << "{\"config\": {\"x\": 0.5, \"mo";
  }
  const SyntheticObjective probe;
  const LoadedJournal before = load_journal(journal, probe.space());
  EXPECT_TRUE(before.torn_tail);
  EXPECT_EQ(before.trials.size(), 5u);

  // Construction repairs the file; the replayed budget is intact.
  SyntheticObjective resumed;
  BoOptions options = fast_options(9, 7);
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const LoadedJournal after = load_journal(journal, probe.space());
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.trials.size(), 5u);
  const TuningResult result = tuner.tune();
  EXPECT_EQ(result.trials.size(), 7u);
  EXPECT_EQ(resumed.total_runs(), 2);
  std::remove(journal.c_str());
}

TEST(Journal, CorruptInteriorRecordThrowsWithContext) {
  const std::string journal = temp_path("autodml_corrupt.journal");
  const SyntheticObjective probe;
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(9, 4);
    options.journal_path = journal;
    BoTuner(objective, options).tune();
  }
  // Clobber an interior line (not the tail): unrecoverable.
  std::string contents = slurp(journal);
  const std::size_t first_nl = contents.find('\n');
  const std::size_t second_nl = contents.find('\n', first_nl + 1);
  contents.replace(first_nl + 1, second_nl - first_nl - 1, "garbage!");
  util::write_file_atomic(journal, contents);
  try {
    load_journal(journal, probe.space());
    FAIL() << "corrupt interior record was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt journal record"),
              std::string::npos)
        << e.what();
  }
  std::remove(journal.c_str());
}

TEST(Journal, SeedMismatchIsRejectedWithClearMessage) {
  const std::string journal = temp_path("autodml_seed.journal");
  {
    SyntheticObjective objective;
    BoOptions options = fast_options(1, 4);
    options.journal_path = journal;
    BoTuner(objective, options).tune();
  }
  SyntheticObjective other;
  BoOptions options = fast_options(2, 4);
  options.journal_path = journal;
  try {
    BoTuner tuner(other, options);
    FAIL() << "journal with mismatched seed was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
  std::remove(journal.c_str());
}

TEST(SessionIo, SaveTrialsLeavesNoTempResidue) {
  SyntheticObjective objective;
  util::Rng rng(4);
  std::vector<Trial> trials;
  for (int i = 0; i < 3; ++i) {
    Trial t;
    t.config = objective.space().sample_uniform(rng);
    t.outcome = objective.run(t.config, nullptr);
    trials.push_back(std::move(t));
  }
  const std::string dir = ::testing::TempDir() + "/autodml_atomic";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/session.json";
  save_trials(path, trials);
  EXPECT_EQ(load_trials(path, objective.space()).size(), trials.size());
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "session.json");
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SessionIo, TruncatedSessionFileThrowsWithPathContext) {
  const std::string path = temp_path("autodml_truncated.json");
  {
    std::ofstream file(path);
    file << "{\"trials\": [";
  }
  const SyntheticObjective probe;
  try {
    load_trials(path, probe.space());
    FAIL() << "truncated session file was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("autodml_truncated.json"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autodml::core
