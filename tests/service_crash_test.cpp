// Crash/resume for service sessions: a daemon killed at each of the
// journal-append durability points (PR 8 chaos layer) must leave a
// journal that a fresh create-session resumes by replay, and the
// continuation must land byte-identical to an uninterrupted standalone
// reference. Death tests use the threadsafe style: the manager's worker
// pool is live when the armed crash point fires.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "core/bo_tuner.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "synthetic_objective.h"
#include "util/chaos.h"
#include "util/fs.h"
#include "util/json.h"

namespace autodml::service {
namespace {

using testing::SyntheticObjective;
using util::JsonValue;
namespace chaos = util::chaos;

constexpr int kEvals = 6;

core::BoOptions crash_options(std::uint64_t seed) {
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = kEvals;
  options.initial_design_size = 3;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.max_iterations = 10;
  options.acq_optimizer.random_candidates = 32;
  options.early_term.enabled = false;
  options.async_q = 1;
  options.async_workers = 1;
  return options;
}

std::string create_line(const std::string& id, std::uint64_t seed,
                        const std::string& journal) {
  const SyntheticObjective probe;
  return R"({"op":"create-session","session":")" + id + R"(","seed":)" +
         std::to_string(seed) + R"(,"target_metric":0.9,"journal":")" +
         journal +
         R"(","options":{"max_evaluations":)" + std::to_string(kEvals) +
         R"(,"initial_design_size":3,"gp_restarts":1,)"
         R"("gp_max_iterations":10,"acq_random_candidates":32,)"
         R"("early_term":false},"space":)" +
         util::dump_json(space_to_json(probe.space())) + "}";
}

JsonValue expect_ok(SessionManager& manager, const std::string& line) {
  JsonValue response = util::parse_json(manager.handle_line(line));
  EXPECT_TRUE(response.at("ok").as_bool())
      << line << " -> " << util::dump_json(response);
  return response;
}

/// Serial suggest/evaluate/report loop until the budget runs dry.
JsonValue drive_to_completion(SessionManager& manager,
                              const std::string& id) {
  SyntheticObjective objective;
  while (true) {
    const JsonValue ask = util::parse_json(manager.handle_line(
        R"({"op":"suggest","session":")" + id + R"("})"));
    if (!ask.at("ok").as_bool()) {
      EXPECT_EQ(ask.at("error").as_string(), "budget-exhausted");
      break;
    }
    conf::Config config =
        config_from_json(ask.at("config"), objective.space());
    const core::RunOutcome outcome = objective.run(config, nullptr);
    expect_ok(manager,
              R"({"op":"report","session":")" + id + R"(","ticket":)" +
                  std::to_string(static_cast<std::int64_t>(
                      ask.at("ticket").as_number())) +
                  R"(,"outcome":)" +
                  util::dump_json(outcome_to_json(outcome)) + "}");
  }
  return expect_ok(manager, R"({"op":"status","session":")" + id + R"("})");
}

/// The death-test body: arm one journal-append crash point (the journal
/// header is append #1, trial i is append #i+2) and drive a fresh session
/// until the armed append kills the process with _exit(86).
void drive_until_crash(const char* point, int hit, std::uint64_t seed,
                       const std::string& journal) {
  chaos::disarm_all();
  chaos::arm_crash_point(point, hit);
  SessionManager manager;
  expect_ok(manager, create_line("victim", seed, journal));
  (void)drive_to_completion(manager, "victim");
  // Reached only if the crash point never fired — fail the exit match.
  chaos::disarm_all();
}

/// Full scenario for one durability point: reference run, crash mid-
/// session at append `hit`, resume under a fresh manager, byte-compare.
void crash_and_resume(const char* point, std::uint64_t seed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string suffix =
      std::to_string(seed) + "_" + std::string(point).substr(
          std::string(point).rfind('.') + 1);
  const std::string ref_journal =
      ::testing::TempDir() + "/svc_crash_ref_" + suffix + ".journal";
  std::remove(ref_journal.c_str());
  SyntheticObjective reference;
  core::BoOptions options = crash_options(seed);
  options.journal_path = ref_journal;
  core::BoTuner tuner(reference, options);
  const core::TuningResult want = tuner.tune();

  const std::string journal =
      ::testing::TempDir() + "/svc_crash_" + suffix + ".journal";
  std::remove(journal.c_str());
  const int hit = 4;  // dies appending trial 2 (header + trials 0, 1 landed)
  EXPECT_EXIT(drive_until_crash(point, hit, seed, journal),
              ::testing::ExitedWithCode(chaos::kCrashExitCode), "");

  // pre_write dies before the record reaches the file; the other three
  // points die after the write() so the bytes survive process death.
  const std::size_t journaled =
      std::strcmp(point, "journal.append.pre_write") == 0
          ? static_cast<std::size_t>(hit - 2)
          : static_cast<std::size_t>(hit - 1);

  SessionManager manager;
  const JsonValue created =
      expect_ok(manager, create_line("resumed", seed, journal));
  EXPECT_EQ(created.at("replayed").as_number(),
            static_cast<double>(journaled));
  const JsonValue status = drive_to_completion(manager, "resumed");
  EXPECT_TRUE(status.at("done").as_bool());
  EXPECT_EQ(static_cast<std::size_t>(status.at("trials").as_number()),
            want.trials.size());
  EXPECT_EQ(status.at("best_objective").as_number(), want.best_objective);
  EXPECT_EQ(util::read_file(journal), util::read_file(ref_journal));
  std::remove(ref_journal.c_str());
  std::remove(journal.c_str());
}

TEST(ServiceCrashDeathTest, ResumesAfterCrashBeforeWrite) {
  crash_and_resume("journal.append.pre_write", 51);
}

TEST(ServiceCrashDeathTest, ResumesAfterCrashAfterWrite) {
  crash_and_resume("journal.append.post_write", 52);
}

TEST(ServiceCrashDeathTest, ResumesAfterCrashBeforeFsync) {
  crash_and_resume("journal.append.pre_fsync", 53);
}

TEST(ServiceCrashDeathTest, ResumesAfterCrashAfterFsync) {
  crash_and_resume("journal.append.post_fsync", 54);
}

}  // namespace
}  // namespace autodml::service
