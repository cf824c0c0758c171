// Structural validation of exported traces: a real traced tuning session
// must produce a Chrome trace-event document that parses, carries every
// Perfetto-required field, and has properly nested begin/end spans with
// monotonic timestamps on each thread.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/bo_tuner.h"
#include "obs/trace.h"
#include "util/json.h"
#include "workloads/objective_adapter.h"

namespace autodml {
namespace {

std::string traced_session_json() {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const wl::Workload& workload = wl::workload_by_name("logreg-ads");
  wl::Evaluator evaluator(workload, 21);
  wl::EvaluatorObjective objective(evaluator);
  core::BoOptions options;
  options.seed = 21;
  options.max_evaluations = 6;
  options.initial_design_size = 4;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.max_iterations = 20;
  options.acq_optimizer.random_candidates = 128;
  core::BoTuner tuner(objective, options);
  tuner.tune();
  tracer.stop();
  const std::string json = tracer.export_chrome_json();
  tracer.clear();
  return json;
}

TEST(TraceValidity, ExportedSessionTraceIsWellFormed) {
  const util::JsonValue doc = util::parse_json(traced_session_json());

  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 20u) << "a 6-trial session must emit real spans";

  // Per-thread span stack (names) and last-seen timestamp.
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::JsonValue& e = events[i];
    // Perfetto-required fields on every event.
    ASSERT_TRUE(e.contains("name")) << "event " << i;
    ASSERT_TRUE(e.contains("ph")) << "event " << i;
    ASSERT_TRUE(e.contains("ts")) << "event " << i;
    ASSERT_TRUE(e.contains("pid")) << "event " << i;
    ASSERT_TRUE(e.contains("tid")) << "event " << i;
    ASSERT_FALSE(e.at("name").as_string().empty()) << "event " << i;

    const int tid = static_cast<int>(e.at("tid").as_number());
    const double ts = e.at("ts").as_number();
    // Events are grouped per thread buffer in append order, so timestamps
    // must be non-decreasing within a tid.
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]) << "event " << i << " on tid " << tid;
    }
    last_ts[tid] = ts;

    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") {
      stacks[tid].push_back(e.at("name").as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty())
          << "event " << i << ": 'E' with no open span on tid " << tid;
      // Strict nesting: an end always closes the innermost open span.
      EXPECT_EQ(stacks[tid].back(), e.at("name").as_string())
          << "event " << i;
      stacks[tid].pop_back();
    } else {
      ASSERT_EQ(ph, "i") << "event " << i << ": unexpected phase " << ph;
      EXPECT_EQ(e.at("s").as_string(), "t") << "event " << i;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unbalanced span(s) left open on tid " << tid;
  }
}

TEST(TraceValidity, SessionEmitsTheCanonicalSpanTaxonomy) {
  const util::JsonValue doc = util::parse_json(traced_session_json());
  std::map<std::string, int> names;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "B") ++names[e.at("name").as_string()];
  }
  EXPECT_EQ(names["tuner.tune"], 1);
  EXPECT_EQ(names["tuner.initial_design"], 1);
  EXPECT_EQ(names["tuner.evaluate"], 6);
  EXPECT_EQ(names["eval.run"], 6);
  EXPECT_GE(names["tuner.iteration"], 1);
  EXPECT_GE(names["surrogate.update"], 1);
  EXPECT_GE(names["gp.fit"], 1);
  EXPECT_GE(names["sim.ps_run"] + names["sim.allreduce_run"], 1);
}

}  // namespace
}  // namespace autodml
