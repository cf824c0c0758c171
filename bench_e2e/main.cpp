// End-to-end tuning benchmark: one workload per process, driven through
// the library's public API and timed from outside.
//
//   bench_e2e --workload demo|async-ps|service --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Workloads (README.md in this directory says why each was chosen):
//   demo      logreg-ads, 30 evaluations, synchronous BoTuner::tune(),
//             library-default options, no journal (`autodml_cli tune --demo`).
//   async-ps  mf-recsys, 30 evaluations, async_q = 4, journal on.
//   service   closed loop over SessionManager::handle_line: up to two
//             client threads, each driving its own sessions serially
//             (create, then suggest/evaluate/report/status until the suggest
//             answers budget-exhausted, then close), against a pool of as
//             many workers. The client evaluates a cheap closed-form
//             objective, so the simulator does no work.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every session
// twice, untraced and then with obs::Tracer and obs::MetricsRegistry on,
// checks that both passes produce bit-identical trial streams, and prints
// the per-layer split. For the simulated workloads it also runs the first
// session without the TimingObjective decorator and checks that wrapping
// changes nothing either.
//
// The amount of work is a function of --seed and --seconds only: sessions per
// run come from --seconds and a fixed nominal session cost, so a faster
// library runs the same sessions in less time, and every count the library
// emits repeats exactly for a given seed.
//
// The last stdout line is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// Exit status is 1 when a correctness check fails, 2 on bad arguments.
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bo_tuner.h"
#include "core/session_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "timing_objective.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/stats.h"
#include "workloads/objective_adapter.h"
#include "workloads/workload.h"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace autodml::bench {
namespace {

using Clock = std::chrono::steady_clock;
using util::JsonValue;

constexpr int kEvals = 30;  // evaluations per tuning session
// Service clients and workers each. Two of each keep about two threads
// busy, so the closed loop does not contend with itself for the cores.
constexpr std::size_t kMaxThreads = 2;
// Nominal host seconds per session on a 4-core Release build, with the
// workload's sessions in flight; sessions per run = seconds * lanes /
// nominal. Fixed, so the work never depends on speed.
constexpr double kDemoNominalS = 9.0;
constexpr double kAsyncNominalS = 5.5;
constexpr double kServiceNominalS = 0.7;  // all clients busy
constexpr int kServiceMinSessions = 8;    // >= 200 samples of every op

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds consumed so far by every thread of the process.
double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// util::quantile, reading 0 for no samples: a layer that did no work.
double percentile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : util::quantile(values, q);
}
double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return std::to_string(bits);
}

/// Session seeds: distinct per (run seed, session index), exactly
/// representable in the JSON the service protocol carries.
std::uint64_t session_seed(std::uint64_t seed, int index) {
  return seed * 1000 + static_cast<std::uint64_t>(index);
}

int sessions_for(double seconds, double nominal, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(seconds / nominal)));
}

/// A fresh per-run directory for journals, removed on every exit path, so
/// repeated runs never trip journal-in-use or resume a previous journal.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed under " + parent);
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// The journal's filesystem: the fsync tail of report latency depends on it.
std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// carry over the launching process's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

unsigned nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

// ---------------------------------------------------------------------------
// Run report: metrics, correctness, failures.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON line: end-to-end or per-layer
  std::vector<Metric> notes;    // printed above it, for reading only

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "bench_e2e: correctness check failed: %s\n",
                 what.c_str());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

/// One tuning session, as the benchmark saw it.
struct SessionRecord {
  std::uint64_t seed = 0;
  double wall_s = 0.0;   // tune() call to return, or create to close
  double setup_s = 0.0;  // start to the first proposal request
  std::vector<RunSample> runs;  // decorator samples (wrapped sessions only)
  bool ok = false;              // a feasible incumbent and no exception
  std::size_t trials = 0;
  double best_objective = 0.0;
  std::string stream;  // trial stream + incumbent, compared bit for bit
  double gain = 0.0;   // default config's objective / incumbent's
  double search_cost_h = 0.0;
  std::vector<std::string> problems;  // failed correctness checks
};

/// The tuner's CPU milliseconds per trial over `sessions`.
double cpu_ms_per_trial(double cpu_s,
                        const std::vector<SessionRecord>& sessions) {
  std::size_t trials = 0;
  for (const SessionRecord& s : sessions) trials += s.trials;
  return ratio(1e3 * cpu_s, static_cast<double>(trials));
}

/// End-to-end metrics every workload reports. Only setup_s, the tuner's CPU
/// per trial, ok_ratio and peak RSS go into the JSON line: the others vary
/// with the seed's trajectory far more than any useful bound (README.md,
/// "Why most metrics are printed, not gated").
void add_session_metrics(Report& report,
                         const std::vector<SessionRecord>& sessions,
                         double tuner_cpu_s, double wall_s) {
  std::vector<double> walls;
  std::size_t trials = 0;
  double wall_sum = 0.0, eval_s = 0.0, gain_sum = 0.0, cost_sum = 0.0;
  double feasible = 0.0;
  for (const SessionRecord& s : sessions) {
    walls.push_back(s.wall_s);
    wall_sum += s.wall_s;
    trials += s.trials;
    for (const RunSample& r : s.runs) eval_s += r.wall_s;
    if (!s.ok) continue;
    feasible += 1.0;
    gain_sum += s.gain;
    cost_sum += s.search_cost_h;
  }
  const auto n = static_cast<double>(sessions.size());
  report.add("tuner_cpu_ms_per_trial", cpu_ms_per_trial(tuner_cpu_s, sessions),
             "ms");
  report.note("sessions", n, "count");
  report.note("session_s", ratio(wall_sum, n), "s");
  report.note("session_s.p50", median(walls), "s");
  report.note("evals_per_s", ratio(static_cast<double>(trials), wall_s), "1/s");
  report.note("eval_share", ratio(eval_s, wall_sum), "ratio");
  report.note("best_gain", ratio(gain_sum, feasible), "ratio");
  report.note("search_cost_h", ratio(cost_sum, feasible), "h");
}

// ---------------------------------------------------------------------------
// Traced pass: the library's own spans and counters.

struct LayerTotals {
  std::map<std::string, obs::Tracer::SpanStat> spans;
  std::map<std::string, std::int64_t> counters;

  double span_s(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_seconds;
  }
  double span_count(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
};

constexpr const char* kCounters[] = {
    "sim.ps_runs",
    "sim.allreduce_runs",
    "gp.hyperopt_rounds",
    "gp.lml_evals",
    "gp.lml_cache_hits",
    "surrogate.updates",
    "surrogate.refit_skipped",
    "surrogate.hyperopt_scheduled",
    "acq.candidates_generated",
    "acq.candidates_scored",
    "acq.fantasized",
    "service.requests",
    "service.errors"};

/// Starts the tracer and a zeroed metrics registry; stop() collects.
class TracedPass {
 public:
  TracedPass() {
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().enable();
    obs::Tracer::instance().start();
  }
  ~TracedPass() {
    obs::Tracer::instance().stop();
    obs::MetricsRegistry::instance().disable();
  }
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

  LayerTotals stop() {
    obs::Tracer& tracer = obs::Tracer::instance();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    tracer.stop();
    registry.disable();
    LayerTotals totals;
    totals.spans = tracer.span_totals();
    for (const char* name : kCounters)
      totals.counters[name] = registry.counter(name).value();
    tracer.clear();
    return totals;
  }
};

/// The per-layer split every workload reports. `runs` are the decorator's
/// samples, `session_wall_s` the summed wall of the traced sessions and
/// `waited_s` what the thread driving the tuner spent waiting on others.
void add_layer_metrics(Report& report, const LayerTotals& t,
                       const std::vector<RunSample>& runs,
                       double session_wall_s, double waited_s) {
  double sim_busy = 0.0;
  std::vector<double> run_ms;
  for (const RunSample& r : runs) {
    sim_busy += r.wall_s;
    run_ms.push_back(1e3 * r.wall_s);
  }
  const double update_s = t.span_s("surrogate.update");
  const double propose_s = t.span_s("acq.propose");
  const double append_s = t.span_s("tuner.journal_append");
  const double appends = t.span_count("tuner.journal_append");
  const double rounds = t.counter("gp.hyperopt_rounds");
  const double evals = t.counter("gp.lml_evals");
  const double hits = t.counter("gp.lml_cache_hits");
  const double skipped = t.counter("surrogate.refit_skipped");

  report.add("sim.busy_s", sim_busy, "s");
  report.add("sim.ms_per_run.p50", median(run_ms), "ms");
  report.add("sim.runs", static_cast<double>(runs.size()), "count");
  report.add("sim.ps_runs", t.counter("sim.ps_runs"), "count");
  report.add("sim.allreduce_runs", t.counter("sim.allreduce_runs"), "count");
  report.add("gp.hyperopt_s", t.span_s("gp.hyperopt"), "s");
  report.add("gp.hyperopt_rounds", rounds, "count");
  report.add("gp.lml_evals", evals, "count");
  report.add("gp.lml_evals_per_round", ratio(evals, rounds), "count");
  report.add("gp.lml_cache_hit_ratio", ratio(hits, hits + evals), "ratio");
  report.add("surrogate.update_s", update_s, "s");
  report.add("surrogate.updates", t.counter("surrogate.updates"), "count");
  const double scheduled = t.counter("surrogate.hyperopt_scheduled");
  report.add("surrogate.refit_skip_ratio", ratio(skipped, skipped + scheduled),
             "ratio");
  report.add("acq.propose_s", propose_s, "s");
  report.add("acq.proposals", t.span_count("acq.propose"), "count");
  report.add("acq.candidates_scored", t.counter("acq.candidates_scored"),
             "count");
  report.add("acq.score_ratio",
             ratio(t.counter("acq.candidates_scored"),
                   t.counter("acq.candidates_generated")),
             "ratio");
  report.add("journal.append_s", append_s, "s");
  report.add("journal.appends", appends, "count");
  report.add("journal.append_ms.mean", ratio(1e3 * append_s, appends), "ms");
  report.add("async.wait_s", t.span_s("tuner.async_wait"), "s");
  report.add("async.fantasized", t.counter("acq.fantasized"), "count");
  report.add("tuner.self_s",
             session_wall_s - waited_s - update_s - propose_s - append_s, "s");
}

void add_service_layer(Report& report, const LayerTotals& t,
                       const std::vector<double> op_ms[3], double op_s,
                       double client_s) {
  report.add("service.requests", t.counter("service.requests"), "count");
  report.add("service.op_s", op_s, "s");
  report.add("service.wait_s", client_s - op_s, "s");
  const char* names[3] = {"suggest", "report", "status"};
  for (int op = 0; op < 3; ++op) {
    const std::string base = std::string("service.") + names[op] + "_ms.";
    report.add(base + "p50", percentile(op_ms[op], 0.50), "ms");
    report.add(base + "p95", percentile(op_ms[op], 0.95), "ms");
  }
}

void compare_passes(Report& report, const std::vector<SessionRecord>& plain,
                    const std::vector<SessionRecord>& traced) {
  report.check(plain.size() == traced.size(), "pass sizes differ");
  for (std::size_t i = 0; i < std::min(plain.size(), traced.size()); ++i) {
    report.check(plain[i].stream == traced[i].stream,
                 "session seed " + std::to_string(plain[i].seed) +
                     ": the traced trial stream differs from the untraced "
                     "one");
  }
}

/// Tracing overhead: the traced pass's tuner CPU per trial over the
/// untraced pass's, on the same sessions.
void add_trace_overhead(Report& report, double plain_ms, double traced_ms) {
  report.add("trace.overhead_pct", 100.0 * (ratio(traced_ms, plain_ms) - 1.0),
             "%");
}

double summed_wall(const std::vector<SessionRecord>& sessions) {
  double sum = 0.0;
  for (const SessionRecord& s : sessions) sum += s.wall_s;
  return sum;
}

/// Counts the sessions as attempted operations and files their problems.
void absorb(Report& report, const std::vector<SessionRecord>& sessions) {
  for (const SessionRecord& s : sessions) {
    ++report.attempted;
    if (!s.ok) ++report.failed;
    for (const std::string& p : s.problems) report.check(false, p);
  }
}

// ---------------------------------------------------------------------------
// Simulated workloads: demo and async-ps.

struct SimSpec {
  const char* workload;
  int async_q;
  bool journal;
  std::size_t lanes;  // sessions in flight at once (capped by nproc)
  double nominal_s;   // host seconds per session with `lanes` in flight
};
// A demo session keeps one thread busy; an async-ps session two (the tuner
// and the serialized simulator). Lanes fill a 4-core box either way.
constexpr SimSpec kDemo{"logreg-ads", 1, false, 4, kDemoNominalS};
constexpr SimSpec kAsyncPs{"mf-recsys", 4, true, 2, kAsyncNominalS};

/// Everything one simulated session needs before its first proposal.
struct SimSession {
  SimSession(const wl::Workload& workload, const core::BoOptions& options,
             bool wrapped)
      : evaluator(workload, options.seed),
        objective(evaluator),
        timed(objective),
        tuner(wrapped ? static_cast<core::ObjectiveFunction&>(timed)
                      : static_cast<core::ObjectiveFunction&>(objective),
              options) {}

  wl::Evaluator evaluator;
  wl::EvaluatorObjective objective;
  TimingObjective timed;
  core::BoTuner tuner;
};

core::BoOptions sim_options(const SimSpec& spec, std::uint64_t seed,
                            const std::string& journal) {
  core::BoOptions options;  // library defaults
  options.seed = seed;
  options.max_evaluations = kEvals;
  options.async_q = spec.async_q;
  options.journal_path = journal;
  return options;
}

/// A session that has run, kept alive until it is graded: its trial
/// configs belong to its evaluator's space.
struct FinishedSim {
  std::unique_ptr<SimSession> session;
  core::TuningResult result;
  std::string journal;
};

/// Runs one session on the calling thread and times it. Grading (the checks
/// and the ground truth, which runs the simulator) happens later, outside
/// the CPU window and the traced region.
SessionRecord run_sim_session(const SimSpec& spec, const TempDir& dir,
                              std::uint64_t seed, bool wrapped,
                              const std::string& tag, FinishedSim& finished) {
  const wl::Workload& workload = wl::workload_by_name(spec.workload);
  finished.journal =
      spec.journal ? dir.file(tag + "-" + std::to_string(seed) + ".journal")
                   : "";
  SessionRecord record;
  record.seed = seed;
  try {
    const auto start = Clock::now();
    finished.session = std::make_unique<SimSession>(
        workload, sim_options(spec, seed, finished.journal), wrapped);
    finished.result = finished.session->tuner.tune();
    record.wall_s = seconds_since(start);
    record.runs = finished.session->timed.samples();
    if (const auto first = finished.session->timed.first_start())
      record.setup_s = std::chrono::duration<double>(*first - start).count();
  } catch (const std::exception& e) {
    record.problems.push_back("session seed " + std::to_string(seed) +
                              " threw: " + e.what());
    finished.session.reset();
  }
  return record;
}

/// Checks a finished session and measures its quality, then frees it.
void grade_sim_session(const SimSpec& spec, FinishedSim& finished,
                       SessionRecord& record) {
  if (!finished.session) return;
  const std::string who = "session seed " + std::to_string(record.seed);
  const core::TuningResult& result = finished.result;
  const wl::Evaluator& evaluator = finished.session->evaluator;
  record.trials = result.trials.size();
  record.ok = result.found_feasible();
  record.best_objective = result.best_objective;
  record.stream = core::trials_to_json(result.trials) + "|" +
                  bits_of(result.best_objective);
  record.search_cost_h = evaluator.total_spent_seconds() / 3600.0;
  if (record.trials != static_cast<std::size_t>(kEvals)) {
    record.problems.push_back(who + " ran " + std::to_string(record.trials) +
                              " trials, budget " + std::to_string(kEvals));
  }
  if (!finished.journal.empty()) {
    const std::size_t journaled =
        core::load_journal(finished.journal, evaluator.space()).trials.size();
    if (journaled != record.trials) {
      record.problems.push_back("journal " + finished.journal + " holds " +
                                std::to_string(journaled) + " records for " +
                                std::to_string(record.trials) + " trials");
    }
  }
  if (record.ok) {
    // Ground truth is noise-free and not charged to the ledger.
    const wl::Workload& workload = wl::workload_by_name(spec.workload);
    const wl::EvalResult base = evaluator.evaluate_ground_truth(
        wl::default_expert_config(workload, evaluator.space()));
    const wl::EvalResult best =
        evaluator.evaluate_ground_truth(result.best_config);
    if (!base.feasible || !best.feasible || !(best.tta_seconds > 0.0)) {
      record.problems.push_back(
          who + ": ground truth of the default or the incumbent is "
                "infeasible");
    }
    record.gain = ratio(base.tta_seconds, best.tta_seconds);
  }
  finished.session.reset();
}

/// A pass over sessions 0..count-1 of the run: their records, the pass's
/// wall time and the tuner's CPU (process CPU minus the objective's).
struct SimPass {
  std::vector<SessionRecord> sessions;
  std::vector<FinishedSim> finished;
  double wall_s = 0.0;
  double tuner_cpu_s = 0.0;
};

/// Runs the pass on up to spec.lanes threads, each lane taking the next
/// unclaimed session, so the set of sessions never depends on the lane
/// count. grade_sim_pass() must follow.
SimPass run_sim_pass(const SimSpec& spec, const TempDir& dir,
                     std::uint64_t seed, int count, bool wrapped,
                     const std::string& tag) {
  SimPass pass;
  pass.sessions.resize(static_cast<std::size_t>(count));
  pass.finished.resize(static_cast<std::size_t>(count));
  std::atomic<int> next{0};
  const auto lane = [&] {
    for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      const auto k = static_cast<std::size_t>(i);
      pass.sessions[k] = run_sim_session(spec, dir, session_seed(seed, i),
                                         wrapped, tag, pass.finished[k]);
    }
  };
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  std::vector<std::thread> threads;
  const std::size_t lanes = std::min<std::size_t>(spec.lanes, nproc());
  for (std::size_t l = 1; l < lanes; ++l) threads.emplace_back(lane);
  lane();
  for (std::thread& t : threads) t.join();
  double cpu = process_cpu_seconds() - cpu_start;
  pass.wall_s = seconds_since(start);
  for (const SessionRecord& s : pass.sessions)
    for (const RunSample& r : s.runs) cpu -= r.cpu_s;
  pass.tuner_cpu_s = cpu;
  return pass;
}

void grade_sim_pass(const SimSpec& spec, SimPass& pass) {
  for (std::size_t i = 0; i < pass.sessions.size(); ++i)
    grade_sim_session(spec, pass.finished[i], pass.sessions[i]);
}

void print_sessions(const std::vector<SessionRecord>& sessions) {
  for (const SessionRecord& s : sessions) {
    double eval_s = 0.0;
    for (const RunSample& r : s.runs) eval_s += r.wall_s;
    std::printf(
        "# session seed=%llu wall_s=%.4f eval_s=%.4f trials=%zu gain=%.6g "
        "search_cost_h=%.6g\n",
        static_cast<unsigned long long>(s.seed), s.wall_s, eval_s, s.trials,
        s.gain, s.search_cost_h);
  }
}

void run_sim(Report& report, const SimSpec& spec, std::uint64_t seed,
             double seconds, bool trace, const TempDir& dir) {
  const int sessions = sessions_for(
      seconds * static_cast<double>(spec.lanes), spec.nominal_s, 1);
  if (!trace) {
    SimPass pass = run_sim_pass(spec, dir, seed, sessions, true, "run");
    grade_sim_pass(spec, pass);
    print_sessions(pass.sessions);
    absorb(report, pass.sessions);
    std::vector<double> setups;
    for (const SessionRecord& s : pass.sessions) setups.push_back(s.setup_s);
    report.add("setup_s", median(setups), "s");
    add_session_metrics(report, pass.sessions, pass.tuner_cpu_s, pass.wall_s);
    return;
  }

  // The first session once more without the decorator: wrapping must not
  // change a bit of the trial stream.
  SimPass bare = run_sim_pass(spec, dir, seed, 1, false, "bare");
  const int per_pass = std::max(1, sessions / 2);
  SimPass plain = run_sim_pass(spec, dir, seed, per_pass, true, "plain");
  TracedPass tracing;
  SimPass traced = run_sim_pass(spec, dir, seed, per_pass, true, "traced");
  const LayerTotals totals = tracing.stop();
  for (SimPass* pass : {&bare, &plain, &traced}) {
    grade_sim_pass(spec, *pass);
    absorb(report, pass->sessions);
  }
  report.check(bare.sessions[0].stream == plain.sessions[0].stream,
               "session seed " + std::to_string(bare.sessions[0].seed) +
                   ": the TimingObjective decorator changed the trial stream");
  compare_passes(report, plain.sessions, traced.sessions);
  print_sessions(traced.sessions);

  std::vector<RunSample> runs;
  double sim_busy = 0.0;
  for (const SessionRecord& r : traced.sessions) {
    runs.insert(runs.end(), r.runs.begin(), r.runs.end());
    for (const RunSample& s : r.runs) sim_busy += s.wall_s;
  }
  // The synchronous loop waits for each run; the async one for the executor.
  const double waited =
      spec.async_q > 1 ? totals.span_s("tuner.async_wait") : sim_busy;
  add_layer_metrics(report, totals, runs, summed_wall(traced.sessions),
                    waited);
  const std::vector<double> no_ops[3];
  add_service_layer(report, totals, no_ops, 0.0, 0.0);
  add_trace_overhead(report,
                     cpu_ms_per_trial(plain.tuner_cpu_s, plain.sessions),
                     cpu_ms_per_trial(traced.tuner_cpu_s, traced.sessions));
}

// ---------------------------------------------------------------------------
// Service workload.

/// Cheap closed-form objective of the encoded configuration: a weighted
/// quadratic bowl with its optimum inside the unit cube, reported in seconds
/// and charged as the run's spent time.
class ClosedFormObjective final : public core::ObjectiveFunction {
 public:
  ClosedFormObjective(const conf::ConfigSpace& space, double target_metric)
      : space_(&space), target_metric_(target_metric) {}

  static double value(const conf::ConfigSpace& space,
                      const conf::Config& config) {
    const math::Vec x = space.encode(config);
    double sum = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double centre =
          std::fmod(0.29 + 0.37 * static_cast<double>(j), 1.0);
      const double weight = 1.0 + static_cast<double>(j % 3);
      sum += weight * (x[j] - centre) * (x[j] - centre);
    }
    return 600.0 * (1.0 + sum);
  }

  const conf::ConfigSpace& space() const override { return *space_; }
  core::RunOutcome run(const conf::Config& config,
                       core::RunController*) override {
    core::RunOutcome outcome;
    outcome.feasible = true;
    outcome.objective = value(*space_, config);
    outcome.spent_seconds = outcome.objective;
    outcome.usd_per_hour = 1.0;
    return outcome;
  }
  double target_metric() const override { return target_metric_; }

 private:
  const conf::ConfigSpace* space_;
  double target_metric_;
};

/// What every service client shares: the space as the service parses it,
/// its wire form, and the create-session request.
struct ServiceSetup {
  ServiceSetup()
      : workload(&wl::workload_by_name("logreg-ads")),
        space_json(util::dump_json(
            service::space_to_json(wl::build_config_space(*workload)))),
        space(service::space_from_json(util::parse_json(space_json))),
        default_value(ClosedFormObjective::value(
            space, wl::default_expert_config(*workload, space))) {}

  std::string create_line(const std::string& id, std::uint64_t seed,
                          const std::string& journal) const {
    return R"({"op":"create-session","session":")" + id +
           R"(","seed":)" + std::to_string(seed) + R"(,"target_metric":)" +
           util::dump_json(JsonValue(workload->stat.target_metric)) +
           R"(,"journal":)" + util::dump_json(JsonValue(journal)) +
           R"(,"options":{"max_evaluations":)" + std::to_string(kEvals) +
           R"(},"space":)" + space_json + "}";
  }

  const wl::Workload* workload;
  std::string space_json;
  conf::ConfigSpace space;
  double default_value;
};

enum Op { kSuggest, kReport, kStatus, kCreate, kClose, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"suggest", "report", "status",
                                           "create", "close"};

struct ClientStats {
  std::vector<double> op_ms[kNumOps];
  double handle_s = 0.0;  // summed client-observed handle_line time
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // correctness failures
};

struct ServiceSession {
  SessionRecord record;
  std::string journal;
};

/// One closed-loop client driving `sessions` serially. Protocol failures
/// are counted; unparseable responses are recorded as correctness problems.
void run_client(service::SessionManager& manager, const ServiceSetup& setup,
                const std::vector<ServiceSession*>& sessions,
                ClientStats& stats) {
  ClosedFormObjective objective(setup.space,
                                setup.workload->stat.target_metric);
  // Issues one op; returns the parsed response, or nullopt when it failed.
  // The terminal budget-exhausted suggest is how a session learns it is
  // done: it sets *exhausted and is attempted but not failed (the library's
  // own service.errors counter does count it).
  const auto call = [&](Op op, const std::string& line,
                        bool* exhausted) -> std::optional<JsonValue> {
    const auto start = Clock::now();
    const std::string response = manager.handle_line(line);
    const double s = seconds_since(start);
    stats.handle_s += s;
    ++stats.attempted;
    JsonValue parsed;
    try {
      parsed = util::parse_json(response);
      if (!parsed.is_object() || !parsed.at("ok").is_bool())
        throw std::runtime_error("no boolean 'ok'");
    } catch (const std::exception& e) {
      stats.problems.push_back(std::string(kOpNames[op]) +
                               " response does not parse (" + e.what() +
                               "): " + response.substr(0, 200));
      ++stats.failed;
      return std::nullopt;
    }
    if (!parsed.at("ok").as_bool()) {
      const JsonValue code =
          parsed.contains("error") ? parsed.at("error") : JsonValue();
      if (exhausted != nullptr && code.is_string() &&
          code.as_string() == "budget-exhausted") {
        *exhausted = true;
      } else {
        ++stats.failed;
      }
      return std::nullopt;
    }
    stats.op_ms[op].push_back(1e3 * s);
    return parsed;
  };

  for (ServiceSession* session : sessions) {
    SessionRecord& record = session->record;
    // Appended rather than `"s" + to_string(...)`, which trips a gcc 12
    // -Wrestrict false positive.
    std::string id = "s";
    id += std::to_string(record.seed);
    const std::string addressed = R"(","session":")" + id + "\"";
    const auto start = Clock::now();
    if (!call(kCreate, setup.create_line(id, record.seed, session->journal),
              nullptr))
      continue;
    record.setup_s = seconds_since(start);
    bool healthy = true;
    double spent = 0.0;
    while (healthy) {
      bool exhausted = false;
      const auto ask =
          call(kSuggest, R"({"op":"suggest)" + addressed + "}", &exhausted);
      if (!ask) {
        healthy = exhausted;
        break;
      }
      try {
        const conf::Config config =
            service::config_from_json(ask->at("config"), setup.space);
        const core::RunOutcome outcome = objective.run(config, nullptr);
        const auto ticket =
            static_cast<std::int64_t>(ask->at("ticket").as_number());
        healthy = call(kReport,
                       R"({"op":"report)" + addressed + R"(,"ticket":)" +
                           std::to_string(ticket) + R"(,"outcome":)" +
                           util::dump_json(service::outcome_to_json(outcome)) +
                           "}",
                       nullptr)
                      .has_value();
        ++record.trials;
        const auto status =
            call(kStatus, R"({"op":"status)" + addressed + "}", nullptr);
        healthy = healthy && status.has_value();
        if (status) {
          spent = status->at("total_spent_seconds").as_number();
          if (status->at("trials").as_number() !=
              static_cast<double>(record.trials))
            stats.problems.push_back("session " + id +
                                     ": status trials != reports");
        }
      } catch (const std::exception& e) {
        stats.problems.push_back("session " + id +
                                 ": malformed suggest or status (" + e.what() +
                                 ")");
        healthy = false;
      }
    }
    const auto closed =
        call(kClose, R"({"op":"close-session)" + addressed + "}", nullptr);
    record.wall_s = seconds_since(start);
    if (!healthy || !closed) continue;
    try {
      const JsonValue& best = closed->at("best_objective");
      record.ok = best.is_number();
      if (record.ok) {
        record.best_objective = best.as_number();
        record.gain = ratio(setup.default_value, record.best_objective);
        record.search_cost_h = spent / 3600.0;
      }
    } catch (const std::exception& e) {
      stats.problems.push_back("session " + id + ": malformed close (" +
                               e.what() + ")");
    }
  }
}

std::size_t service_threads() {
  return std::min<std::size_t>(nproc(), kMaxThreads);
}

struct ServicePass {
  std::vector<ServiceSession> sessions;
  ClientStats stats;  // merged over clients
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double manager_setup_s = 0.0;  // the manager and its pool, once per pass
};

ServicePass run_service_pass(Report& report, const ServiceSetup& setup,
                             const TempDir& dir, std::uint64_t seed,
                             int count, const std::string& tag) {
  ServicePass pass;
  pass.sessions.resize(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ServiceSession& s = pass.sessions[static_cast<std::size_t>(i)];
    s.record.seed = session_seed(seed, i);
    s.journal = dir.file(tag + "-" + std::to_string(i) + ".journal");
  }
  const std::size_t clients = service_threads();
  service::ServiceOptions options;
  options.workers = clients;
  std::vector<ClientStats> stats(clients);
  {
    const auto manager_start = Clock::now();
    service::SessionManager manager(options);
    pass.manager_setup_s = seconds_since(manager_start);
    std::vector<std::vector<ServiceSession*>> shares(clients);
    for (std::size_t i = 0; i < pass.sessions.size(); ++i)
      shares[i % clients].push_back(&pass.sessions[i]);
    const auto start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(run_client, std::ref(manager), std::cref(setup),
                           std::cref(shares[c]), std::ref(stats[c]));
    }
    for (std::thread& t : threads) t.join();
    pass.cpu_s = process_cpu_seconds() - cpu_start;
    pass.wall_s = seconds_since(start);
  }
  for (const ClientStats& s : stats) {
    for (int op = 0; op < kNumOps; ++op) {
      pass.stats.op_ms[op].insert(pass.stats.op_ms[op].end(),
                                  s.op_ms[op].begin(), s.op_ms[op].end());
    }
    pass.stats.handle_s += s.handle_s;
    pass.stats.attempted += s.attempted;
    pass.stats.failed += s.failed;
    for (const std::string& p : s.problems) report.check(false, p);
  }
  for (ServiceSession& session : pass.sessions) {
    SessionRecord& s = session.record;
    report.check(s.trials == static_cast<std::size_t>(kEvals),
                 "service session seed " + std::to_string(s.seed) +
                     " reported " + std::to_string(s.trials) +
                     " trials, budget " + std::to_string(kEvals));
    try {
      const std::size_t journaled =
          core::load_journal(session.journal, setup.space).trials.size();
      report.check(journaled == s.trials,
                   "journal " + session.journal + " holds " +
                       std::to_string(journaled) + " records for " +
                       std::to_string(s.trials) + " trials");
      s.stream =
          util::read_file(session.journal) + "|" + bits_of(s.best_objective);
    } catch (const std::exception& e) {
      report.check(false, "journal " + session.journal + ": " + e.what());
    }
  }
  return pass;
}

/// A served session must equal a standalone forced-async depth-one BoTuner
/// with the same seed: the same journal bytes and the same incumbent.
void check_service_reference(Report& report, const ServiceSetup& setup,
                             const TempDir& dir, const ServiceSession& served) {
  ClosedFormObjective objective(setup.space,
                                setup.workload->stat.target_metric);
  core::BoOptions options;
  options.seed = served.record.seed;
  options.max_evaluations = kEvals;
  options.async_q = 1;
  options.async_workers = 1;  // forced-async depth one = the session drive
  options.journal_path = dir.file("reference.journal");
  core::BoTuner tuner(objective, options);
  const core::TuningResult result = tuner.tune();
  report.check(result.best_objective == served.record.best_objective,
               "service session differs from its standalone reference "
               "(incumbent)");
  report.check(util::read_file(options.journal_path) ==
                   util::read_file(served.journal),
               "service session differs from its standalone reference "
               "(journal bytes)");
}

std::vector<SessionRecord> records_of(const ServicePass& pass) {
  std::vector<SessionRecord> records;
  for (const ServiceSession& s : pass.sessions) records.push_back(s.record);
  return records;
}

void run_service(Report& report, std::uint64_t seed, double seconds,
                 bool trace, const TempDir& dir) {
  const ServiceSetup setup;
  const int sessions =
      sessions_for(seconds, kServiceNominalS, kServiceMinSessions);
  if (!trace) {
    const ServicePass pass =
        run_service_pass(report, setup, dir, seed, sessions, "run");
    check_service_reference(report, setup, dir, pass.sessions.front());
    std::vector<double> setups;
    for (const ServiceSession& s : pass.sessions)
      setups.push_back(s.record.setup_s);
    report.add("setup_s", median(setups), "s");
    report.note("manager_setup_s", pass.manager_setup_s, "s");
    // Failures are counted per operation here, not per session.
    report.attempted += pass.stats.attempted;
    report.failed += pass.stats.failed;
    add_session_metrics(report, records_of(pass), pass.cpu_s, pass.wall_s);
    for (Op op : {kSuggest, kReport, kStatus}) {
      const std::vector<double>& v = pass.stats.op_ms[op];
      const std::string base = std::string(kOpNames[op]) + "_ms.";
      report.note(base + "p50", percentile(v, 0.50), "ms");
      report.note(base + "p95", percentile(v, 0.95), "ms");
      report.note(base + "samples", static_cast<double>(v.size()), "count");
    }
    return;
  }

  const int per_pass = std::max(kServiceMinSessions, sessions / 2);
  const ServicePass plain =
      run_service_pass(report, setup, dir, seed, per_pass, "plain");
  check_service_reference(report, setup, dir, plain.sessions.front());
  TracedPass tracing;
  const ServicePass traced =
      run_service_pass(report, setup, dir, seed, per_pass, "traced");
  const LayerTotals totals = tracing.stop();
  compare_passes(report, records_of(plain), records_of(traced));
  report.attempted += traced.stats.attempted;
  report.failed += traced.stats.failed;

  double op_s = 0.0;
  for (const char* span : {"service.create_session", "service.suggest",
                           "service.report", "service.status",
                           "service.close_session"})
    op_s += totals.span_s(span);
  // The actors run the tuner; nothing they do waits on an evaluation.
  add_layer_metrics(report, totals, {}, op_s, 0.0);
  add_service_layer(report, totals, plain.stats.op_ms, op_s,
                    traced.stats.handle_s);
  add_trace_overhead(report, cpu_ms_per_trial(plain.cpu_s, records_of(plain)),
                     cpu_ms_per_trial(traced.cpu_s, records_of(traced)));
  report.note("service.errors_counter", totals.counter("service.errors"),
              "count");
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool well_formed = argc % 2 == 1;
  for (int i = 1; well_formed && i + 1 < argc; i += 2) {
    well_formed = std::strncmp(argv[i], "--", 2) == 0 &&
                  args.emplace(argv[i] + 2, argv[i + 1]).second;
  }
  const auto get = [&](const char* key) -> std::string {
    const auto it = args.find(key);
    return it == args.end() ? "" : it->second;
  };
  const std::string workload = get("workload");
  const std::string seed_arg = get("seed");
  const std::string seconds_arg = get("seconds");
  char* seed_end = nullptr;
  char* seconds_end = nullptr;
  const unsigned long long seed =
      std::strtoull(seed_arg.c_str(), &seed_end, 10);
  const double seconds = std::strtod(seconds_arg.c_str(), &seconds_end);
  if (!well_formed || args.size() != 5 ||
      (workload != "demo" && workload != "async-ps" && workload != "service") ||
      seed_arg.empty() || *seed_end != '\0' || seed >= (1ULL << 40) ||
      seconds_arg.empty() || *seconds_end != '\0' || !(seconds > 0.0) ||
      seconds > 3600.0 || (get("trace") != "0" && get("trace") != "1") ||
      get("workdir").empty()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload demo|async-ps|service --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  const bool trace = get("trace") == "1";
  const TempDir dir(get("workdir"));

  const std::string build_type = BENCH_BUILD_TYPE;
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  std::printf("# bench_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), seed, seconds, trace ? 1 : 0);
  std::printf("# machine nproc=%u compiler=\"%s\" build_type=%s fs=%s\n",
              nproc(), compiler.c_str(), build_type.c_str(),
              filesystem_type(dir.path()).c_str());
  if (build_type != "Release") {
    std::printf("# WARNING: build type %s is not Release; timings are not "
                "comparable\n",
                build_type.c_str());
  }

  Report report;
  const auto start = Clock::now();
  if (workload == "demo") run_sim(report, kDemo, seed, seconds, trace, dir);
  if (workload == "async-ps")
    run_sim(report, kAsyncPs, seed, seconds, trace, dir);
  if (workload == "service") run_service(report, seed, seconds, trace, dir);
  const double fail_ratio = ratio(static_cast<double>(report.failed),
                                  static_cast<double>(report.attempted));
  if (!trace) {
    report.add("ok_ratio", 1.0 - fail_ratio, "ratio");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  report.note("fail_ratio", fail_ratio, "ratio");
  report.note("run_wall_s", seconds_since(start), "s");

  std::printf("# %s metrics (in the JSON line)\n",
              trace ? "per-layer" : "end-to-end");
  for (const Metric& m : report.metrics)
    std::printf("#   %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("# printed only\n");
  for (const Metric& m : report.notes)
    std::printf("#   %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace autodml::bench

int main(int argc, char** argv) {
  try {
    return autodml::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
