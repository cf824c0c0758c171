// Protocol conformance for the tuning service: every malformed frame,
// unknown id, out-of-contract op, and admission-control rejection must
// come back as a typed {"ok":false,"error":CODE} response — never an
// uncaught exception, never a crash — and a seeded fuzz loop over mutated
// frames holds the same invariant. Also pins the space/config JSON
// round-trip the wire format depends on, and the frame-size cap both
// transports share.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/error.h"
#include "service/frame_reader.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "service/space_json.h"
#include "synthetic_objective.h"
#include "util/json.h"
#include "util/rng.h"

namespace autodml::service {
namespace {

using testing::SyntheticObjective;
using util::JsonValue;

constexpr const char* kSpace =
    R"({"params":[{"name":"x","kind":"continuous","lo":0,"hi":1},)"
    R"({"name":"mode","kind":"categorical","categories":["a","b"]},)"
    R"({"name":"k","kind":"int","lo":1,"hi":10},)"
    R"({"name":"dud","kind":"continuous","lo":0,"hi":1}]})";

constexpr const char* kCheapOptions =
    R"("options":{"max_evaluations":4,"initial_design_size":2,)"
    R"("gp_restarts":1,"gp_max_iterations":5,"acq_random_candidates":32,)"
    R"("early_term":false})";

std::string create_line(const std::string& id,
                        const std::string& extra = "") {
  return R"({"op":"create-session","session":")" + id + R"(","seed":3,)" +
         extra + kCheapOptions + R"(,"space":)" + kSpace + "}";
}

std::string ok_outcome(double objective) {
  return R"({"feasible":true,"aborted":false,"failure":"",)"
         R"("objective":)" +
         std::to_string(objective) +
         R"(,"spent_seconds":1.0,"usd_per_hour":1.0})";
}

/// Sends one frame and parses the response (which must always be JSON).
JsonValue call(SessionManager& manager, const std::string& line) {
  const std::string response = manager.handle_line(line);
  JsonValue value(nullptr);
  EXPECT_NO_THROW(value = util::parse_json(response))
      << "non-JSON response: " << response;
  EXPECT_TRUE(value.is_object()) << response;
  EXPECT_TRUE(value.contains("ok")) << response;
  return value;
}

void expect_error(SessionManager& manager, const std::string& line,
                  const std::string& code) {
  const JsonValue response = call(manager, line);
  EXPECT_FALSE(response.at("ok").as_bool()) << line;
  ASSERT_TRUE(response.contains("error")) << line;
  EXPECT_EQ(response.at("error").as_string(), code)
      << line << " -> " << response.at("detail").as_string();
}

JsonValue expect_ok(SessionManager& manager, const std::string& line) {
  const JsonValue response = call(manager, line);
  EXPECT_TRUE(response.at("ok").as_bool())
      << line << " -> " << util::dump_json(response);
  return response;
}

// ---- frame-level errors ----------------------------------------------------

TEST(ServiceProtocol, MalformedFramesAreTypedBadFrame) {
  SessionManager manager;
  expect_error(manager, "not json at all", errc::kBadFrame);
  expect_error(manager, R"({"op":"ping")", errc::kBadFrame);  // truncated
  expect_error(manager, R"([1,2,3])", errc::kBadFrame);  // non-object
  expect_error(manager, R"("ping")", errc::kBadFrame);
  expect_error(manager, R"({"op":"ping",})", errc::kBadFrame);
}

TEST(ServiceProtocol, DeeplyNestedFrameIsNestingTooDeepAndDaemonStaysUp) {
  // ~50 KB of '[' used to recurse the JSON parser off the end of the stack
  // and take the whole daemon (every tenant's sessions) down with it.
  SessionManager manager;
  expect_error(manager,
               R"({"op":"ping","id":1,"x":)" + std::string(50000, '['),
               errc::kNestingTooDeep);
  // The request object is the first level: depth 128 is served, 129 is
  // answered with the dedicated code, not the generic bad-frame.
  const auto nested = [](int depth, int id) {
    const auto arrays = static_cast<std::size_t>(depth - 1);
    return R"({"op":"ping","id":)" + std::to_string(id) + R"(,"x":)" +
           std::string(arrays, '[') + std::string(arrays, ']') + "}";
  };
  expect_ok(manager, nested(util::kMaxJsonDepth, 2));
  expect_error(manager, nested(util::kMaxJsonDepth + 1, 3),
               errc::kNestingTooDeep);
  // A shallow malformed frame keeps the generic code.
  expect_error(manager, R"({"op":"ping","x":[[1,]]})", errc::kBadFrame);
  expect_ok(manager, R"({"op":"ping","id":4})");
}

TEST(ServiceProtocol, MissingOrIllTypedFieldsAreBadRequest) {
  SessionManager manager;
  expect_error(manager, R"({"id":7})", errc::kBadRequest);  // no op
  expect_error(manager, R"({"op":42})", errc::kBadRequest);
  expect_error(manager, R"({"op":"status","session":9})", errc::kBadRequest);
  expect_error(manager, R"({"op":"status"})", errc::kBadRequest);  // no id
}

TEST(ServiceProtocol, UnknownOpIsTyped) {
  SessionManager manager;
  expect_error(manager, R"({"op":"restart-universe"})", errc::kUnknownOp);
}

TEST(ServiceProtocol, RequestIdIsEchoedOnSuccessAndError) {
  SessionManager manager;
  JsonValue ok = expect_ok(manager, R"({"op":"ping","id":"abc-1"})");
  EXPECT_EQ(ok.at("id").as_string(), "abc-1");
  JsonValue err = call(manager, R"({"op":"nope","id":17})");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("id").as_number(), 17.0);
}

// ---- session-level errors --------------------------------------------------

TEST(ServiceProtocol, OpsAgainstUnknownSessionAreTyped) {
  SessionManager manager;
  for (const char* op : {"suggest", "report", "status", "close-session"}) {
    expect_error(manager,
                 std::string(R"({"op":")") + op + R"(","session":"ghost"})",
                 errc::kUnknownSession);
  }
}

TEST(ServiceProtocol, CreateRejectsBadSpacesLoudly) {
  SessionManager manager;
  expect_error(manager, R"({"op":"create-session","session":"a"})",
               errc::kBadRequest);  // no space at all
  expect_error(manager,
               R"({"op":"create-session","session":"a","space":{}})",
               errc::kInvalidSpace);
  expect_error(
      manager,
      R"({"op":"create-session","session":"a","space":{"params":[]}})",
      errc::kInvalidSpace);
  expect_error(manager,
               R"({"op":"create-session","session":"a","space":{"params":)"
               R"([{"name":"x","kind":"warp-field"}]}})",
               errc::kInvalidSpace);
  // Inverted bounds are caught by the ParamSpec factories.
  expect_error(manager,
               R"({"op":"create-session","session":"a","space":{"params":)"
               R"([{"name":"x","kind":"continuous","lo":2,"hi":1}]}})",
               errc::kInvalidSpace);
  // A failed create must not leak a registration: the id stays available.
  expect_ok(manager, create_line("a"));
}

TEST(ServiceProtocol, CreateRejectsUnknownOptionKeysAndDuplicateIds) {
  SessionManager manager;
  expect_error(manager,
               R"({"op":"create-session","session":"b","options":)"
               R"({"max_evals":9},"space":)" +
                   std::string(kSpace) + "}",
               errc::kBadRequest);  // typo'd key, rejected loudly
  expect_ok(manager, create_line("b"));
  expect_error(manager, create_line("b"), errc::kSessionExists);
}

TEST(ServiceProtocol, RetiredGpIterationKeyIsUnknown) {
  // gp_adam_iterations went away with the Adam optimizer; its successor is
  // gp_max_iterations (L-BFGS iterations per start, used by kCheapOptions).
  SessionManager manager;
  const JsonValue reply = call(
      manager, R"({"op":"create-session","session":"c","options":)"
               R"({"gp_adam_iterations":30},"space":)" +
                   std::string(kSpace) + "}");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").as_string(), errc::kBadRequest);
  EXPECT_EQ(reply.at("detail").as_string(),
            "options: unknown key 'gp_adam_iterations'");
  expect_ok(manager, create_line("c"));
}

TEST(ServiceProtocol, ReportForNeverSuggestedTicketIsUnknownTicket) {
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  expect_error(manager,
               R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                   ok_outcome(5.0) + "}",
               errc::kUnknownTicket);
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  expect_error(manager,
               R"({"op":"report","session":"s","ticket":12,"outcome":)" +
                   ok_outcome(5.0) + "}",
               errc::kUnknownTicket);
  expect_ok(manager,
            R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                ok_outcome(5.0) + "}");
  // A second report for the same ticket is the classic double-tell.
  expect_error(manager,
               R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                   ok_outcome(5.0) + "}",
               errc::kUnknownTicket);
}

TEST(ServiceProtocol, InvalidOutcomesAreRejectedBeforeMutation) {
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  const std::string prefix = R"({"op":"report","session":"s","ticket":0,)";
  expect_error(manager, prefix + R"("outcome":42})", errc::kInvalidOutcome);
  expect_error(manager, prefix + R"("outcome":{"feasible":true}})",
               errc::kInvalidOutcome);
  expect_error(manager,
               prefix +
                   R"("outcome":{"feasible":true,"aborted":false,)"
                   R"("failure":"","objective":1,"spent_seconds":-3,)"
                   R"("usd_per_hour":1}})",
               errc::kInvalidOutcome);
  expect_error(manager, prefix.substr(0, prefix.size() - 1) + "}",
               errc::kBadRequest);  // no outcome at all
  // The rejected reports must not have consumed the ticket.
  expect_ok(manager,
            R"({"op":"report","session":"s","ticket":0,"outcome":)" +
                ok_outcome(4.0) + "}");
}

TEST(ServiceProtocol, DoubleCloseSessionIsTyped) {
  SessionManager manager;
  expect_ok(manager, create_line("s"));
  JsonValue closed = expect_ok(manager,
                               R"({"op":"close-session","session":"s"})");
  EXPECT_TRUE(closed.at("closed").as_bool());
  // The registry entry is gone, so the second close reports unknown.
  expect_error(manager, R"({"op":"close-session","session":"s"})",
               errc::kUnknownSession);
  EXPECT_EQ(manager.active_sessions(), 0u);
}

TEST(ServiceProtocol, SuggestPastMaxPendingIsTyped) {
  SessionManager manager;
  expect_ok(manager,
            R"({"op":"create-session","session":"s","seed":3,)"
            R"("options":{"max_evaluations":8,"initial_design_size":2,)"
            R"("max_pending":2,"gp_restarts":1,"gp_max_iterations":5,)"
            R"("acq_random_candidates":32,"early_term":false},"space":)" +
                std::string(kSpace) + "}");
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  expect_ok(manager, R"({"op":"suggest","session":"s"})");
  expect_error(manager, R"({"op":"suggest","session":"s"})",
               errc::kTooManyPending);
}

TEST(ServiceProtocol, SuggestPastBudgetIsTyped) {
  SessionManager manager;
  expect_ok(manager,
            R"({"op":"create-session","session":"s","seed":3,)"
            R"("options":{"max_evaluations":2,"initial_design_size":2,)"
            R"("gp_restarts":1,"gp_max_iterations":5,)"
            R"("acq_random_candidates":32,"early_term":false},"space":)" +
                std::string(kSpace) + "}");
  for (int ticket = 0; ticket < 2; ++ticket) {
    expect_ok(manager, R"({"op":"suggest","session":"s"})");
    expect_ok(manager, R"({"op":"report","session":"s","ticket":)" +
                           std::to_string(ticket) +
                           R"(,"outcome":)" + ok_outcome(9.0) + "}");
  }
  JsonValue status = expect_ok(manager, R"({"op":"status","session":"s"})");
  EXPECT_TRUE(status.at("done").as_bool());
  expect_error(manager, R"({"op":"suggest","session":"s"})",
               errc::kBudgetExhausted);
}

TEST(ServiceProtocol, AdmissionControlCapsLiveSessions) {
  ServiceOptions options;
  options.max_sessions = 2;
  SessionManager manager(options);
  expect_ok(manager, create_line("a"));
  expect_ok(manager, create_line("b"));
  expect_error(manager, create_line("c"), errc::kTooManySessions);
  expect_ok(manager, R"({"op":"close-session","session":"a"})");
  expect_ok(manager, create_line("c"));  // slot freed by the close
}

TEST(ServiceProtocol, LiveSessionsCannotShareAJournal) {
  // Regression for the TrialJournal single-owner contract: two live
  // writers would interleave records and corrupt replay, so the manager's
  // journal registry must reject the second create — and release the path
  // when the owner closes.
  const std::string journal =
      ::testing::TempDir() + "/service_shared.journal";
  std::remove(journal.c_str());
  SessionManager manager;
  const std::string extra = R"("journal":")" + journal + R"(",)";
  expect_ok(manager, create_line("owner", extra));
  expect_error(manager, create_line("thief", extra), errc::kJournalInUse);
  expect_ok(manager, R"({"op":"close-session","session":"owner"})");
  expect_ok(manager, create_line("heir", extra));  // resume is legal
  std::remove(journal.c_str());
}

// ---- wire-format round trips -----------------------------------------------

TEST(ServiceProtocol, SpaceJsonRoundTripsTheSyntheticSpace) {
  const SyntheticObjective objective;
  const JsonValue encoded = space_to_json(objective.space());
  const conf::ConfigSpace decoded = space_from_json(encoded);
  ASSERT_EQ(decoded.num_params(), objective.space().num_params());
  // A second encode of the decoded space must be byte-stable.
  EXPECT_EQ(util::dump_json(space_to_json(decoded)),
            util::dump_json(encoded));
  const conf::Config config = objective.space().default_config();
  const conf::Config back =
      config_from_json(config_to_json(config), decoded);
  EXPECT_EQ(util::dump_json(config_to_json(back)),
            util::dump_json(config_to_json(config)));
}

// ---- fuzz ------------------------------------------------------------------

TEST(ServiceProtocol, FuzzedFramesNeverCrashAndAlwaysAnswerJson) {
  SessionManager manager;
  expect_ok(manager, create_line("fz"));
  const std::vector<std::string> corpus = {
      R"({"op":"ping"})",
      create_line("fz2"),
      R"({"op":"suggest","session":"fz"})",
      R"({"op":"report","session":"fz","ticket":0,"outcome":)" +
          ok_outcome(7.0) + "}",
      R"({"op":"status","session":"fz","id":[1,{"k":null}]})",
      R"({"op":"close-session","session":"fz"})",
      R"({"op":"stats"})",
  };
  util::Rng rng(20240808);
  const std::string garbage = R"(" {}[],:truefalsenull0.5e-)";
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string frame =
        corpus[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const int mutations = static_cast<int>(rng.uniform_int(0, 4));
    for (int m = 0; m < mutations && !frame.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:  // truncate
          frame.resize(pos);
          break;
        case 1:  // flip one byte to printable garbage
          frame[pos] = garbage[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(garbage.size()) - 1))];
          break;
        case 2:  // splice a chunk of another corpus entry
          frame.insert(
              pos, corpus[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(corpus.size()) - 1))]
                       .substr(0, 13));
          break;
        default:  // delete a span
          frame.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 9)));
          break;
      }
    }
    if (frame.empty()) continue;
    // The only invariant fuzzing can assert — and the one that matters:
    // whatever arrives, the response is one well-formed JSON object with
    // an "ok" field, and the process is still here to send it.
    (void)call(manager, frame);
  }
}

// ---- frame size cap (FrameReader, shared by --stdio and the socket) -------

/// A pipe whose write end a helper thread fills with `data` and then
/// closes, so payloads larger than the pipe buffer do not deadlock.
class FedPipe {
 public:
  explicit FedPipe(std::string data) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    read_fd_ = fds[0];
    writer_ = std::thread([fd = fds[1], data = std::move(data)] {
      std::size_t off = 0;
      while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
  }
  FedPipe(const FedPipe&) = delete;
  FedPipe& operator=(const FedPipe&) = delete;
  ~FedPipe() {
    char sink[4096];
    while (::read(read_fd_, sink, sizeof(sink)) > 0) {
    }
    writer_.join();
    ::close(read_fd_);
  }
  int fd() const { return read_fd_; }

 private:
  int read_fd_ = -1;
  std::thread writer_;
};

TEST(ServiceFrames, OversizedLinesAreReportedOnceAndSkipped) {
  FedPipe pipe("ping\n" + std::string(kMaxFrameBytes + 2, 'x') + "\n" +
               "\n" + std::string(kMaxFrameBytes, 'y') + "\n" +
               std::string(3 * kMaxFrameBytes, 'z') +  // past the cap 3 times
               "\nlast");  // unterminated final line
  FrameReader reader(pipe.fd());
  using Status = FrameReader::Status;
  std::string frame;
  ASSERT_EQ(reader.next(frame), Status::kFrame);
  EXPECT_EQ(frame, "ping");
  EXPECT_EQ(reader.next(frame), Status::kTooLarge);
  ASSERT_EQ(reader.next(frame), Status::kFrame);
  EXPECT_EQ(frame, "");
  ASSERT_EQ(reader.next(frame), Status::kFrame);
  EXPECT_EQ(frame, std::string(kMaxFrameBytes, 'y'));
  EXPECT_EQ(reader.next(frame), Status::kTooLarge);
  ASSERT_EQ(reader.next(frame), Status::kFrame);
  EXPECT_EQ(frame, "last");
  EXPECT_EQ(reader.next(frame), Status::kEnd);
  EXPECT_EQ(reader.next(frame), Status::kEnd);
}

TEST(ServiceFrames, OversizedFrameIsCountedAsAFailedRequest) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.enable();
  registry.reset();
  FedPipe pipe(R"({"op":"ping"})" "\n" + std::string(kMaxFrameBytes + 1, 'x') +
               "\n" R"({"op":"ping"})" "\n");
  SessionManager manager;
  std::vector<std::string> replies;
  serve_stream(pipe.fd(), manager, [&replies](const std::string& reply) {
    replies.push_back(reply);
    return true;
  });
  ASSERT_EQ(replies.size(), 3u);
  const JsonValue too_large = util::parse_json(replies[1]);
  EXPECT_FALSE(too_large.at("ok").as_bool());
  EXPECT_EQ(too_large.at("error").as_string(), errc::kFrameTooLarge);
  EXPECT_TRUE(util::parse_json(replies[2]).at("ok").as_bool());
  EXPECT_EQ(registry.counter("service.requests").value(), 3);
  EXPECT_EQ(registry.counter("service.errors").value(), 1);
  registry.disable();
}

TEST(ServiceFrames, DefaultCapAdmitsOneMebibyteAndRejectsMore) {
  FedPipe pipe(std::string(kMaxFrameBytes, 'a') + "\n" +
               std::string(kMaxFrameBytes + 1, 'b') + "\n" +
               R"({"op":"ping"})" + "\n");
  FrameReader reader(pipe.fd());
  std::string frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.size(), kMaxFrameBytes);
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kTooLarge);
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame, R"({"op":"ping"})");
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kEnd);
}

/// One '\n'-terminated line from a stream socket ("" on EOF).
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
  return line;
}

TEST(ServiceFrames, SocketConnectionSurvivesAnOversizedFrame) {
  // Before the cap, one client streaming bytes without a newline grew the
  // connection's buffer without bound. Now it gets a typed error and the
  // same connection keeps working.
  SessionManager manager;
  ServerOptions options;
  options.socket_path = ::testing::TempDir() + "adml_frames_" +
                        std::to_string(::getpid()) + ".sock";
  SocketServer server(manager, options);
  std::thread serving([&server] { server.serve(); });
  // Joins the accept loop on every exit path, failed assertions included.
  struct StopAndJoin {
    SocketServer& server;
    std::thread& thread;
    ~StopAndJoin() {
      server.stop();
      thread.join();
    }
  } stop_and_join{server, serving};

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = std::string(2 * kMaxFrameBytes, '[') + "\n" +
                              R"({"op":"ping","id":1})" + "\n" +
                              R"({"op":"shutdown"})" + "\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  const JsonValue too_large = util::parse_json(read_line(fd));
  EXPECT_FALSE(too_large.at("ok").as_bool());
  EXPECT_EQ(too_large.at("error").as_string(), errc::kFrameTooLarge);
  const JsonValue pong = util::parse_json(read_line(fd));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(pong.at("id").as_number(), 1.0);
  EXPECT_TRUE(util::parse_json(read_line(fd)).at("ok").as_bool());
  ::close(fd);
}

}  // namespace
}  // namespace autodml::service
