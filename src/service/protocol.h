// The tuning service wire protocol: line-delimited JSON request/response.
//
// One request per line, one response line per request, in order. Every
// request is an object with an "op" string; ops addressing a session carry
// a "session" id. An optional "id" member (any JSON value) is echoed
// verbatim in the response so pipelined clients can correlate.
//
//   request  := {"op": <op>, "session"?: s, "id"?: v, ...op fields}
//   response := {"ok": true,  "id"?: v, ...op fields}
//             | {"ok": false, "id"?: v, "error": <code>, "detail": s}
//
// Ops: create-session, suggest, report, status, close-session, ping,
// stats, shutdown — grammar and a full transcript in README.md §Service.
// This header holds the pieces shared by the session manager, the tests
// and the CLI: request parsing, response framing, and the RunOutcome wire
// form (the journal's outcome schema, minus the server-owned config).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/tuner_types.h"
#include "util/json.h"

namespace autodml::service {

/// Parsed request envelope. `body` is the whole request object.
struct Request {
  std::string op;
  std::string session;           // empty when absent
  util::JsonValue id;            // null when absent
  bool has_id = false;
  util::JsonValue body;
};

/// Parse one frame. Throws ServiceError(nesting-too-deep) on JSON nested
/// deeper than util::kMaxJsonDepth, ServiceError(bad-frame) on other
/// malformed JSON or a non-object root, ServiceError(bad-request) on a
/// missing/ill-typed "op".
Request parse_request(std::string_view line);

/// Success/failure response lines (no trailing newline). `fields` is
/// merged into the response object; `ok` and (on failure) `error`/`detail`
/// are reserved keys.
std::string ok_line(const Request& request, util::JsonObject fields);
std::string error_line(const Request& request, const std::string& code,
                       const std::string& detail);

/// RunOutcome <-> wire JSON. The schema is the journal record's "outcome"
/// object (session_io): feasible/aborted/failure/objective/spent_seconds/
/// usd_per_hour required, failure_kind/attempts/projected_objective
/// optional. Parsing throws ServiceError(invalid-outcome).
util::JsonValue outcome_to_json(const core::RunOutcome& outcome);
core::RunOutcome outcome_from_json(const util::JsonValue& value);

// Shared defensive accessors for request fields; throw
// ServiceError(bad-request) naming the field.
const util::JsonValue& require_field(const util::JsonValue& object,
                                     std::string_view key,
                                     const std::string& where);
std::string require_string_field(const util::JsonValue& object,
                                 std::string_view key,
                                 const std::string& where);
double require_number_field(const util::JsonValue& object,
                            std::string_view key, const std::string& where);
std::int64_t require_int_field(const util::JsonValue& object,
                               std::string_view key, const std::string& where);

}  // namespace autodml::service
