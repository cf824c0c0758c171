#include "service/protocol.h"

#include <cmath>
#include <limits>

#include "core/failure.h"
#include "service/error.h"

namespace autodml::service {

namespace {

using util::JsonObject;
using util::JsonValue;

}  // namespace

const JsonValue& require_field(const JsonValue& object, std::string_view key,
                               const std::string& where) {
  if (!object.is_object() || !object.contains(key))
    throw ServiceError(errc::kBadRequest,
                       where + ": missing '" + std::string(key) + "'");
  return object.at(key);
}

std::string require_string_field(const JsonValue& object, std::string_view key,
                                 const std::string& where) {
  const JsonValue& v = require_field(object, key, where);
  if (!v.is_string())
    throw ServiceError(errc::kBadRequest,
                       where + ": '" + std::string(key) + "' must be a string");
  return v.as_string();
}

double require_number_field(const JsonValue& object, std::string_view key,
                            const std::string& where) {
  const JsonValue& v = require_field(object, key, where);
  if (!v.is_number())
    throw ServiceError(errc::kBadRequest,
                       where + ": '" + std::string(key) + "' must be a number");
  return v.as_number();
}

std::int64_t require_int_field(const JsonValue& object, std::string_view key,
                               const std::string& where) {
  const double d = require_number_field(object, key, where);
  if (d != std::floor(d))
    throw ServiceError(errc::kBadRequest, where + ": '" + std::string(key) +
                                              "' must be an integer");
  return static_cast<std::int64_t>(d);
}

Request parse_request(std::string_view line) {
  JsonValue body(nullptr);
  try {
    body = util::parse_json(line);
  } catch (const util::JsonDepthError& e) {
    throw ServiceError(errc::kNestingTooDeep, e.what());
  } catch (const std::invalid_argument& e) {
    throw ServiceError(errc::kBadFrame, e.what());
  }
  if (!body.is_object())
    throw ServiceError(errc::kBadFrame, "request must be a JSON object");

  Request request;
  if (body.contains("id")) {
    request.id = body.at("id");
    request.has_id = true;
  }
  request.body = std::move(body);
  request.op = require_string_field(request.body, "op", "request");
  if (request.body.contains("session")) {
    const JsonValue& s = request.body.at("session");
    if (!s.is_string())
      throw ServiceError(errc::kBadRequest,
                         "request: 'session' must be a string");
    request.session = s.as_string();
  }
  return request;
}

std::string ok_line(const Request& request, JsonObject fields) {
  fields.emplace("ok", JsonValue(true));
  if (request.has_id) fields.emplace("id", request.id);
  return util::dump_json(JsonValue(std::move(fields)));
}

std::string error_line(const Request& request, const std::string& code,
                       const std::string& detail) {
  JsonObject fields;
  fields.emplace("ok", JsonValue(false));
  fields.emplace("error", JsonValue(code));
  fields.emplace("detail", JsonValue(detail));
  if (request.has_id) fields.emplace("id", request.id);
  return util::dump_json(JsonValue(std::move(fields)));
}

JsonValue outcome_to_json(const core::RunOutcome& outcome) {
  JsonObject out;
  out.emplace("feasible", JsonValue(outcome.feasible));
  out.emplace("aborted", JsonValue(outcome.aborted));
  out.emplace("failure", JsonValue(outcome.failure));
  out.emplace("failure_kind",
              JsonValue(core::to_string(outcome.failure_kind)));
  out.emplace("attempts", JsonValue(outcome.attempts));
  const bool has_objective = outcome.feasible && !outcome.aborted &&
                             std::isfinite(outcome.objective);
  out.emplace("objective", has_objective ? JsonValue(outcome.objective)
                                         : JsonValue(nullptr));
  out.emplace("projected_objective",
              std::isfinite(outcome.projected_objective)
                  ? JsonValue(outcome.projected_objective)
                  : JsonValue(nullptr));
  out.emplace("spent_seconds", JsonValue(outcome.spent_seconds));
  out.emplace("usd_per_hour", JsonValue(outcome.usd_per_hour));
  return JsonValue(std::move(out));
}

core::RunOutcome outcome_from_json(const JsonValue& value) {
  // Mirrors trial_from_json's outcome block (session_io.cpp) so the wire
  // form and the journal record stay one schema; failures carry the
  // protocol's typed code instead of invalid_argument.
  const auto fail = [](const std::string& detail) -> ServiceError {
    return ServiceError(errc::kInvalidOutcome, "outcome: " + detail);
  };
  if (!value.is_object()) throw fail("must be an object");
  const auto get = [&](std::string_view key) -> const JsonValue& {
    if (!value.contains(key))
      throw fail("missing '" + std::string(key) + "'");
    return value.at(key);
  };
  const auto get_bool = [&](std::string_view key) {
    const JsonValue& v = get(key);
    if (!v.is_bool()) throw fail("'" + std::string(key) + "' must be a bool");
    return v.as_bool();
  };
  const auto get_number = [&](std::string_view key) {
    const JsonValue& v = get(key);
    if (!v.is_number())
      throw fail("'" + std::string(key) + "' must be a number");
    return v.as_number();
  };

  core::RunOutcome outcome;
  outcome.feasible = get_bool("feasible");
  outcome.aborted = get_bool("aborted");
  const JsonValue& failure = get("failure");
  if (!failure.is_string()) throw fail("'failure' must be a string");
  outcome.failure = failure.as_string();
  const JsonValue& objective = get("objective");
  if (objective.is_null()) {
    outcome.objective = std::numeric_limits<double>::infinity();
  } else if (objective.is_number()) {
    outcome.objective = objective.as_number();
  } else {
    throw fail("'objective' must be a number or null");
  }
  outcome.spent_seconds = get_number("spent_seconds");
  if (!(outcome.spent_seconds >= 0.0))
    throw fail("'spent_seconds' must be >= 0");
  outcome.usd_per_hour = get_number("usd_per_hour");
  if (value.contains("failure_kind")) {
    const JsonValue& kind = value.at("failure_kind");
    if (!kind.is_string()) throw fail("'failure_kind' must be a string");
    try {
      outcome.failure_kind = core::failure_kind_from_string(kind.as_string());
    } catch (const std::exception& e) {
      throw fail(e.what());
    }
  } else {
    outcome.failure_kind =
        outcome.feasible ? core::FailureKind::kNone
                         : core::classify_failure_text(outcome.failure);
  }
  if (value.contains("attempts")) {
    const double attempts = get_number("attempts");
    if (attempts < 1.0 || attempts != std::floor(attempts))
      throw fail("'attempts' must be an integer >= 1");
    outcome.attempts = static_cast<int>(attempts);
  }
  if (value.contains("projected_objective") &&
      !value.at("projected_objective").is_null()) {
    outcome.projected_objective = get_number("projected_objective");
  }
  return outcome;
}

}  // namespace autodml::service
