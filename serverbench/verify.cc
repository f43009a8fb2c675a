#include "verify.h"

#include <set>
#include <string_view>

#include "core/router.h"
#include "datalog/eval.h"
#include "parser/parser.h"
#include "server/json.h"

namespace serverbench {

namespace {

using qcont::server::JsonValue;

/// The result object of a response line, or empty when there is none.
std::string_view ResultOf(const std::string& response) {
  static constexpr std::string_view kKey = ",\"result\":";
  const std::size_t at = response.find(kKey);
  if (at == std::string::npos || response.empty()) return {};
  const std::size_t begin = at + kKey.size();
  return std::string_view(response).substr(begin,
                                           response.size() - 1 - begin);
}

std::string_view CacheMarkerOf(const std::string& response) {
  static constexpr std::string_view kKey = "\"cache\":\"";
  const std::size_t at = response.find(kKey);
  if (at == std::string::npos) return "none";
  const std::size_t begin = at + kKey.size();
  return std::string_view(response).substr(
      begin, response.find('"', begin) - begin);
}

std::string Field(const JsonValue& object, const char* name) {
  const JsonValue* v = object.Get(name);
  return v != nullptr && v->is_string() ? v->string_value() : std::string();
}

/// Evaluates a program's goal over a database given as text.
qcont::Result<std::set<qcont::Tuple>> Goal(const std::string& program_text,
                                           const qcont::Database& db) {
  QCONT_ASSIGN_OR_RETURN(qcont::DatalogProgram program,
                         qcont::ParseProgram(program_text));
  QCONT_ASSIGN_OR_RETURN(std::vector<qcont::Tuple> tuples,
                         qcont::EvaluateGoal(program, db));
  return std::set<qcont::Tuple>(tuples.begin(), tuples.end());
}

/// Checks one containment result. "Not contained" must come with a
/// counterexample database D on which Π derives a goal tuple that Θ (run
/// as a Datalog program over the same D) does not; "contained" on an
/// acyclic Θ must be confirmed by the general type engine.
std::string CheckContainment(const std::string& line, const LineInfo& info,
                             const std::string& result) {
  auto request = qcont::server::ParseJson(line);
  auto answer = qcont::server::ParseJson(result);
  if (!request.ok() || !answer.ok()) return "unparseable request or result";
  const JsonValue* contained = answer->Get("contained");
  if (contained == nullptr || !contained->is_bool()) return "no verdict";
  const std::string route = Field(*answer, "route");
  if (route != (info.acyclic ? "ack" : "type-engine")) {
    return "route " + route + " for an " +
           (info.acyclic ? "acyclic" : "cyclic") + " query";
  }
  const std::string program_text = Field(*request, "program");
  const std::string query_text = Field(*request, "query");

  if (!contained->bool_value()) {
    std::string facts = Field(*answer, "counterexample_db");
    if (facts.empty()) return "not contained without a counterexample";
    // Database::ToString ends each fact with a newline, not a period.
    for (std::size_t at = facts.find(")\n"); at != std::string::npos;
         at = facts.find(")\n", at)) {
      facts.replace(at, 2, ").");
    }
    auto db = qcont::ParseDatabase(facts);
    if (!db.ok()) return "counterexample: " + db.status().ToString();
    auto pi = Goal(program_text, *db);
    auto theta = Goal(query_text + " goal Q.", *db);
    if (!pi.ok() || !theta.ok()) return "counterexample evaluation failed";
    for (const qcont::Tuple& t : *pi) {
      if (theta->count(t) == 0) return {};
    }
    return "counterexample satisfies the query on every goal tuple";
  }

  if (info.acyclic) {
    auto program = qcont::ParseProgram(program_text);
    auto ucq = qcont::ParseUcq(query_text);
    if (!program.ok() || !ucq.ok()) return "request does not parse";
    qcont::RouterOptions options;
    options.force = qcont::ForcedRoute::kGeneralEngine;
    options.use_analysis_cache = false;
    auto general = qcont::DecideContainment(*program, *ucq, options);
    if (!general.ok()) return "general engine: " + general.status().ToString();
    if (!general->answer.contained) {
      return "ACk says contained, the general engine does not";
    }
  }
  return {};
}

std::string CheckAnalyze(const LineInfo& info, const std::string& result) {
  auto answer = qcont::server::ParseJson(result);
  if (!answer.ok()) return "unparseable result";
  const JsonValue* report = answer->Get("report");
  const JsonValue* ucq = report != nullptr ? report->Get("ucq") : nullptr;
  const JsonValue* acyclic = ucq != nullptr ? ucq->Get("acyclic") : nullptr;
  if (acyclic == nullptr || !acyclic->is_bool()) return "no acyclicity";
  if (acyclic->bool_value() != info.acyclic) return "wrong acyclicity";
  return {};
}

}  // namespace

Tally::Tally(const Corpus& corpus)
    : corpus_(corpus),
      first_digest_(corpus.lines.size(), 0),
      first_count_(corpus.lines.size(), 0),
      first_result_(corpus.lines.size()) {}

std::string_view Tally::Record(std::uint32_t index,
                               const std::string& response) {
  ++attempted_;
  const std::string_view result = ResultOf(response);
  if (result.empty() ||
      response.find("\"status\":\"ok\"") == std::string::npos) {
    if (not_ok_++ == 0) first_not_ok_ = response;
    return "none";
  }
  const std::uint64_t digest = ResultDigest(result) | 1;  // never 0
  const LineInfo& info = corpus_.info[index];
  if (info.op == Op::kEval) {
    if (digest != (info.expected | 1)) ++eval_mismatches_;
  } else if (first_digest_[index] == 0) {
    first_digest_[index] = digest;
    first_result_[index].assign(result);
    stored_bytes_ += first_result_[index].capacity();
    ++first_count_[index];
  } else if (digest == first_digest_[index]) {
    ++first_count_[index];
  } else {
    variants_.emplace_back(index, std::string(result));
    stored_bytes_ += variants_.back().second.capacity();
  }
  return CacheMarkerOf(response);
}

std::uint64_t Tally::Verify(std::string* first_error) const {
  std::uint64_t failed = not_ok_ + eval_mismatches_;
  if (not_ok_ > 0) {
    *first_error = "error response: " + first_not_ok_;
  } else if (eval_mismatches_ > 0) {
    *first_error = "eval tuples differ from the BFS transitive closure";
  }
  auto check = [&](std::uint32_t index, const std::string& result,
                   std::uint64_t count) {
    const LineInfo& info = corpus_.info[index];
    const std::string error =
        info.op == Op::kContainment
            ? CheckContainment(corpus_.lines[index], info, result)
            : CheckAnalyze(info, result);
    if (error.empty()) return;
    if (failed == 0) {
      *first_error = error + " on line " + corpus_.lines[index];
    }
    failed += count;
  };
  for (std::uint32_t i = 0; i < first_result_.size(); ++i) {
    if (first_count_[i] > 0) check(i, first_result_[i], first_count_[i]);
  }
  for (const auto& [index, result] : variants_) check(index, result, 1);
  return failed;
}

}  // namespace serverbench
