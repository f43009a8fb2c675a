#ifndef QCONT_PARSER_PARSER_H_
#define QCONT_PARSER_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "cq/database.h"
#include "cq/query.h"
#include "datalog/program.h"
#include "graphdb/c2rpq.h"

namespace qcont {

// The lexer's tokens are views into the text being parsed, so they live
// only as long as that text; every object an entry point returns owns its
// strings and outlives the text.

/// Source positions recorded while parsing: the 1-based line on which each
/// rule (or UCQ/UC2RPQ disjunct) starts, in rule order. The analyzer uses
/// this to attach line numbers to diagnostics; all parse errors already
/// carry "line N" in their message.
struct SourceLines {
  std::vector<int> rule_lines;

  /// Line of rule/disjunct `index`, or 0 when unknown.
  int LineOf(int index) const {
    return (index >= 0 && index < static_cast<int>(rule_lines.size()))
               ? rule_lines[index]
               : 0;
  }
};

/// Parses a Datalog program in the textual syntax
///
///     buys(x, y) :- likes(x, y).
///     buys(x, y) :- trendy(x), buys(z, y).
///     goal buys.
///
/// Rules end with '.', comments run from '#' or '%' to end of line. The
/// `goal` directive names the distinguished predicate; if absent, the head
/// predicate of the first rule is used. If `lines` is non-null it receives
/// the source line of each rule.
Result<DatalogProgram> ParseProgram(const std::string& text,
                                    SourceLines* lines = nullptr);

/// Parses a UCQ as a set of rules sharing one head predicate:
///
///     Q(x, y) :- likes(x, y).
///     Q(x, y) :- trendy(x), likes(z, y).
///
/// Every rule becomes a disjunct whose free variables are the head terms.
/// Constants are written in single quotes: R(x, 'c').
Result<UnionQuery> ParseUcq(const std::string& text,
                            SourceLines* lines = nullptr);

/// Parses a UC2RPQ; regular expressions appear in brackets:
///
///     Q(x, y) :- [a (b|c)*](x, y), [d-](y, z).
///
/// See ParseRegex for the expression syntax ("a-" is the inverse of "a").
Result<UC2rpq> ParseUC2rpq(const std::string& text,
                           SourceLines* lines = nullptr);

/// Parses a database as a list of facts:
///
///     likes('ann', 'beer'). trendy('ann').
///
/// With a `pool`, the database is built in it, so it can be joined with
/// the pool's other databases as it stands (the server parses an eval
/// request's database straight into its shared pool); without one it owns
/// a fresh pool. Either way nothing is interned unless the whole text
/// parses: every syntax and fact check (no bodies, no regex atoms, one
/// arity per relation) runs first. Names are then interned in text order,
/// each fact's relation before its values, and the rows are added one
/// relation at a time, relations in first-fact order. The call is as
/// thread-safe as the pool's `Interner`: threads may parse into one pool
/// concurrently.
Result<Database> ParseDatabase(const std::string& text,
                               std::shared_ptr<Interner> pool = nullptr);

/// Parse-only variants that skip semantic validation: syntax errors still
/// fail, but unsafe rules, arity clashes etc. come back as a constructed
/// object so the static analyzer (`qcont_cli lint`) can report *all*
/// problems with codes and line numbers instead of stopping at the first.
Result<DatalogProgram> ParseProgramUnvalidated(const std::string& text,
                                               SourceLines* lines = nullptr);
Result<UnionQuery> ParseUcqUnvalidated(const std::string& text,
                                       SourceLines* lines = nullptr);
Result<UC2rpq> ParseUC2rpqUnvalidated(const std::string& text,
                                      SourceLines* lines = nullptr);

}  // namespace qcont

#endif  // QCONT_PARSER_PARSER_H_
