#ifndef QCONT_TESTS_PARSER_ORACLE_H_
#define QCONT_TESTS_PARSER_ORACLE_H_

// String reference for the parser (parser/parser.h), for differential
// tests: one std::string per token built character by character, a
// surface-syntax AST (SurfaceAtom/SurfaceRule) copied into the library's
// atoms after the whole text has parsed, string-keyed query validation,
// and a ParseDatabase that builds a private Database fact by fact with
// AddFact. Error texts and line numbers are the parser's contract; this
// reference is what they are checked against.

#include <cctype>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "cq/database.h"
#include "cq/query.h"
#include "datalog/program.h"
#include "graphdb/c2rpq.h"
#include "parser/parser.h"

namespace qcont {
namespace oracle {

namespace internal {

// Token kinds of the little language shared by all four entry points.
enum class TokenKind {
  kIdent,     // bare identifier
  kConstant,  // 'quoted'
  kRegex,     // [bracketed regular expression]
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kImplies,  // :-
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;  // 1-based source line on which the token starts
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= input_.size()) break;
      const int start_line = line_;
      char c = input_[pos_];
      if (c == '(') {
        out.push_back({TokenKind::kLParen, "(", start_line});
        Advance();
      } else if (c == ')') {
        out.push_back({TokenKind::kRParen, ")", start_line});
        Advance();
      } else if (c == ',') {
        out.push_back({TokenKind::kComma, ",", start_line});
        Advance();
      } else if (c == '.') {
        out.push_back({TokenKind::kPeriod, ".", start_line});
        Advance();
      } else if (c == ':' && pos_ + 1 < input_.size() &&
                 input_[pos_ + 1] == '-') {
        out.push_back({TokenKind::kImplies, ":-", start_line});
        Advance();
        Advance();
      } else if (c == '\'') {
        Advance();
        std::string text;
        while (pos_ < input_.size() && input_[pos_] != '\'') {
          text += input_[pos_];
          Advance();
        }
        if (pos_ >= input_.size()) {
          return InvalidArgumentError("unterminated constant at line " +
                                      std::to_string(start_line));
        }
        Advance();
        out.push_back({TokenKind::kConstant, std::move(text), start_line});
      } else if (c == '[') {
        Advance();
        std::string text;
        int depth = 1;
        while (pos_ < input_.size() && depth > 0) {
          if (input_[pos_] == '[') ++depth;
          if (input_[pos_] == ']') {
            --depth;
            if (depth == 0) break;
          }
          text += input_[pos_];
          Advance();
        }
        if (pos_ >= input_.size()) {
          return InvalidArgumentError("unterminated regex at line " +
                                      std::to_string(start_line));
        }
        Advance();  // consume ']'
        out.push_back({TokenKind::kRegex, std::move(text), start_line});
      } else if (c == '_' || std::isalpha(static_cast<unsigned char>(c))) {
        std::string text;
        while (pos_ < input_.size() &&
               (input_[pos_] == '_' ||
                std::isalnum(static_cast<unsigned char>(input_[pos_])))) {
          text += input_[pos_];
          Advance();
        }
        out.push_back({TokenKind::kIdent, std::move(text), start_line});
      } else {
        return InvalidArgumentError("unexpected character '" +
                                    std::string(1, c) + "' at line " +
                                    std::to_string(start_line));
      }
    }
    out.push_back({TokenKind::kEnd, "", line_});
    return out;
  }

 private:
  void Advance() {
    if (input_[pos_] == '\n') ++line_;
    ++pos_;
  }

  void SkipSpaceAndComments() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#' || c == '%') {
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& input_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

// A parsed rule head/body in the surface syntax; bodies may mix relational
// and regex atoms (the latter only for UC2RPQs).
struct SurfaceAtom {
  std::optional<std::string> regex;  // set for [..](x, y) atoms
  std::string predicate;             // set for relational atoms
  std::vector<Term> terms;
};

struct SurfaceRule {
  SurfaceAtom head;
  std::vector<SurfaceAtom> body;
  int line = 0;  // source line of the head atom
};

class RuleParser {
 public:
  explicit RuleParser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // Parses "goal <name>." directives and rules until end of input.
  Result<bool> Parse() {
    while (Peek().kind != TokenKind::kEnd) {
      if (Peek().kind == TokenKind::kIdent && Peek().text == "goal" &&
          PeekAt(1).kind == TokenKind::kIdent) {
        ++pos_;
        goal_ = Next().text;
        QCONT_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
        continue;
      }
      QCONT_RETURN_IF_ERROR(ParseRule());
    }
    return true;
  }

  const std::vector<SurfaceRule>& rules() const { return rules_; }
  const std::optional<std::string>& goal() const { return goal_; }

  SourceLines Lines() const {
    SourceLines out;
    out.rule_lines.reserve(rules_.size());
    for (const SurfaceRule& r : rules_) out.rule_lines.push_back(r.line);
    return out;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(std::size_t delta) const {
    return tokens_[std::min(pos_ + delta, tokens_.size() - 1)];
  }
  const Token& Next() { return tokens_[pos_++]; }

  Status Expect(TokenKind kind, const std::string& what) {
    if (Peek().kind != kind) {
      return InvalidArgumentError("expected " + what + " at line " +
                                  std::to_string(Peek().line));
    }
    ++pos_;
    return Status::Ok();
  }

  Result<SurfaceAtom> ParseAtom() {
    SurfaceAtom atom;
    if (Peek().kind == TokenKind::kRegex) {
      atom.regex = Next().text;
    } else if (Peek().kind == TokenKind::kIdent) {
      atom.predicate = Next().text;
    } else {
      return InvalidArgumentError("expected atom at line " +
                                  std::to_string(Peek().line));
    }
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        if (Peek().kind == TokenKind::kIdent) {
          atom.terms.push_back(Term::Variable(Next().text));
        } else if (Peek().kind == TokenKind::kConstant) {
          atom.terms.push_back(Term::Constant(Next().text));
        } else {
          return InvalidArgumentError("expected term at line " +
                                      std::to_string(Peek().line));
        }
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return atom;
  }

  Status ParseRule() {
    SurfaceRule rule;
    rule.line = Peek().line;
    QCONT_ASSIGN_OR_RETURN(rule.head, ParseAtom());
    if (rule.head.regex.has_value()) {
      return InvalidArgumentError("a rule head cannot be a regex atom (line " +
                                  std::to_string(rule.line) + ")");
    }
    if (Peek().kind == TokenKind::kImplies) {
      ++pos_;
      while (true) {
        QCONT_ASSIGN_OR_RETURN(SurfaceAtom atom, ParseAtom());
        rule.body.push_back(std::move(atom));
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    rules_.push_back(std::move(rule));
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::vector<SurfaceRule> rules_;
  std::optional<std::string> goal_;
};

inline Result<RuleParser> ParseRules(const std::string& text) {
  Lexer lexer(text);
  QCONT_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  RuleParser parser(std::move(tokens));
  QCONT_ASSIGN_OR_RETURN(bool ok, parser.Parse());
  (void)ok;
  return parser;
}

inline Result<Atom> ToRelationalAtom(const SurfaceAtom& atom, int line) {
  if (atom.regex.has_value()) {
    return InvalidArgumentError(
        "regex atoms are only allowed in UC2RPQs (line " +
        std::to_string(line) + ")");
  }
  return Atom(atom.predicate, atom.terms);
}

}  // namespace internal

using internal::ParseRules;
using internal::RuleParser;
using internal::SurfaceAtom;
using internal::SurfaceRule;
using internal::ToRelationalAtom;

// The query validation the string parser shipped with: string-keyed sets
// and maps, kept so the differential test also pins every message of
// ConjunctiveQuery::Validate and UnionQuery::Validate.
inline Status ValidateCq(const ConjunctiveQuery& cq) {
  std::unordered_set<std::string> body_vars;
  std::unordered_map<std::string, std::size_t> arities;
  for (const Atom& a : cq.atoms()) {
    auto [it, inserted] = arities.emplace(a.predicate(), a.arity());
    if (!inserted && it->second != a.arity()) {
      return InvalidArgumentError("predicate '" + a.predicate() +
                                  "' used with inconsistent arities");
    }
    for (const Term& t : a.terms()) {
      if (t.is_variable()) body_vars.insert(t.name());
    }
  }
  for (const Term& t : cq.head()) {
    if (!t.is_variable()) {
      return InvalidArgumentError("head term " + t.ToString() +
                                  " is not a variable");
    }
    if (!body_vars.count(t.name())) {
      return InvalidArgumentError("free variable " + t.name() +
                                  " does not occur in the body");
    }
  }
  return Status::Ok();
}

inline Status ValidateUcq(const UnionQuery& ucq) {
  const std::vector<ConjunctiveQuery>& disjuncts = ucq.disjuncts();
  if (disjuncts.empty()) {
    return InvalidArgumentError("a UCQ must have at least one disjunct");
  }
  std::unordered_map<std::string, std::size_t> arities;
  for (const ConjunctiveQuery& cq : disjuncts) {
    QCONT_RETURN_IF_ERROR(ValidateCq(cq));
    if (cq.arity() != disjuncts.front().arity()) {
      return InvalidArgumentError("UCQ disjuncts have different arities");
    }
    for (const Atom& a : cq.atoms()) {
      auto [it, inserted] = arities.emplace(a.predicate(), a.arity());
      if (!inserted && it->second != a.arity()) {
        return InvalidArgumentError("predicate '" + a.predicate() +
                                    "' used with inconsistent arities");
      }
    }
  }
  return Status::Ok();
}

inline Result<DatalogProgram> ParseProgramUnvalidated(
    const std::string& text, SourceLines* lines = nullptr) {
  QCONT_ASSIGN_OR_RETURN(RuleParser parser, ParseRules(text));
  if (parser.rules().empty()) {
    return InvalidArgumentError("program has no rules");
  }
  std::vector<Rule> rules;
  for (const SurfaceRule& sr : parser.rules()) {
    QCONT_ASSIGN_OR_RETURN(Atom head, ToRelationalAtom(sr.head, sr.line));
    std::vector<Atom> body;
    for (const SurfaceAtom& sa : sr.body) {
      QCONT_ASSIGN_OR_RETURN(Atom atom, ToRelationalAtom(sa, sr.line));
      body.push_back(std::move(atom));
    }
    rules.push_back(Rule{std::move(head), std::move(body)});
  }
  std::string goal = parser.goal().has_value()
                         ? *parser.goal()
                         : rules.front().head.predicate();
  if (lines != nullptr) *lines = parser.Lines();
  return DatalogProgram(std::move(rules), std::move(goal));
}

inline Result<DatalogProgram> ParseProgram(const std::string& text,
                                           SourceLines* lines = nullptr) {
  QCONT_ASSIGN_OR_RETURN(DatalogProgram program,
                         oracle::ParseProgramUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(program.Validate());
  return program;
}

inline Result<UnionQuery> ParseUcqUnvalidated(const std::string& text,
                                              SourceLines* lines = nullptr) {
  QCONT_ASSIGN_OR_RETURN(RuleParser parser, ParseRules(text));
  if (parser.rules().empty()) {
    return InvalidArgumentError("UCQ has no disjuncts");
  }
  std::vector<ConjunctiveQuery> disjuncts;
  const std::string& head_pred = parser.rules().front().head.predicate;
  for (const SurfaceRule& sr : parser.rules()) {
    if (sr.head.predicate != head_pred) {
      return InvalidArgumentError("all UCQ disjuncts must share one head "
                                  "predicate; got '" +
                                  sr.head.predicate + "' and '" + head_pred +
                                  "' (line " + std::to_string(sr.line) + ")");
    }
    std::vector<Atom> atoms;
    for (const SurfaceAtom& sa : sr.body) {
      QCONT_ASSIGN_OR_RETURN(Atom atom, ToRelationalAtom(sa, sr.line));
      atoms.push_back(std::move(atom));
    }
    disjuncts.emplace_back(sr.head.terms, std::move(atoms));
  }
  if (lines != nullptr) *lines = parser.Lines();
  return UnionQuery(std::move(disjuncts));
}

inline Result<UnionQuery> ParseUcq(const std::string& text,
                                   SourceLines* lines = nullptr) {
  QCONT_ASSIGN_OR_RETURN(UnionQuery ucq, oracle::ParseUcqUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(ValidateUcq(ucq));
  return ucq;
}

inline Result<UC2rpq> ParseUC2rpqUnvalidated(const std::string& text,
                                             SourceLines* lines = nullptr) {
  QCONT_ASSIGN_OR_RETURN(RuleParser parser, ParseRules(text));
  if (parser.rules().empty()) {
    return InvalidArgumentError("UC2RPQ has no disjuncts");
  }
  std::vector<C2rpq> disjuncts;
  for (const SurfaceRule& sr : parser.rules()) {
    std::vector<RpqAtom> atoms;
    for (const SurfaceAtom& sa : sr.body) {
      if (!sa.regex.has_value()) {
        return InvalidArgumentError(
            "UC2RPQ atoms must be regex atoms [expr](x, y) (line " +
            std::to_string(sr.line) + ")");
      }
      if (sa.terms.size() != 2) {
        return InvalidArgumentError(
            "regex atoms take exactly two variables (line " +
            std::to_string(sr.line) + ")");
      }
      QCONT_ASSIGN_OR_RETURN(RpqAtom atom,
                             MakeRpqAtom(*sa.regex, sa.terms[0], sa.terms[1]));
      atoms.push_back(std::move(atom));
    }
    disjuncts.emplace_back(sr.head.terms, std::move(atoms));
  }
  if (lines != nullptr) *lines = parser.Lines();
  return UC2rpq(std::move(disjuncts));
}

inline Result<UC2rpq> ParseUC2rpq(const std::string& text,
                                  SourceLines* lines = nullptr) {
  QCONT_ASSIGN_OR_RETURN(UC2rpq out, oracle::ParseUC2rpqUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(out.Validate());
  return out;
}

inline Result<Database> ParseDatabase(const std::string& text) {
  QCONT_ASSIGN_OR_RETURN(RuleParser parser, ParseRules(text));
  Database db;
  // Every fact of a relation must have one arity (Database::AddFact checks
  // it as an invariant); reject mixed-arity input here as a user error.
  std::unordered_map<std::string, std::size_t> arities;
  for (const SurfaceRule& sr : parser.rules()) {
    if (!sr.body.empty()) {
      return InvalidArgumentError("database facts cannot have bodies (line " +
                                  std::to_string(sr.line) + ")");
    }
    QCONT_ASSIGN_OR_RETURN(Atom atom, ToRelationalAtom(sr.head, sr.line));
    const auto [it, first] = arities.emplace(atom.predicate(), atom.arity());
    if (!first && it->second != atom.arity()) {
      return InvalidArgumentError(
          "predicate '" + atom.predicate() +
          "' used with inconsistent arities (" + std::to_string(atom.arity()) +
          " here, " + std::to_string(it->second) + " before) (line " +
          std::to_string(sr.line) + ")");
    }
    Tuple t;
    for (const Term& term : atom.terms()) {
      t.push_back(term.name());
    }
    db.AddFact(atom.predicate(), std::move(t));
  }
  return db;
}

}  // namespace oracle
}  // namespace qcont

#endif  // QCONT_TESTS_PARSER_ORACLE_H_
