#include "parser/parser.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/name_table.h"

namespace qcont {

namespace {

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

// `text` views the input the token was lexed from: a token lives only as
// long as that input.
struct Token {
  TokenKind kind;
  std::string_view text;
  int line;  // 1-based source line on which the token starts
};

// The character classes of the "C" locale, which the syntax is written in.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsAlpha(char c) {
  const unsigned char lower = static_cast<unsigned char>(c) | 0x20;
  return lower >= 'a' && lower <= 'z';
}
bool IsIdentChar(char c) {
  return c == '_' || IsAlpha(c) || (c >= '0' && c <= '9');
}

// Splits the whole input into tokens before any is parsed, so a lexing
// error anywhere in the text takes precedence over a syntax error before it.
Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> out;
  out.reserve(input.size() / 2 + 1);
  const std::size_t n = input.size();
  std::size_t pos = 0;
  int line = 1;
  // Consumes one character, counting the lines it ends.
  auto advance = [&] {
    if (input[pos] == '\n') ++line;
    ++pos;
  };
  auto punct = [&](TokenKind kind, std::size_t width) {
    out.push_back({kind, input.substr(pos, width), line});
    pos += width;
  };
  while (true) {
    while (pos < n) {
      const char c = input[pos];
      if (IsSpace(c)) {
        advance();
      } else if (c == '#' || c == '%') {
        while (pos < n && input[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
    if (pos >= n) break;
    const int start_line = line;
    const char c = input[pos];
    if (c == '(') {
      punct(TokenKind::kLParen, 1);
    } else if (c == ')') {
      punct(TokenKind::kRParen, 1);
    } else if (c == ',') {
      punct(TokenKind::kComma, 1);
    } else if (c == '.') {
      punct(TokenKind::kPeriod, 1);
    } else if (c == ':' && pos + 1 < n && input[pos + 1] == '-') {
      punct(TokenKind::kImplies, 2);
    } else if (c == '\'') {
      const std::size_t begin = ++pos;
      while (pos < n && input[pos] != '\'') advance();
      if (pos >= n) {
        return InvalidArgumentError("unterminated constant at line " +
                                    std::to_string(start_line));
      }
      out.push_back(
          {TokenKind::kConstant, input.substr(begin, pos - begin), start_line});
      ++pos;
    } else if (c == '[') {
      const std::size_t begin = ++pos;
      int depth = 1;
      while (pos < n) {
        if (input[pos] == '[') ++depth;
        if (input[pos] == ']' && --depth == 0) break;
        advance();
      }
      if (pos >= n) {
        return InvalidArgumentError("unterminated regex at line " +
                                    std::to_string(start_line));
      }
      out.push_back(
          {TokenKind::kRegex, input.substr(begin, pos - begin), start_line});
      ++pos;  // consume ']'
    } else if (c == '_' || IsAlpha(c)) {
      const std::size_t begin = pos;
      while (pos < n && IsIdentChar(input[pos])) ++pos;
      out.push_back(
          {TokenKind::kIdent, input.substr(begin, pos - begin), start_line});
    } else {
      return InvalidArgumentError("unexpected character '" +
                                  std::string(1, c) + "' at line " +
                                  std::to_string(start_line));
    }
  }
  out.push_back({TokenKind::kEnd, {}, line});
  return out;
}

// One parsed atom as tokens: its predicate (kIdent) or regex (kRegex), and
// its terms, which are every other token from `first_term` on (commas sit
// between them).
struct AtomTokens {
  const Token* name = nullptr;
  const Token* first_term = nullptr;
  std::size_t arity = 0;

  bool regex() const { return name->kind == TokenKind::kRegex; }
  const Token& term(std::size_t i) const { return first_term[2 * i]; }
};

std::string LineSuffix(int line) {
  return " (line " + std::to_string(line) + ")";
}

// The syntax of rules and `goal` directives. Each rule is handed to the
// sink atom by atom (`Head`, `Body`, then `End` once its '.' is read), and
// the sink builds its objects from the token views as they come. A sink
// keeps only its first semantic error (`Deferred`) and parsing goes on,
// because a syntax error anywhere in the text takes precedence over it.
template <typename Sink>
class RuleParser {
 public:
  RuleParser(const std::vector<Token>& tokens, Sink* sink,
             std::vector<int>* rule_lines)
      : tokens_(tokens), sink_(sink), rule_lines_(rule_lines) {}

  Status Parse() {
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
    return Status::Ok();
  }

  std::size_t num_rules() const { return num_rules_; }
  const std::optional<std::string_view>& goal() const { return goal_; }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(std::size_t delta) const {
    return tokens_[std::min(pos_ + delta, tokens_.size() - 1)];
  }
  const Token& Next() { return tokens_[pos_++]; }

  Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return InvalidArgumentError(std::string("expected ") + what +
                                  " at line " + std::to_string(Peek().line));
    }
    ++pos_;
    return Status::Ok();
  }

  Result<AtomTokens> ParseAtom() {
    AtomTokens atom;
    if (Peek().kind != TokenKind::kRegex && Peek().kind != TokenKind::kIdent) {
      return InvalidArgumentError("expected atom at line " +
                                  std::to_string(Peek().line));
    }
    atom.name = &Next();
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    atom.first_term = &Peek();
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        if (Peek().kind != TokenKind::kIdent &&
            Peek().kind != TokenKind::kConstant) {
          return InvalidArgumentError("expected term at line " +
                                      std::to_string(Peek().line));
        }
        ++pos_;
        ++atom.arity;
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
    const int line = Peek().line;
    QCONT_ASSIGN_OR_RETURN(AtomTokens head, ParseAtom());
    if (head.regex()) {
      return InvalidArgumentError("a rule head cannot be a regex atom (line " +
                                  std::to_string(line) + ")");
    }
    sink_->Head(line, head);
    if (Peek().kind == TokenKind::kImplies) {
      ++pos_;
      while (true) {
        QCONT_ASSIGN_OR_RETURN(AtomTokens atom, ParseAtom());
        sink_->Body(line, atom);
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    sink_->End(line);
    ++num_rules_;
    if (rule_lines_ != nullptr) rule_lines_->push_back(line);
    return Status::Ok();
  }

  const std::vector<Token>& tokens_;
  Sink* sink_;
  std::vector<int>* rule_lines_;
  std::size_t pos_ = 0;
  std::size_t num_rules_ = 0;
  std::optional<std::string_view> goal_;
};

// The first semantic error a sink meets; later ones are not looked for.
struct Deferred {
  Status error;

  bool failed() const { return !error.ok(); }
  void Fail(Status status) {
    if (!failed()) error = std::move(status);
  }
};

Term MakeTerm(const Token& token) {
  std::string name(token.text);
  return token.kind == TokenKind::kIdent ? Term::Variable(std::move(name))
                                         : Term::Constant(std::move(name));
}

std::vector<Term> MakeTerms(const AtomTokens& atom) {
  std::vector<Term> terms;
  terms.reserve(atom.arity);
  for (std::size_t i = 0; i < atom.arity; ++i) {
    terms.push_back(MakeTerm(atom.term(i)));
  }
  return terms;
}

Atom MakeAtom(const AtomTokens& atom) {
  return Atom(std::string(atom.name->text), MakeTerms(atom));
}

Status RegexOutsideUc2rpq(int line) {
  return InvalidArgumentError("regex atoms are only allowed in UC2RPQs" +
                              LineSuffix(line));
}

// Datalog rules, built in rule order.
struct ProgramSink : Deferred {
  std::vector<Rule> rules;

  void Head(int, const AtomTokens& head) {
    if (!failed()) rules.push_back(Rule{MakeAtom(head), {}});
  }
  void Body(int line, const AtomTokens& atom) {
    if (failed()) return;
    if (atom.regex()) return Fail(RegexOutsideUc2rpq(line));
    rules.back().body.push_back(MakeAtom(atom));
  }
  void End(int) {}
};

// UCQ disjuncts; every rule must have the first rule's head predicate.
struct UcqSink : Deferred {
  std::vector<ConjunctiveQuery> disjuncts;
  std::optional<std::string_view> head_predicate;
  std::vector<Term> head;
  std::vector<Atom> atoms;

  void Head(int line, const AtomTokens& atom) {
    if (failed()) return;
    if (!head_predicate.has_value()) {
      head_predicate = atom.name->text;
    } else if (atom.name->text != *head_predicate) {
      return Fail(InvalidArgumentError(
          "all UCQ disjuncts must share one head predicate; got '" +
          std::string(atom.name->text) + "' and '" +
          std::string(*head_predicate) + "'" + LineSuffix(line)));
    }
    head = MakeTerms(atom);
  }
  void Body(int line, const AtomTokens& atom) {
    if (failed()) return;
    if (atom.regex()) return Fail(RegexOutsideUc2rpq(line));
    atoms.push_back(MakeAtom(atom));
  }
  void End(int) {
    if (failed()) return;
    disjuncts.emplace_back(std::move(head), std::move(atoms));
    head.clear();
    atoms.clear();
  }
};

// UC2RPQ disjuncts; every body atom is a binary regex atom.
struct Uc2rpqSink : Deferred {
  std::vector<C2rpq> disjuncts;
  std::vector<Term> head;
  std::vector<RpqAtom> atoms;

  void Head(int, const AtomTokens& atom) {
    if (!failed()) head = MakeTerms(atom);
  }
  void Body(int line, const AtomTokens& atom) {
    if (failed()) return;
    if (!atom.regex()) {
      return Fail(InvalidArgumentError(
          "UC2RPQ atoms must be regex atoms [expr](x, y)" + LineSuffix(line)));
    }
    if (atom.arity != 2) {
      return Fail(InvalidArgumentError(
          "regex atoms take exactly two variables" + LineSuffix(line)));
    }
    Result<RpqAtom> rpq = MakeRpqAtom(std::string(atom.name->text),
                                      MakeTerm(atom.term(0)),
                                      MakeTerm(atom.term(1)));
    if (!rpq.ok()) return Fail(rpq.status());
    atoms.push_back(std::move(*rpq));
  }
  void End(int) {
    if (failed()) return;
    disjuncts.emplace_back(std::move(head), std::move(atoms));
    head.clear();
    atoms.clear();
  }
};

// Database facts, checked as their '.' is read and kept as views: no name
// is interned until every fact has passed (`Commit`).
class DatabaseSink : public Deferred {
 public:
  // A text of `tokens` tokens has fewer than tokens/4 + 1 facts: each
  // takes at least "r ( ) .".
  explicit DatabaseSink(std::size_t tokens) {
    relations_.Reset(tokens / 4 + 1);
    arity_.Reset(tokens / 4 + 1);
  }

  void Head(int, const AtomTokens& atom) {
    head_ = atom;
    has_body_ = false;
  }
  void Body(int, const AtomTokens&) { has_body_ = true; }
  void End(int line) {
    if (failed()) return;
    if (has_body_) {
      return Fail(InvalidArgumentError("database facts cannot have bodies" +
                                       LineSuffix(line)));
    }
    // Every fact of a relation must have one arity (Database checks it as
    // an invariant); mixed-arity input is a user error.
    const std::string_view relation = head_.name->text;
    const std::uint32_t fresh = relations_.size();
    const std::uint32_t rel = relations_.Intern(relation);
    if (rel == fresh) {
      arity_[rel] = head_.arity;
    } else if (arity_[rel] != head_.arity) {
      return Fail(InvalidArgumentError(
          "predicate '" + std::string(relation) +
          "' used with inconsistent arities (" + std::to_string(head_.arity) +
          " here, " + std::to_string(arity_[rel]) + " before)" +
          LineSuffix(line)));
    }
    fact_relation_.push_back(rel);
    names_.push_back(relation);
    for (std::size_t i = 0; i < head_.arity; ++i) {
      names_.push_back(head_.term(i).text);
    }
  }

  // Interns every name in text order, each fact's relation before its
  // values (the ids a loop of AddFact calls would draw from a fresh pool),
  // then adds the rows one relation at a time, relations in first-fact
  // order and rows in text order within each.
  void Commit(Database* db) const {
    std::vector<SymbolId> ids(names_.size());
    db->pool()->InternAll(names_, ids.data());
    const std::uint32_t num_relations = relations_.size();
    std::vector<RelationId> relation_id(num_relations);
    // begin[r]: where relation r's rows start in `rows`.
    std::vector<std::size_t> begin(num_relations + 1, 0);
    for (const std::uint32_t rel : fact_relation_) begin[rel + 1] += arity_[rel];
    for (std::uint32_t r = 0; r < num_relations; ++r) begin[r + 1] += begin[r];
    std::vector<ValueId> rows(begin[num_relations]);
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    std::size_t at = 0;
    for (const std::uint32_t rel : fact_relation_) {
      relation_id[rel] = ids[at];
      const std::size_t arity = arity_[rel];
      std::copy_n(ids.begin() + at + 1, arity, rows.begin() + fill[rel]);
      fill[rel] += arity;
      at += 1 + arity;
    }
    for (std::uint32_t r = 0; r < num_relations; ++r) {
      if (arity_[r] == 0) {
        db->AddRow(relation_id[r], {});
      } else {
        db->AddRowBatch(relation_id[r], arity_[r],
                        std::span<const ValueId>(rows).subspan(
                            begin[r], begin[r + 1] - begin[r]));
      }
    }
  }

 private:
  AtomTokens head_;
  bool has_body_ = false;
  NameTable relations_;                      // relation -> dense ordinal
  StackBuffer<std::size_t, 32> arity_;       // per ordinal
  std::vector<std::uint32_t> fact_relation_;  // per fact: its ordinal
  std::vector<std::string_view> names_;       // per fact: relation, values
};

// Lexes and parses `text` into `sink`; on success `lines` (if non-null)
// receives the rule lines. `goal` (if non-null) receives the last `goal`
// directive's name.
template <typename Sink>
Result<std::size_t> ParseInto(const std::string& text, Sink* sink,
                              SourceLines* lines,
                              std::optional<std::string>* goal = nullptr) {
  QCONT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  std::vector<int> rule_lines;
  RuleParser<Sink> parser(tokens, sink,
                          lines != nullptr ? &rule_lines : nullptr);
  QCONT_RETURN_IF_ERROR(parser.Parse());
  if (goal != nullptr && parser.goal().has_value()) {
    *goal = std::string(*parser.goal());
  }
  if (lines != nullptr && parser.num_rules() > 0 && !sink->failed()) {
    lines->rule_lines = std::move(rule_lines);
  }
  return parser.num_rules();
}

}  // namespace

Result<DatalogProgram> ParseProgramUnvalidated(const std::string& text,
                                               SourceLines* lines) {
  ProgramSink sink;
  std::optional<std::string> goal;
  QCONT_ASSIGN_OR_RETURN(std::size_t rules,
                         ParseInto(text, &sink, lines, &goal));
  if (rules == 0) return InvalidArgumentError("program has no rules");
  QCONT_RETURN_IF_ERROR(sink.error);
  if (!goal.has_value()) goal = sink.rules.front().head.predicate();
  return DatalogProgram(std::move(sink.rules), std::move(*goal));
}

Result<DatalogProgram> ParseProgram(const std::string& text,
                                    SourceLines* lines) {
  QCONT_ASSIGN_OR_RETURN(DatalogProgram program,
                         ParseProgramUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(program.Validate());
  return program;
}

Result<UnionQuery> ParseUcqUnvalidated(const std::string& text,
                                       SourceLines* lines) {
  UcqSink sink;
  QCONT_ASSIGN_OR_RETURN(std::size_t rules, ParseInto(text, &sink, lines));
  if (rules == 0) return InvalidArgumentError("UCQ has no disjuncts");
  QCONT_RETURN_IF_ERROR(sink.error);
  return UnionQuery(std::move(sink.disjuncts));
}

Result<UnionQuery> ParseUcq(const std::string& text, SourceLines* lines) {
  QCONT_ASSIGN_OR_RETURN(UnionQuery ucq, ParseUcqUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  return ucq;
}

Result<UC2rpq> ParseUC2rpqUnvalidated(const std::string& text,
                                      SourceLines* lines) {
  Uc2rpqSink sink;
  QCONT_ASSIGN_OR_RETURN(std::size_t rules, ParseInto(text, &sink, lines));
  if (rules == 0) return InvalidArgumentError("UC2RPQ has no disjuncts");
  QCONT_RETURN_IF_ERROR(sink.error);
  return UC2rpq(std::move(sink.disjuncts));
}

Result<UC2rpq> ParseUC2rpq(const std::string& text, SourceLines* lines) {
  QCONT_ASSIGN_OR_RETURN(UC2rpq out, ParseUC2rpqUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(out.Validate());
  return out;
}

Result<Database> ParseDatabase(const std::string& text,
                               std::shared_ptr<Interner> pool) {
  QCONT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  DatabaseSink sink(tokens.size());
  QCONT_RETURN_IF_ERROR(RuleParser(tokens, &sink, nullptr).Parse());
  QCONT_RETURN_IF_ERROR(sink.error);
  Database db = pool != nullptr ? Database(std::move(pool)) : Database();
  sink.Commit(&db);
  return db;
}

}  // namespace qcont
