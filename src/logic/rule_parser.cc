#include "logic/rule_parser.h"

#include <cctype>
#include <map>

#include "util/strings.h"

namespace incdb {
namespace {

// A tiny cursor-based tokenizer shared by the rule grammar.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Accept(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptStr(const std::string& s) {
    SkipSpace();
    if (text_.compare(pos_, s.size(), s) == 0) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (Accept(c)) return Status::OK();
    return Status::ParseError(std::string("expected '") + c + "' at offset " +
                              std::to_string(pos_) + " in rule");
  }

  Result<std::string> Identifier() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError("expected identifier at offset " +
                                std::to_string(start));
    }
    return text_.substr(start, pos_ - start);
  }

  size_t pos() const { return pos_; }
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  const std::string& text() const { return text_; }
  void Advance() { ++pos_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

class RuleParser {
 public:
  explicit RuleParser(const std::string& text) : cur_(text) {}

  Result<FoTerm> Term() {
    const char c = cur_.Peek();
    if (c == '\'') {
      cur_.Advance();
      std::string s;
      // Raw character read: spaces inside quotes are content.
      while (cur_.pos() < cur_.text().size() &&
             cur_.text()[cur_.pos()] != '\'') {
        s += cur_.text()[cur_.pos()];
        cur_.Advance();
      }
      INCDB_RETURN_IF_ERROR(cur_.Expect('\''));
      return FoTerm::Const(Value::Str(std::move(s)));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      const size_t start = cur_.pos();
      std::string num;
      if (c == '-') {
        num += '-';
        cur_.Advance();
      }
      while (cur_.pos() < cur_.text().size() &&
             std::isdigit(static_cast<unsigned char>(
                 cur_.text()[cur_.pos()]))) {
        num += cur_.text()[cur_.pos()];
        cur_.Advance();
      }
      // A lone '-' or a value outside int64.
      const std::optional<int64_t> v = ParseDecimal<int64_t>(num);
      if (!v) {
        return Status::ParseError("bad number at offset " +
                                  std::to_string(start) + " in rule");
      }
      return FoTerm::Const(Value::Int(*v));
    }
    INCDB_ASSIGN_OR_RETURN(std::string name, cur_.Identifier());
    return FoTerm::Var(VarOf(name));
  }

  Result<FoAtom> Atom() {
    FoAtom atom;
    INCDB_ASSIGN_OR_RETURN(atom.relation, cur_.Identifier());
    INCDB_RETURN_IF_ERROR(cur_.Expect('('));
    if (!cur_.Accept(')')) {
      for (;;) {
        INCDB_ASSIGN_OR_RETURN(FoTerm t, Term());
        atom.terms.push_back(std::move(t));
        if (cur_.Accept(')')) break;
        INCDB_RETURN_IF_ERROR(cur_.Expect(','));
      }
    }
    return atom;
  }

  Result<std::vector<FoAtom>> AtomList() {
    std::vector<FoAtom> atoms;
    for (;;) {
      INCDB_ASSIGN_OR_RETURN(FoAtom a, Atom());
      atoms.push_back(std::move(a));
      if (!cur_.Accept(',')) break;
    }
    return atoms;
  }

  Result<ConjunctiveQuery> CQ() {
    ConjunctiveQuery q;
    if (!cur_.AcceptStr(":-")) {
      // Head atom: name(terms) :- ...
      INCDB_ASSIGN_OR_RETURN(FoAtom head, Atom());
      q.head = std::move(head.terms);
      INCDB_RETURN_IF_ERROR(cur_.AcceptStr(":-")
                                ? Status::OK()
                                : Status::ParseError("expected ':-'"));
    }
    INCDB_ASSIGN_OR_RETURN(q.body, AtomList());
    if (!cur_.AtEnd()) {
      return Status::ParseError("trailing input after CQ body");
    }
    return q;
  }

  Result<Tgd> TgdRule() {
    Tgd tgd;
    INCDB_ASSIGN_OR_RETURN(tgd.body, AtomList());
    if (!cur_.AcceptStr("->")) {
      return Status::ParseError("expected '->' in tgd");
    }
    INCDB_ASSIGN_OR_RETURN(tgd.head, AtomList());
    if (!cur_.AtEnd()) {
      return Status::ParseError("trailing input after tgd head");
    }
    return tgd;
  }

 private:
  VarId VarOf(const std::string& name) {
    auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    const VarId id = static_cast<VarId>(vars_.size());
    vars_.emplace(name, id);
    return id;
  }

  Cursor cur_;
  std::map<std::string, VarId> vars_;
};

}  // namespace

Result<ConjunctiveQuery> ParseCQ(const std::string& text) {
  RuleParser p(text);
  return p.CQ();
}

Result<UnionOfCQs> ParseUCQ(const std::string& text) {
  UnionOfCQs out;
  for (const std::string& part : Split(text, ';')) {
    const std::string trimmed = Trim(part);
    if (trimmed.empty()) continue;
    INCDB_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseCQ(trimmed));
    out.disjuncts.push_back(std::move(q));
  }
  if (out.disjuncts.empty()) {
    return Status::ParseError("empty UCQ");
  }
  INCDB_RETURN_IF_ERROR(out.HeadArity().status());
  return out;
}

Result<Tgd> ParseTgd(const std::string& text) {
  RuleParser p(text);
  return p.TgdRule();
}

Result<SchemaMapping> ParseMapping(const std::string& text) {
  SchemaMapping m;
  for (const std::string& line : Split(text, '\n')) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    INCDB_ASSIGN_OR_RETURN(Tgd tgd, ParseTgd(trimmed));
    m.tgds.push_back(std::move(tgd));
  }
  INCDB_RETURN_IF_ERROR(m.Validate());
  return m;
}

}  // namespace incdb
