#include "logic/rule_parser.h"

#include <cctype>
#include <map>

#include "util/scanner.h"
#include "util/strings.h"

namespace incdb {
namespace {

// One rule read from a scanner that may hold more text after it (the
// other disjuncts of a UCQ). Variable identifiers are scoped per rule.
class RuleParser {
 public:
  explicit RuleParser(Scanner& s) : s_(s) {}

  // term := 'string' | integer | variable
  Result<FoTerm> Term() {
    const char c = s_.Peek();
    if (c == '\'') {
      INCDB_ASSIGN_OR_RETURN(std::string str, s_.ReadQuoted());
      return FoTerm::Const(Value::Str(std::move(str)));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      INCDB_ASSIGN_OR_RETURN(int64_t v, s_.ReadInt());
      return FoTerm::Const(Value::Int(v));
    }
    INCDB_ASSIGN_OR_RETURN(std::string name, Identifier());
    return FoTerm::Var(VarOf(name));
  }

  Result<FoAtom> Atom() {
    FoAtom atom;
    INCDB_ASSIGN_OR_RETURN(atom.relation, Identifier());
    INCDB_RETURN_IF_ERROR(s_.Expect('('));
    if (!s_.Accept(')')) {
      for (;;) {
        INCDB_ASSIGN_OR_RETURN(FoTerm t, Term());
        atom.terms.push_back(std::move(t));
        if (s_.Accept(')')) break;
        INCDB_RETURN_IF_ERROR(s_.Expect(','));
      }
    }
    return atom;
  }

  Result<std::vector<FoAtom>> AtomList() {
    std::vector<FoAtom> atoms;
    for (;;) {
      INCDB_ASSIGN_OR_RETURN(FoAtom a, Atom());
      atoms.push_back(std::move(a));
      if (!s_.Accept(',')) break;
    }
    return atoms;
  }

  // head? :- body, stopping after the body.
  Result<ConjunctiveQuery> CQ() {
    ConjunctiveQuery q;
    if (!s_.Accept(":-")) {
      // Head atom: name(terms) :- ...
      INCDB_ASSIGN_OR_RETURN(FoAtom head, Atom());
      q.head = std::move(head.terms);
      if (!s_.Accept(":-")) return s_.Error("expected ':-'");
    }
    INCDB_ASSIGN_OR_RETURN(q.body, AtomList());
    return q;
  }

  Result<Tgd> TgdRule() {
    Tgd tgd;
    INCDB_ASSIGN_OR_RETURN(tgd.body, AtomList());
    if (!s_.Accept("->")) return s_.Error("expected '->' in tgd");
    INCDB_ASSIGN_OR_RETURN(tgd.head, AtomList());
    if (!s_.AtEnd()) return s_.Error("trailing input after tgd head");
    return tgd;
  }

 private:
  Result<std::string> Identifier() {
    std::string word(s_.ReadWord());
    if (word.empty()) return s_.Error("expected identifier");
    return word;
  }

  VarId VarOf(const std::string& name) {
    auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    const VarId id = static_cast<VarId>(vars_.size());
    vars_.emplace(name, id);
    return id;
  }

  Scanner& s_;
  std::map<std::string, VarId> vars_;
};

}  // namespace

Result<ConjunctiveQuery> ParseCQ(const std::string& text) {
  Scanner s(text, "rule");
  INCDB_ASSIGN_OR_RETURN(ConjunctiveQuery q, RuleParser(s).CQ());
  if (!s.AtEnd()) return s.Error("trailing input after CQ body");
  return q;
}

Result<UnionOfCQs> ParseUCQ(const std::string& text) {
  Scanner s(text, "rule");
  UnionOfCQs out;
  for (;;) {
    while (s.Accept(';')) {
    }
    if (s.AtEnd()) break;
    INCDB_ASSIGN_OR_RETURN(ConjunctiveQuery q, RuleParser(s).CQ());
    if (!s.AtEnd() && s.Peek() != ';') {
      return s.Error("trailing input after CQ body");
    }
    out.disjuncts.push_back(std::move(q));
  }
  if (out.disjuncts.empty()) {
    return Status::ParseError("empty UCQ");
  }
  INCDB_RETURN_IF_ERROR(out.HeadArity().status());
  return out;
}

Result<Tgd> ParseTgd(const std::string& text) {
  Scanner s(text, "rule");
  return RuleParser(s).TgdRule();
}

Result<SchemaMapping> ParseMapping(const std::string& text) {
  SchemaMapping m;
  size_t lineno = 0;
  for (const std::string& line : Split(text, '\n')) {
    Scanner s(line, "rule", ++lineno);
    if (s.AtEnd()) continue;
    INCDB_ASSIGN_OR_RETURN(Tgd tgd, RuleParser(s).TgdRule());
    m.tgds.push_back(std::move(tgd));
  }
  INCDB_RETURN_IF_ERROR(m.Validate());
  return m;
}

}  // namespace incdb
