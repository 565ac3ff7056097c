#include "ctables/cio.h"

#include <vector>

#include "core/io.h"
#include "util/strings.h"

namespace incdb {
namespace {

// The Condition::ToString() grammar:
//   cond := true | false | ~(cond) | (cond) | (cond & cond) | (cond | cond)
//         | value = value
Result<ConditionPtr> ReadCondition(Scanner& s) {
  if (s.AtEnd()) return s.Error("empty condition");
  if (s.AcceptWord("true")) return Condition::True();
  if (s.AcceptWord("false")) return Condition::False();
  if (s.Accept('~')) {
    INCDB_RETURN_IF_ERROR(s.Expect('('));
    INCDB_ASSIGN_OR_RETURN(ConditionPtr inner, ReadCondition(s));
    INCDB_RETURN_IF_ERROR(s.Expect(')'));
    return Condition::Not(std::move(inner));
  }
  if (s.Accept('(')) {
    INCDB_ASSIGN_OR_RETURN(ConditionPtr left, ReadCondition(s));
    const char op = s.Peek();
    if (op == '&' || op == '|') {
      s.Accept(op);
      INCDB_ASSIGN_OR_RETURN(ConditionPtr right, ReadCondition(s));
      INCDB_RETURN_IF_ERROR(s.Expect(')'));
      return op == '&' ? Condition::And(std::move(left), std::move(right))
                       : Condition::Or(std::move(left), std::move(right));
    }
    INCDB_RETURN_IF_ERROR(s.Expect(')'));
    return left;
  }
  INCDB_ASSIGN_OR_RETURN(Value lhs, ReadValue(s));
  INCDB_RETURN_IF_ERROR(s.Expect('='));
  if (s.AtEnd()) return s.Error("dangling '='");
  INCDB_ASSIGN_OR_RETURN(Value rhs, ReadValue(s));
  return Condition::Eq(std::move(lhs), std::move(rhs));
}

// A whole condition: nothing may follow it.
Result<ConditionPtr> ReadWholeCondition(Scanner& s) {
  INCDB_ASSIGN_OR_RETURN(ConditionPtr c, ReadCondition(s));
  if (!s.AtEnd()) return s.Error("trailing tokens after condition");
  return c;
}

// True, having read the keyword, on a `global` line: "global" alone or
// followed by a space.
bool AcceptGlobal(Scanner& s) {
  s.SkipSpace();
  const std::string_view line = s.rest();
  constexpr std::string_view kGlobal = "global";
  if (line.substr(0, kGlobal.size()) != kGlobal) return false;
  const std::string_view after = line.substr(kGlobal.size());
  if (!after.empty() && after[0] != ' ' && !Trim(std::string(after)).empty()) {
    return false;
  }
  return s.Accept(kGlobal);
}

}  // namespace

Result<ConditionPtr> ParseCondition(const std::string& text) {
  Scanner s(text, "condition");
  return ReadWholeCondition(s);
}

std::string DumpCDatabase(const CDatabase& db) {
  std::string out = "# incdb c-table dump\n";
  for (const auto& [name, table] : db.tables()) {
    out += "ctable " + name + "(";
    auto decl = db.schema().Decl(name);
    if (decl.ok() && !(*decl)->attributes.empty()) {
      out += Join((*decl)->attributes, ", ");
    } else {
      std::vector<std::string> cols;
      for (size_t i = 0; i < table.arity(); ++i) {
        cols.push_back("c" + std::to_string(i));
      }
      out += Join(cols, ", ");
    }
    out += ")\n";
    if (!table.global_condition()->IsTrue()) {
      out += "global " + table.global_condition()->ToString() + "\n";
    }
    for (const CTableRow& row : table.rows()) {
      for (size_t i = 0; i < row.tuple.arity(); ++i) {
        if (i > 0) out += ", ";
        out += row.tuple[i].ToString();
      }
      if (!row.condition->IsTrue()) {
        out += " :: " + row.condition->ToString();
      }
      out += "\n";
    }
    out += "\n";
  }
  return out;
}

Result<CDatabase> LoadCDatabase(const std::string& text) {
  CDatabase db;
  CTable* current = nullptr;
  bool saw_row = false;
  INCDB_RETURN_IF_ERROR(ForEachDumpLine(text, [&](Scanner& s) -> Status {
    INCDB_ASSIGN_OR_RETURN(std::optional<TableHeader> header,
                           ReadTableHeader(s, "ctable", db.schema()));
    if (header) {
      // Register the schema first so attribute names survive the round-trip.
      INCDB_RETURN_IF_ERROR(
          db.mutable_schema()->AddRelation(header->name, header->attributes));
      current = db.MutableTable(header->name, header->attributes.size());
      saw_row = false;
      return Status::OK();
    }
    if (current == nullptr) return s.Error("data before any ctable header");
    if (AcceptGlobal(s)) {
      if (saw_row) return s.Error("global condition after rows");
      INCDB_ASSIGN_OR_RETURN(ConditionPtr g, ReadWholeCondition(s));
      current->SetGlobalCondition(std::move(g));
      return Status::OK();
    }
    INCDB_ASSIGN_OR_RETURN(std::vector<Value> vals,
                           ReadRow(s, current->arity()));
    ConditionPtr cond = Condition::True();
    if (s.Accept("::")) {
      // An empty condition after `::` means `true`.
      if (!s.AtEnd()) {
        INCDB_ASSIGN_OR_RETURN(cond, ReadWholeCondition(s));
      }
    } else if (!s.AtEnd()) {
      return s.Error("expected ',' or '::'");
    }
    current->AddRow(Tuple(std::move(vals)), std::move(cond));
    saw_row = true;
    return Status::OK();
  }));
  return db;
}

}  // namespace incdb
