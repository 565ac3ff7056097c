#include "core/io.h"

#include <cctype>

#include "util/strings.h"

namespace incdb {
namespace {

void AppendValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      *out += "_" + std::to_string(v.null_id());
      return;
    case Value::Kind::kInt:
      *out += std::to_string(v.as_int());
      return;
    case Value::Kind::kString: {
      *out += '\'';
      for (char c : v.as_str()) {
        *out += c;
        if (c == '\'') *out += '\'';  // '' escape
      }
      *out += '\'';
      return;
    }
  }
}

// Splits a data line into value tokens, honouring quotes.
Result<std::vector<std::string>> SplitValues(const std::string& line,
                                             size_t lineno) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quote = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\'') {
      in_quote = !in_quote;
      cur += c;
      continue;
    }
    if (c == ',' && !in_quote) {
      out.push_back(Trim(cur));
      cur.clear();
      continue;
    }
    cur += c;
  }
  if (in_quote) {
    return Status::ParseError("unterminated string on line " +
                              std::to_string(lineno));
  }
  out.push_back(Trim(cur));
  return out;
}

Result<Value> ParseValue(const std::string& tok, size_t lineno) {
  if (tok.empty()) {
    return Status::ParseError("empty value on line " + std::to_string(lineno));
  }
  if (tok[0] == '_') {
    // Digits only, and within NullId's range.
    const std::optional<NullId> id =
        ParseDecimal<NullId>(std::string_view(tok).substr(1));
    if (!id) {
      return Status::ParseError("bad null id '" + tok + "' on line " +
                                std::to_string(lineno));
    }
    return Value::Null(*id);
  }
  if (tok.front() == '\'') {
    if (tok.size() < 2 || tok.back() != '\'') {
      return Status::ParseError("bad string literal on line " +
                                std::to_string(lineno));
    }
    std::string s;
    for (size_t i = 1; i + 1 < tok.size(); ++i) {
      if (tok[i] == '\'') {
        if (i + 2 >= tok.size() || tok[i + 1] != '\'') {
          return Status::ParseError("bad quote escape on line " +
                                    std::to_string(lineno));
        }
        s += '\'';
        ++i;
        continue;
      }
      s += tok[i];
    }
    return Value::Str(std::move(s));
  }
  // Integer: an optional '-' and digits, within int64.
  const std::optional<int64_t> v = ParseDecimal<int64_t>(tok);
  if (!v) {
    return Status::ParseError("bad value '" + tok + "' on line " +
                              std::to_string(lineno));
  }
  return Value::Int(*v);
}

}  // namespace

std::string DumpDatabase(const Database& db) {
  std::string out = "# incdb dump\n";
  for (const auto& [name, rel] : db.relations()) {
    out += "table " + name + "(";
    auto decl = db.schema().Decl(name);
    if (decl.ok() && !(*decl)->attributes.empty()) {
      out += Join((*decl)->attributes, ", ");
    } else {
      std::vector<std::string> cols;
      for (size_t i = 0; i < rel.arity(); ++i) {
        cols.push_back("c" + std::to_string(i));
      }
      out += Join(cols, ", ");
    }
    out += ")\n";
    for (const Tuple& t : rel.tuples()) {
      std::string row;
      for (size_t i = 0; i < t.arity(); ++i) {
        if (i > 0) row += ", ";
        AppendValue(t[i], &row);
      }
      out += row + "\n";
    }
    out += "\n";
  }
  return out;
}

Result<Database> LoadDatabase(const std::string& text) {
  Database db;
  std::string current_table;
  size_t current_arity = 0;
  size_t lineno = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++lineno;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("table ", 0) == 0) {
      const size_t paren = line.find('(');
      const size_t close = line.rfind(')');
      if (paren == std::string::npos || close == std::string::npos ||
          close < paren) {
        return Status::ParseError("bad table header on line " +
                                  std::to_string(lineno));
      }
      current_table = Trim(line.substr(6, paren - 6));
      if (current_table.empty()) {
        return Status::ParseError("missing table name on line " +
                                  std::to_string(lineno));
      }
      std::vector<std::string> attrs;
      for (const std::string& a :
           Split(line.substr(paren + 1, close - paren - 1), ',')) {
        const std::string t = Trim(a);
        if (!t.empty()) attrs.push_back(t);
      }
      current_arity = attrs.size();
      if (db.schema().HasRelation(current_table)) {
        return Status::ParseError("duplicate table '" + current_table +
                                  "' on line " + std::to_string(lineno));
      }
      INCDB_RETURN_IF_ERROR(
          db.mutable_schema()->AddRelation(current_table, attrs));
      db.MutableRelation(current_table, current_arity);
      continue;
    }
    if (current_table.empty()) {
      return Status::ParseError("data before any table header on line " +
                                std::to_string(lineno));
    }
    INCDB_ASSIGN_OR_RETURN(std::vector<std::string> toks,
                           SplitValues(line, lineno));
    if (toks.size() != current_arity) {
      return Status::ParseError(
          "expected " + std::to_string(current_arity) + " values on line " +
          std::to_string(lineno) + ", got " + std::to_string(toks.size()));
    }
    std::vector<Value> vals;
    vals.reserve(toks.size());
    for (const std::string& tok : toks) {
      INCDB_ASSIGN_OR_RETURN(Value v, ParseValue(tok, lineno));
      vals.push_back(std::move(v));
    }
    db.AddTuple(current_table, Tuple(std::move(vals)));
  }
  return db;
}

}  // namespace incdb
