#include "ctables/cio.h"

#include <cctype>
#include <vector>

#include "util/strings.h"

namespace incdb {
namespace {

// Value rendering, identical to core/io.cc's dump syntax.
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

Result<Value> ParseValueToken(const std::string& tok, size_t lineno) {
  const std::string where = " on line " + std::to_string(lineno);
  if (tok.empty()) return Status::ParseError("empty value" + where);
  if (tok[0] == '_') {
    // Digits only, and within NullId's range.
    const std::optional<NullId> id =
        ParseDecimal<NullId>(std::string_view(tok).substr(1));
    if (!id) return Status::ParseError("bad null id '" + tok + "'" + where);
    return Value::Null(*id);
  }
  if (tok.front() == '\'') {
    if (tok.size() < 2 || tok.back() != '\'') {
      return Status::ParseError("bad string literal" + where);
    }
    std::string s;
    for (size_t i = 1; i + 1 < tok.size(); ++i) {
      if (tok[i] == '\'') {
        if (i + 2 >= tok.size() || tok[i + 1] != '\'') {
          return Status::ParseError("bad quote escape" + where);
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
  if (!v) return Status::ParseError("bad value '" + tok + "'" + where);
  return Value::Int(*v);
}

// ---- Condition parsing (the Condition::ToString() grammar) ----
//
// Tokens remember their 1-based column so parse errors can point at the
// offending token: "expected ')' in condition on line 4, column 12 (at
// 'foo')". `col_offset` shifts the columns when the condition text is a
// suffix of a longer line (a `global` header or a row's `:: cond` tail).

struct CondToken {
  std::string text;
  size_t col = 1;  // 1-based, within the condition text
};

struct CondParser {
  std::vector<CondToken> tokens;
  size_t pos = 0;
  size_t lineno;
  size_t col_offset;

  CondParser(size_t line, size_t col_offset)
      : lineno(line), col_offset(col_offset) {}

  std::string Where(size_t col) const {
    return " on line " + std::to_string(lineno) + ", column " +
           std::to_string(col_offset + col);
  }

  // Location of the current token (or of the end of the condition).
  std::string At() const {
    if (AtEnd()) {
      const size_t end = tokens.empty()
                             ? 1
                             : tokens.back().col + tokens.back().text.size();
      return Where(end) + " (at end of condition)";
    }
    return Where(tokens[pos].col) + " (at '" + tokens[pos].text + "')";
  }

  Status Tokenize(const std::string& text) {
    std::string cur;
    size_t cur_col = 1;
    bool in_quote = false;
    size_t quote_col = 1;
    auto flush = [&]() {
      if (!cur.empty()) {
        tokens.push_back({cur, cur_col});
        cur.clear();
      }
    };
    for (size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\'') {
        if (!in_quote) quote_col = i + 1;
        in_quote = !in_quote;
        if (cur.empty()) cur_col = i + 1;
        cur += c;
        continue;
      }
      if (in_quote) {
        cur += c;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        flush();
        continue;
      }
      if (c == '(' || c == ')' || c == '~' || c == '&' || c == '|' ||
          c == '=') {
        flush();
        tokens.push_back({std::string(1, c), i + 1});
        continue;
      }
      if (cur.empty()) cur_col = i + 1;
      cur += c;
    }
    if (in_quote) {
      return Status::ParseError("unterminated string" + Where(quote_col));
    }
    flush();
    return Status::OK();
  }

  bool AtEnd() const { return pos >= tokens.size(); }
  const std::string& Peek() const { return tokens[pos].text; }

  Status Expect(const std::string& tok) {
    if (AtEnd() || tokens[pos].text != tok) {
      return Status::ParseError("expected '" + tok + "' in condition" + At());
    }
    ++pos;
    return Status::OK();
  }

  Result<ConditionPtr> ParseCond() {
    if (AtEnd()) return Status::ParseError("empty condition" + At());
    const std::string tok = tokens[pos].text;
    if (tok == "true") {
      ++pos;
      return Condition::True();
    }
    if (tok == "false") {
      ++pos;
      return Condition::False();
    }
    if (tok == "~") {
      ++pos;
      INCDB_RETURN_IF_ERROR(Expect("("));
      INCDB_ASSIGN_OR_RETURN(ConditionPtr inner, ParseCond());
      INCDB_RETURN_IF_ERROR(Expect(")"));
      return Condition::Not(std::move(inner));
    }
    if (tok == "(") {
      ++pos;
      INCDB_ASSIGN_OR_RETURN(ConditionPtr left, ParseCond());
      if (!AtEnd() && (Peek() == "&" || Peek() == "|")) {
        const bool is_and = Peek() == "&";
        ++pos;
        INCDB_ASSIGN_OR_RETURN(ConditionPtr right, ParseCond());
        INCDB_RETURN_IF_ERROR(Expect(")"));
        return is_and ? Condition::And(std::move(left), std::move(right))
                      : Condition::Or(std::move(left), std::move(right));
      }
      INCDB_RETURN_IF_ERROR(Expect(")"));
      return left;
    }
    // Equality: value = value.
    Result<Value> lhs = ParseValueToken(tok, lineno);
    if (!lhs.ok()) return Status::ParseError(ValueError(lhs.status()));
    ++pos;
    INCDB_RETURN_IF_ERROR(Expect("="));
    if (AtEnd()) return Status::ParseError("dangling '='" + At());
    Result<Value> rhs = ParseValueToken(tokens[pos].text, lineno);
    if (!rhs.ok()) return Status::ParseError(ValueError(rhs.status()));
    ++pos;
    return Condition::Eq(*std::move(lhs), *std::move(rhs));
  }

  // Re-anchors a ParseValueToken error (line-only) at the current token.
  std::string ValueError(const Status& st) const {
    const std::string msg = st.message();
    const size_t cut = msg.rfind(" on line ");
    return (cut == std::string::npos ? msg : msg.substr(0, cut)) + At();
  }
};

Result<ConditionPtr> ParseConditionLine(const std::string& text, size_t lineno,
                                        size_t col_offset = 0) {
  CondParser p(lineno, col_offset);
  INCDB_RETURN_IF_ERROR(p.Tokenize(text));
  INCDB_ASSIGN_OR_RETURN(ConditionPtr c, p.ParseCond());
  if (!p.AtEnd()) {
    return Status::ParseError("trailing tokens after condition" + p.At());
  }
  return c;
}

// Splits a row line at the first `::` outside quotes. Returns the condition
// part (empty if none) and truncates `line` to the tuple part. `*cond_col`
// receives the 0-based offset of the condition within the original line, so
// condition parse errors can report columns in line coordinates.
std::string SplitConditionSuffix(std::string* line, size_t* cond_col) {
  bool in_quote = false;
  for (size_t i = 0; i + 1 < line->size(); ++i) {
    const char c = (*line)[i];
    if (c == '\'') in_quote = !in_quote;
    if (!in_quote && c == ':' && (*line)[i + 1] == ':') {
      const std::string rest = line->substr(i + 2);
      const size_t lead = rest.find_first_not_of(" \t");
      *cond_col = i + 2 + (lead == std::string::npos ? 0 : lead);
      std::string cond = Trim(rest);
      *line = Trim(line->substr(0, i));
      return cond;
    }
  }
  return "";
}

Result<std::vector<Value>> ParseRowValues(const std::string& line,
                                          size_t arity, size_t lineno) {
  std::vector<std::string> toks;
  std::string cur;
  bool in_quote = false;
  for (char c : line) {
    if (c == '\'') {
      in_quote = !in_quote;
      cur += c;
      continue;
    }
    if (c == ',' && !in_quote) {
      toks.push_back(Trim(cur));
      cur.clear();
      continue;
    }
    cur += c;
  }
  if (in_quote) {
    return Status::ParseError("unterminated string on line " +
                              std::to_string(lineno));
  }
  toks.push_back(Trim(cur));
  if (toks.size() != arity) {
    return Status::ParseError("expected " + std::to_string(arity) +
                              " values on line " + std::to_string(lineno) +
                              ", got " + std::to_string(toks.size()));
  }
  std::vector<Value> vals;
  vals.reserve(toks.size());
  for (const std::string& tok : toks) {
    INCDB_ASSIGN_OR_RETURN(Value v, ParseValueToken(tok, lineno));
    vals.push_back(std::move(v));
  }
  return vals;
}

}  // namespace

Result<ConditionPtr> ParseCondition(const std::string& text) {
  return ParseConditionLine(text, 1);
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
      std::string line;
      for (size_t i = 0; i < row.tuple.arity(); ++i) {
        if (i > 0) line += ", ";
        AppendValue(row.tuple[i], &line);
      }
      if (!row.condition->IsTrue()) {
        line += " :: " + row.condition->ToString();
      }
      out += line + "\n";
    }
    out += "\n";
  }
  return out;
}

Result<CDatabase> LoadCDatabase(const std::string& text) {
  CDatabase db;
  CTable* current = nullptr;
  bool saw_row = false;
  size_t lineno = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++lineno;
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("ctable ", 0) == 0) {
      const size_t paren = line.find('(');
      const size_t close = line.rfind(')');
      if (paren == std::string::npos || close == std::string::npos ||
          close < paren) {
        return Status::ParseError("bad ctable header on line " +
                                  std::to_string(lineno));
      }
      const std::string name = Trim(line.substr(7, paren - 7));
      if (name.empty()) {
        return Status::ParseError("missing ctable name on line " +
                                  std::to_string(lineno));
      }
      if (db.schema().HasRelation(name)) {
        return Status::ParseError("duplicate ctable '" + name + "' on line " +
                                  std::to_string(lineno));
      }
      std::vector<std::string> attrs;
      for (const std::string& a :
           Split(line.substr(paren + 1, close - paren - 1), ',')) {
        const std::string t = Trim(a);
        if (!t.empty()) attrs.push_back(t);
      }
      // Register the schema first so attribute names survive the round-trip.
      INCDB_RETURN_IF_ERROR(db.mutable_schema()->AddRelation(name, attrs));
      current = db.MutableTable(name, attrs.size());
      saw_row = false;
      continue;
    }
    if (current == nullptr) {
      return Status::ParseError("data before any ctable header on line " +
                                std::to_string(lineno));
    }
    if (line.rfind("global ", 0) == 0 || line == "global") {
      if (saw_row) {
        return Status::ParseError("global condition after rows on line " +
                                  std::to_string(lineno));
      }
      const std::string rest = line.size() > 6 ? line.substr(6) : "";
      const size_t lead = rest.find_first_not_of(" \t");
      INCDB_ASSIGN_OR_RETURN(
          ConditionPtr g,
          ParseConditionLine(Trim(rest), lineno,
                             6 + (lead == std::string::npos ? 0 : lead)));
      current->SetGlobalCondition(std::move(g));
      continue;
    }
    size_t cond_col = 0;
    const std::string cond_text = SplitConditionSuffix(&line, &cond_col);
    INCDB_ASSIGN_OR_RETURN(std::vector<Value> vals,
                           ParseRowValues(line, current->arity(), lineno));
    ConditionPtr cond = Condition::True();
    if (!cond_text.empty()) {
      INCDB_ASSIGN_OR_RETURN(cond,
                             ParseConditionLine(cond_text, lineno, cond_col));
    }
    current->AddRow(Tuple(std::move(vals)), std::move(cond));
    saw_row = true;
  }
  return db;
}

}  // namespace incdb
