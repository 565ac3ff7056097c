#include "core/io.h"

#include <cctype>
#include <limits>

#include "core/columnar.h"
#include "util/strings.h"

namespace incdb {

Result<Value> ReadValue(Scanner& s) {
  const char c = s.Peek();
  const size_t start = s.pos();
  if (c == '\'') {
    INCDB_ASSIGN_OR_RETURN(std::string str, s.ReadQuoted());
    return Value::Str(std::move(str));
  }
  if (c == '_') {
    s.Accept('_');
    // The digits follow the '_' directly.
    const std::string_view rest = s.rest();
    if (rest.empty() || !std::isdigit(static_cast<unsigned char>(rest[0]))) {
      return s.ErrorAt(start, "bad null id");
    }
    const Result<int64_t> id = s.ReadInt();
    if (!id.ok() || *id > std::numeric_limits<NullId>::max()) {
      return s.ErrorAt(start, "null id out of range");
    }
    return Value::Null(static_cast<NullId>(*id));
  }
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    INCDB_ASSIGN_OR_RETURN(int64_t v, s.ReadInt());
    return Value::Int(v);
  }
  return s.Error("bad value");
}

Result<std::optional<TableHeader>> ReadTableHeader(Scanner& s,
                                                   std::string_view keyword,
                                                   const Schema& schema) {
  s.SkipSpace();
  const size_t start = s.pos();
  const std::string_view line = s.rest();
  if (line.size() <= keyword.size() ||
      line.substr(0, keyword.size()) != keyword ||
      line[keyword.size()] != ' ') {
    return std::optional<TableHeader>();
  }
  // The name runs to the first '(' and the attributes to the last ')';
  // text after that is ignored.
  const size_t open = line.find('(');
  const size_t close = line.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return s.ErrorAt(start, "bad " + std::string(keyword) + " header");
  }
  TableHeader h;
  h.name =
      Trim(std::string(line.substr(keyword.size(), open - keyword.size())));
  if (h.name.empty()) {
    return s.ErrorAt(start + open, "missing " + std::string(keyword) + " name");
  }
  if (schema.HasRelation(h.name)) {
    return s.ErrorAt(start + keyword.size() + 1,
                     "duplicate " + std::string(keyword) + " '" + h.name + "'");
  }
  for (const std::string& a :
       Split(std::string(line.substr(open + 1, close - open - 1)), ',')) {
    std::string t = Trim(a);
    if (!t.empty()) h.attributes.push_back(std::move(t));
  }
  return std::optional<TableHeader>(std::move(h));
}

Result<std::vector<Value>> ReadRow(Scanner& s, size_t arity) {
  std::vector<Value> vals;
  vals.reserve(arity);
  size_t extra = 0;  // offset of the first value past `arity`
  do {
    s.SkipSpace();
    if (vals.size() == arity) extra = s.pos();
    INCDB_ASSIGN_OR_RETURN(Value v, ReadValue(s));
    vals.push_back(std::move(v));
  } while (s.Accept(','));
  if (vals.size() != arity) {
    const std::string msg = "expected " + std::to_string(arity) +
                            " values, got " + std::to_string(vals.size());
    return vals.size() > arity ? s.ErrorAt(extra, msg) : s.Error(msg);
  }
  return vals;
}

Status ForEachDumpLine(std::string_view text,
                       const std::function<Status(Scanner&)>& fn) {
  size_t lineno = 0;
  while (!text.empty()) {
    ++lineno;
    const size_t nl = text.find('\n');
    Scanner s(text.substr(0, nl), "line", lineno);
    text = nl == std::string_view::npos ? std::string_view()
                                        : text.substr(nl + 1);
    if (s.AtEnd() || s.Peek() == '#') continue;
    INCDB_RETURN_IF_ERROR(fn(s));
  }
  return Status::OK();
}

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
      for (size_t i = 0; i < t.arity(); ++i) {
        if (i > 0) out += ", ";
        t[i].AppendTo(&out);
      }
      out += "\n";
    }
    out += "\n";
  }
  return out;
}

void AppendRows(const Relation& r, std::string* out) {
  const ColumnarRelation* cols = r.ColumnarIfBuilt();
  if (cols == nullptr) {
    for (const Tuple& t : r.tuples()) {
      out->append("| ");
      t.AppendTo(out);
      out->push_back('\n');
    }
    return;
  }
  const std::vector<Value>& values = cols->dict().values;
  const size_t arity = cols->arity();
  out->reserve(out->size() + cols->rows() * (5 + 8 * arity));
  for (size_t row = 0; row < cols->rows(); ++row) {
    out->append("| (", 3);
    for (size_t c = 0; c < arity; ++c) {
      if (c > 0) out->append(", ", 2);
      values[cols->col(c)[row]].AppendTo(out);
    }
    out->append(")\n", 2);
  }
}

Result<Database> LoadDatabase(const std::string& text) {
  Database db;
  std::string current_table;
  size_t current_arity = 0;
  INCDB_RETURN_IF_ERROR(ForEachDumpLine(text, [&](Scanner& s) -> Status {
    INCDB_ASSIGN_OR_RETURN(std::optional<TableHeader> header,
                           ReadTableHeader(s, "table", db.schema()));
    if (header) {
      current_table = header->name;
      current_arity = header->attributes.size();
      INCDB_RETURN_IF_ERROR(
          db.mutable_schema()->AddRelation(current_table, header->attributes));
      db.MutableRelation(current_table, current_arity);
      return Status::OK();
    }
    if (current_table.empty()) return s.Error("data before any table header");
    INCDB_ASSIGN_OR_RETURN(std::vector<Value> vals, ReadRow(s, current_arity));
    if (!s.AtEnd()) return s.Error("expected ','");
    db.AddTuple(current_table, Tuple(std::move(vals)));
    return Status::OK();
  }));
  return db;
}

}  // namespace incdb
