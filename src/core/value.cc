#include "core/value.h"

namespace incdb {

std::strong_ordering Value::operator<=>(const Value& o) const {
  if (kind() != o.kind()) {
    return static_cast<int>(kind()) <=> static_cast<int>(o.kind());
  }
  switch (kind()) {
    case Kind::kNull:
      return null_id() <=> o.null_id();
    case Kind::kInt:
      return as_int() <=> o.as_int();
    case Kind::kString:
      return as_str().compare(o.as_str()) <=> 0;
  }
  return std::strong_ordering::equal;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "_" + std::to_string(null_id());
    case Kind::kInt:
      return std::to_string(as_int());
    case Kind::kString: {
      std::string out = "'";
      for (const char c : as_str()) {
        out += c;
        if (c == '\'') out += '\'';  // '' escapes a quote
      }
      return out + "'";
    }
  }
  return "?";
}

size_t Value::Hash() const {
  size_t h = 0;
  switch (kind()) {
    case Kind::kNull:
      h = std::hash<uint64_t>{}(0x9E3779B97F4A7C15ull ^ null_id());
      break;
    case Kind::kInt:
      h = std::hash<int64_t>{}(as_int());
      break;
    case Kind::kString:
      h = std::hash<std::string>{}(as_str());
      break;
  }
  return h * 3 + static_cast<size_t>(kind());
}

}  // namespace incdb
