#include "core/value.h"

#include <charconv>

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

void Value::AppendTo(std::string* out) const {
  char buf[24];  // "_" + UINT32_MAX, or INT64_MIN, with room to spare
  switch (kind()) {
    case Kind::kNull: {
      buf[0] = '_';
      const auto res = std::to_chars(buf + 1, buf + sizeof buf, null_id());
      out->append(buf, res.ptr);
      return;
    }
    case Kind::kInt: {
      const auto res = std::to_chars(buf, buf + sizeof buf, as_int());
      out->append(buf, res.ptr);
      return;
    }
    case Kind::kString:
      out->push_back('\'');
      for (const char c : as_str()) {
        out->push_back(c);
        if (c == '\'') out->push_back('\'');  // '' escapes a quote
      }
      out->push_back('\'');
      return;
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
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
