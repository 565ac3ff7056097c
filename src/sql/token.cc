#include "sql/token.h"

#include <set>

namespace incdb {

bool IsSqlKeyword(const std::string& upper) {
  static const std::set<std::string> kKeywords = {
      "SELECT", "DISTINCT", "FROM", "WHERE", "AND",   "OR",  "NOT",
      "IN",     "EXISTS",   "IS",   "NULL",  "AS",    "UNION",
      "COUNT",  "SUM",      "MIN",  "MAX",   "AVG",   "GROUP", "BY",
  };
  return kKeywords.count(upper) > 0;
}

}  // namespace incdb
