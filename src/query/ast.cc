#include "query/ast.h"

#include <charconv>
#include <sstream>

namespace daisy {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "";
}

std::string SelectItem::ToString() const {
  std::string inner = star ? "*" : col.ToString();
  std::string out =
      agg == AggFunc::kNone ? inner
                            : std::string(AggFuncToString(agg)) + "(" + inner + ")";
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

namespace {

// A constant as the parser reads it back: strings quoted with embedded
// quotes doubled, doubles in their shortest round-trip digits and always
// with a '.' or exponent so they re-parse as doubles, not ints.
std::string LiteralToString(const Value& v) {
  if (v.is_string()) {
    std::string out = "'";
    for (char c : v.as_string()) {
      out.push_back(c);
      if (c == '\'') out.push_back('\'');
    }
    return out + "'";
  }
  if (!v.is_double()) return v.ToString();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v.as_double_raw());
  std::string out(buf, res.ptr);
  if (out.find_first_not_of("-0123456789") == std::string::npos) {
    out += ".0";
  }
  return out;
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kCmp: {
      std::ostringstream oss;
      oss << left.ToString() << " " << CompareOpToString(op) << " ";
      if (right_is_column) {
        oss << right_col.ToString();
      } else {
        oss << LiteralToString(right_val);
      }
      return oss.str();
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::ostringstream oss;
      oss << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) oss << (kind == Kind::kAnd ? " AND " : " OR ");
        oss << children[i]->ToString();
      }
      oss << ")";
      return oss.str();
    }
  }
  return "";
}

std::string SelectStmt::ToString() const {
  std::ostringstream oss;
  oss << "SELECT ";
  for (size_t i = 0; i < select_list.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << select_list[i].ToString();
  }
  oss << " FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << tables[i];
  }
  if (where != nullptr) oss << " WHERE " << where->ToString();
  if (!group_by.empty()) {
    oss << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) oss << ", ";
      oss << group_by[i].ToString();
    }
  }
  return oss.str();
}

}  // namespace daisy
