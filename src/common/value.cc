#include "common/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace daisy {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

// Rank used only to order values of incomparable type classes.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

// Exact three-way comparison of an int64 against a double, without
// widening the int (which rounds beyond 2^53). NaN compares equal to
// nothing and unordered to everything (0 here, never Equals).
int CompareIntDouble(int64_t a, double b) {
  if (std::isnan(b)) return 0;
  // [-2^63, 2^63) is exactly the int64 range; both bounds are doubles.
  if (b < -9223372036854775808.0) return 1;
  if (b >= 9223372036854775808.0) return -1;
  const double whole = std::trunc(b);
  const int64_t t = static_cast<int64_t>(whole);
  if (a != t) return a < t ? -1 : 1;
  const double frac = b - whole;  // exact in IEEE arithmetic
  return frac > 0 ? -1 : (frac < 0 ? 1 : 0);
}

}  // namespace

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    if (is_double() && other.is_double()) {
      return as_double_raw() == other.as_double_raw();
    }
    const double d = is_double() ? as_double_raw() : other.as_double_raw();
    const int64_t i = is_int() ? as_int() : other.as_int();
    return !std::isnan(d) && CompareIntDouble(i, d) == 0;
  }
  if (is_string() && other.is_string()) return as_string() == other.as_string();
  return false;
}

int Value::Compare(const Value& other) const {
  const int lr = TypeRank(type());
  const int rr = TypeRank(other.type());
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (lr) {
    case 0:
      return 0;  // null == null
    case 1: {
      if (is_int() && other.is_int()) {
        const int64_t a = as_int();
        const int64_t b = other.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      if (is_int()) return CompareIntDouble(as_int(), other.as_double_raw());
      if (other.is_int()) {
        return -CompareIntDouble(other.as_int(), as_double_raw());
      }
      const double a = as_double_raw();
      const double b = other.as_double_raw();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const int c = as_string().compare(other.as_string());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
      return std::hash<int64_t>{}(as_int());
    case ValueType::kDouble: {
      // Integral doubles in int64 range hash like the corresponding int so
      // that mixed int/double columns hash consistently with Equals.
      const double d = as_double_raw();
      const double rounded = std::nearbyint(d);
      if (rounded == d && d >= -9223372036854775808.0 &&
          d < 9223372036854775808.0) {
        return std::hash<int64_t>{}(static_cast<int64_t>(rounded));
      }
      return std::hash<double>{}(d);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(as_string());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kDouble: {
      std::ostringstream oss;
      oss << as_double_raw();
      return oss.str();
    }
    case ValueType::kString:
      return as_string();
  }
  return "";
}

Result<Value> Value::Parse(const std::string& text, ValueType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("cannot parse int from '" + text + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("cannot parse double from '" + text + "'");
      }
      if (std::isnan(v)) {
        return Status::ParseError("NaN is not a value: '" + text + "'");
      }
      return Value(v);
    }
    case ValueType::kString:
      return Value(text);
  }
  return Status::ParseError("unknown value type");
}

}  // namespace daisy
