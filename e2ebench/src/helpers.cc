#include "helpers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace e2e {

// ------------------------------------------------------------- percentiles --

Percentile NamedPercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || q <= 0 || q >= 1) return p;
  const size_t n = samples.size();
  // Nearest rank, computed in integer per-mille to dodge q*n rounding
  // (0.9 * 100 must give rank 90, not 91).
  const uint64_t permille = static_cast<uint64_t>(std::llround(q * 1000));
  const size_t rank = static_cast<size_t>((permille * n + 999) / 1000);
  p.above = n - rank;
  if (rank == 0 || p.above < kMinSamplesAbove) return p;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.supported = true;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------------------- spans --

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent,
                        uint64_t op_id) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.op_id = op_id;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) { spans_[index].end_ns = NowNs(); }

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of the children's intervals clipped to [lo, hi].
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [a0, b0] : iv) {
      const int64_t a = std::max(a0, lo);
      const int64_t b = std::min(b0, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// ------------------------------------------------------------ plan parsing --

namespace {

bool ParseUintField(const std::string& line, const char* key, uint64_t* out) {
  // Matches " key=" so that "rows=" never matches inside "est_rows=".
  const std::string needle = std::string(" ") + key + "=";
  const size_t pos = line.rfind(needle);
  if (pos == std::string::npos) return false;
  const char* p = line.c_str() + pos + needle.size();
  if (*p < '0' || *p > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(p, &end, 10);
  return true;
}

/// Splits leading two-space indentation off `line`.
int Depth(const std::string& line, std::string* rest) {
  size_t i = 0;
  while (i + 1 < line.size() && line[i] == ' ' && line[i + 1] == ' ') i += 2;
  *rest = line.substr(i);
  return static_cast<int>(i / 2);
}

std::string FirstWord(const std::string& s) {
  const size_t sp = s.find(' ');
  return sp == std::string::npos ? s : s.substr(0, sp);
}

/// Computes self_us for a pre-order list: a node's children are the
/// following lines one level deeper, up to the next line at its own depth
/// or shallower.
void FillSelfTimes(std::vector<PlanLine>* lines) {
  for (size_t i = 0; i < lines->size(); ++i) {
    PlanLine& node = (*lines)[i];
    uint64_t kids = 0;
    for (size_t j = i + 1;
         j < lines->size() && (*lines)[j].depth > node.depth; ++j) {
      if ((*lines)[j].depth == node.depth + 1) {
        kids += (*lines)[j].inclusive_us();
      }
    }
    node.self_us =
        node.inclusive_us() > kids ? node.inclusive_us() - kids : 0;
  }
}

}  // namespace

bool ParseAnalyzePage(const std::string& text, AnalyzePage* page,
                      std::string* error) {
  page->plan.clear();
  page->trace.clear();
  std::istringstream in(text);
  std::string line;
  bool in_trace = false;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line == "trace:") {
      in_trace = true;
      continue;
    }
    PlanLine node;
    std::string rest;
    node.depth = Depth(line, &rest);
    node.kind = FirstWord(rest);
    if (in_trace) {
      const size_t cut = rest.rfind(" open_us=");
      if (cut == std::string::npos ||
          !ParseUintField(rest, "open_us", &node.open_us) ||
          !ParseUintField(rest, "next_us", &node.next_us) ||
          !ParseUintField(rest, "rows", &node.rows)) {
        *error = "malformed trace line " + std::to_string(lineno) + ": " + line;
        return false;
      }
      node.label = rest.substr(0, cut);
      page->trace.push_back(std::move(node));
    } else {
      uint64_t est = 0;
      if (ParseUintField(rest, "est_rows", &est)) {
        node.est_rows = static_cast<double>(est);
      }
      if (!ParseUintField(rest, "rows", &node.rows)) {
        *error = "plan line without rows= at line " + std::to_string(lineno) +
                 ": " + line;
        return false;
      }
      node.switched_to_full =
          rest.find(" switched-to-full") != std::string::npos;
      const size_t cut = rest.find(" est_rows=");
      node.label = rest.substr(
          0, cut != std::string::npos ? cut : rest.rfind(" rows="));
      page->plan.push_back(std::move(node));
    }
  }
  if (!in_trace || page->trace.empty()) {
    *error = "no trace: section";
    return false;
  }
  FillSelfTimes(&page->trace);
  return true;
}

double QError(double est_rows, double actual_rows) {
  const double e = std::max(1.0, est_rows);
  const double a = std::max(1.0, actual_rows);
  return std::max(e, a) / std::min(e, a);
}

// ---------------------------------------------------------------- checksum --

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // splitmix64 finaliser over the running state.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t RowHash(const std::vector<daisy::Value>& row) {
  uint64_t h = 0x1234567887654321ULL;
  for (const daisy::Value& v : row) {
    h = Mix(h, static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case daisy::ValueType::kNull:
        break;
      case daisy::ValueType::kInt:
        h = Mix(h, static_cast<uint64_t>(v.as_int()));
        break;
      case daisy::ValueType::kDouble: {
        const double d = v.as_double_raw();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        h = Mix(h, bits);
        break;
      }
      case daisy::ValueType::kString:
        for (unsigned char c : v.as_string()) h = Mix(h, c);
        h = Mix(h, v.as_string().size());
        break;
    }
  }
  return h;
}

// -------------------------------------------------------------------- json --

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shortest form that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace e2e
