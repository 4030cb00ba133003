// e2e_bench: end-to-end benchmark of daisyd, run through e2ebench/run.py.
//
//   e2e_bench --workload <ssb_explore|dc_ingest> --seed N --seconds S
//             --trace <0|1> [--work-dir DIR]
//
// Untraced leg: the workload's seeded op stream runs through a real
// DaisyServer on a unix socket, driven by DaisyClient connections of this
// process (closed loop, one thread per connection, server worker_threads =
// connections). Every pass sets the server up from scratch (table load,
// Prepare, EnablePersistence, Start), runs the stream once, stops the
// server and recovers the data dir with DaisyEngine::Open. Passes repeat
// until S seconds have passed and every named percentile has its samples.
//
// Traced leg (--trace 1): one more pass of the same stream, in-process
// against a fresh engine with the same options, with a span around every
// public call the benchmark makes (see README.md for the span names).
//
// Output: human-readable report lines, then as the last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit code 0 on success; 1 on a failed output check or a refused
// percentile; 2 on bad usage or a DAISY_* override in the environment.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/binary_io.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "constraints/denial_constraint.h"
#include "datagen/ssb.h"
#include "detect/theta_join.h"
#include "helpers.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace e2e {
namespace {

using daisy::DaisyEngine;
using daisy::DaisyOptions;
using daisy::MetricsRegistry;
using daisy::Result;
using daisy::Status;
using daisy::Table;
using daisy::Value;
using daisy::server::DaisyClient;
using daisy::server::DaisyServer;
using Row = std::vector<Value>;
namespace fs = std::filesystem;
using Batch = std::vector<Row>;

// ------------------------------------------------------------- workloads --

// ssb_explore: lineorder / supplier / part / date / customer under
// FD orderkey -> suppkey and FD address -> suppkey; one analyst
// connection runs a stream of Q1 (wide) and Q2/Q3 (aggregate) queries
// over sliding suppkey windows with seeded revisits.
constexpr size_t kSsbLineorderRows = 4000;  // 20 lines per order
constexpr size_t kSsbOrderkeys = 200;
constexpr int64_t kSsbSuppkeys = 40;
constexpr size_t kSsbSuppliers = 200;     // 5 rows per address
constexpr int64_t kSsbPartkeys = 200;
constexpr int64_t kSsbCustkeys = 100;
constexpr int64_t kSsbDates = 365;
constexpr int kSsbWindow = 3;            // suppkeys per query window
constexpr size_t kSsbRevisitEvery = 3;   // a revisit after every 3rd window

// dc_ingest: emp(salary, tax, dept) under the running DC; one reader
// connection (salary-window SUM(tax) GROUP BY dept) and two writer
// connections appending small durable batches; one Checkpoint mid-pass.
constexpr size_t kDcBaseRows = 5000;
constexpr size_t kDcDepts = 10;
constexpr double kDcErrorFraction = 0.01;
constexpr double kDcWindow = 5000;       // salary window width
constexpr size_t kDcWriters = 2;
constexpr size_t kDcBatchRows = 8;
constexpr size_t kDcAppendsPerWriter = 60;
constexpr size_t kDcReaderQueries = 60;
const char* const kDcRule =
    "dc: !(t1.salary < t2.salary & t1.tax > t2.tax)";

enum class QueryClass { kWide, kAgg };

struct QueryOp {
  std::string sql;
  QueryClass cls = QueryClass::kAgg;
};

struct RuleDef {
  std::string text;
  std::string table;
};

/// Everything a pass feeds the program, generated from the seed alone.
struct Inputs {
  std::string workload;
  std::vector<Table> tables;
  std::vector<RuleDef> rules;
  std::vector<QueryOp> reader;         ///< the query connection's stream
  std::vector<std::vector<Batch>> writers;  ///< per writer connection
  std::string append_table;
  size_t checkpoint_after = 0;         ///< 0 = no Checkpoint
  std::string final_query;             ///< asked live and after recovery
  uint64_t digest = 0;                 ///< hash of all of the above
  size_t total_rows() const {
    size_t n = 0;
    for (const Table& t : tables) n += t.num_rows();
    return n;
  }
  size_t connections() const { return 1 + writers.size(); }
};

std::string SsbQ1(int lo, int hi) {
  char sql[640];
  std::snprintf(sql, sizeof(sql),
                "SELECT lineorder.orderkey, lineorder.linenumber, "
                "lineorder.custkey, lineorder.partkey, lineorder.suppkey, "
                "lineorder.orderdate, lineorder.quantity, lineorder.revenue, "
                "supplier.name, supplier.city, supplier.nation "
                "FROM lineorder, supplier "
                "WHERE lineorder.suppkey = supplier.suppkey AND "
                "lineorder.suppkey >= %d AND lineorder.suppkey <= %d",
                lo, hi);
  return sql;
}

std::string SsbQ2(int lo, int hi) {
  char sql[768];
  std::snprintf(sql, sizeof(sql),
                "SELECT date.year, part.brand, SUM(lineorder.revenue) AS rev "
                "FROM lineorder, supplier, part, date "
                "WHERE lineorder.suppkey = supplier.suppkey AND "
                "lineorder.partkey = part.partkey AND "
                "lineorder.orderdate = date.datekey AND "
                "lineorder.suppkey >= %d AND lineorder.suppkey <= %d "
                "GROUP BY date.year, part.brand",
                lo, hi);
  return sql;
}

std::string SsbQ3(int lo, int hi) {
  char sql[1024];
  std::snprintf(sql, sizeof(sql),
                "SELECT date.year, customer.nation, "
                "SUM(lineorder.revenue) AS rev "
                "FROM lineorder, supplier, part, date, customer "
                "WHERE lineorder.suppkey = supplier.suppkey AND "
                "lineorder.partkey = part.partkey AND "
                "lineorder.orderdate = date.datekey AND "
                "lineorder.custkey = customer.custkey AND "
                "lineorder.suppkey >= %d AND lineorder.suppkey <= %d "
                "GROUP BY date.year, customer.nation",
                lo, hi);
  return sql;
}

std::string DcQuery(double lo, double hi) {
  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "SELECT dept, SUM(tax) AS total_tax FROM emp "
                "WHERE salary >= %.2f AND salary <= %.2f GROUP BY dept",
                lo, hi);
  return sql;
}

/// A seeded permutation of 0..n-1.
std::vector<int64_t> Permutation(daisy::Rng* rng, size_t n) {
  std::vector<int64_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<int64_t>(i);
  rng->Shuffle(&p);
  return p;
}

/// lineorder as daisy::GenerateLineorder builds it (same schema, 20 lines
/// per order, 80% of the orders get 10% of their suppkeys replaced by
/// out-of-domain typos), except that every suppkey owns the same number of
/// orders and of dirty orders, so that every suppkey window holds the same
/// amount of work whatever the seed; the seed places values and errors.
Table SsbLineorder(uint64_t seed) {
  daisy::Rng rng(seed);
  Table t("lineorder",
          daisy::Schema({{"orderkey", daisy::ValueType::kInt},
                         {"linenumber", daisy::ValueType::kInt},
                         {"custkey", daisy::ValueType::kInt},
                         {"partkey", daisy::ValueType::kInt},
                         {"suppkey", daisy::ValueType::kInt},
                         {"orderdate", daisy::ValueType::kInt},
                         {"quantity", daisy::ValueType::kInt},
                         {"extended_price", daisy::ValueType::kDouble},
                         {"discount", daisy::ValueType::kDouble},
                         {"revenue", daisy::ValueType::kDouble}}));
  const std::vector<int64_t> perm = Permutation(&rng, kSsbOrderkeys);
  std::vector<std::vector<daisy::RowId>> rows_of(kSsbOrderkeys);
  t.Reserve(kSsbLineorderRows);
  for (size_t i = 0; i < kSsbLineorderRows; ++i) {
    const size_t ok = i % kSsbOrderkeys;
    const double price = rng.UniformDouble(1000.0, 100000.0);
    const double discount = std::floor(price / 100000.0 * 10.0) / 100.0;
    Row row{Value(static_cast<int64_t>(ok)),
            Value(static_cast<int64_t>(i / kSsbOrderkeys) + 1),
            Value(rng.UniformInt(0, kSsbCustkeys - 1)),
            Value(rng.UniformInt(0, kSsbPartkeys - 1)),
            Value(perm[ok] % static_cast<int64_t>(kSsbSuppkeys)),
            Value(rng.UniformInt(0, kSsbDates - 1)),
            Value(rng.UniformInt(1, 50)),
            Value(price),
            Value(discount),
            Value(price * (1.0 - discount))};
    if (!t.AppendRow(std::move(row)).ok()) std::abort();
    rows_of[ok].push_back(i);
  }
  // Orders of suppkey k are perm^-1 of {k, k + 40, ...}; 4 of each
  // suppkey's 5 orders are dirty.
  std::vector<std::vector<size_t>> orders_of(kSsbSuppkeys);
  for (size_t ok = 0; ok < kSsbOrderkeys; ++ok) {
    orders_of[perm[ok] % kSsbSuppkeys].push_back(ok);
  }
  int64_t typo = kSsbSuppkeys;
  for (const std::vector<size_t>& orders : orders_of) {
    for (size_t o : rng.SampleWithoutReplacement(orders.size(),
                                                 orders.size() * 4 / 5)) {
      const std::vector<daisy::RowId>& group = rows_of[orders[o]];
      for (size_t pick :
           rng.SampleWithoutReplacement(group.size(), group.size() / 10)) {
        t.mutable_cell(group[pick], 4) = daisy::Cell(Value(typo++));
      }
    }
  }
  return t;
}

/// supplier as daisy::GenerateSupplier builds it (same schema, FD
/// address -> suppkey with in-domain wrong suppkeys), except that the
/// addresses map one-to-one onto the suppkeys and every address has one of
/// its 5 rows point at the next suppkey of a seeded cycle, so every suppkey
/// matches the same number of supplier rows before and after repair.
Table SsbSupplier(uint64_t seed) {
  daisy::Rng rng(seed);
  Table t("supplier", daisy::Schema({{"suppkey", daisy::ValueType::kInt},
                                     {"name", daisy::ValueType::kString},
                                     {"address", daisy::ValueType::kString},
                                     {"city", daisy::ValueType::kString},
                                     {"nation", daisy::ValueType::kString}}));
  static const char* kCities[] = {"Los Angeles", "San Francisco", "New York",
                                  "Chicago",     "Boston",        "Seattle"};
  static const char* kNations[] = {"US", "FR", "DE", "JP", "BR"};
  const std::vector<int64_t> addr_to_supp = Permutation(&rng, kSsbSuppkeys);
  std::vector<std::vector<daisy::RowId>> rows_of(kSsbSuppkeys);
  for (size_t i = 0; i < kSsbSuppliers; ++i) {
    const size_t a = i % kSsbSuppkeys;
    Row row{Value(addr_to_supp[a]),
            Value("Supplier#" + std::to_string(addr_to_supp[a])),
            Value("addr_" + std::to_string(a)),
            Value(std::string(kCities[a % 6])),
            Value(std::string(kNations[a % 5]))};
    if (!t.AppendRow(std::move(row)).ok()) std::abort();
    rows_of[a].push_back(i);
  }
  const std::vector<int64_t> cycle = Permutation(&rng, kSsbSuppkeys);
  std::vector<int64_t> next_of(kSsbSuppkeys);
  for (int64_t i = 0; i < kSsbSuppkeys; ++i) {
    next_of[cycle[i]] = cycle[(i + 1) % kSsbSuppkeys];
  }
  for (size_t a = 0; a < static_cast<size_t>(kSsbSuppkeys); ++a) {
    const std::vector<daisy::RowId>& group = rows_of[a];
    const daisy::RowId r = group[rng.UniformInt(0, group.size() - 1)];
    t.mutable_cell(r, 0) = daisy::Cell(Value(next_of[addr_to_supp[a]]));
  }
  return t;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  return h * 31 + RowHash({Value(s)});
}

void DigestInputs(Inputs* in) {
  uint64_t h = HashString(0, in->workload);
  for (const Table& t : in->tables) {
    h = HashString(h, t.name());
    for (daisy::RowId r = 0; r < t.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        row.push_back(t.cell(r, c).original());
      }
      h = h * 31 + RowHash(row);
    }
  }
  for (const RuleDef& r : in->rules) {
    h = HashString(HashString(h, r.text), r.table);
  }
  for (const QueryOp& q : in->reader) h = HashString(h, q.sql);
  for (const auto& w : in->writers) {
    for (const Batch& b : w) {
      for (const Row& row : b) h = h * 31 + RowHash(row);
    }
  }
  h = HashString(h, in->final_query);
  in->digest = h;
}

Inputs MakeSsbInputs(uint64_t seed) {
  Inputs in;
  in.workload = "ssb_explore";
  in.tables.push_back(SsbLineorder(seed));
  in.tables.push_back(SsbSupplier(seed + 1));
  in.tables.push_back(daisy::GeneratePart(kSsbPartkeys, seed + 2));
  in.tables.push_back(daisy::GenerateDate(kSsbDates, seed + 3));
  in.tables.push_back(daisy::GenerateCustomer(kSsbCustkeys, seed + 4));
  in.rules = {{"phi: FD orderkey -> suppkey", "lineorder"},
              {"psi: FD address -> suppkey", "supplier"}};

  // The window slides one suppkey at a time over the whole key domain,
  // upward from suppkey 0; each window gets Q1, Q2 and Q3 in seeded order,
  // and after every kSsbRevisitEvery-th window one query of a seeded class
  // revisits a seeded earlier window. Every pass thus sees every window
  // and class, and result sizes grow in the same order for every seed
  // (a seeded start made the allocator's state, and with it the run time,
  // depend on where the sweep began).
  daisy::Rng rng(seed * 7919 + 17);
  const int windows = static_cast<int>(kSsbSuppkeys) - kSsbWindow + 1;
  auto add = [&](int cls, int lo) {
    const int hi = lo + kSsbWindow - 1;
    switch (cls) {
      case 0: in.reader.push_back({SsbQ1(lo, hi), QueryClass::kWide}); break;
      case 1: in.reader.push_back({SsbQ2(lo, hi), QueryClass::kAgg}); break;
      default: in.reader.push_back({SsbQ3(lo, hi), QueryClass::kAgg}); break;
    }
  };
  std::vector<int> visited;
  for (int lo = 0; lo < windows; ++lo) {
    std::vector<int> classes = {0, 1, 2};
    rng.Shuffle(&classes);
    for (int cls : classes) add(cls, lo);
    visited.push_back(lo);
    if (visited.size() % kSsbRevisitEvery == 0) {
      add(static_cast<int>(rng.UniformInt(0, 2)),
          visited[rng.UniformInt(0, static_cast<int64_t>(visited.size()) - 1)]);
    }
  }
  in.final_query = SsbQ2(0, static_cast<int>(kSsbSuppkeys) - 1);
  DigestInputs(&in);
  return in;
}

/// Seeded order of `k` strata, each with a seeded offset inside: the
/// i-th draw is uniform in stratum order[i] of [lo, hi).
std::vector<double> Stratified(daisy::Rng* rng, size_t k, double lo,
                               double hi) {
  std::vector<size_t> order(k);
  for (size_t i = 0; i < k; ++i) order[i] = i;
  rng->Shuffle(&order);
  std::vector<double> out;
  const double width = (hi - lo) / static_cast<double>(k);
  for (size_t slot : order) {
    out.push_back(lo + (static_cast<double>(slot) + rng->UniformDouble(0, 1)) *
                           width);
  }
  return out;
}

/// Draws `n` emp rows with tax = salary / 200000, except that exactly
/// round(n * kDcErrorFraction) rows, at seeded positions, get a tax bump
/// that breaks the DC. The dirty rows' salaries and bumps are stratified so
/// that every seed has about as many violating pairs. Salaries are unique
/// across the whole input (a row's original values identify it in the
/// recovery check).
std::vector<Row> DcRows(daisy::Rng* rng, size_t n, std::set<double>* salaries) {
  const size_t errors = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * kDcErrorFraction + 0.5));
  const std::vector<double> dirty_salary =
      Stratified(rng, errors, 1000, 100000);
  const std::vector<double> bump = Stratified(rng, errors, 0.1, 0.5);
  std::vector<int> dirty(n, -1);
  size_t d = 0;
  for (size_t i : rng->SampleWithoutReplacement(n, errors)) dirty[i] = d++;
  std::vector<Row> rows(n);
  for (size_t i = 0; i < n; ++i) {
    double salary = dirty[i] >= 0 ? dirty_salary[dirty[i]]
                                  : rng->UniformDouble(1000, 100000);
    while (!salaries->insert(salary).second) {
      salary = rng->UniformDouble(1000, 100000);
    }
    double tax = salary / 200000.0;
    if (dirty[i] >= 0) tax += bump[dirty[i]];
    const int64_t dept = rng->UniformInt(0, kDcDepts - 1);
    rows[i] = {Value(salary), Value(tax), Value(dept)};
  }
  return rows;
}

Inputs MakeDcInputs(uint64_t seed) {
  Inputs in;
  in.workload = "dc_ingest";
  std::set<double> salaries;
  daisy::Rng base_rng(seed);
  Table emp("emp", daisy::Schema({{"salary", daisy::ValueType::kDouble},
                                  {"tax", daisy::ValueType::kDouble},
                                  {"dept", daisy::ValueType::kInt}}));
  emp.Reserve(kDcBaseRows);
  for (Row& row : DcRows(&base_rng, kDcBaseRows, &salaries)) {
    if (!emp.AppendRow(std::move(row)).ok()) std::abort();
  }
  in.tables.push_back(std::move(emp));
  in.rules = {{kDcRule, "emp"}};
  in.append_table = "emp";
  for (size_t w = 0; w < kDcWriters; ++w) {
    daisy::Rng rng(seed * 104729 + 1000 + w);
    std::vector<Row> rows =
        DcRows(&rng, kDcAppendsPerWriter * kDcBatchRows, &salaries);
    std::vector<Batch> batches(kDcAppendsPerWriter);
    for (size_t r = 0; r < rows.size(); ++r) {
      batches[r / kDcBatchRows].push_back(std::move(rows[r]));
    }
    in.writers.push_back(std::move(batches));
  }
  // Stratified windows: one stratum of the salary range per query.
  daisy::Rng qrng(seed * 15485863 + 3);
  for (double lo :
       Stratified(&qrng, kDcReaderQueries, 1000, 100000 - kDcWindow)) {
    in.reader.push_back({DcQuery(lo, lo + kDcWindow), QueryClass::kAgg});
  }
  in.checkpoint_after = kDcReaderQueries / 2;
  in.final_query = "SELECT dept, SUM(tax) AS total_tax, SUM(salary) AS total "
                   "FROM emp GROUP BY dept";
  DigestInputs(&in);
  return in;
}

// ------------------------------------------------------------- utilities --

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "[e2e_bench] %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Unwrap(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

/// (all, steal) CPU jiffies from /proc/stat: the host's CPU steal during a
/// run is printed so that noisy runs can be recognised.
std::pair<double, double> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, v = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Heap bytes in use (freed memory the allocator keeps does not count, so
/// deltas are not hidden by reuse of earlier passes' pages).
double HeapBytesInUse() {
  return static_cast<double>(mallinfo2().uordblks);
}

std::string FilesystemOf(const std::string& path) {
  struct statfs sf;
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<uint64_t>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                    static_cast<uint64_t>(sf.f_type));
      return buf;
    }
  }
}

/// Newest file in `dir` named <prefix>NNNNNN<suffix> (empty if none).
std::string NewestFile(const std::string& dir, const std::string& prefix,
                       const std::string& suffix) {
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        name > best) {
      best = name;
    }
  }
  return best.empty() ? best : dir + "/" + best;
}

/// A result's row count and order-insensitive checksum.
struct ResultSig {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const ResultSig& o) const {
    return rows == o.rows && checksum == o.checksum;
  }
  bool operator!=(const ResultSig& o) const { return !(*this == o); }
};

ResultSig SigOfRows(const std::vector<Row>& rows) {
  ResultSig s;
  s.rows = rows.size();
  for (const Row& r : rows) s.checksum += RowHash(r);
  return s;
}

/// What the server streams for a result: each cell's most probable value.
std::vector<Row> MostProbableRows(const Table& result) {
  std::vector<Row> rows(result.num_rows());
  for (daisy::RowId r = 0; r < result.num_rows(); ++r) {
    rows[r].reserve(result.num_columns());
    for (size_t c = 0; c < result.num_columns(); ++c) {
      rows[r].push_back(result.cell(r, c).MostProbable());
    }
  }
  return rows;
}

/// Registry counter / histogram deltas between two snapshots.
struct RegistryDelta {
  MetricsRegistry::Snapshot before;
  MetricsRegistry::Snapshot after;
  void Begin() { before = MetricsRegistry::Global().TakeSnapshot(); }
  void End() { after = MetricsRegistry::Global().TakeSnapshot(); }
  double Counter(const std::string& name) const {
    auto get = [&](const MetricsRegistry::Snapshot& s) -> double {
      auto it = s.counters.find(name);
      return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return get(after) - get(before);
  }
  /// (sum delta, count delta) of a histogram.
  std::pair<double, double> Hist(const std::string& name) const {
    auto get = [&](const MetricsRegistry::Snapshot& s) {
      auto it = s.histograms.find(name);
      return it == s.histograms.end()
                 ? std::pair<double, double>(0, 0)
                 : std::pair<double, double>(
                       static_cast<double>(it->second.sum),
                       static_cast<double>(it->second.count));
    };
    auto a = get(after);
    auto b = get(before);
    return {a.first - b.first, a.second - b.second};
  }
};

// ----------------------------------------------------------------- set-up --

struct SetupTimes {
  double load_s = 0;
  double prepare_s = 0;
  double enable_s = 0;
  double start_s = 0;
  double total() const { return load_s + prepare_s + enable_s + start_s; }
};

/// One deployment: database, engine with persistence, optional server.
struct Deployment {
  daisy::Database db;
  std::unique_ptr<DaisyEngine> engine;
  std::unique_ptr<DaisyServer> server;
};

/// Runs `fn` inside a span when a recorder is given; returns seconds.
double Timed(SpanRecorder* rec, const char* name,
             const std::function<void()>& fn) {
  const int span = rec != nullptr ? rec->Begin(name, -1, 0) : -1;
  const int64_t t0 = NowNs();
  fn();
  const double s = SecondsSince(t0);
  if (rec != nullptr) rec->End(span);
  return s;
}

/// Table load + Prepare + EnablePersistence (+ server start when
/// `socket` is non-empty). Copying the generated tables is input
/// generation and stays outside the timings. `load_heap_bytes` gets the
/// heap the copied tables plus Prepare hold.
SetupTimes Setup(const Inputs& in, const std::string& dir,
                 const std::string& socket, Deployment* dep,
                 SpanRecorder* rec, double* load_heap_bytes) {
  SetupTimes t;
  const double heap0 = HeapBytesInUse();
  std::vector<Table> copies = in.tables;
  t.load_s = Timed(rec, "storage.load", [&] {
    for (Table& table : copies) {
      CheckOk(dep->db.AddTable(std::move(table)), "AddTable");
    }
  });
  t.prepare_s = Timed(rec, "clean.prepare", [&] {
    daisy::ConstraintSet rules;
    for (const RuleDef& r : in.rules) {
      const Table* table = Unwrap(dep->db.GetTable(r.table), "GetTable");
      CheckOk(rules.AddFromText(r.text, r.table, table->schema()), r.text);
    }
    dep->engine = std::make_unique<DaisyEngine>(&dep->db, std::move(rules),
                                                DaisyOptions{});
    CheckOk(dep->engine->Prepare(), "Prepare");
  });
  if (load_heap_bytes != nullptr) *load_heap_bytes = HeapBytesInUse() - heap0;
  t.enable_s = Timed(rec, "persist.enable", [&] {
    CheckOk(dep->engine->EnablePersistence(dir), "EnablePersistence");
  });
  if (!socket.empty()) {
    t.start_s = Timed(rec, "server.start", [&] {
      daisy::server::ServerOptions options;
      options.unix_path = socket;
      options.worker_threads = in.connections();
      dep->server = std::make_unique<DaisyServer>(dep->engine.get(), options);
      CheckOk(dep->server->Start(), "DaisyServer::Start");
    });
  }
  return t;
}

/// Result of recovering a data dir: the Open time and the answer to the
/// workload's final query.
struct Recovery {
  double open_s = 0;
  ResultSig final_answer;
  std::string check_error;  ///< empty = the acked-rows check passed
};

/// Every row the writers got an Ack for must be in the recovered table
/// exactly once (by original values), and nothing else beyond the base.
std::string CheckAckedRows(const Inputs& in, const Table& table,
                           const std::vector<const Batch*>& acked) {
  if (in.append_table.empty()) return "";
  std::map<uint64_t, int> expected;
  size_t want = 0;
  for (const Table& t : in.tables) {
    if (t.name() != in.append_table) continue;
    for (daisy::RowId r = 0; r < t.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        row.push_back(t.cell(r, c).original());
      }
      ++expected[RowHash(row)];
      ++want;
    }
  }
  for (const Batch* b : acked) {
    for (const Row& row : *b) {
      ++expected[RowHash(row)];
      ++want;
    }
  }
  if (table.num_live_rows() != want) {
    return "recovered " + in.append_table + " has " +
           std::to_string(table.num_live_rows()) + " live rows, expected " +
           std::to_string(want);
  }
  for (daisy::RowId r = 0; r < table.num_rows(); ++r) {
    if (!table.is_live(r)) continue;
    Row row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.cell(r, c).original());
    }
    auto it = expected.find(RowHash(row));
    if (it == expected.end() || it->second == 0) {
      return "recovered row " + std::to_string(r) +
             " is not an acked row or appears twice";
    }
    --it->second;
  }
  return "";
}

Recovery Recover(const Inputs& in, const std::string& dir,
                 const std::vector<const Batch*>& acked, SpanRecorder* rec) {
  Recovery out;
  daisy::Database db;
  std::unique_ptr<DaisyEngine> engine;
  out.open_s = Timed(rec, "persist.open", [&] {
    engine = Unwrap(DaisyEngine::Open(dir, &db), "DaisyEngine::Open");
  });
  if (!in.append_table.empty()) {
    const Table* t = Unwrap(db.GetTable(in.append_table), "GetTable");
    out.check_error = CheckAckedRows(in, *t, acked);
  }
  daisy::QueryReport report =
      Unwrap(engine->Query(in.final_query), "final query after recovery");
  out.final_answer = SigOfRows(MostProbableRows(report.output.result));
  return out;
}

// ------------------------------------------------------------ untraced leg --

/// Samples and counts of the untraced leg, pooled over its passes.
struct UntracedLeg {
  size_t passes = 0;
  std::vector<double> setup_s, explore_s, recover_s;
  std::vector<double> wide_ms, agg_ms, query_ms, append_ms, request_ms;
  double result_rows = 0;
  double acked_rows = 0;
  double query_wall_s = 0;   ///< Σ explore_s
  double append_wall_s = 0;  ///< Σ writer wall time (first send to last ack)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // QueryDone counters.
  double tuples_scanned = 0;
  double read_path_queries = 0;
  double queries = 0;
  // Server registry, summed over passes: request latency by type.
  double server_query_us = 0, server_query_n = 0;
  double server_append_us = 0, server_append_n = 0;
  double server_all_us = 0, server_all_n = 0;
  double client_all_ms = 0, client_all_n = 0;
  // Engine registry counters over the serving phase, summed over passes.
  std::map<std::string, double> counters;
  // Output checks.
  std::vector<ResultSig> first_pass_results;  ///< per reader query
  std::string check_error;
};

/// Registry counters summed over each pass's serving phase (set-up, the
/// final query and recovery excluded).
const char* const kServingCounters[] = {
    "daisy_engine_repairs_total",          "daisy_engine_detect_ops_total",
    "daisy_engine_delta_rows_checked_total", "daisy_persist_wal_records_total",
    "daisy_persist_wal_fsyncs_total",      "daisy_persist_wal_batches_total",
};

struct ConnectionLog {
  std::vector<double> ms;       ///< per successful request
  std::vector<ResultSig> sigs;  ///< reader: per query
  std::vector<const Batch*> acked;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t first_ns = 0;
  int64_t last_ns = 0;
  double tuples_scanned = 0;
  double read_path = 0;
  double rows = 0;
  std::vector<double> wide_ms, agg_ms, other_ms;
  std::string error;
};

void RunReaderConnection(const Inputs& in, DaisyClient* client,
                         ConnectionLog* log) {
  log->first_ns = NowNs();
  for (size_t i = 0; i < in.reader.size(); ++i) {
    const QueryOp& op = in.reader[i];
    ++log->attempted;
    const int64_t t0 = NowNs();
    Result<DaisyClient::QueryResult> r = client->Query(op.sql);
    const double ms = (NowNs() - t0) * 1e-6;
    if (!r.ok()) {
      ++log->failed;
      log->error = r.status().ToString();
      log->sigs.push_back({});
    } else {
      log->ms.push_back(ms);
      (op.cls == QueryClass::kWide ? log->wide_ms : log->agg_ms).push_back(ms);
      log->sigs.push_back(SigOfRows(r.value().rows));
      log->rows += static_cast<double>(r.value().rows.size());
      log->tuples_scanned += static_cast<double>(r.value().done.tuples_scanned);
      log->read_path += r.value().done.read_path ? 1 : 0;
    }
    log->last_ns = NowNs();
    if (in.checkpoint_after != 0 && i + 1 == in.checkpoint_after) {
      ++log->attempted;
      const int64_t c0 = NowNs();
      const Status s = client->Checkpoint();
      if (!s.ok()) {
        ++log->failed;
        log->error = s.ToString();
      } else {
        log->other_ms.push_back((NowNs() - c0) * 1e-6);
      }
    }
  }
}

void RunWriterConnection(const Inputs& in, const std::vector<Batch>& batches,
                         DaisyClient* client, ConnectionLog* log) {
  log->first_ns = NowNs();
  for (const Batch& batch : batches) {
    Batch copy = batch;
    ++log->attempted;
    const int64_t t0 = NowNs();
    Result<uint64_t> r = client->Append(in.append_table, std::move(copy));
    const double ms = (NowNs() - t0) * 1e-6;
    if (!r.ok() || r.value() != batch.size()) {
      ++log->failed;
      log->error = r.ok() ? "short ack" : r.status().ToString();
      continue;
    }
    log->ms.push_back(ms);
    log->acked.push_back(&batch);
    log->rows += static_cast<double>(batch.size());
  }
  log->last_ns = NowNs();
}

void RunUntracedPass(const Inputs& in, const std::string& work_dir,
                     UntracedLeg* leg) {
  const std::string dir = work_dir + "/data-" + std::to_string(leg->passes);
  const std::string socket = work_dir + "/daisyd.sock";
  fs::remove_all(dir);
  Deployment dep;
  leg->setup_s.push_back(
      Setup(in, dir, socket, &dep, nullptr, nullptr).total());

  const size_t nconn = in.connections();
  std::vector<std::unique_ptr<DaisyClient>> clients;
  for (size_t i = 0; i < nconn; ++i) {
    clients.push_back(Unwrap(DaisyClient::ConnectUnix(socket), "connect"));
  }
  RegistryDelta reg;
  reg.Begin();
  std::vector<ConnectionLog> logs(nconn);
  {
    std::vector<std::thread> threads;
    threads.emplace_back(RunReaderConnection, std::cref(in),
                         clients[0].get(), &logs[0]);
    for (size_t w = 0; w < in.writers.size(); ++w) {
      threads.emplace_back(RunWriterConnection, std::cref(in),
                           std::cref(in.writers[w]), clients[w + 1].get(),
                           &logs[w + 1]);
    }
    for (std::thread& t : threads) t.join();
  }
  // Stop the server while every worker still serves a live connection,
  // then drop the clients. DaisyServer::Stop sets its stop flag without
  // the accept-queue mutex, so a worker that is just going back to wait
  // on the queue (a client's Bye, or a worker that has only just started)
  // can miss the wake-up and Stop never returns; a worker blocked reading
  // its connection always sees the flag. Stopping first also lets every
  // handler finish its accounting before the registry is read.
  dep.server->Stop();
  dep.server.reset();
  clients.clear();
  reg.End();

  // The live engine's answer to the final query, then shut down.
  const daisy::QueryReport final_report =
      Unwrap(dep.engine->Query(in.final_query), "final query");
  const ResultSig live =
      SigOfRows(MostProbableRows(final_report.output.result));
  dep.engine.reset();

  std::vector<const Batch*> acked;
  for (const ConnectionLog& log : logs) {
    acked.insert(acked.end(), log.acked.begin(), log.acked.end());
  }
  const Recovery rec = Recover(in, dir, acked, nullptr);
  leg->recover_s.push_back(rec.open_s);
  fs::remove_all(dir);

  // Pool the pass.
  const ConnectionLog& reader = logs[0];
  leg->explore_s.push_back((reader.last_ns - reader.first_ns) * 1e-9);
  leg->query_wall_s += leg->explore_s.back();
  for (const ConnectionLog& log : logs) {
    leg->attempted += log.attempted;
    leg->failed += log.failed;
    leg->request_ms.insert(leg->request_ms.end(), log.ms.begin(),
                           log.ms.end());
    leg->request_ms.insert(leg->request_ms.end(), log.other_ms.begin(),
                           log.other_ms.end());
    for (double ms : log.ms) leg->client_all_ms += ms;
    for (double ms : log.other_ms) leg->client_all_ms += ms;
    leg->client_all_n +=
        static_cast<double>(log.ms.size() + log.other_ms.size());
    if (!log.error.empty()) {
      std::fprintf(stderr, "[e2e_bench] request failed: %s\n",
                   log.error.c_str());
    }
  }
  leg->query_ms.insert(leg->query_ms.end(), reader.ms.begin(),
                       reader.ms.end());
  leg->wide_ms.insert(leg->wide_ms.end(), reader.wide_ms.begin(),
                      reader.wide_ms.end());
  leg->agg_ms.insert(leg->agg_ms.end(), reader.agg_ms.begin(),
                     reader.agg_ms.end());
  leg->result_rows += reader.rows;
  leg->tuples_scanned += reader.tuples_scanned;
  leg->read_path_queries += reader.read_path;
  leg->queries += static_cast<double>(reader.ms.size());
  for (size_t w = 1; w < logs.size(); ++w) {
    leg->append_ms.insert(leg->append_ms.end(), logs[w].ms.begin(),
                          logs[w].ms.end());
    leg->acked_rows += logs[w].rows;
    leg->append_wall_s += (logs[w].last_ns - logs[w].first_ns) * 1e-9;
  }
  auto q = reg.Hist("daisy_server_request_latency_us{type=\"Query\"}");
  auto a = reg.Hist("daisy_server_request_latency_us{type=\"Append\"}");
  auto c = reg.Hist("daisy_server_request_latency_us{type=\"Checkpoint\"}");
  leg->server_query_us += q.first;
  leg->server_query_n += q.second;
  leg->server_append_us += a.first;
  leg->server_append_n += a.second;
  leg->server_all_us += q.first + a.first + c.first;
  leg->server_all_n += q.second + a.second + c.second;
  for (const char* name : kServingCounters) {
    leg->counters[name] += reg.Counter(name);
  }

  // Output checks: identical answers in every pass (the single query
  // connection makes ssb_explore deterministic), recovery consistency.
  if (in.writers.empty()) {
    if (leg->passes == 0) {
      leg->first_pass_results = reader.sigs;
    } else if (reader.sigs != leg->first_pass_results &&
               leg->check_error.empty()) {
      leg->check_error = "pass " + std::to_string(leg->passes) +
                         " answered differently from pass 0";
    }
  }
  if (!rec.check_error.empty() && leg->check_error.empty()) {
    leg->check_error = rec.check_error;
  }
  if (rec.final_answer != live && leg->check_error.empty()) {
    leg->check_error =
        "recovered engine answers the final query differently (rows " +
        std::to_string(rec.final_answer.rows) + " vs live " +
        std::to_string(live.rows) + ")";
  }
  ++leg->passes;
}

/// Samples each named percentile needs: the highest named percentile of a
/// series needs 10 above it.
bool EnoughSamples(const Inputs& in, const UntracedLeg& leg) {
  auto need = [](size_t have, double q) {
    return NamedPercentile(std::vector<double>(have, 0.0), q).supported;
  };
  bool ok = need(leg.query_ms.size(), 0.90) && need(leg.agg_ms.size(), 0.95) &&
            need(leg.request_ms.size(), 0.95);
  if (in.writers.empty()) return ok && need(leg.wide_ms.size(), 0.90);
  return ok && need(leg.append_ms.size(), 0.95);
}

// -------------------------------------------------------------- traced leg --

struct LayerAccum {
  double queries = 0;
  std::map<std::string, double> self_us;        ///< by operator kind
  std::map<std::string, double> wide_self_us;   ///< Q1 only
  double wide_queries = 0;
  double output_rows = 0;
  double join_rows = 0;
  std::vector<double> join_qerror;
  double switches = 0;
  double encode_ns = 0, decode_ns = 0, wire_bytes = 0, wire_rows = 0;
  double wide_encode_ns = 0, wide_decode_ns = 0;
  /// The slowest ExplainAnalyze call of the leg, with its page.
  double slowest_ms = 0;
  std::string slowest_sql, slowest_page;
};

void AccumulatePage(const AnalyzePage& page, QueryClass cls,
                    LayerAccum* acc) {
  for (const PlanLine& l : page.trace) {
    acc->self_us[l.kind] += static_cast<double>(l.self_us);
    if (cls == QueryClass::kWide) {
      acc->wide_self_us[l.kind] += static_cast<double>(l.self_us);
    }
  }
  if (!page.plan.empty()) acc->output_rows += page.plan[0].rows;
  for (const PlanLine& l : page.plan) {
    if (l.switched_to_full) acc->switches += 1;
    if (l.kind == "HashJoin" || l.kind == "CleanJoin") {
      acc->join_rows += l.rows;
      if (l.est_rows >= 0) {
        acc->join_qerror.push_back(QError(l.est_rows, l.rows));
      }
    }
  }
}

/// Builds one wire frame as WriteFrame does: length, CRC, payload.
std::string Frame(const std::string& payload) {
  daisy::BinaryWriter header;
  header.WriteU32(static_cast<uint32_t>(payload.size()));
  header.WriteU32(daisy::Crc32(payload.data(), payload.size()));
  std::string wire = header.TakeBuffer();
  wire.append(payload);
  return wire;
}

/// The payload of a frame after the CRC check ReadFrame makes.
std::string Unframe(const std::string& wire) {
  const std::string payload = wire.substr(8);
  uint32_t crc = 0;
  std::memcpy(&crc, wire.data() + 4, sizeof(crc));
  if (crc != daisy::Crc32(payload.data(), payload.size())) Die("frame CRC");
  return payload;
}

/// Encodes a result exactly as the server streams it (header, then
/// RowBatch frames of kRowsPerBatch, each framed with length and CRC), then
/// checks and decodes it as the client does. Returns the decoded rows.
std::vector<Row> EncodeDecode(const Table& result, SpanRecorder* rec,
                              int parent, uint64_t op, double* encode_ns,
                              double* decode_ns, double* bytes) {
  std::vector<std::string> frames;
  const int enc = rec->Begin("server.encode", parent, op);
  {
    daisy::server::RowHeaderMsg header;
    for (const daisy::Column& col : result.schema().columns()) {
      header.names.push_back(col.name);
      header.types.push_back(static_cast<uint8_t>(col.type));
    }
    frames.push_back(Frame(header.Encode()));
    daisy::server::RowBatchMsg batch;
    for (daisy::RowId r = 0; r < result.num_rows(); ++r) {
      Row row;
      row.reserve(result.num_columns());
      for (size_t c = 0; c < result.num_columns(); ++c) {
        row.push_back(result.cell(r, c).MostProbable());
      }
      batch.rows.push_back(std::move(row));
      if (batch.rows.size() == daisy::server::kRowsPerBatch) {
        frames.push_back(Frame(batch.Encode()));
        batch.rows.clear();
      }
    }
    if (!batch.rows.empty()) frames.push_back(Frame(batch.Encode()));
  }
  rec->End(enc);
  const int dec = rec->Begin("server.decode", parent, op);
  std::vector<Row> rows;
  for (size_t i = 1; i < frames.size(); ++i) {
    daisy::server::RowBatchMsg m =
        Unwrap(daisy::server::RowBatchMsg::Decode(Unframe(frames[i])),
               "decode");
    for (Row& r : m.rows) rows.push_back(std::move(r));
  }
  Unwrap(daisy::server::RowHeaderMsg::Decode(Unframe(frames[0])),
         "decode header");
  rec->End(dec);
  const auto& spans = rec->spans();
  *encode_ns += static_cast<double>(spans[enc].end_ns - spans[enc].start_ns);
  *decode_ns += static_cast<double>(spans[dec].end_ns - spans[dec].start_ns);
  for (const std::string& f : frames) *bytes += static_cast<double>(f.size());
  return rows;
}

struct TracedLeg {
  SpanRecorder spans;
  LayerAccum acc;
  SetupTimes setup;
  double load_heap_bytes = 0;
  double checkpoint_s = 0;
  double detect_ns_per_pair = 0;
  double fsync_floor_ms = 0;
  double wal_bytes_per_row = 0;
  double snapshot_bytes_per_row = 0;
  double snapshot_read_s = 0;
  double open_s = 0;
  double replayed_records = 0;
  std::vector<ResultSig> results;  ///< ssb: per reader query
  std::string check_error;
};

void TracedReader(const Inputs& in, DaisyEngine* engine, bool fetch_rows,
                  SpanRecorder* rec, LayerAccum* acc,
                  std::vector<ResultSig>* results, double* checkpoint_s) {
  for (size_t i = 0; i < in.reader.size(); ++i) {
    const QueryOp& op = in.reader[i];
    const uint64_t id = i + 1;
    const int root = rec->Begin("op.query", -1, id);
    {
      ScopedSpan s(rec, "query.parse", root, id);
      Unwrap(daisy::ParseQuery(op.sql), "ParseQuery");
    }
    {
      ScopedSpan s(rec, "plan.explain", root, id);
      Unwrap(engine->Explain(op.sql), "Explain");
    }
    std::string text;
    const int analyze = rec->Begin("engine.explain_analyze", root, id);
    text = Unwrap(engine->ExplainAnalyze(op.sql), "ExplainAnalyze");
    rec->End(analyze);
    const Span& span = rec->spans()[analyze];
    const double analyze_ms = (span.end_ns - span.start_ns) * 1e-6;
    if (analyze_ms > acc->slowest_ms) {
      acc->slowest_ms = analyze_ms;
      acc->slowest_sql = op.sql;
      acc->slowest_page = text;
    }
    AnalyzePage page;
    std::string perr;
    if (!ParseAnalyzePage(text, &page, &perr)) Die("trace page: " + perr);
    AccumulatePage(page, op.cls, acc);
    acc->queries += 1;
    if (op.cls == QueryClass::kWide) acc->wide_queries += 1;
    if (fetch_rows) {
      daisy::QueryReport report;
      {
        ScopedSpan s(rec, "engine.query", root, id);
        report = Unwrap(engine->Query(op.sql), "Query");
      }
      double enc = 0, dec = 0;
      std::vector<Row> rows =
          EncodeDecode(report.output.result, rec, root, id, &enc, &dec,
                       &acc->wire_bytes);
      acc->encode_ns += enc;
      acc->decode_ns += dec;
      acc->wire_rows += static_cast<double>(rows.size());
      if (op.cls == QueryClass::kWide) {
        acc->wide_encode_ns += enc;
        acc->wide_decode_ns += dec;
      }
      results->push_back(SigOfRows(rows));
    }
    rec->End(root);
    if (in.checkpoint_after != 0 && i + 1 == in.checkpoint_after) {
      const int cp = rec->Begin("persist.checkpoint", -1, 0);
      CheckOk(engine->Checkpoint(), "Checkpoint");
      rec->End(cp);
      const Span& s = rec->spans()[cp];
      *checkpoint_s = (s.end_ns - s.start_ns) * 1e-9;
    }
  }
}

void TracedWriter(const Inputs& in, size_t w, DaisyEngine* engine,
                  SpanRecorder* rec) {
  uint64_t id = 1000000 * (w + 1);
  for (const Batch& batch : in.writers[w]) {
    Batch copy = batch;
    ++id;
    const int root = rec->Begin("op.append", -1, id);
    {
      ScopedSpan s(rec, "engine.append", root, id);
      Unwrap(engine->AppendRows(in.append_table, std::move(copy)),
             "AppendRows");
    }
    rec->End(root);
  }
}

/// Median latency of a WalWriter::Append of `payload` in `dir`: the
/// device's write + fsync floor, apart from the engine.
double FsyncFloorMs(const std::string& dir, const std::string& payload) {
  const std::string path = dir + "/fsync-floor.probe";
  std::unique_ptr<daisy::persist::WalWriter> wal =
      Unwrap(daisy::persist::WalWriter::Create(path), "WalWriter::Create");
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const int64_t t0 = NowNs();
    CheckOk(wal->Append(payload), "WalWriter::Append");
    ms.push_back((NowNs() - t0) * 1e-6);
  }
  wal.reset();
  fs::remove(path);
  return Median(ms);
}

/// Σ frame bytes of the append records in the newest WAL / rows they hold.
double WalBytesPerRow(const std::string& dir) {
  const std::string path = NewestFile(dir, "wal-", ".dwal");
  if (path.empty()) return 0;
  daisy::persist::WalContents wal =
      Unwrap(daisy::persist::ReadWal(path), "ReadWal");
  double bytes = 0, rows = 0;
  for (const std::string& payload : wal.payloads) {
    daisy::persist::WalRecord rec =
        Unwrap(daisy::persist::DecodeWalRecord(payload), "DecodeWalRecord");
    if (rec.rows.empty()) continue;
    bytes += static_cast<double>(payload.size() + 8);  // + len + crc
    rows += static_cast<double>(rec.rows.size());
  }
  return rows > 0 ? bytes / rows : 0;
}

void RunTracedPass(const Inputs& in, const std::string& work_dir,
                   TracedLeg* leg) {
  const std::string dir = work_dir + "/traced";
  fs::remove_all(dir);
  Deployment dep;
  leg->setup = Setup(in, dir, "", &dep, &leg->spans, &leg->load_heap_bytes);
  const std::string snapshot = NewestFile(dir, "snapshot-", ".dsnap");
  leg->snapshot_bytes_per_row = static_cast<double>(fs::file_size(snapshot)) /
                                static_cast<double>(in.total_rows());
  DaisyEngine* engine = dep.engine.get();

  std::vector<SpanRecorder> writer_spans(in.writers.size());
  {
    std::vector<std::thread> threads;
    for (size_t w = 0; w < in.writers.size(); ++w) {
      threads.emplace_back(TracedWriter, std::cref(in), w, engine,
                           &writer_spans[w]);
    }
    TracedReader(in, engine, in.writers.empty(), &leg->spans, &leg->acc,
                 &leg->results, &leg->checkpoint_s);
    for (std::thread& t : threads) t.join();
  }
  for (const SpanRecorder& r : writer_spans) leg->spans.Merge(r);

  // Standalone full re-detection of the DC on a copy of the final table.
  for (const RuleDef& r : in.rules) {
    if (r.text.find("FD") != std::string::npos) continue;
    Table copy = *Unwrap(dep.db.GetTable(r.table), "GetTable");
    daisy::DenialConstraint dc = Unwrap(
        daisy::ParseConstraint(r.text, r.table, copy.schema()), "dc");
    daisy::ThetaJoinDetector detector(&copy, &dc,
                                      DaisyOptions{}.theta_partitions);
    const int64_t t0 = NowNs();
    (void)detector.DetectAll();
    const double ns = static_cast<double>(NowNs() - t0);
    if (detector.pairs_checked() > 0) {
      leg->detect_ns_per_pair =
          ns / static_cast<double>(detector.pairs_checked());
    }
  }
  dep.engine.reset();

  const std::string payload =
      in.writers.empty()
          ? daisy::persist::EncodeWalQuery(
                Unwrap(daisy::ParseQuery(in.reader[0].sql), "parse"))
          : daisy::persist::EncodeWalAppendRows(in.append_table,
                                                in.writers[0][0]);
  leg->fsync_floor_ms = FsyncFloorMs(dir, payload);
  leg->wal_bytes_per_row = WalBytesPerRow(dir);
  {
    const std::string snap = NewestFile(dir, "snapshot-", ".dsnap");
    leg->snapshot_read_s = Timed(&leg->spans, "persist.snapshot_read", [&] {
      Unwrap(daisy::persist::ReadSnapshot(snap), "ReadSnapshot");
    });
  }
  std::vector<const Batch*> acked;
  for (const auto& w : in.writers) {
    for (const Batch& b : w) acked.push_back(&b);
  }
  RegistryDelta open_reg;
  open_reg.Begin();
  const Recovery rec = Recover(in, dir, acked, &leg->spans);
  open_reg.End();
  leg->open_s = rec.open_s;
  leg->replayed_records =
      open_reg.Counter("daisy_persist_recovery_replayed_records_total");
  if (!rec.check_error.empty() && leg->check_error.empty()) {
    leg->check_error = "traced leg: " + rec.check_error;
  }
  fs::remove_all(dir);
}

/// Writes every span of the traced leg as one tab-separated line.
void WriteSpans(const std::string& path, const SpanRecorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "index\tname\top_id\tparent\tstart_ns\tend_ns\tself_ns\n");
  const std::vector<Span>& spans = rec.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const int64_t base = spans.empty() ? 0 : spans[0].start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%zu\t%s\t%" PRIu64 "\t%d\t%" PRId64 "\t%" PRId64
                    "\t%" PRId64 "\n",
                 i, spans[i].name.c_str(), spans[i].op_id, spans[i].parent,
                 spans[i].start_ns - base, spans[i].end_ns - base, self[i]);
  }
  std::fclose(f);
}

void WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< 0 = not a sampled statistic
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  /// Adds a named percentile; returns false (and adds nothing) when the
  /// sample cannot support it.
  bool AddPercentile(const std::string& name, const std::vector<double>& v,
                     double q, const std::string& unit) {
    const Percentile p = NamedPercentile(v, q);
    if (!p.supported) {
      std::fprintf(stderr,
                   "[e2e_bench] refusing %s: %zu samples, %zu above "
                   "(need %zu)\n",
                   name.c_str(), p.samples, p.above, kMinSamplesAbove);
      return false;
    }
    Add(name, p.value, unit, p.samples);
    return true;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("#   %-34s %14.4f %-8s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("#   %-34s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "[e2e_bench] %s\nusage: e2e_bench --workload "
               "<ssb_explore|dc_ingest> --seed N --seconds S --trace <0|1> "
               "[--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) Usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload != "ssb_explore" && a.workload != "dc_ingest") {
    Usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

/// ApplyEnvOverrides and the Planner read DAISY_* variables and would
/// silently change the measured program; refuse to run under any.
void RefuseEnvOverrides() {
  for (char** e = ::environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DAISY_", 6) == 0) {
      Usage(std::string("refusing to run with ") + *e +
            " set: DAISY_* variables override engine options");
    }
  }
}

int Run(const Args& args) {
  fs::create_directories(args.work_dir);
  const int64_t gen0 = NowNs();
  const Inputs in = args.workload == "ssb_explore" ? MakeSsbInputs(args.seed)
                                                   : MakeDcInputs(args.seed);
  const double gen_s = SecondsSince(gen0);
  const bool ssb = in.writers.empty();

  // Untraced leg: passes until the time is up and the percentiles have
  // their samples; the cap keeps the whole run within its time limit.
  UntracedLeg leg;
  double peak_rss_mb = 0;
  const std::pair<double, double> cpu0 = CpuJiffies();
  const int64_t t0 = NowNs();
  const double cap_s = std::min(std::max(2 * args.seconds, args.seconds + 20),
                                args.seconds + 90);
  while (leg.passes == 0 || SecondsSince(t0) < args.seconds ||
         !EnoughSamples(in, leg)) {
    if (SecondsSince(t0) >= cap_s) break;
    RunUntracedPass(in, args.work_dir, &leg);
    // The process high-water mark after one whole pass (set-ups, serving,
    // recovery); later passes only add allocator fragmentation.
    if (leg.passes == 1) peak_rss_mb = PeakRssMb();
  }
  const double measured_s = SecondsSince(t0);
  const std::pair<double, double> cpu1 = CpuJiffies();
  const double steal_share =
      Ratio(cpu1.second - cpu0.second, cpu1.first - cpu0.first);

  TracedLeg traced;
  if (args.trace) {
    RunTracedPass(in, args.work_dir, &traced);
    WriteSpans(args.work_dir + "/spans-" + in.workload + ".tsv",
               traced.spans);
    WriteText(args.work_dir + "/slowest-" + in.workload + ".txt",
              "-- " + JsonNumber(traced.acc.slowest_ms) + " ms: " +
                  traced.acc.slowest_sql + "\n" + traced.acc.slowest_page);
  }

  std::string check_error = leg.check_error;
  if (check_error.empty() && args.trace && !traced.check_error.empty()) {
    check_error = traced.check_error;
  }
  if (check_error.empty() && args.trace && ssb &&
      traced.results != leg.first_pass_results) {
    check_error = "traced in-process answers differ from the server's";
  }
  const bool correct = check_error.empty();

  // ---- End-to-end metrics (untraced leg).
  MetricList e2e;
  bool refused = false;
  e2e.Add("setup_s", Median(leg.setup_s), "s", leg.setup_s.size());
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");
  e2e.Add("ok_op_ratio",
          1.0 - Ratio(static_cast<double>(leg.failed),
                      static_cast<double>(leg.attempted)),
          "ratio", leg.attempted);
  e2e.Add("explore_s", Median(leg.explore_s), "s", leg.explore_s.size());
  e2e.Add("recover_s", Median(leg.recover_s), "s", leg.recover_s.size());
  refused |= !e2e.AddPercentile("query_ms.p50", leg.query_ms, 0.50, "ms");
  refused |= !e2e.AddPercentile("agg_query_ms.p50", leg.agg_ms, 0.50, "ms");
  refused |= !e2e.AddPercentile("request_ms.p50", leg.request_ms, 0.50, "ms");

  // Reported, not gated: the tails, whose run-to-run spread under the
  // host's CPU steal exceeds any bound the gate allows (see README.md);
  // result_rows_per_s, which is explore_s inverted (a pass returns the same
  // rows every time); and the metrics that exist on one workload only.
  MetricList own;
  own.Add("result_rows_per_s", Ratio(leg.result_rows, leg.query_wall_s),
          "1/s");
  refused |= !own.AddPercentile("query_ms.p90", leg.query_ms, 0.90, "ms");
  refused |= !own.AddPercentile("agg_query_ms.p95", leg.agg_ms, 0.95, "ms");
  refused |= !own.AddPercentile("request_ms.p95", leg.request_ms, 0.95, "ms");
  own.Add("failed_op_ratio",
          Ratio(static_cast<double>(leg.failed),
                static_cast<double>(leg.attempted)),
          "ratio", leg.attempted);
  if (ssb) {
    refused |= !own.AddPercentile("wide_query_ms.p50", leg.wide_ms, 0.50, "ms");
    refused |= !own.AddPercentile("wide_query_ms.p90", leg.wide_ms, 0.90, "ms");
    own.Add("wide_query_ms.max", MaxOf(leg.wide_ms), "ms", leg.wide_ms.size());
  } else {
    refused |=
        !own.AddPercentile("append_ack_ms.p50", leg.append_ms, 0.50, "ms");
    refused |=
        !own.AddPercentile("append_ack_ms.p95", leg.append_ms, 0.95, "ms");
    own.Add("append_ack_ms.max", MaxOf(leg.append_ms), "ms",
            leg.append_ms.size());
    own.Add("query_ms.max", MaxOf(leg.query_ms), "ms", leg.query_ms.size());
    own.Add("acked_rows_per_s",
            Ratio(leg.acked_rows,
                  leg.append_wall_s / static_cast<double>(in.writers.size())),
            "1/s");
  }

  // ---- Per-layer metrics (traced leg, plus server-side registry deltas
  // and QueryDone counters of the untraced leg).
  MetricList layers;
  std::string breakdown;
  if (args.trace) {
    const std::vector<Span>& spans = traced.spans.spans();
    std::map<std::string, std::pair<double, double>> by_name;  // Σns, n
    for (const Span& s : spans) {
      auto& e = by_name[s.name];
      e.first += static_cast<double>(s.end_ns - s.start_ns);
      e.second += 1;
    }
    auto mean_ms = [&](const std::string& name) {
      const auto& e = by_name[name];
      return e.second > 0 ? e.first / e.second * 1e-6 : 0.0;
    };
    const LayerAccum& acc = traced.acc;
    const double nq = std::max(1.0, acc.queries);
    const double passes = static_cast<double>(std::max<size_t>(1, leg.passes));
    auto per_pass = [&](const char* name) {
      return leg.counters[name] / passes;
    };

    const double srv_q = Ratio(leg.server_query_us, leg.server_query_n) * 1e-3;
    const double srv_a =
        Ratio(leg.server_append_us, leg.server_append_n) * 1e-3;
    layers.Add("server.request_ms.Query", srv_q, "ms",
               static_cast<size_t>(leg.server_query_n));
    layers.Add("server.request_ms.Append", srv_a, "ms",
               static_cast<size_t>(leg.server_append_n));
    layers.Add("server.transport_ms",
               Ratio(leg.client_all_ms, leg.client_all_n) -
                   Ratio(leg.server_all_us, leg.server_all_n) * 1e-3,
               "ms", static_cast<size_t>(leg.server_all_n));
    layers.Add("server.encode_us_per_row",
               Ratio(acc.encode_ns, acc.wire_rows) * 1e-3, "us");
    layers.Add("server.decode_us_per_row",
               Ratio(acc.decode_ns, acc.wire_rows) * 1e-3, "us");
    layers.Add("server.bytes_per_row", Ratio(acc.wire_bytes, acc.wire_rows),
               "B");

    const double parse_ms = mean_ms("query.parse");
    const double plan_ms = std::max(0.0, mean_ms("plan.explain") - parse_ms);
    layers.Add("query.parse_us", parse_ms * 1e3, "us");
    layers.Add("plan.plan_ms", plan_ms, "ms");
    double self_sum_ms = 0;
    for (const char* kind : {"Scan", "Filter", "CleanSelect", "HashJoin",
                             "CleanJoin", "Aggregate", "Project"}) {
      auto it = acc.self_us.find(kind);
      const double ms = it == acc.self_us.end() ? 0 : it->second / nq * 1e-3;
      self_sum_ms += ms;
      layers.Add(std::string("plan.self_ms.") + kind, ms, "ms");
    }
    layers.Add("plan.output_rows", acc.output_rows, "count");
    layers.Add("plan.join_rows", acc.join_rows, "count");
    const Percentile qe50 = NamedPercentile(acc.join_qerror, 0.5);
    double qe_max = 0;
    for (double q : acc.join_qerror) qe_max = std::max(qe_max, q);
    layers.Add("plan.join_qerror.p50", qe50.value, "ratio", qe50.samples);
    layers.Add("plan.join_qerror.max", qe_max, "ratio",
               acc.join_qerror.size());

    const double engine_q = mean_ms("engine.explain_analyze");
    const double engine_a = mean_ms("engine.append");
    layers.Add("engine.query_ms", engine_q, "ms");
    layers.Add("engine.append_ms", engine_a, "ms");
    layers.Add("engine.read_path_ratio",
               Ratio(leg.read_path_queries, leg.queries), "ratio");

    layers.Add("clean.prepare_ms", traced.setup.prepare_s * 1e3, "ms");
    layers.Add("clean.tuples_scanned", leg.tuples_scanned / passes, "count");
    layers.Add("clean.full_clean_switches", acc.switches, "count");
    layers.Add("repair.tuples_repaired",
               per_pass("daisy_engine_repairs_total"), "count");
    layers.Add("detect.pairs", per_pass("daisy_engine_detect_ops_total"),
               "count");
    layers.Add("detect.delta_rows",
               per_pass("daisy_engine_delta_rows_checked_total"), "count");
    layers.Add("detect.ns_per_pair", traced.detect_ns_per_pair, "ns");

    const double wal_records = per_pass("daisy_persist_wal_records_total");
    const double wal_fsyncs = per_pass("daisy_persist_wal_fsyncs_total");
    const double wal_batches = per_pass("daisy_persist_wal_batches_total");
    double appends_per_pass = 0;
    for (const auto& w : in.writers) {
      appends_per_pass += static_cast<double>(w.size());
    }
    layers.Add("persist.wal_records", wal_records, "count");
    layers.Add("persist.wal_fsyncs", wal_fsyncs, "count");
    layers.Add("persist.fsyncs_per_append", Ratio(wal_fsyncs, appends_per_pass),
               "ratio");
    layers.Add("persist.wal_batch_records_mean",
               Ratio(wal_records, wal_batches), "count");
    layers.Add("persist.wal_bytes_per_row", traced.wal_bytes_per_row, "B");
    layers.Add("persist.fsync_floor_ms", traced.fsync_floor_ms, "ms");
    layers.Add("persist.enable_ms", traced.setup.enable_s * 1e3, "ms");
    layers.Add("persist.checkpoint_ms", traced.checkpoint_s * 1e3, "ms");
    layers.Add("persist.snapshot_bytes_per_row", traced.snapshot_bytes_per_row,
               "B");
    layers.Add("persist.snapshot_read_ms", traced.snapshot_read_s * 1e3, "ms");
    layers.Add("persist.replay_ms",
               std::max(0.0, traced.open_s - traced.snapshot_read_s) * 1e3,
               "ms");
    layers.Add("persist.replayed_records", traced.replayed_records, "count");
    layers.Add("storage.load_ms", traced.setup.load_s * 1e3, "ms");
    layers.Add("storage.rss_bytes_per_row",
               traced.load_heap_bytes / static_cast<double>(in.total_rows()),
               "B");

    // What the layers leave over. A query's server time is parse + plan +
    // operator self times + result encoding; the rest is lock waits,
    // queueing and whatever no span covers. Likewise an append's server
    // time against the in-process AppendRows.
    const double encode_ms_per_query = acc.encode_ns * 1e-6 / nq;
    layers.Add("unattributed_ms.query",
               srv_q - (parse_ms + plan_ms + self_sum_ms + encode_ms_per_query),
               "ms");
    layers.Add("unattributed_ms.append",
               in.writers.empty() ? 0 : srv_a - engine_a, "ms");
    // Traced op time (every traced call of the op) over untraced op time
    // (client latency), queries and appends together.
    const double traced_ops =
        by_name["op.query"].second + by_name["op.append"].second;
    const double traced_ms =
        (by_name["op.query"].first + by_name["op.append"].first) * 1e-6;
    const double untraced_ops =
        static_cast<double>(leg.query_ms.size() + leg.append_ms.size());
    double untraced_ms = 0;
    for (double v : leg.query_ms) untraced_ms += v;
    for (double v : leg.append_ms) untraced_ms += v;
    layers.Add("trace_overhead",
               Ratio(Ratio(traced_ms, traced_ops),
                     Ratio(untraced_ms, untraced_ops)),
               "ratio");

    // Where a wide ssb_explore query spends its time (per Q1, means).
    if (ssb && acc.wide_queries > 0) {
      const double nw = acc.wide_queries;
      char line[160];
      auto emit = [&](const char* name, double ms) {
        std::snprintf(line, sizeof(line), "#   %-40s %10.3f ms\n", name, ms);
        breakdown += line;
      };
      emit("Q1 client latency (untraced mean)", Mean(leg.wide_ms));
      double server_side = parse_ms + plan_ms;
      emit("  query.parse", parse_ms);
      emit("  plan.plan", plan_ms);
      for (const auto& [kind, us] : acc.wide_self_us) {
        emit(("  plan.self_ms." + kind).c_str(), us / nw * 1e-3);
        server_side += us / nw * 1e-3;
      }
      emit("  server.encode (rows -> frames)", acc.wide_encode_ns / nw * 1e-6);
      server_side += acc.wide_encode_ns / nw * 1e-6;
      emit("  = server-side work", server_side);
      emit("  rest: socket, send waits, locks",
           Mean(leg.wide_ms) - server_side);
      emit("client.decode (overlaps the sending)",
           acc.wide_decode_ns / nw * 1e-6);
    }
  }

  // ---- Report.
  std::printf("# e2e_bench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              in.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# config: build=%s nproc=%ld data_dir_fs=%s connections=%zu "
              "server_worker_threads=%zu (non-default; ServerOptions default "
              "4) engine=DaisyOptions{} (adaptive, optimizer on, group "
              "commit on) persistence=on\n",
              E2E_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
              FilesystemOf(args.work_dir).c_str(),
              in.connections(), in.connections());
  std::printf("# inputs: digest=%016" PRIx64 " rows=%zu reader_queries=%zu "
              "writers=%zu appends_per_writer=%zu gen_s=%.3f\n",
              in.digest, in.total_rows(), in.reader.size(), in.writers.size(),
              in.writers.empty() ? 0 : in.writers[0].size(), gen_s);
  std::printf("# untraced: passes=%zu measured_s=%.3f attempted=%" PRIu64
              " failed=%" PRIu64 " cpu_steal_share=%.3f\n",
              leg.passes, measured_s, leg.attempted, leg.failed, steal_share);
  std::string per_pass = "# per pass: explore_s";
  for (double v : leg.explore_s) per_pass += " " + JsonNumber(v);
  per_pass += " | recover_s";
  for (double v : leg.recover_s) per_pass += " " + JsonNumber(v);
  std::printf("%s\n", per_pass.c_str());
  PrintTable("end-to-end (gated)", e2e.metrics());
  PrintTable("end-to-end (reported, not gated)", own.metrics());
  if (args.trace) PrintTable("per-layer (traced leg)", layers.metrics());
  if (!breakdown.empty()) {
    std::printf("# where a wide query (Q1) spends its time, traced means:\n%s",
                breakdown.c_str());
  }
  if (!correct) {
    std::printf("# OUTPUT CHECK FAILED: %s\n", check_error.c_str());
  }
  if (refused) {
    std::printf("# a named percentile lacks samples; no result\n");
    return 1;
  }
  const std::string metrics =
      MetricsJson(args.trace ? layers.metrics() : e2e.metrics());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", leg.attempted, leg.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::ParseArgs(argc, argv);
  e2e::RefuseEnvOverrides();
  return e2e::Run(args);
}
