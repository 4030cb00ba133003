#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "persist/format.h"
#include "persist/io_util.h"

namespace daisy {
namespace persist {

namespace {

// ---------------------------------------------------------------- values --

// Exact-type dictionary key: Value::Equals unifies int 5 and double 5.0,
// which must stay distinct on disk (the reconstructed cell has to render
// and type-check exactly like the original). Doubles are keyed by bit
// pattern (-0.0 stays distinct from 0.0).
struct ExactKey {
  uint8_t tag;
  uint64_t bits;
  const std::string* str;  ///< string values only; borrowed from the cell
};

struct ExactKeyHash {
  size_t operator()(const ExactKey& k) const {
    size_t h = std::hash<uint64_t>()((uint64_t{k.tag} << 56) ^ k.bits);
    if (k.str != nullptr) h ^= std::hash<std::string>()(*k.str);
    return h;
  }
};

struct ExactKeyEq {
  bool operator()(const ExactKey& a, const ExactKey& b) const {
    if (a.tag != b.tag || a.bits != b.bits) return false;
    if (a.str == nullptr || b.str == nullptr) return a.str == b.str;
    return *a.str == *b.str;
  }
};

ExactKey MakeExactKey(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return {0, 0, nullptr};
    case ValueType::kInt:
      return {1, static_cast<uint64_t>(v.as_int()), nullptr};
    case ValueType::kDouble: {
      uint64_t bits;
      const double d = v.as_double_raw();
      std::memcpy(&bits, &d, sizeof(bits));
      return {2, bits, nullptr};
    }
    case ValueType::kString:
      return {3, 0, &v.as_string()};
  }
  return {0, 0, nullptr};
}

// ---------------------------------------------------------------- tables --

void EncodeTable(const Table& t, BinaryWriter* w) {
  w->WriteString(t.name());
  w->WriteU32(static_cast<uint32_t>(t.schema().num_columns()));
  for (const Column& c : t.schema().columns()) {
    w->WriteString(c.name);
    w->WriteU8(static_cast<uint8_t>(c.type));
  }
  const size_t rows = t.num_rows();
  w->WriteU64(rows);
  w->WriteU64(t.append_version());
  w->WriteU64(t.delta_generation());
  const std::vector<RowId>& dlog = t.deleted_rows_log();
  w->WriteU64(dlog.size());
  for (RowId r : dlog) w->WriteU64(r);

  // Columnar originals: per column a dictionary + one code per row.
  for (size_t c = 0; c < t.num_columns(); ++c) {
    std::unordered_map<ExactKey, uint32_t, ExactKeyHash, ExactKeyEq> index;
    std::vector<const Value*> dict;
    std::vector<uint32_t> codes;
    codes.reserve(rows);
    for (RowId r = 0; r < rows; ++r) {
      const Value& v = t.cell(r, c).original();
      auto [it, inserted] =
          index.emplace(MakeExactKey(v), static_cast<uint32_t>(dict.size()));
      if (inserted) dict.push_back(&v);
      codes.push_back(it->second);
    }
    w->WriteU32(static_cast<uint32_t>(dict.size()));
    for (const Value* v : dict) w->WriteValue(*v);
    for (uint32_t code : codes) w->WriteU32(code);
  }

  // Sparse probabilistic cells with their candidate sets.
  size_t prob_cells = 0;
  for (RowId r = 0; r < rows; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (t.cell(r, c).is_probabilistic()) ++prob_cells;
    }
  }
  w->WriteU64(prob_cells);
  for (RowId r = 0; r < rows; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Cell& cell = t.cell(r, c);
      if (!cell.is_probabilistic()) continue;
      w->WriteU64(r);
      w->WriteU32(static_cast<uint32_t>(c));
      w->WriteU32(static_cast<uint32_t>(cell.candidates().size()));
      for (const Candidate& cand : cell.candidates()) {
        w->WriteValue(cand.value);
        w->WriteDouble(cand.prob);
        w->WriteI32(cand.pair_id);
        w->WriteU8(static_cast<uint8_t>(cand.kind));
      }
    }
  }
}

Result<Table> DecodeTable(BinaryReader* r) {
  DAISY_ASSIGN_OR_RETURN(std::string name, r->ReadString());
  DAISY_ASSIGN_OR_RETURN(uint32_t ncols, r->ReadU32());
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    Column col;
    DAISY_ASSIGN_OR_RETURN(col.name, r->ReadString());
    DAISY_ASSIGN_OR_RETURN(uint8_t type, r->ReadU8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::ParseError("snapshot: unknown column type " +
                                std::to_string(type));
    }
    col.type = static_cast<ValueType>(type);
    cols.push_back(std::move(col));
  }
  Table table(name, Schema(std::move(cols)));

  DAISY_ASSIGN_OR_RETURN(uint64_t rows, r->ReadU64());
  // Every row costs 4 bytes of dictionary codes per column downstream;
  // reject absurd counts before any allocation sized by them. Zero-column
  // tables cannot carry rows (nothing encodes them).
  if (rows > 0 &&
      (ncols == 0 || rows > r->remaining() / (4ull * ncols))) {
    return Status::ParseError("snapshot: row count " + std::to_string(rows) +
                              " exceeds the section size in " + name);
  }
  DAISY_ASSIGN_OR_RETURN(uint64_t append_version, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(uint64_t delta_generation, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(uint64_t ndeleted, r->ReadCount(8));
  std::vector<RowId> dlog;
  dlog.reserve(ndeleted);
  for (uint64_t i = 0; i < ndeleted; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t id, r->ReadU64());
    dlog.push_back(id);
  }

  std::vector<std::vector<uint32_t>> col_codes(ncols);
  std::vector<std::vector<Value>> col_dicts(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    DAISY_ASSIGN_OR_RETURN(uint32_t dict_size, r->ReadU32());
    if (dict_size > r->remaining()) {  // >= 1 byte per encoded value
      return Status::ParseError("snapshot: dictionary size " +
                                std::to_string(dict_size) +
                                " exceeds the section size in " + name);
    }
    col_dicts[c].reserve(dict_size);
    for (uint32_t i = 0; i < dict_size; ++i) {
      DAISY_ASSIGN_OR_RETURN(Value v, r->ReadValue());
      if (v.is_double() && std::isnan(v.as_double_raw())) {
        // A table never admits NaN (Table::AppendRow); neither does recovery.
        return Status::ParseError("snapshot: NaN value in column " +
                                  std::to_string(c) + " of " + name);
      }
      col_dicts[c].push_back(std::move(v));
    }
    col_codes[c].reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      DAISY_ASSIGN_OR_RETURN(uint32_t code, r->ReadU32());
      if (code >= dict_size) {
        return Status::ParseError("snapshot: dictionary code " +
                                  std::to_string(code) + " out of range in " +
                                  name);
      }
      col_codes[c].push_back(code);
    }
  }
  table.Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    Row row;
    row.cells.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      row.cells.emplace_back(col_dicts[c][col_codes[c][i]]);
    }
    table.AppendRowUnchecked(std::move(row));
  }

  DAISY_ASSIGN_OR_RETURN(uint64_t prob_cells, r->ReadCount(16));
  for (uint64_t i = 0; i < prob_cells; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t row, r->ReadU64());
    DAISY_ASSIGN_OR_RETURN(uint32_t col, r->ReadU32());
    if (row >= rows || col >= ncols) {
      return Status::ParseError("snapshot: probabilistic cell (" +
                                std::to_string(row) + ", " +
                                std::to_string(col) + ") out of range in " +
                                name);
    }
    DAISY_ASSIGN_OR_RETURN(uint32_t ncands, r->ReadU32());
    std::vector<Candidate> cands;
    cands.reserve(ncands);
    for (uint32_t k = 0; k < ncands; ++k) {
      Candidate cand;
      DAISY_ASSIGN_OR_RETURN(cand.value, r->ReadValue());
      DAISY_ASSIGN_OR_RETURN(cand.prob, r->ReadDouble());
      DAISY_ASSIGN_OR_RETURN(cand.pair_id, r->ReadI32());
      DAISY_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
      if (kind > static_cast<uint8_t>(CandidateKind::kGreaterEq)) {
        return Status::ParseError("snapshot: unknown candidate kind " +
                                  std::to_string(kind));
      }
      cand.kind = static_cast<CandidateKind>(kind);
      cands.push_back(std::move(cand));
    }
    // Stored as persisted: no renormalization, so restore is bit-exact.
    table.SetCandidates(row, col, std::move(cands));
  }

  DAISY_RETURN_IF_ERROR(table.RestorePersistedState(
      std::move(dlog), append_version, delta_generation));
  return table;
}

// ----------------------------------------------------------- constraints --

void EncodeConstraint(const DenialConstraint& dc, BinaryWriter* w) {
  w->WriteString(dc.name());
  w->WriteString(dc.table());
  w->WriteI32(dc.num_tuples());
  w->WriteU32(static_cast<uint32_t>(dc.atoms().size()));
  for (const PredicateAtom& a : dc.atoms()) {
    w->WriteI32(a.left_tuple);
    w->WriteU64(a.left_column);
    w->WriteString(a.left_column_name);
    w->WriteU8(static_cast<uint8_t>(a.op));
    w->WriteU8(a.right_is_constant ? 1 : 0);
    w->WriteI32(a.right_tuple);
    w->WriteU64(a.right_column);
    w->WriteString(a.right_column_name);
    w->WriteValue(a.constant);
  }
}

Result<DenialConstraint> DecodeConstraint(BinaryReader* r) {
  DAISY_ASSIGN_OR_RETURN(std::string name, r->ReadString());
  DAISY_ASSIGN_OR_RETURN(std::string table, r->ReadString());
  DAISY_ASSIGN_OR_RETURN(int32_t num_tuples, r->ReadI32());
  DAISY_ASSIGN_OR_RETURN(uint32_t natoms, r->ReadU32());
  std::vector<PredicateAtom> atoms;
  atoms.reserve(natoms);
  for (uint32_t i = 0; i < natoms; ++i) {
    PredicateAtom a;
    DAISY_ASSIGN_OR_RETURN(a.left_tuple, r->ReadI32());
    DAISY_ASSIGN_OR_RETURN(uint64_t lcol, r->ReadU64());
    a.left_column = lcol;
    DAISY_ASSIGN_OR_RETURN(a.left_column_name, r->ReadString());
    DAISY_ASSIGN_OR_RETURN(uint8_t op, r->ReadU8());
    if (op > static_cast<uint8_t>(CompareOp::kGeq)) {
      return Status::ParseError("snapshot: unknown compare op " +
                                std::to_string(op));
    }
    a.op = static_cast<CompareOp>(op);
    DAISY_ASSIGN_OR_RETURN(uint8_t is_const, r->ReadU8());
    a.right_is_constant = is_const != 0;
    DAISY_ASSIGN_OR_RETURN(a.right_tuple, r->ReadI32());
    DAISY_ASSIGN_OR_RETURN(uint64_t rcol, r->ReadU64());
    a.right_column = rcol;
    DAISY_ASSIGN_OR_RETURN(a.right_column_name, r->ReadString());
    DAISY_ASSIGN_OR_RETURN(a.constant, r->ReadValue());
    atoms.push_back(std::move(a));
  }
  // The constructor re-derives the FD view and the involved-column list.
  return DenialConstraint(std::move(name), std::move(table), num_tuples,
                          std::move(atoms));
}

// ----------------------------------------------------------- rule states --

void EncodeBitmapBytes(const std::vector<uint8_t>& bits, BinaryWriter* w) {
  w->WriteU64(bits.size());
  std::string packed((bits.size() + 7) / 8, '\0');
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != 0) packed[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  w->WriteString(packed);
}

Result<std::vector<uint8_t>> DecodeBitmapBytes(BinaryReader* r) {
  DAISY_ASSIGN_OR_RETURN(uint64_t nbits, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(std::string packed, r->ReadString());
  if (packed.size() != (nbits + 7) / 8) {
    return Status::ParseError("snapshot: bitmap length mismatch");
  }
  std::vector<uint8_t> bits(nbits, 0);
  for (uint64_t i = 0; i < nbits; ++i) {
    bits[i] = (packed[i / 8] >> (i % 8)) & 1;
  }
  return bits;
}

void EncodeDelta(const TableDelta& d, BinaryWriter* w) {
  w->WriteU64(d.generation);
  w->WriteU64(d.engine_epoch);
  w->WriteU64(d.appended.size());
  for (RowId r : d.appended) w->WriteU64(r);
  w->WriteU64(d.deleted.size());
  for (RowId r : d.deleted) w->WriteU64(r);
}

Result<TableDelta> DecodeDelta(BinaryReader* r) {
  TableDelta d;
  DAISY_ASSIGN_OR_RETURN(d.generation, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(d.engine_epoch, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(uint64_t nappend, r->ReadCount(8));
  d.appended.reserve(nappend);
  for (uint64_t i = 0; i < nappend; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t id, r->ReadU64());
    d.appended.push_back(id);
  }
  DAISY_ASSIGN_OR_RETURN(uint64_t ndel, r->ReadCount(8));
  d.deleted.reserve(ndel);
  for (uint64_t i = 0; i < ndel; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t id, r->ReadU64());
    d.deleted.push_back(id);
  }
  return d;
}

void EncodeRuleSnapshot(const RuleSnapshot& rs, BinaryWriter* w) {
  w->WriteString(rs.rule);
  EncodeBitmapBytes(rs.op.checked, w);
  w->WriteU64(rs.op.pending_rows.size());
  for (RowId r : rs.op.pending_rows) w->WriteU64(r);
  w->WriteU32(static_cast<uint32_t>(rs.op.pending_deltas.size()));
  for (const TableDelta& d : rs.op.pending_deltas) EncodeDelta(d, w);
  w->WriteDouble(rs.cost.cumulative);
  w->WriteU64(rs.cost.queries);
  w->WriteU64(rs.cost.sum_q);
  w->WriteU64(rs.cost.sum_errors);
  w->WriteU8(rs.has_theta ? 1 : 0);
  if (rs.has_theta) {
    EncodeBitmapBytes(rs.theta.checked, w);
    w->WriteU64(rs.theta.integrated_rows);
    w->WriteU64(rs.theta.deleted_log_pos);
    w->WriteU64(rs.theta.retractions);
    w->WriteU64(rs.theta.maintained.size());
    for (const ViolationPair& p : rs.theta.maintained) {
      w->WriteU64(p.t1);
      w->WriteU64(p.t2);
    }
  }
}

Result<RuleSnapshot> DecodeRuleSnapshot(BinaryReader* r) {
  RuleSnapshot rs;
  DAISY_ASSIGN_OR_RETURN(rs.rule, r->ReadString());
  DAISY_ASSIGN_OR_RETURN(rs.op.checked, DecodeBitmapBytes(r));
  DAISY_ASSIGN_OR_RETURN(uint64_t npending, r->ReadCount(8));
  rs.op.pending_rows.reserve(npending);
  for (uint64_t i = 0; i < npending; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t id, r->ReadU64());
    rs.op.pending_rows.push_back(id);
  }
  DAISY_ASSIGN_OR_RETURN(uint32_t ndeltas, r->ReadU32());
  rs.op.pending_deltas.reserve(ndeltas);
  for (uint32_t i = 0; i < ndeltas; ++i) {
    DAISY_ASSIGN_OR_RETURN(TableDelta d, DecodeDelta(r));
    rs.op.pending_deltas.push_back(std::move(d));
  }
  DAISY_ASSIGN_OR_RETURN(rs.cost.cumulative, r->ReadDouble());
  DAISY_ASSIGN_OR_RETURN(rs.cost.queries, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(rs.cost.sum_q, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(rs.cost.sum_errors, r->ReadU64());
  DAISY_ASSIGN_OR_RETURN(uint8_t has_theta, r->ReadU8());
  rs.has_theta = has_theta != 0;
  if (rs.has_theta) {
    DAISY_ASSIGN_OR_RETURN(rs.theta.checked, DecodeBitmapBytes(r));
    DAISY_ASSIGN_OR_RETURN(rs.theta.integrated_rows, r->ReadU64());
    DAISY_ASSIGN_OR_RETURN(rs.theta.deleted_log_pos, r->ReadU64());
    DAISY_ASSIGN_OR_RETURN(rs.theta.retractions, r->ReadU64());
    DAISY_ASSIGN_OR_RETURN(uint64_t npairs, r->ReadCount(16));
    rs.theta.maintained.reserve(npairs);
    for (uint64_t i = 0; i < npairs; ++i) {
      ViolationPair p;
      DAISY_ASSIGN_OR_RETURN(p.t1, r->ReadU64());
      DAISY_ASSIGN_OR_RETURN(p.t2, r->ReadU64());
      rs.theta.maintained.push_back(p);
    }
  }
  return rs;
}

// ------------------------------------------------------------- sections ---

void AppendSection(uint32_t id, const std::string& payload, std::string* out) {
  BinaryWriter frame;
  frame.WriteU32(id);
  frame.WriteU64(payload.size());
  out->append(frame.buffer());
  out->append(payload);
  BinaryWriter crc;
  crc.WriteU32(Crc32(payload.data(), payload.size()));
  out->append(crc.buffer());
}

}  // namespace

void EncodeProvenanceRecords(
    const std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>& recs,
    BinaryWriter* w) {
  w->WriteU64(recs.size());
  for (const auto& [key, records] : recs) {
    w->WriteU64(key.first);
    w->WriteU32(static_cast<uint32_t>(key.second));
    w->WriteU32(static_cast<uint32_t>(records.size()));
    for (const RepairRecord& rec : records) {
      w->WriteString(rec.rule);
      w->WriteI32(rec.pair_tag);
      w->WriteU32(static_cast<uint32_t>(rec.sources.size()));
      for (const CandidateSource& s : rec.sources) {
        w->WriteValue(s.value);
        w->WriteDouble(s.count);
        w->WriteU8(static_cast<uint8_t>(s.kind));
      }
      w->WriteU64(rec.conflicting_rows.size());
      for (RowId r : rec.conflicting_rows) w->WriteU64(r);
    }
  }
}

Result<std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>>
DecodeProvenanceRecords(BinaryReader* r) {
  std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>> out;
  DAISY_ASSIGN_OR_RETURN(uint64_t ncells, r->ReadCount(16));
  for (uint64_t i = 0; i < ncells; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t row, r->ReadU64());
    DAISY_ASSIGN_OR_RETURN(uint32_t col, r->ReadU32());
    DAISY_ASSIGN_OR_RETURN(uint32_t nrecs, r->ReadU32());
    std::vector<RepairRecord> records;
    records.reserve(nrecs);
    for (uint32_t k = 0; k < nrecs; ++k) {
      RepairRecord rec;
      DAISY_ASSIGN_OR_RETURN(rec.rule, r->ReadString());
      DAISY_ASSIGN_OR_RETURN(rec.pair_tag, r->ReadI32());
      DAISY_ASSIGN_OR_RETURN(uint32_t nsources, r->ReadU32());
      rec.sources.reserve(nsources);
      for (uint32_t s = 0; s < nsources; ++s) {
        CandidateSource src;
        DAISY_ASSIGN_OR_RETURN(src.value, r->ReadValue());
        DAISY_ASSIGN_OR_RETURN(src.count, r->ReadDouble());
        DAISY_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
        if (kind > static_cast<uint8_t>(CandidateKind::kGreaterEq)) {
          return Status::ParseError("snapshot: unknown source kind " +
                                    std::to_string(kind));
        }
        src.kind = static_cast<CandidateKind>(kind);
        rec.sources.push_back(std::move(src));
      }
      DAISY_ASSIGN_OR_RETURN(uint64_t nconf, r->ReadCount(8));
      rec.conflicting_rows.reserve(nconf);
      for (uint64_t s = 0; s < nconf; ++s) {
        DAISY_ASSIGN_OR_RETURN(uint64_t id, r->ReadU64());
        rec.conflicting_rows.push_back(id);
      }
      records.push_back(std::move(rec));
    }
    out.emplace(ProvenanceStore::CellKey{row, col}, std::move(records));
  }
  return out;
}

Status WriteSnapshot(const std::string& path,
                     const EngineSnapshotView& view, Env* env) {
  std::string bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  {
    BinaryWriter w;
    w.WriteU32(kSnapshotVersion);
    bytes.append(w.buffer());
  }
  {
    BinaryWriter w;
    w.WriteU64(view.epoch);
    w.WriteU32(static_cast<uint32_t>(view.tables.size()));
    w.WriteU32(static_cast<uint32_t>(view.rules.size()));
    w.WriteU8(view.options.mode);
    w.WriteDouble(view.options.accuracy_threshold);
    w.WriteU64(view.options.theta_partitions);
    w.WriteU8(view.options.use_statistics_pruning ? 1 : 0);
    // Retired partition-pruning flag: always 1. Pruning is conservative,
    // so no persisted state ever depended on it.
    w.WriteU8(1);
    w.WriteU8(view.options.optimizer ? 1 : 0);  // v2
    AppendSection(kSectionMeta, w.buffer(), &bytes);
  }
  {
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(view.tables.size()));
    for (const Table* t : view.tables) EncodeTable(*t, &w);
    AppendSection(kSectionTables, w.buffer(), &bytes);
  }
  {
    BinaryWriter w;
    const size_t n = view.constraints == nullptr ? 0 : view.constraints->size();
    w.WriteU32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      EncodeConstraint(view.constraints->at(i), &w);
    }
    AppendSection(kSectionConstraints, w.buffer(), &bytes);
  }
  {
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(view.rules.size()));
    for (const RuleSnapshot& rs : view.rules) EncodeRuleSnapshot(rs, &w);
    AppendSection(kSectionRuleStates, w.buffer(), &bytes);
  }
  {
    BinaryWriter w;
    const size_t n = view.provenance == nullptr ? 0 : view.provenance->size();
    w.WriteU32(static_cast<uint32_t>(n));
    if (view.provenance != nullptr) {
      for (const auto& [table, store] : *view.provenance) {
        w.WriteString(table);
        EncodeProvenanceRecords(store.records(), &w);
      }
    }
    AppendSection(kSectionProvenance, w.buffer(), &bytes);
  }
  AppendSection(kSectionEnd, std::string(), &bytes);
  return WriteFileAtomic(path, bytes, env);
}

Result<EngineSnapshot> ReadSnapshot(const std::string& path, Env* env) {
  DAISY_ASSIGN_OR_RETURN(std::string bytes, ReadFileFully(path, env));
  if (bytes.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::ParseError("not a daisy snapshot: " + path);
  }
  uint32_t version = 0;
  {
    BinaryReader version_reader(bytes.data() + sizeof(kSnapshotMagic), 4);
    DAISY_ASSIGN_OR_RETURN(version, version_reader.ReadU32());
    if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
      return Status::ParseError(
          "snapshot " + path + " has format version " +
          std::to_string(version) + ", supported range [" +
          std::to_string(kMinSnapshotVersion) + ", " +
          std::to_string(kSnapshotVersion) + "]");
    }
  }

  EngineSnapshot snap;
  bool saw_end = false;
  size_t off = sizeof(kSnapshotMagic) + 4;
  while (!saw_end) {
    BinaryReader frame(bytes.data() + off, bytes.size() - off);
    DAISY_ASSIGN_OR_RETURN(uint32_t id, frame.ReadU32());
    DAISY_ASSIGN_OR_RETURN(uint64_t len, frame.ReadU64());
    if (frame.remaining() < len || frame.remaining() - len < 4) {
      return Status::ParseError("snapshot " + path + ": section " +
                                std::to_string(id) + " truncated");
    }
    const char* payload = bytes.data() + off + 12;
    BinaryReader section(payload, len);
    BinaryReader crc_reader(payload + len, 4);
    DAISY_ASSIGN_OR_RETURN(uint32_t crc, crc_reader.ReadU32());
    if (crc != Crc32(payload, len)) {
      return Status::ParseError("snapshot " + path + ": section " +
                                std::to_string(id) + " CRC mismatch");
    }
    off += 12 + len + 4;

    switch (id) {
      case kSectionEnd:
        saw_end = true;
        break;
      case kSectionMeta: {
        DAISY_ASSIGN_OR_RETURN(snap.epoch, section.ReadU64());
        DAISY_RETURN_IF_ERROR(section.ReadU32().status());  // table count
        DAISY_RETURN_IF_ERROR(section.ReadU32().status());  // rule count
        DAISY_ASSIGN_OR_RETURN(snap.options.mode, section.ReadU8());
        if (snap.options.mode > 1) {
          return Status::ParseError("snapshot: unknown engine mode " +
                                    std::to_string(snap.options.mode));
        }
        DAISY_ASSIGN_OR_RETURN(snap.options.accuracy_threshold,
                               section.ReadDouble());
        DAISY_ASSIGN_OR_RETURN(snap.options.theta_partitions,
                               section.ReadU64());
        DAISY_ASSIGN_OR_RETURN(uint8_t pruning, section.ReadU8());
        snap.options.use_statistics_pruning = pruning != 0;
        // Retired partition-pruning flag: accepted and ignored.
        DAISY_RETURN_IF_ERROR(section.ReadU8().status());
        if (version >= 2) {
          DAISY_ASSIGN_OR_RETURN(uint8_t optimizer, section.ReadU8());
          snap.options.optimizer = optimizer != 0;
        }
        break;
      }
      case kSectionTables: {
        DAISY_ASSIGN_OR_RETURN(uint32_t n, section.ReadU32());
        snap.tables.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          DAISY_ASSIGN_OR_RETURN(Table t, DecodeTable(&section));
          snap.tables.push_back(std::move(t));
        }
        break;
      }
      case kSectionConstraints: {
        DAISY_ASSIGN_OR_RETURN(uint32_t n, section.ReadU32());
        snap.constraints.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          DAISY_ASSIGN_OR_RETURN(DenialConstraint dc, DecodeConstraint(&section));
          snap.constraints.push_back(std::move(dc));
        }
        break;
      }
      case kSectionRuleStates: {
        DAISY_ASSIGN_OR_RETURN(uint32_t n, section.ReadU32());
        snap.rules.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          DAISY_ASSIGN_OR_RETURN(RuleSnapshot rs, DecodeRuleSnapshot(&section));
          snap.rules.push_back(std::move(rs));
        }
        break;
      }
      case kSectionProvenance: {
        DAISY_ASSIGN_OR_RETURN(uint32_t n, section.ReadU32());
        for (uint32_t i = 0; i < n; ++i) {
          DAISY_ASSIGN_OR_RETURN(std::string table, section.ReadString());
          DAISY_ASSIGN_OR_RETURN(auto recs, DecodeProvenanceRecords(&section));
          snap.provenance.emplace(std::move(table), std::move(recs));
        }
        break;
      }
      default:
        // Unknown section from a newer minor writer: the CRC was valid, so
        // it is safe to skip — forward compatibility within a version.
        break;
    }
  }
  return snap;
}

}  // namespace persist
}  // namespace daisy
