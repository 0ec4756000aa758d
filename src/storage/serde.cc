#include "storage/serde.h"

#include <cstring>

namespace svc {

namespace {

// Fixed-width little-endian, the inverse of relational/encode.cc's PutLE.
template <typename T>
T GetLE(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument(
        "truncated encoding: need " + std::to_string(n) + " byte(s) at " +
        "offset " + std::to_string(pos_) + ", have " +
        std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::U8() {
  SVC_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  SVC_RETURN_IF_ERROR(Need(4));
  uint32_t v = GetLE<uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  SVC_RETURN_IF_ERROR(Need(8));
  uint64_t v = GetLE<uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::I64() {
  SVC_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::F64() {
  SVC_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::Str() {
  SVC_ASSIGN_OR_RETURN(uint32_t n, U32());
  SVC_RETURN_IF_ERROR(Need(n));
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

uint32_t Crc32(std::string_view data) {
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xffffffffu;
  for (char ch : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

// ---- Value / Row -----------------------------------------------------------

Result<Value> DecodeValue(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      SVC_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      SVC_ASSIGN_OR_RETURN(double v, r->F64());
      return Value::Double(v);
    }
    case ValueType::kString: {
      SVC_ASSIGN_OR_RETURN(std::string v, r->Str());
      return Value::String(std::move(v));
    }
  }
  return Status::InvalidArgument("bad value type tag " + std::to_string(tag));
}

void EncodeRow(const Row& row, std::string* out) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(v, out);
}

Result<Row> DecodeRow(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SVC_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    row.push_back(std::move(v));
  }
  return row;
}

// ---- Schema / Table --------------------------------------------------------

void EncodeSchema(const Schema& schema, std::string* out) {
  PutU32(out, static_cast<uint32_t>(schema.NumColumns()));
  for (const Column& c : schema.columns()) {
    PutStr(out, c.qualifier);
    PutStr(out, c.name);
    PutU8(out, static_cast<uint8_t>(c.type));
  }
}

Result<Schema> DecodeSchema(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    SVC_ASSIGN_OR_RETURN(c.qualifier, r->Str());
    SVC_ASSIGN_OR_RETURN(c.name, r->Str());
    SVC_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::InvalidArgument("bad column type tag " +
                                     std::to_string(type));
    }
    c.type = static_cast<ValueType>(type);
    schema.AddColumn(std::move(c));
  }
  return schema;
}

void EncodeTable(const Table& t, std::string* out) {
  EncodeSchema(t.schema(), out);
  const std::vector<std::string> pk = t.PrimaryKeyNames();
  PutU32(out, static_cast<uint32_t>(pk.size()));
  for (const std::string& name : pk) PutStr(out, name);
  PutU64(out, t.NumRows());
  for (const Row& row : t.rows()) EncodeRow(row, out);
}

Result<Table> DecodeTable(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  SVC_ASSIGN_OR_RETURN(uint32_t n_pk, r->U32());
  std::vector<std::string> pk;
  pk.reserve(n_pk);
  for (uint32_t i = 0; i < n_pk; ++i) {
    SVC_ASSIGN_OR_RETURN(std::string name, r->Str());
    pk.push_back(std::move(name));
  }
  const size_t n_cols = schema.NumColumns();
  Table t(std::move(schema));
  SVC_ASSIGN_OR_RETURN(uint64_t n_rows, r->U64());
  for (uint64_t i = 0; i < n_rows; ++i) {
    SVC_ASSIGN_OR_RETURN(Row row, DecodeRow(r));
    if (row.size() != n_cols) {
      return Status::InvalidArgument(
          "table row " + std::to_string(i) + " has " +
          std::to_string(row.size()) + " values, schema has " +
          std::to_string(n_cols));
    }
    t.AppendUnchecked(std::move(row));
  }
  if (!pk.empty()) SVC_RETURN_IF_ERROR(t.SetPrimaryKey(pk));
  return t;
}

// ---- Expr ------------------------------------------------------------------

Result<ExprPtr> DecodeExpr(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (static_cast<ExprKind>(tag)) {
    case ExprKind::kColumn: {
      SVC_ASSIGN_OR_RETURN(std::string ref, r->Str());
      return Expr::Col(std::move(ref));
    }
    case ExprKind::kLiteral: {
      SVC_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
      return Expr::Lit(std::move(v));
    }
    case ExprKind::kUnary: {
      SVC_ASSIGN_OR_RETURN(uint8_t op, r->U8());
      if (op > static_cast<uint8_t>(UnaryOp::kIsNotNull)) {
        return Status::InvalidArgument("bad unary op tag " +
                                       std::to_string(op));
      }
      SVC_ASSIGN_OR_RETURN(ExprPtr child, DecodeExpr(r));
      return Expr::Unary(static_cast<UnaryOp>(op), std::move(child));
    }
    case ExprKind::kBinary: {
      SVC_ASSIGN_OR_RETURN(uint8_t op, r->U8());
      if (op > static_cast<uint8_t>(BinaryOp::kOr)) {
        return Status::InvalidArgument("bad binary op tag " +
                                       std::to_string(op));
      }
      SVC_ASSIGN_OR_RETURN(ExprPtr left, DecodeExpr(r));
      SVC_ASSIGN_OR_RETURN(ExprPtr right, DecodeExpr(r));
      return Expr::Binary(static_cast<BinaryOp>(op), std::move(left),
                          std::move(right));
    }
    case ExprKind::kFunc: {
      SVC_ASSIGN_OR_RETURN(std::string name, r->Str());
      SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      std::vector<ExprPtr> args;
      args.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        SVC_ASSIGN_OR_RETURN(ExprPtr c, DecodeExpr(r));
        args.push_back(std::move(c));
      }
      return Expr::Func(std::move(name), std::move(args));
    }
    case ExprKind::kParam:
      return Status::InvalidArgument(
          "parameter placeholder in durable expression");
  }
  return Status::InvalidArgument("bad expr kind tag " + std::to_string(tag));
}

// ---- Plan ------------------------------------------------------------------

namespace {

/// An optional expression: presence flag + encoding.
Status EncodeOptExpr(const ExprPtr& e, std::string* out) {
  PutU8(out, e != nullptr ? 1 : 0);
  if (e != nullptr) EncodeExpr(*e, out);
  return Status::OK();
}

Result<ExprPtr> DecodeOptExpr(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint8_t present, r->U8());
  if (present == 0) return ExprPtr();
  return DecodeExpr(r);
}

void EncodeStrVec(const std::vector<std::string>& v, std::string* out) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutStr(out, s);
}

Result<std::vector<std::string>> DecodeStrVec(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  std::vector<std::string> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SVC_ASSIGN_OR_RETURN(std::string s, r->Str());
    v.push_back(std::move(s));
  }
  return v;
}

}  // namespace

Status EncodePlan(const PlanNode& plan, std::string* out) {
  PutU8(out, static_cast<uint8_t>(plan.kind()));
  switch (plan.kind()) {
    case PlanKind::kScan:
      PutStr(out, plan.table_name());
      PutStr(out, plan.alias());
      return Status::OK();
    case PlanKind::kSelect:
      EncodeExpr(*plan.predicate(), out);
      return EncodePlan(*plan.child(0), out);
    case PlanKind::kProject:
      PutU32(out, static_cast<uint32_t>(plan.project_items().size()));
      for (const ProjectItem& item : plan.project_items()) {
        PutStr(out, item.alias);
        PutStr(out, item.out_qualifier);
        EncodeExpr(*item.expr, out);
      }
      return EncodePlan(*plan.child(0), out);
    case PlanKind::kJoin:
      PutU8(out, static_cast<uint8_t>(plan.join_type()));
      PutU32(out, static_cast<uint32_t>(plan.join_keys().size()));
      for (const JoinKeyPair& k : plan.join_keys()) {
        PutStr(out, k.left);
        PutStr(out, k.right);
      }
      SVC_RETURN_IF_ERROR(EncodeOptExpr(plan.join_residual(), out));
      PutU8(out, plan.fk_right() ? 1 : 0);
      SVC_RETURN_IF_ERROR(EncodePlan(*plan.child(0), out));
      return EncodePlan(*plan.child(1), out);
    case PlanKind::kAggregate:
      EncodeStrVec(plan.group_by(), out);
      PutU32(out, static_cast<uint32_t>(plan.aggregates().size()));
      for (const AggItem& a : plan.aggregates()) {
        PutU8(out, static_cast<uint8_t>(a.func));
        SVC_RETURN_IF_ERROR(EncodeOptExpr(a.input, out));
        PutStr(out, a.alias);
      }
      return EncodePlan(*plan.child(0), out);
    case PlanKind::kUnion:
    case PlanKind::kIntersect:
    case PlanKind::kDifference:
      SVC_RETURN_IF_ERROR(EncodePlan(*plan.child(0), out));
      return EncodePlan(*plan.child(1), out);
    case PlanKind::kHashFilter:
      if (plan.key_set() != nullptr) {
        return Status::NotSupported(
            "key-set filters hold a runtime key set and cannot be "
            "serialized (they never appear in durable view definitions)");
      }
      EncodeStrVec(plan.hash_columns(), out);
      PutF64(out, plan.hash_ratio());
      PutU8(out, static_cast<uint8_t>(plan.hash_family()));
      return EncodePlan(*plan.child(0), out);
  }
  return Status::Internal("unhandled plan kind");
}

Result<PlanPtr> DecodePlan(ByteReader* r) {
  SVC_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (static_cast<PlanKind>(tag)) {
    case PlanKind::kScan: {
      SVC_ASSIGN_OR_RETURN(std::string table, r->Str());
      SVC_ASSIGN_OR_RETURN(std::string alias, r->Str());
      return PlanNode::Scan(std::move(table), std::move(alias));
    }
    case PlanKind::kSelect: {
      SVC_ASSIGN_OR_RETURN(ExprPtr pred, DecodeExpr(r));
      SVC_ASSIGN_OR_RETURN(PlanPtr child, DecodePlan(r));
      return PlanNode::Select(std::move(child), std::move(pred));
    }
    case PlanKind::kProject: {
      SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      std::vector<ProjectItem> items;
      items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        ProjectItem item;
        SVC_ASSIGN_OR_RETURN(item.alias, r->Str());
        SVC_ASSIGN_OR_RETURN(item.out_qualifier, r->Str());
        SVC_ASSIGN_OR_RETURN(item.expr, DecodeExpr(r));
        items.push_back(std::move(item));
      }
      SVC_ASSIGN_OR_RETURN(PlanPtr child, DecodePlan(r));
      return PlanNode::Project(std::move(child), std::move(items));
    }
    case PlanKind::kJoin: {
      SVC_ASSIGN_OR_RETURN(uint8_t type, r->U8());
      if (type > static_cast<uint8_t>(JoinType::kFull)) {
        return Status::InvalidArgument("bad join type tag " +
                                       std::to_string(type));
      }
      SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      std::vector<JoinKeyPair> keys;
      keys.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        JoinKeyPair k;
        SVC_ASSIGN_OR_RETURN(k.left, r->Str());
        SVC_ASSIGN_OR_RETURN(k.right, r->Str());
        keys.push_back(std::move(k));
      }
      SVC_ASSIGN_OR_RETURN(ExprPtr residual, DecodeOptExpr(r));
      SVC_ASSIGN_OR_RETURN(uint8_t fk_right, r->U8());
      SVC_ASSIGN_OR_RETURN(PlanPtr left, DecodePlan(r));
      SVC_ASSIGN_OR_RETURN(PlanPtr right, DecodePlan(r));
      return PlanNode::Join(std::move(left), std::move(right),
                            static_cast<JoinType>(type), std::move(keys),
                            std::move(residual), fk_right != 0);
    }
    case PlanKind::kAggregate: {
      SVC_ASSIGN_OR_RETURN(std::vector<std::string> group_by, DecodeStrVec(r));
      SVC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      std::vector<AggItem> aggs;
      aggs.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        AggItem a;
        SVC_ASSIGN_OR_RETURN(uint8_t func, r->U8());
        if (func > static_cast<uint8_t>(AggFunc::kCountDistinct)) {
          return Status::InvalidArgument("bad aggregate function tag " +
                                         std::to_string(func));
        }
        a.func = static_cast<AggFunc>(func);
        SVC_ASSIGN_OR_RETURN(a.input, DecodeOptExpr(r));
        SVC_ASSIGN_OR_RETURN(a.alias, r->Str());
        aggs.push_back(std::move(a));
      }
      SVC_ASSIGN_OR_RETURN(PlanPtr child, DecodePlan(r));
      return PlanNode::Aggregate(std::move(child), std::move(group_by),
                                 std::move(aggs));
    }
    case PlanKind::kUnion:
    case PlanKind::kIntersect:
    case PlanKind::kDifference: {
      SVC_ASSIGN_OR_RETURN(PlanPtr left, DecodePlan(r));
      SVC_ASSIGN_OR_RETURN(PlanPtr right, DecodePlan(r));
      if (static_cast<PlanKind>(tag) == PlanKind::kUnion) {
        return PlanNode::Union(std::move(left), std::move(right));
      }
      if (static_cast<PlanKind>(tag) == PlanKind::kIntersect) {
        return PlanNode::Intersect(std::move(left), std::move(right));
      }
      return PlanNode::Difference(std::move(left), std::move(right));
    }
    case PlanKind::kHashFilter: {
      SVC_ASSIGN_OR_RETURN(std::vector<std::string> cols, DecodeStrVec(r));
      SVC_ASSIGN_OR_RETURN(double ratio, r->F64());
      SVC_ASSIGN_OR_RETURN(uint8_t family, r->U8());
      if (family > static_cast<uint8_t>(HashFamily::kSha1)) {
        return Status::InvalidArgument("bad hash family tag " +
                                       std::to_string(family));
      }
      SVC_ASSIGN_OR_RETURN(PlanPtr child, DecodePlan(r));
      return PlanNode::HashFilter(std::move(child), std::move(cols), ratio,
                                  static_cast<HashFamily>(family));
    }
  }
  return Status::InvalidArgument("bad plan kind tag " + std::to_string(tag));
}

// ---- DeltaSet --------------------------------------------------------------

void EncodeDeltaSet(const DeltaSet& deltas, std::string* out) {
  auto encode_side = [&](auto rows_of, auto for_each) {
    std::vector<std::string> touched;
    for (const std::string& rel : deltas.TouchedRelations()) {
      if (rows_of(rel) > 0) touched.push_back(rel);
    }
    PutU32(out, static_cast<uint32_t>(touched.size()));
    for (const std::string& rel : touched) {
      PutStr(out, rel);
      PutU64(out, rows_of(rel));
      for_each(rel, [&](const Row& row) { EncodeRow(row, out); });
    }
  };
  encode_side([&](const std::string& rel) { return deltas.InsertRows(rel); },
              [&](const std::string& rel, auto fn) {
                deltas.ForEachInsert(rel, fn);
              });
  encode_side([&](const std::string& rel) { return deltas.DeleteRows(rel); },
              [&](const std::string& rel, auto fn) {
                deltas.ForEachDelete(rel, fn);
              });
  // The mutation counter survives the round trip: SHOW STATS reports it,
  // and the sample cache validates entries against it, so a recovered
  // engine must not restart it from zero.
  PutU64(out, deltas.version());
}

Result<DeltaSet> DecodeDeltaSet(ByteReader* r, const Database& db) {
  DeltaSet out;
  auto decode_side = [&](auto add) -> Status {
    SVC_ASSIGN_OR_RETURN(uint32_t n_rels, r->U32());
    for (uint32_t i = 0; i < n_rels; ++i) {
      SVC_ASSIGN_OR_RETURN(std::string rel, r->Str());
      SVC_ASSIGN_OR_RETURN(uint64_t n_rows, r->U64());
      for (uint64_t j = 0; j < n_rows; ++j) {
        SVC_ASSIGN_OR_RETURN(Row row, DecodeRow(r));
        SVC_RETURN_IF_ERROR(add(rel, std::move(row)));
      }
    }
    return Status::OK();
  };
  SVC_RETURN_IF_ERROR(decode_side([&](const std::string& rel, Row row) {
    return out.AddInsert(db, rel, std::move(row));
  }));
  SVC_RETURN_IF_ERROR(decode_side([&](const std::string& rel, Row row) {
    return out.AddDelete(db, rel, std::move(row));
  }));
  SVC_ASSIGN_OR_RETURN(uint64_t version, r->U64());
  out.RestoreVersion(version);
  return out;
}

}  // namespace svc
