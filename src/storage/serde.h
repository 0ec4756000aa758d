#ifndef SVC_STORAGE_SERDE_H_
#define SVC_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/algebra.h"
#include "relational/encode.h"
#include "relational/expr.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"
#include "view/delta.h"

namespace svc {

/// Exact binary serialization for durable state (storage/wal.h and
/// storage/checkpoint.h). This is deliberately a *different* codec from
/// Value::EncodeTo: that encoding is canonical-by-equality (an integral
/// double encodes like the equal int, which is what η and key indexes
/// need) and therefore lossy. Recovery must reconstruct values bit-exactly
/// — the recovered engine's answers are diffed bitwise against a
/// never-crashed replica — so every value here round-trips with its exact
/// type tag and, for doubles, its exact IEEE bit pattern (NaNs and -0.0
/// included). All integers are fixed-width little-endian.

// The writers (PutU8 ... PutStr, EncodeValue, EncodeExpr) live in
// relational/encode.h; the decoders below are their inverses.

/// Bounds-checked sequential reader over an encoded buffer. Every getter
/// fails with InvalidArgument("truncated ...") instead of reading past the
/// end, so a corrupt or torn payload surfaces as a Status, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  Result<std::string> Str();

  /// Bytes consumed so far.
  size_t pos() const { return pos_; }
  /// Bytes left.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected, init/xorout 0xffffffff) —
/// the standard zlib-compatible checksum, implemented locally so the
/// storage layer carries no external dependency.
uint32_t Crc32(std::string_view data);

// ---- Relational serde ------------------------------------------------------
Result<Value> DecodeValue(ByteReader* r);

void EncodeRow(const Row& row, std::string* out);
Result<Row> DecodeRow(ByteReader* r);

void EncodeSchema(const Schema& schema, std::string* out);
Result<Schema> DecodeSchema(ByteReader* r);

/// Schema + primary-key declaration + rows. Decoding revalidates the key
/// (duplicate keys in a tampered file fail decode rather than corrupting
/// the index).
void EncodeTable(const Table& t, std::string* out);
Result<Table> DecodeTable(ByteReader* r);

// ---- Plan / expression serde ----------------------------------------------
Result<ExprPtr> DecodeExpr(ByteReader* r);

/// Fails with NotSupported for kHashFilter nodes carrying a runtime
/// KeySetFilter (those hold an in-memory key set and never appear in a
/// durable view definition).
Status EncodePlan(const PlanNode& plan, std::string* out);
Result<PlanPtr> DecodePlan(ByteReader* r);

// ---- Pending-delta serde ---------------------------------------------------
/// Per relation and side, the pending rows in queue order. Chunk
/// boundaries are *not* persisted: the logical row sequence is the durable
/// state (results are chunking-independent by construction; see DeltaSet).
void EncodeDeltaSet(const DeltaSet& deltas, std::string* out);
/// Rebuilds by replaying AddInsert/AddDelete against `db` (schemas come
/// from the base relations, which must already exist).
Result<DeltaSet> DecodeDeltaSet(ByteReader* r, const Database& db);

}  // namespace svc

#endif  // SVC_STORAGE_SERDE_H_
