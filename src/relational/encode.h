#ifndef SVC_RELATIONAL_ENCODE_H_
#define SVC_RELATIONAL_ENCODE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "relational/expr.h"
#include "relational/value.h"

namespace svc {

/// Exact, type-tagged binary encoders. Unlike Value::EncodeTo (canonical by
/// equality: an integral double encodes like the equal int, which η and the
/// key indexes need), these are injective: every value carries its type
/// tag, doubles keep their exact IEEE bit pattern (NaNs and -0.0 included)
/// and strings are length-prefixed. Integers are fixed-width little-endian.
/// The durable serde (storage/serde.h) builds its records from them, and
/// the stale-side memo (core/stale_memo.h) keys its entries on them.

// ---- Primitive writers (append to *out) -----------------------------------
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
/// Raw IEEE-754 bits; round-trips NaN payloads and signed zeros.
void PutF64(std::string* out, double v);
/// u32 length prefix + bytes.
void PutStr(std::string* out, std::string_view v);

/// Type tag + payload.
void EncodeValue(const Value& v, std::string* out);

/// Pre-order: kind tag, then the node's payload, then its children.
void EncodeExpr(const Expr& e, std::string* out);

}  // namespace svc

#endif  // SVC_RELATIONAL_ENCODE_H_
