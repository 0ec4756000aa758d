#include "relational/encode.h"

#include <cstring>

namespace svc {

namespace {

// Fixed-width little-endian, independent of host byte order.
template <typename T>
void PutLE(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

}  // namespace

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) { PutLE<uint32_t>(out, v); }
void PutU64(std::string* out, uint64_t v) { PutLE<uint64_t>(out, v); }
void PutI64(std::string* out, int64_t v) {
  PutLE<uint64_t>(out, static_cast<uint64_t>(v));
}
void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutLE<uint64_t>(out, bits);
}
void PutStr(std::string* out, std::string_view v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(v.data(), v.size());
}

void EncodeValue(const Value& v, std::string* out) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutI64(out, v.AsInt());
      break;
    case ValueType::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case ValueType::kString:
      PutStr(out, v.AsString());
      break;
  }
}

void EncodeExpr(const Expr& e, std::string* out) {
  PutU8(out, static_cast<uint8_t>(e.kind()));
  switch (e.kind()) {
    case ExprKind::kColumn:
      PutStr(out, e.column_ref());
      break;
    case ExprKind::kLiteral:
      EncodeValue(e.literal(), out);
      break;
    case ExprKind::kUnary:
      PutU8(out, static_cast<uint8_t>(e.unary_op()));
      EncodeExpr(*e.children()[0], out);
      break;
    case ExprKind::kBinary:
      PutU8(out, static_cast<uint8_t>(e.binary_op()));
      EncodeExpr(*e.children()[0], out);
      EncodeExpr(*e.children()[1], out);
      break;
    case ExprKind::kFunc:
      PutStr(out, e.func_name());
      PutU32(out, static_cast<uint32_t>(e.children().size()));
      for (const ExprPtr& c : e.children()) EncodeExpr(*c, out);
      break;
    case ExprKind::kParam:
      // Parameter placeholders never reach durable state or the memo:
      // sessions refuse to execute statements with unbound params, so
      // encoding one is a logic error upstream. Encode the index anyway to
      // keep the codec total (storage's DecodeExpr rejects the tag).
      PutU64(out, e.param_index());
      break;
  }
}

}  // namespace svc
