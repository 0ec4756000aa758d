#ifndef SVC_RELATIONAL_EXPR_H_
#define SVC_RELATIONAL_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace svc {

class Expr;
/// Shared ownership of expression nodes; trees are deep-cloned before any
/// structural rewrite so sharing is safe.
using ExprPtr = std::shared_ptr<Expr>;

enum class ExprKind { kColumn, kLiteral, kUnary, kBinary, kFunc, kParam };

enum class UnaryOp { kNot, kNeg, kIsNull, kIsNotNull };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

/// A scalar expression over the columns of one relation: column references,
/// literals, arithmetic, comparisons, boolean logic (three-valued with
/// NULL), and a small function library (abs, round, floor, substr, strlen,
/// coalesce, if, least, greatest, concat). Expressions are built with the
/// factory functions below, bound to a Schema (resolving column references
/// to positions), and then evaluated per row.
class Expr {
 public:
  // ---- Factories ----------------------------------------------------------
  /// Column reference by "name" or "alias.name".
  static ExprPtr Col(std::string ref);
  /// Literal value.
  static ExprPtr Lit(Value v);
  /// Integer literal.
  static ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
  /// Double literal.
  static ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
  /// String literal.
  static ExprPtr LitString(std::string v) {
    return Lit(Value::String(std::move(v)));
  }
  static ExprPtr Unary(UnaryOp op, ExprPtr e);
  static ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r);
  /// Function call; see class comment for the supported library.
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);
  /// `?` parameter placeholder number `index` (0-based, in statement text
  /// order). Placeholders only appear in prepared statements; they must be
  /// substituted with literals (BindStatementParams) before Bind/Eval.
  static ExprPtr Param(size_t index);

  // Convenience combinators.
  static ExprPtr Add(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kAdd, std::move(l), std::move(r));
  }
  static ExprPtr Sub(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kSub, std::move(l), std::move(r));
  }
  static ExprPtr Mul(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kMul, std::move(l), std::move(r));
  }
  static ExprPtr Div(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kDiv, std::move(l), std::move(r));
  }
  static ExprPtr Eq(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kEq, std::move(l), std::move(r));
  }
  static ExprPtr Ne(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kNe, std::move(l), std::move(r));
  }
  static ExprPtr Lt(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kLt, std::move(l), std::move(r));
  }
  static ExprPtr Le(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kLe, std::move(l), std::move(r));
  }
  static ExprPtr Gt(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kGt, std::move(l), std::move(r));
  }
  static ExprPtr Ge(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kGe, std::move(l), std::move(r));
  }
  static ExprPtr And(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kAnd, std::move(l), std::move(r));
  }
  static ExprPtr Or(ExprPtr l, ExprPtr r) {
    return Binary(BinaryOp::kOr, std::move(l), std::move(r));
  }
  static ExprPtr Not(ExprPtr e) { return Unary(UnaryOp::kNot, std::move(e)); }
  /// coalesce(e, 0) — the NULL-as-zero convention the change-table merge
  /// projection relies on.
  static ExprPtr CoalesceZero(ExprPtr e);

  // ---- Introspection ------------------------------------------------------
  ExprKind kind() const { return kind_; }
  /// For kColumn: the (possibly qualified) reference text.
  const std::string& column_ref() const { return name_; }
  /// For kLiteral: the value.
  const Value& literal() const { return literal_; }
  /// For kFunc: the lowercase function name.
  const std::string& func_name() const { return name_; }
  UnaryOp unary_op() const { return uop_; }
  BinaryOp binary_op() const { return bop_; }
  /// For kParam: the 0-based placeholder index.
  size_t param_index() const { return param_index_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Collects every column reference text in the tree into `out`.
  void CollectColumnRefs(std::set<std::string>* out) const;

  /// Deep copy (unbound).
  ExprPtr Clone() const;

  /// Resolves column references against `schema` and infers the result
  /// type. Must be called before Eval.
  Status Bind(const Schema& schema);

  /// Result type; valid after a successful Bind.
  ValueType result_type() const { return result_type_; }

  /// For a bound kColumn: the resolved position in the bound schema. The
  /// executor uses this to read column values by reference instead of
  /// paying a virtual Eval and a Value copy per row.
  size_t bound_column_index() const { return column_index_; }

  /// Evaluates against a row of the bound schema. NULL-propagating:
  /// arithmetic or comparison with a NULL operand yields NULL; AND/OR use
  /// SQL three-valued logic.
  Value Eval(const Row& row) const;

  /// Human-readable rendering (for plan explain output).
  std::string ToString() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string name_;          // column ref or function name
  Value literal_;             // kLiteral
  UnaryOp uop_ = UnaryOp::kNot;
  BinaryOp bop_ = BinaryOp::kAdd;
  std::vector<ExprPtr> children_;

  size_t param_index_ = 0;  // kParam

  // Bind state.
  size_t column_index_ = 0;
  bool bound_ = false;
  ValueType result_type_ = ValueType::kNull;
};

/// Renders a BinaryOp as its SQL token ("+", "<=", "AND", ...).
const char* BinaryOpName(BinaryOp op);

/// Appends the operands of the `op` chain rooted at `e`, left to right (`e`
/// itself when it is not an `op` node): the conjuncts of an AND, the
/// branches of an OR.
void FlattenBinary(const Expr& e, BinaryOp op, std::vector<const Expr*>* out);

}  // namespace svc

#endif  // SVC_RELATIONAL_EXPR_H_
