#include "relational/expr.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace svc {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool IsArith(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv || op == BinaryOp::kMod;
}

bool IsCompare(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

}  // namespace

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

void FlattenBinary(const Expr& e, BinaryOp op, std::vector<const Expr*>* out) {
  if (e.kind() == ExprKind::kBinary && e.binary_op() == op) {
    for (const ExprPtr& child : e.children()) FlattenBinary(*child, op, out);
    return;
  }
  out->push_back(&e);
}

ExprPtr Expr::Col(std::string ref) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->name_ = std::move(ref);
  return e;
}

ExprPtr Expr::Lit(Value v) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr c) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kUnary;
  e->uop_ = op;
  e->children_.push_back(std::move(c));
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kBinary;
  e->bop_ = op;
  e->children_.push_back(std::move(l));
  e->children_.push_back(std::move(r));
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kFunc;
  e->name_ = Lower(std::move(name));
  e->children_ = std::move(args);
  return e;
}

ExprPtr Expr::Param(size_t index) {
  auto e = ExprPtr(new Expr());
  e->kind_ = ExprKind::kParam;
  e->param_index_ = index;
  return e;
}

ExprPtr Expr::CoalesceZero(ExprPtr e) {
  return Func("coalesce", {std::move(e), LitInt(0)});
}

void Expr::CollectColumnRefs(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kColumn) out->insert(name_);
  for (const auto& c : children_) c->CollectColumnRefs(out);
}

ExprPtr Expr::Clone() const {
  auto e = ExprPtr(new Expr());
  e->kind_ = kind_;
  e->name_ = name_;
  e->literal_ = literal_;
  e->uop_ = uop_;
  e->bop_ = bop_;
  e->param_index_ = param_index_;
  e->children_.reserve(children_.size());
  for (const auto& c : children_) e->children_.push_back(c->Clone());
  return e;
}

Status Expr::Bind(const Schema& schema) {
  for (auto& c : children_) SVC_RETURN_IF_ERROR(c->Bind(schema));
  switch (kind_) {
    case ExprKind::kColumn: {
      SVC_ASSIGN_OR_RETURN(column_index_, schema.Resolve(name_));
      result_type_ = schema.column(column_index_).type;
      break;
    }
    case ExprKind::kLiteral:
      result_type_ = literal_.type();
      break;
    case ExprKind::kParam:
      return Status::InvalidArgument(
          "unbound parameter ?" + std::to_string(param_index_ + 1) +
          " (prepared statements must be executed with bound values)");
    case ExprKind::kUnary:
      switch (uop_) {
        case UnaryOp::kNot:
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          result_type_ = ValueType::kInt;
          break;
        case UnaryOp::kNeg:
          result_type_ = children_[0]->result_type_;
          break;
      }
      break;
    case ExprKind::kBinary: {
      const ValueType lt = children_[0]->result_type_;
      const ValueType rt = children_[1]->result_type_;
      if (IsArith(bop_)) {
        if (bop_ == BinaryOp::kDiv) {
          result_type_ = ValueType::kDouble;
        } else if (lt == ValueType::kDouble || rt == ValueType::kDouble) {
          result_type_ = ValueType::kDouble;
        } else {
          result_type_ = ValueType::kInt;
        }
      } else {
        result_type_ = ValueType::kInt;  // comparisons and logic -> bool
      }
      break;
    }
    case ExprKind::kFunc: {
      const size_t n = children_.size();
      auto arity = [&](size_t want) -> Status {
        if (n != want) {
          return Status::InvalidArgument("function " + name_ + " expects " +
                                         std::to_string(want) + " args");
        }
        return Status::OK();
      };
      if (name_ == "abs" || name_ == "round" || name_ == "floor" ||
          name_ == "ceil") {
        SVC_RETURN_IF_ERROR(arity(1));
        result_type_ = name_ == "abs" ? children_[0]->result_type_
                                      : ValueType::kInt;
        if (name_ == "abs" && result_type_ == ValueType::kNull) {
          result_type_ = ValueType::kDouble;
        }
      } else if (name_ == "substr") {
        SVC_RETURN_IF_ERROR(arity(3));
        result_type_ = ValueType::kString;
      } else if (name_ == "strlen") {
        SVC_RETURN_IF_ERROR(arity(1));
        result_type_ = ValueType::kInt;
      } else if (name_ == "concat") {
        if (n < 1) return Status::InvalidArgument("concat expects >= 1 args");
        result_type_ = ValueType::kString;
      } else if (name_ == "coalesce") {
        if (n < 1) {
          return Status::InvalidArgument("coalesce expects >= 1 args");
        }
        result_type_ = ValueType::kNull;
        for (const auto& c : children_) {
          if (c->result_type_ != ValueType::kNull) {
            result_type_ = c->result_type_;
            break;
          }
        }
      } else if (name_ == "if") {
        SVC_RETURN_IF_ERROR(arity(3));
        result_type_ = children_[1]->result_type_;
      } else if (name_ == "least" || name_ == "greatest") {
        SVC_RETURN_IF_ERROR(arity(2));
        result_type_ = children_[0]->result_type_;
      } else {
        return Status::NotSupported("unknown function: " + name_);
      }
      break;
    }
  }
  bound_ = true;
  return Status::OK();
}

Value Expr::Eval(const Row& row) const {
  assert(bound_);
  switch (kind_) {
    case ExprKind::kColumn:
      return row[column_index_];
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kParam:
      return Value::Null();  // unreachable: Bind rejects unbound params
    case ExprKind::kUnary: {
      const Value v = children_[0]->Eval(row);
      switch (uop_) {
        case UnaryOp::kNot:
          if (v.is_null()) return Value::Null();
          return Value::Bool(!v.IsTrue());
        case UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.type() == ValueType::kInt) return Value::Int(-v.AsInt());
          return Value::Double(-v.ToDouble());
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
      }
      return Value::Null();
    }
    case ExprKind::kBinary: {
      if (bop_ == BinaryOp::kAnd || bop_ == BinaryOp::kOr) {
        // SQL three-valued logic with short-circuiting.
        const Value l = children_[0]->Eval(row);
        if (bop_ == BinaryOp::kAnd) {
          if (!l.is_null() && !l.IsTrue()) return Value::Bool(false);
          const Value r = children_[1]->Eval(row);
          if (!r.is_null() && !r.IsTrue()) return Value::Bool(false);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(true);
        }
        if (!l.is_null() && l.IsTrue()) return Value::Bool(true);
        const Value r = children_[1]->Eval(row);
        if (!r.is_null() && r.IsTrue()) return Value::Bool(true);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      const Value l = children_[0]->Eval(row);
      const Value r = children_[1]->Eval(row);
      if (l.is_null() || r.is_null()) return Value::Null();
      if (IsArith(bop_)) {
        if (bop_ == BinaryOp::kDiv) {
          const double d = r.ToDouble();
          if (d == 0.0) return Value::Null();
          return Value::Double(l.ToDouble() / d);
        }
        if (bop_ == BinaryOp::kMod) {
          const int64_t d = r.AsInt();
          if (d == 0) return Value::Null();
          return Value::Int(l.AsInt() % d);
        }
        if (l.type() == ValueType::kInt && r.type() == ValueType::kInt) {
          const int64_t a = l.AsInt(), b = r.AsInt();
          switch (bop_) {
            case BinaryOp::kAdd: return Value::Int(a + b);
            case BinaryOp::kSub: return Value::Int(a - b);
            case BinaryOp::kMul: return Value::Int(a * b);
            default: break;
          }
        }
        const double a = l.ToDouble(), b = r.ToDouble();
        switch (bop_) {
          case BinaryOp::kAdd: return Value::Double(a + b);
          case BinaryOp::kSub: return Value::Double(a - b);
          case BinaryOp::kMul: return Value::Double(a * b);
          default: break;
        }
        return Value::Null();
      }
      if (IsCompare(bop_)) {
        switch (bop_) {
          case BinaryOp::kEq: return Value::Bool(l == r);
          case BinaryOp::kNe: return Value::Bool(!(l == r));
          case BinaryOp::kLt: return Value::Bool(l < r);
          case BinaryOp::kLe: return Value::Bool(!(r < l));
          case BinaryOp::kGt: return Value::Bool(r < l);
          case BinaryOp::kGe: return Value::Bool(!(l < r));
          default: break;
        }
      }
      return Value::Null();
    }
    case ExprKind::kFunc: {
      if (name_ == "coalesce") {
        for (const auto& c : children_) {
          Value v = c->Eval(row);
          if (!v.is_null()) return v;
        }
        return Value::Null();
      }
      if (name_ == "if") {
        const Value c = children_[0]->Eval(row);
        return (!c.is_null() && c.IsTrue()) ? children_[1]->Eval(row)
                                            : children_[2]->Eval(row);
      }
      std::vector<Value> args;
      args.reserve(children_.size());
      for (const auto& c : children_) args.push_back(c->Eval(row));
      for (const auto& a : args) {
        if (a.is_null()) return Value::Null();
      }
      if (name_ == "abs") {
        if (args[0].type() == ValueType::kInt) {
          return Value::Int(std::abs(args[0].AsInt()));
        }
        return Value::Double(std::fabs(args[0].ToDouble()));
      }
      if (name_ == "round") {
        return Value::Int(static_cast<int64_t>(std::llround(
            args[0].ToDouble())));
      }
      if (name_ == "floor") {
        return Value::Int(static_cast<int64_t>(std::floor(
            args[0].ToDouble())));
      }
      if (name_ == "ceil") {
        return Value::Int(static_cast<int64_t>(std::ceil(
            args[0].ToDouble())));
      }
      if (name_ == "substr") {
        const std::string& s = args[0].AsString();
        int64_t start = args[1].AsInt();  // 1-based, SQL style
        int64_t len = args[2].AsInt();
        if (start < 1) start = 1;
        if (static_cast<size_t>(start) > s.size() || len <= 0) {
          return Value::String("");
        }
        return Value::String(
            s.substr(static_cast<size_t>(start - 1),
                     static_cast<size_t>(len)));
      }
      if (name_ == "strlen") {
        return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
      }
      if (name_ == "concat") {
        std::string out;
        for (const auto& a : args) out += a.ToString();
        return Value::String(std::move(out));
      }
      if (name_ == "least") {
        return args[0] < args[1] ? args[0] : args[1];
      }
      if (name_ == "greatest") {
        return args[0] < args[1] ? args[1] : args[0];
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return name_;
    case ExprKind::kLiteral:
      return literal_.type() == ValueType::kString
                 ? "'" + literal_.ToString() + "'"
                 : literal_.ToString();
    case ExprKind::kParam:
      return "?";
    case ExprKind::kUnary:
      switch (uop_) {
        case UnaryOp::kNot: return "NOT (" + children_[0]->ToString() + ")";
        case UnaryOp::kNeg: return "-(" + children_[0]->ToString() + ")";
        case UnaryOp::kIsNull:
          return "(" + children_[0]->ToString() + ") IS NULL";
        case UnaryOp::kIsNotNull:
          return "(" + children_[0]->ToString() + ") IS NOT NULL";
      }
      return "?";
    case ExprKind::kBinary:
      return "(" + children_[0]->ToString() + " " + BinaryOpName(bop_) + " " +
             children_[1]->ToString() + ")";
    case ExprKind::kFunc: {
      std::string out = name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) out += ", ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace svc
