#include "sql/planner.h"

#include <algorithm>
#include <optional>

namespace svc {

namespace {

/// Appends clones of the conjuncts of `e` (nested ANDs flattened).
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  std::vector<const Expr*> conjuncts;
  FlattenBinary(*e, BinaryOp::kAnd, &conjuncts);
  for (const Expr* c : conjuncts) out->push_back(c->Clone());
}

ExprPtr JoinConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr e = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    e = Expr::And(std::move(e), std::move(conjuncts[i]));
  }
  return e;
}

/// Matches `a = b` where both sides are bare column references.
bool IsColumnEquality(const Expr& e, std::string* left, std::string* right) {
  if (e.kind() != ExprKind::kBinary || e.binary_op() != BinaryOp::kEq) {
    return false;
  }
  const auto& l = e.children()[0];
  const auto& r = e.children()[1];
  if (l->kind() != ExprKind::kColumn || r->kind() != ExprKind::kColumn) {
    return false;
  }
  *left = l->column_ref();
  *right = r->column_ref();
  return true;
}

struct Source {
  PlanPtr plan;
  Schema schema;
};

/// A planned FROM source: base scan or aliased subquery.
Result<Source> LowerTableRef(const TableRef& ref, const Database& db);

/// Splits `on` into equi-join keys between `left`/`right` schemas and a
/// residual predicate.
struct JoinCondition {
  std::vector<JoinKeyPair> keys;
  ExprPtr residual;
};

JoinCondition ExtractJoinKeys(const ExprPtr& on, const Schema& left,
                              const Schema& right) {
  JoinCondition out;
  if (!on) return out;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(on, &conjuncts);
  std::vector<ExprPtr> residual;
  for (auto& c : conjuncts) {
    std::string a, b;
    if (IsColumnEquality(*c, &a, &b)) {
      const bool a_left = left.Resolve(a).ok();
      const bool a_right = right.Resolve(a).ok();
      const bool b_left = left.Resolve(b).ok();
      const bool b_right = right.Resolve(b).ok();
      if (a_left && !a_right && b_right && !b_left) {
        out.keys.push_back({a, b});
        continue;
      }
      if (b_left && !b_right && a_right && !a_left) {
        out.keys.push_back({b, a});
        continue;
      }
    }
    residual.push_back(std::move(c));
  }
  out.residual = JoinConjuncts(std::move(residual));
  return out;
}

/// Builds the join tree for the FROM clause, consuming cross-source
/// equality conjuncts from `*conjuncts` as join keys.
Result<Source> BuildFromTree(const SelectStmt& stmt, const Database& db,
                             std::vector<ExprPtr>* conjuncts) {
  std::vector<Source> pending;
  for (const auto& ref : stmt.from) {
    SVC_ASSIGN_OR_RETURN(Source s, LowerTableRef(ref, db));
    pending.push_back(std::move(s));
  }
  Source current = std::move(pending.front());
  pending.erase(pending.begin());

  while (!pending.empty()) {
    // Find a pending source connected to `current` by an equality conjunct.
    bool joined = false;
    for (size_t p = 0; p < pending.size() && !joined; ++p) {
      std::vector<JoinKeyPair> keys;
      for (auto it = conjuncts->begin(); it != conjuncts->end();) {
        std::string a, b;
        if (IsColumnEquality(**it, &a, &b)) {
          const bool a_cur = current.schema.Resolve(a).ok();
          const bool b_cur = current.schema.Resolve(b).ok();
          const bool a_new = pending[p].schema.Resolve(a).ok();
          const bool b_new = pending[p].schema.Resolve(b).ok();
          if (a_cur && !a_new && b_new && !b_cur) {
            keys.push_back({a, b});
            it = conjuncts->erase(it);
            continue;
          }
          if (b_cur && !b_new && a_new && !a_cur) {
            keys.push_back({b, a});
            it = conjuncts->erase(it);
            continue;
          }
        }
        ++it;
      }
      if (!keys.empty()) {
        Schema joined_schema =
            Schema::Concat(current.schema, pending[p].schema);
        current.plan = PlanNode::Join(current.plan, pending[p].plan,
                                      JoinType::kInner, std::move(keys));
        current.schema = std::move(joined_schema);
        pending.erase(pending.begin() + p);
        joined = true;
      }
    }
    if (!joined) {
      // No connecting conjunct: cross product with the first pending source.
      Schema joined_schema = Schema::Concat(current.schema,
                                            pending.front().schema);
      current.plan = PlanNode::Join(current.plan, pending.front().plan,
                                    JoinType::kInner, {});
      current.schema = std::move(joined_schema);
      pending.erase(pending.begin());
    }
  }

  // Explicit JOIN ... ON chains.
  for (const auto& jc : stmt.joins) {
    SVC_ASSIGN_OR_RETURN(Source s, LowerTableRef(jc.table, db));
    JoinCondition cond = ExtractJoinKeys(jc.on, current.schema, s.schema);
    Schema joined_schema = Schema::Concat(current.schema, s.schema);
    current.plan = PlanNode::Join(current.plan, s.plan, jc.type,
                                  std::move(cond.keys),
                                  std::move(cond.residual));
    current.schema = std::move(joined_schema);
  }
  return current;
}

Result<Source> LowerTableRef(const TableRef& ref, const Database& db) {
  if (ref.subquery) {
    SVC_ASSIGN_OR_RETURN(PlanPtr sub, PlanSelect(*ref.subquery, db));
    SVC_ASSIGN_OR_RETURN(Schema sub_schema, ComputeSchema(*sub, db));
    // Re-qualify the subquery's output columns with the alias.
    std::vector<ProjectItem> items;
    for (const auto& c : sub_schema.columns()) {
      items.push_back({c.name, Expr::Col(c.FullName()), ref.alias});
    }
    PlanPtr plan = PlanNode::Project(std::move(sub), std::move(items));
    SVC_ASSIGN_OR_RETURN(Schema schema, ComputeSchema(*plan, db));
    return Source{std::move(plan), std::move(schema)};
  }
  PlanPtr plan = PlanNode::Scan(ref.table, ref.alias);
  SVC_ASSIGN_OR_RETURN(Schema schema, ComputeSchema(*plan, db));
  return Source{std::move(plan), std::move(schema)};
}

/// Derives a display alias for an unaliased select item.
std::string DefaultAlias(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.is_agg) {
    std::string base = AggFuncName(item.agg);
    const size_t paren = base.find('(');
    if (paren != std::string::npos) base = base.substr(0, paren);
    return base + "_" + std::to_string(index);
  }
  if (item.scalar && item.scalar->kind() == ExprKind::kColumn) {
    const std::string& ref = item.scalar->column_ref();
    const size_t dot = ref.rfind('.');
    return dot == std::string::npos ? ref : ref.substr(dot + 1);
  }
  return "col_" + std::to_string(index);
}

Result<PlanPtr> LowerSelectCore(const SelectStmt& stmt, const Database& db) {
  std::vector<ExprPtr> conjuncts;
  if (stmt.where) SplitConjuncts(stmt.where, &conjuncts);
  SVC_ASSIGN_OR_RETURN(Source src, BuildFromTree(stmt, db, &conjuncts));
  PlanPtr plan = src.plan;
  if (ExprPtr leftover = JoinConjuncts(std::move(conjuncts))) {
    plan = PlanNode::Select(std::move(plan), std::move(leftover));
  }

  const bool has_agg = std::any_of(stmt.items.begin(), stmt.items.end(),
                                   [](const SelectItem& i) {
                                     return i.is_agg;
                                   }) ||
                       !stmt.group_by.empty();
  if (has_agg) {
    std::vector<AggItem> aggs;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.is_star) {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregation");
      }
      if (item.is_agg) {
        aggs.push_back({item.agg,
                        item.agg_input ? item.agg_input->Clone() : nullptr,
                        DefaultAlias(item, i)});
        continue;
      }
      // Non-aggregate item must be a group-by column.
      if (item.scalar->kind() != ExprKind::kColumn) {
        return Status::InvalidArgument(
            "non-aggregate select expression must be a group-by column: " +
            item.scalar->ToString());
      }
      SVC_ASSIGN_OR_RETURN(size_t item_pos,
                           src.schema.Resolve(item.scalar->column_ref()));
      bool found = false;
      for (const auto& g : stmt.group_by) {
        auto gp = src.schema.Resolve(g);
        if (gp.ok() && *gp == item_pos) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("select column '" +
                                       item.scalar->column_ref() +
                                       "' is not in GROUP BY");
      }
    }
    plan = PlanNode::Aggregate(std::move(plan), stmt.group_by,
                               std::move(aggs));
    if (stmt.having) {
      plan = PlanNode::Select(std::move(plan), stmt.having->Clone());
    }
    // Final projection in select-list order.
    SVC_ASSIGN_OR_RETURN(Schema agg_schema, ComputeSchema(*plan, db));
    std::vector<ProjectItem> items;
    size_t agg_seen = 0;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.is_agg) {
        // Aggregate outputs follow the group columns, in aggs order.
        const Column& c =
            agg_schema.column(stmt.group_by.size() + agg_seen++);
        items.push_back({DefaultAlias(item, i), Expr::Col(c.FullName()), ""});
      } else {
        items.push_back(
            {DefaultAlias(item, i), item.scalar->Clone(), ""});
      }
    }
    // Skip the projection when it is an identity over the aggregate's
    // output (the common SELECT <group cols>, <aggs> shape): leaving the
    // γ node on top lets the view layer classify the plan as an
    // incrementally maintainable aggregate view.
    bool identity = !stmt.having && items.size() == agg_schema.NumColumns();
    for (size_t i = 0; identity && i < items.size(); ++i) {
      if (items[i].expr->kind() != ExprKind::kColumn ||
          items[i].alias != agg_schema.column(i).name) {
        identity = false;
        break;
      }
      auto pos = agg_schema.Resolve(items[i].expr->column_ref());
      identity = pos.ok() && *pos == i;
    }
    if (identity) return plan;
    return PlanNode::Project(std::move(plan), std::move(items));
  }

  // Pure SPJ select list.
  if (stmt.items.size() == 1 && stmt.items[0].is_star) {
    return plan;
  }
  std::vector<ProjectItem> items;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      for (const auto& c : src.schema.columns()) {
        items.push_back(PassThroughItem(c));
      }
      continue;
    }
    items.push_back({DefaultAlias(item, i), item.scalar->Clone(), ""});
  }
  return PlanNode::Project(std::move(plan), std::move(items));
}

}  // namespace

Result<PlanPtr> PlanSelect(const SelectStmt& stmt, const Database& db) {
  SVC_ASSIGN_OR_RETURN(PlanPtr plan, LowerSelectCore(stmt, db));
  if (stmt.set_next) {
    SVC_ASSIGN_OR_RETURN(PlanPtr rhs, PlanSelect(*stmt.set_next, db));
    switch (stmt.set_op) {
      case PlanKind::kUnion:
        return PlanNode::Union(std::move(plan), std::move(rhs));
      case PlanKind::kIntersect:
        return PlanNode::Intersect(std::move(plan), std::move(rhs));
      case PlanKind::kDifference:
        return PlanNode::Difference(std::move(plan), std::move(rhs));
      default:
        return Status::Internal("bad set op");
    }
  }
  return plan;
}

Result<PlanPtr> SqlToPlan(const std::string& sql, const Database& db) {
  SVC_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  return PlanSelect(*stmt, db);
}

}  // namespace svc
