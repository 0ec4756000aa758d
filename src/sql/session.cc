#include "sql/session.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "relational/executor.h"
#include "sql/planner.h"
#include "storage/ops.h"

namespace svc {

namespace {

const char* ModeName(EstimatorMode m) {
  return m == EstimatorMode::kAqp ? "AQP" : "CORR";
}

/// Display alias for the aggregate output column: the user's alias, or the
/// function's base name ("count", "sum", ...).
std::string AggAlias(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  std::string base = AggFuncName(item.agg);
  const size_t paren = base.find('(');
  if (paren != std::string::npos) base = base.substr(0, paren);
  return base;
}

/// The estimate columns appended to every SVC result row.
void AppendEstimateColumns(const std::string& value_alias, Schema* schema) {
  schema->AddColumn({"", value_alias, ValueType::kDouble});
  schema->AddColumn({"", "ci_low", ValueType::kDouble});
  schema->AddColumn({"", "ci_high", ValueType::kDouble});
  schema->AddColumn({"", "mode", ValueType::kString});
  schema->AddColumn({"", "sample_rows", ValueType::kInt});
}

void AppendEstimateValues(const Estimate& e, EstimatorMode mode, Row* row) {
  row->push_back(Value::Double(e.value));
  row->push_back(e.has_ci ? Value::Double(e.ci_low) : Value::Null());
  row->push_back(e.has_ci ? Value::Double(e.ci_high) : Value::Null());
  row->push_back(Value::String(ModeName(mode)));
  row->push_back(Value::Int(static_cast<int64_t>(e.sample_rows)));
}

/// "%.6g" as a std::string (matches Value::ToString's double format).
std::string Num6g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatEstimateMessage(const AggregateQuery& q,
                                  const std::string& view,
                                  const Estimate& e, EstimatorMode mode) {
  // Built as a string (not a fixed buffer) so long predicates never
  // truncate the estimate/CI suffix.
  std::string out = q.ToString() + " on " + view + ": " + Num6g(e.value);
  if (e.has_ci) {
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.0f", e.confidence * 100.0);
    out += " +/- " + Num6g(e.HalfWidth()) + " (" + pct + "% CI, ";
  } else {
    out += " (no CI, ";
  }
  out += std::string(ModeName(mode)) + ", " +
         std::to_string(e.sample_rows) + " sample rows)";
  return out;
}

/// INSERT row validation: checks arity and value types against `schema`,
/// widening INT literals into DOUBLE columns in place.
Status CoerceInsertRows(const Statement& stmt, const Schema& schema,
                        std::vector<Row>* rows) {
  for (size_t r = 0; r < rows->size(); ++r) {
    Row& row = (*rows)[r];
    if (row.size() != schema.NumColumns()) {
      std::string cols;
      for (const auto& c : schema.columns()) {
        cols += (cols.empty() ? "" : ", ") + c.name;
      }
      return Status::InvalidArgument(
          "INSERT INTO " + stmt.target + " expects " +
          std::to_string(schema.NumColumns()) + " values (" + cols +
          "); row " + std::to_string(r + 1) + " has " +
          std::to_string(row.size()));
    }
    for (size_t c = 0; c < row.size(); ++c) {
      Value& v = row[c];
      const Column& col = schema.column(c);
      if (v.is_null()) continue;
      if (col.type == ValueType::kDouble && v.type() == ValueType::kInt) {
        v = Value::Double(static_cast<double>(v.AsInt()));  // widen
        continue;
      }
      if (v.type() != col.type) {
        return Status::InvalidArgument(
            "INSERT INTO " + stmt.target + " column '" + col.name +
            "' expects " + ValueTypeName(col.type) + "; row " +
            std::to_string(r + 1) + " has " + v.ToString() + " (" +
            ValueTypeName(v.type()) + ")");
      }
    }
  }
  return Status::OK();
}

/// The primary keys a DELETE's bound WHERE names, when every OR-branch
/// pins every key column through a conjunct `c = lit` or `lit = c`, with
/// `lit` a non-NULL literal of exactly c's declared type, INT or STRING —
/// the types whose Value equality is equality of EncodeRowKey bytes, so a
/// key lookup finds every row the scan would select. Each key is a
/// full-width row with only the key columns set. Any other WHERE yields
/// nullopt (the caller scans). A branch's other conjuncts are not
/// analysed: the caller re-checks every hit with the whole predicate.
std::optional<std::vector<Row>> PinnedKeys(const Expr& pred,
                                           const Schema& schema,
                                           const std::vector<size_t>& pk) {
  std::vector<const Expr*> branches;
  FlattenBinary(pred, BinaryOp::kOr, &branches);
  std::vector<Row> keys;
  keys.reserve(branches.size());
  for (const Expr* branch : branches) {
    std::vector<const Expr*> conjuncts;
    FlattenBinary(*branch, BinaryOp::kAnd, &conjuncts);
    Row key(schema.NumColumns());
    std::vector<bool> pinned(schema.NumColumns(), false);
    for (const Expr* c : conjuncts) {
      if (c->kind() != ExprKind::kBinary || c->binary_op() != BinaryOp::kEq) {
        continue;
      }
      const Expr* col = c->children()[0].get();
      const Expr* lit = c->children()[1].get();
      if (col->kind() == ExprKind::kLiteral) std::swap(col, lit);
      if (col->kind() != ExprKind::kColumn ||
          lit->kind() != ExprKind::kLiteral) {
        continue;
      }
      const size_t i = col->bound_column_index();
      const ValueType type = schema.column(i).type;
      if (pinned[i] || lit->literal().type() != type ||
          (type != ValueType::kInt && type != ValueType::kString)) {
        continue;  // not a pin; a repeated pin is left to the re-check
      }
      key[i] = lit->literal();
      pinned[i] = true;
    }
    for (size_t i : pk) {
      if (!pinned[i]) return std::nullopt;
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

/// Renders SHOW MAINTENANCE: the active policy line as the message plus one
/// score row per view. Scores come from ScoreViews at elapsed_ms=0, so every
/// column is a pure function of engine state — the output is golden-safe.
SqlResult RenderMaintenance(const MaintenancePolicyConfig& cfg,
                            const std::vector<ViewMaintenanceScore>& scores) {
  Schema schema;
  schema.AddColumn({"", "view", ValueType::kString});
  schema.AddColumn({"", "pending_rows", ValueType::kInt});
  schema.AddColumn({"", "staleness", ValueType::kDouble});
  schema.AddColumn({"", "error", ValueType::kDouble});
  schema.AddColumn({"", "sla", ValueType::kDouble});
  schema.AddColumn({"", "score", ValueType::kDouble});
  schema.AddColumn({"", "action", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& s : scores) {
    out.AppendUnchecked({Value::String(s.view),
                         Value::Int(static_cast<int64_t>(s.pending_rows)),
                         Value::Double(s.staleness), Value::Double(s.error),
                         Value::Double(s.sla), Value::Double(s.score),
                         Value::String(MaintenanceActionName(s.action))});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = DescribeMaintenancePolicy(cfg);
  result.rows = std::move(out);
  return result;
}

}  // namespace

Result<SqlResult> SqlSession::Execute(const std::string& sql) {
  SVC_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return Execute(stmt);
}

Result<SqlResult> SqlSession::Execute(const Statement& stmt) {
  if (stmt.num_params > 0) {
    // Without this check an INSERT would silently write the parser's NULL
    // placeholder values; expression params would only fail later at Bind.
    return Status::InvalidArgument(
        "statement has " + std::to_string(stmt.num_params) +
        " unbound parameter(s); bind values first (prepared-statement "
        "EXECUTE, or BindStatementParams)");
  }
  // Deadline gate: a statement whose deadline already passed never starts.
  // This is the *only* cancellation point for writes — once a write is
  // admitted it runs to completion, so a deadline can never tear a commit.
  if (cancel_ != nullptr) {
    SVC_RETURN_IF_ERROR(cancel_->Check("statement admission"));
  }
  // Reads run against one consistent cut, held alive for the duration of
  // the statement (concurrent commits don't affect it); writes run inside
  // the mode's atomic commit.
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return stmt.svc.present ? ExecSvcSelect(stmt, handle_.Read())
                              : ExecSelect(stmt, handle_.Read());
    case Statement::Kind::kShowTables:
      return ExecShowTables(handle_.Read());
    case Statement::Kind::kShowViews:
      return ExecShowViews(handle_.Read());
    case Statement::Kind::kShowStats:
      return ExecShowStats(handle_.Read());
    case Statement::Kind::kShowMaintenance:
      return ExecShowMaintenance(handle_.Read());
    case Statement::Kind::kCreateTable:
      return ExecWrite(stmt, &SqlSession::ExecCreateTable);
    case Statement::Kind::kCreateView:
      return ExecWrite(stmt, &SqlSession::ExecCreateView);
    case Statement::Kind::kInsert:
      return ExecWrite(stmt, &SqlSession::ExecInsert);
    case Statement::Kind::kDelete:
      return ExecWrite(stmt, &SqlSession::ExecDelete);
    case Statement::Kind::kRefresh:
      return ExecWrite(stmt, &SqlSession::ExecRefresh);
    case Statement::Kind::kSetPolicy:
      return ExecWrite(stmt, &SqlSession::ExecSetPolicy);
    case Statement::Kind::kCheckpoint:
      return ExecCheckpoint();
  }
  return Status::Internal("unhandled statement kind");
}

Result<SqlResult> SqlSession::ExecWrite(const Statement& stmt,
                                        WriteHandler handler) {
  std::optional<SqlResult> out;
  SVC_RETURN_IF_ERROR(handle_.Write(
      [&](EngineCut& cut) -> Status {
        SVC_ASSIGN_OR_RETURN(out, (this->*handler)(stmt, cut));
        return Status::OK();
      },
      idem_));
  return std::move(*out);
}

Result<SqlResult> SqlSession::ExecSelect(const Statement& stmt,
                                         const EngineCut& cut) {
  Database gathered;
  SVC_ASSIGN_OR_RETURN(const Database* db, cut.SelectDatabase(&gathered));
  SVC_ASSIGN_OR_RETURN(PlanPtr plan, PlanSelect(*stmt.select, *db));
  ExecOptions exec = cut.catalog().exec_options();
  exec.cancel = cancel_;
  SVC_ASSIGN_OR_RETURN(Table out, ExecutePlan(*plan, *db, exec));
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " row(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecSvcSelect(const Statement& stmt,
                                            const EngineCut& cut) {
  const SvcEngine& catalog = cut.catalog();
  const SelectStmt& sel = *stmt.select;
  if (sel.set_next) {
    return Status::NotSupported(
        "WITH SVC does not combine with UNION/INTERSECT/EXCEPT; query each "
        "view separately");
  }
  if (sel.from.size() != 1 || sel.from[0].subquery || !sel.joins.empty()) {
    return Status::InvalidArgument(
        "WITH SVC requires FROM to name exactly one materialized view "
        "(joins and subqueries belong in the view definition)");
  }
  const std::string& view_name = sel.from[0].table;
  auto view = catalog.GetView(view_name);
  if (!view.ok()) {
    if (catalog.db().HasTable(view_name)) {
      return Status::InvalidArgument(
          "WITH SVC corrects stale materialized views, but '" + view_name +
          "' is a base table; query it with a plain SELECT or define a view "
          "over it");
    }
    return view.status();
  }
  if (sel.having) {
    return Status::NotSupported(
        "HAVING is not supported with WITH SVC; filter rows with WHERE "
        "(per-group estimates carry their own CIs)");
  }

  // Exactly one aggregate; every other select item must be a GROUP BY
  // column (the estimator evaluates one aggregate per group, §5.1).
  for (const auto& item : sel.items) {
    if (item.is_star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with WITH SVC; ask for one aggregate "
          "(sum/count/avg/median/min/max) over the view's columns");
    }
  }
  const bool any_agg =
      std::any_of(sel.items.begin(), sel.items.end(),
                  [](const SelectItem& i) { return i.is_agg; });
  if (!any_agg) {
    return Status::InvalidArgument(
        "WITH SVC requires an aggregate select list "
        "(sum/count/avg/median/min/max over the view's columns); a plain "
        "row SELECT reads the stale view directly - drop WITH SVC");
  }
  const SelectItem* agg_item = nullptr;
  for (const auto& item : sel.items) {
    if (item.is_agg) {
      if (agg_item != nullptr) {
        return Status::NotSupported(
            "WITH SVC supports exactly one aggregate per query; split the "
            "select list into separate statements");
      }
      agg_item = &item;
      continue;
    }
    const bool is_group_col =
        item.scalar->kind() == ExprKind::kColumn &&
        std::find(sel.group_by.begin(), sel.group_by.end(),
                  item.scalar->column_ref()) != sel.group_by.end();
    if (!is_group_col) {
      return Status::InvalidArgument(
          "non-aggregate select expression '" + item.scalar->ToString() +
          "' must be a GROUP BY column when using WITH SVC");
    }
  }
  if (agg_item->agg == AggFunc::kCountDistinct) {
    return Status::NotSupported(
        "count(DISTINCT ...) is not an SVC-estimable aggregate; supported: "
        "sum, count, count(*), avg, median, min, max");
  }

  AggregateQuery q;
  q.func = agg_item->agg;
  if (agg_item->agg_input) q.attr = agg_item->agg_input->Clone();
  if (sel.where) q.predicate = sel.where->Clone();

  // Per-query options: session defaults overridden by WITH SVC(...) keys.
  SvcQueryOptions opts = svc_defaults_;
  if (stmt.svc.ratio) opts.ratio = *stmt.svc.ratio;
  if (stmt.svc.auto_mode) {
    opts.auto_mode = true;
  } else if (stmt.svc.mode) {
    opts.mode = *stmt.svc.mode;
    opts.auto_mode = false;
  }
  if (stmt.svc.confidence) opts.estimator.confidence = *stmt.svc.confidence;
  opts.exec.cancel = cancel_;
  // Degraded admission (server --degrade past the inflight cap): same
  // estimator, smaller sample. The answer stays correct-with-CI — the CI
  // is just wider — and the result is flagged so clients can tell.
  const bool degraded = degrade_scale_ < 1.0;
  if (degraded) opts.ratio *= degrade_scale_;

  const std::string value_alias = AggAlias(*agg_item);
  SqlResult result;
  result.kind = SqlResultKind::kEstimate;
  result.degraded = degraded;

  if (sel.group_by.empty()) {
    SVC_ASSIGN_OR_RETURN(SvcAnswer answer, cut.Query(view_name, q, opts));
    Schema schema;
    AppendEstimateColumns(value_alias, &schema);
    Table out(std::move(schema));
    Row row;
    AppendEstimateValues(answer.estimate, answer.mode_used, &row);
    out.AppendUnchecked(std::move(row));
    result.rows = std::move(out);
    result.mode_used = answer.mode_used;
    result.message = FormatEstimateMessage(q, view_name, answer.estimate,
                                           answer.mode_used);
    return result;
  }

  // Grouped path: one estimate per observed group.
  SVC_ASSIGN_OR_RETURN(const Table* stored,
                       catalog.db().GetTable(view_name));
  Schema schema;
  for (const auto& g : sel.group_by) {
    SVC_ASSIGN_OR_RETURN(size_t pos, stored->schema().Resolve(g));
    const Column& c = stored->schema().column(pos);
    schema.AddColumn({"", c.name, c.type});
  }
  AppendEstimateColumns(value_alias, &schema);

  SVC_ASSIGN_OR_RETURN(SvcGroupedAnswer answer,
                       cut.QueryGrouped(view_name, sel.group_by, q, opts));
  // The engine lists groups in key order.
  Table out(std::move(schema));
  for (size_t i = 0; i < answer.result.group_keys.size(); ++i) {
    Row row = answer.result.group_keys[i];
    AppendEstimateValues(answer.result.estimates[i], answer.mode_used, &row);
    out.AppendUnchecked(std::move(row));
  }
  result.rows = std::move(out);
  result.mode_used = answer.mode_used;
  result.message = q.ToString() + " on " + view_name + ": " +
                   std::to_string(answer.result.group_keys.size()) +
                   " group(s) (" +
                   ModeName(answer.mode_used) + ")";
  return result;
}

Result<SqlResult> SqlSession::ExecCreateTable(const Statement& stmt,
                                              EngineCut& cut) {
  if (cut.catalog().db().HasTable(stmt.target)) {
    return Status::AlreadyExists("table or view already exists: " +
                                 stmt.target);
  }
  if (stmt.primary_key.empty()) {
    return Status::InvalidArgument(
        "CREATE TABLE " + stmt.target +
        " requires a PRIMARY KEY (...) clause: the maintenance model "
        "identifies records by key (paper §3.1)");
  }
  Schema schema;
  for (const auto& col : stmt.columns) {
    if (schema.Contains(col.name)) {
      return Status::InvalidArgument("duplicate column '" + col.name +
                                     "' in CREATE TABLE " + stmt.target);
    }
    schema.AddColumn({"", col.name, col.type});
  }
  Table table(std::move(schema));
  SVC_RETURN_IF_ERROR(table.SetPrimaryKey(stmt.primary_key));
  SVC_RETURN_IF_ERROR(
      cut.Apply(DurableOp::CreateTableOp(stmt.target, std::move(table))));
  SqlResult result;
  result.message = "created table " + stmt.target + " (" +
                   std::to_string(stmt.columns.size()) + " columns)";
  return result;
}

Result<SqlResult> SqlSession::ExecCreateView(const Statement& stmt,
                                             EngineCut& cut) {
  const SvcEngine& catalog = cut.catalog();
  if (catalog.HasView(stmt.target)) {
    return Status::AlreadyExists("view already exists: " + stmt.target);
  }
  if (catalog.db().HasTable(stmt.target)) {
    return Status::AlreadyExists("a table named '" + stmt.target +
                                 "' already exists; views need a fresh name");
  }
  // Planning reads schemas, never rows, so the catalog suffices.
  SVC_ASSIGN_OR_RETURN(PlanPtr def, PlanSelect(*stmt.select, catalog.db()));
  SVC_RETURN_IF_ERROR(cut.Apply(DurableOp::CreateViewOp(
      stmt.target, std::move(def), stmt.sampling_key)));
  SVC_ASSIGN_OR_RETURN(size_t rows, cut.NumRows(stmt.target));
  SqlResult result;
  result.message = "materialized view " + stmt.target + " (" +
                   std::to_string(rows) + " rows)";
  return result;
}

Result<SqlResult> SqlSession::ExecInsert(const Statement& stmt,
                                         EngineCut& cut) {
  SVC_ASSIGN_OR_RETURN(const Table* table,
                       ResolveBaseTable(cut, stmt.target, "INSERT INTO"));
  // Validate and coerce every row before ingesting any (the statement
  // either queues completely or not at all).
  std::vector<Row> rows = stmt.values;
  SVC_RETURN_IF_ERROR(CoerceInsertRows(stmt, table->schema(), &rows));
  std::vector<std::string> batch_keys;
  PendingKeys scratch;
  PendingKeys* cache = nullptr;
  if (table->HasPrimaryKey()) {
    // Key checks run against the logical table (a conflicting committed
    // row may live on any shard), looked up by key rather than scanned.
    cache = PendingKeysFor(stmt.target, &scratch);
    SyncPendingKeys(cut, stmt.target, table->pk_indices(), cache);
    SVC_ASSIGN_OR_RETURN(std::vector<Row> committed,
                         cut.FindRowsByKey(stmt.target, rows));
    SVC_RETURN_IF_ERROR(CheckInsertKeys(stmt, *table, rows, committed, *cache,
                                        &batch_keys));
  }
  const size_t queued = rows.size();
  // The *coerced* rows are what the op carries, and what replay re-queues.
  SVC_RETURN_IF_ERROR(
      cut.Apply(DurableOp::InsertOp(stmt.target, std::move(rows))));
  if (cache != nullptr) {
    // Extend the cache in step with what was just queued.
    for (auto& key : batch_keys) cache->inserts.insert(std::move(key));
    cache->insert_rows += queued;
  }
  SqlResult result;
  result.message = "queued " + std::to_string(queued) + " insert(s) into " +
                   stmt.target + "; REFRESH commits them";
  return result;
}

Result<SqlResult> SqlSession::ExecDelete(const Statement& stmt,
                                         EngineCut& cut) {
  SVC_ASSIGN_OR_RETURN(const Table* table,
                       ResolveBaseTable(cut, stmt.target, "DELETE FROM"));
  ExprPtr pred;
  if (stmt.where) {
    pred = stmt.where->Clone();
    SVC_RETURN_IF_ERROR(pred->Bind(table->schema()));
  }
  // WHERE selects from the committed rows (in the logical table's canonical
  // order, so the queued delta order is shard-count-invariant); matches are
  // queued as delete deltas (the base table changes at REFRESH). A WHERE
  // that pins whole primary keys looks them up; any other scans.
  std::optional<std::vector<Row>> keys;
  if (pred && table->HasPrimaryKey()) {
    keys = PinnedKeys(*pred, table->schema(), table->pk_indices());
  }
  std::vector<Row> doomed;
  if (keys) {
    SVC_ASSIGN_OR_RETURN(std::vector<Row> hits,
                         cut.FindRowsByKey(stmt.target, *keys));
    for (Row& row : hits) {
      if (pred->Eval(row).IsTrue()) doomed.push_back(std::move(row));
    }
  } else {
    SVC_ASSIGN_OR_RETURN(std::shared_ptr<const Table> logical,
                         cut.GetTable(stmt.target));
    for (const auto& row : logical->rows()) {
      if (!pred || pred->Eval(row).IsTrue()) doomed.push_back(row);
    }
  }
  // DELETE is idempotent: a row already queued for deletion is skipped —
  // queueing it twice would double-count in the change table and silently
  // corrupt maintained aggregate views at REFRESH.
  PendingKeys scratch;
  PendingKeys* cache = nullptr;
  std::vector<std::string> new_keys;
  if (table->HasPrimaryKey()) {
    const std::vector<size_t>& pk = table->pk_indices();
    cache = PendingKeysFor(stmt.target, &scratch);
    SyncPendingKeys(cut, stmt.target, pk, cache);
    std::vector<Row> fresh;
    fresh.reserve(doomed.size());
    for (auto& row : doomed) {
      std::string key = EncodeRowKey(row, pk);
      if (cache->deletes.count(key)) continue;  // already pending
      new_keys.push_back(std::move(key));
      fresh.push_back(std::move(row));
    }
    doomed = std::move(fresh);
  }
  const size_t queued = doomed.size();
  // The rows the WHERE selected (post-dedup) are what the op carries —
  // replaying the predicate against a different committed state would
  // diverge.
  SVC_RETURN_IF_ERROR(
      cut.Apply(DurableOp::DeleteOp(stmt.target, std::move(doomed))));
  if (cache != nullptr) {
    for (auto& key : new_keys) cache->deletes.insert(std::move(key));
    cache->delete_rows += queued;
  }
  SqlResult result;
  result.message = "queued " + std::to_string(queued) + " delete(s) from " +
                   stmt.target + "; REFRESH commits them";
  return result;
}

Result<SqlResult> SqlSession::ExecRefresh(const Statement& stmt,
                                          EngineCut& cut) {
  size_t inserts = 0;
  size_t deletes = 0;
  cut.PendingTotals(&inserts, &deletes);
  if (!stmt.refresh_all) {
    // Validate the target; maintenance itself is engine-global (pending
    // deltas are one set), so every view freshens at the commit.
    SVC_RETURN_IF_ERROR(cut.catalog().GetView(stmt.target).status());
  }
  // REFRESH is transactional in every mode: on error nothing changed —
  // queued deltas (and the session's pending-key cache over them) stay
  // intact, so the error propagates here without touching session state.
  SVC_RETURN_IF_ERROR(cut.Apply(DurableOp::RefreshOp()));
  pending_keys_.clear();  // the commit emptied the pending queue
  const size_t n_views = cut.catalog().ViewNames().size();
  SqlResult result;
  result.message = "refreshed " + std::to_string(n_views) +
                   " view(s); committed " + std::to_string(inserts) +
                   " insert(s) and " + std::to_string(deletes) + " delete(s)";
  return result;
}

/// The config a SET MAINTENANCE POLICY statement publishes, given the
/// engine's current one. Global form: the statement's config (a complete
/// state), carrying over the existing per-view overrides — they are
/// orthogonal knobs set by separate statements. ON-form: the current
/// config with `target`'s override replaced by exactly the statement's
/// keys (empty parens clear it). Either way the result is the FULL config,
/// so the WAL record stays self-describing and replays verbatim.
static Result<MaintenancePolicyConfig> ResolvePolicyStatement(
    const Statement& stmt, const SvcEngine& eng) {
  MaintenancePolicyConfig cfg;
  if (!stmt.policy_on_view) {
    cfg = stmt.policy;
    cfg.overrides = eng.maintenance_policy().overrides;
    return cfg;
  }
  if (!eng.HasView(stmt.target)) {
    return Status::NotFound("SET MAINTENANCE POLICY ON " + stmt.target +
                            ": no such materialized view");
  }
  cfg = eng.maintenance_policy();
  if (stmt.policy_override.empty()) {
    cfg.overrides.erase(stmt.target);
  } else {
    cfg.overrides[stmt.target] = stmt.policy_override;
  }
  return cfg;
}

Result<SqlResult> SqlSession::ExecSetPolicy(const Statement& stmt,
                                            EngineCut& cut) {
  SVC_ASSIGN_OR_RETURN(MaintenancePolicyConfig cfg,
                       ResolvePolicyStatement(stmt, cut.catalog()));
  SVC_RETURN_IF_ERROR(cut.Apply(DurableOp::SetPolicyOp(cfg)));
  SqlResult result;
  result.message = "maintenance policy set: " + DescribeMaintenancePolicy(cfg);
  return result;
}

Result<SqlResult> SqlSession::ExecCheckpoint() {
  SqlResult result;
  DurableEngine* durable = handle_.durable().get();
  if (durable == nullptr) {
    result.message = "no durable storage attached; CHECKPOINT skipped";
    return result;
  }
  SVC_ASSIGN_OR_RETURN(uint64_t epoch, durable->Checkpoint());
  result.message = "checkpoint at epoch " + std::to_string(epoch);
  return result;
}

Result<SqlResult> SqlSession::ExecShowTables(const EngineCut& cut) {
  Schema schema;
  schema.AddColumn({"", "name", ValueType::kString});
  schema.AddColumn({"", "rows", ValueType::kInt});
  schema.AddColumn({"", "kind", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& name : cut.catalog().db().TableNames()) {
    if (name.rfind("__", 0) == 0) continue;  // internal delta tables
    SVC_ASSIGN_OR_RETURN(size_t rows, cut.NumRows(name));
    const bool is_view = cut.catalog().HasView(name);
    out.AppendUnchecked({Value::String(name),
                         Value::Int(static_cast<int64_t>(rows)),
                         Value::String(is_view ? "view" : "base")});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " table(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowViews(const EngineCut& cut) {
  const SvcEngine& catalog = cut.catalog();
  Schema schema;
  schema.AddColumn({"", "name", ValueType::kString});
  schema.AddColumn({"", "rows", ValueType::kInt});
  schema.AddColumn({"", "class", ValueType::kString});
  schema.AddColumn({"", "stale", ValueType::kString});
  Table out(std::move(schema));
  for (const auto& name : catalog.ViewNames()) {
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view, catalog.GetView(name));
    SVC_ASSIGN_OR_RETURN(size_t rows, cut.NumRows(name));
    const char* cls = "recompute";
    if (view->view_class() == ViewClass::kSpj) cls = "spj";
    if (view->view_class() == ViewClass::kAggregate) cls = "aggregate";
    bool stale = false;
    for (const auto& rel : view->base_relations()) {
      stale = stale || cut.PendingRows(rel) > 0;
    }
    out.AppendUnchecked({Value::String(name),
                         Value::Int(static_cast<int64_t>(rows)),
                         Value::String(cls),
                         Value::String(stale ? "yes" : "no")});
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " view(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowStats(const EngineCut& cut) {
  const SvcEngine& catalog = cut.catalog();
  const DurableEngine* durable = handle_.durable().get();
  // One row per view: serving-cache counters (cumulative across commits),
  // the pending delta rows touching the view's base relations, and the
  // delta version (the pending queue's logical mutation counter — the
  // epoch-like key cache entries validate against).
  Schema schema;
  schema.AddColumn({"", "view", ValueType::kString});
  schema.AddColumn({"", "cache_hits", ValueType::kInt});
  schema.AddColumn({"", "cache_misses", ValueType::kInt});
  schema.AddColumn({"", "full_cleans", ValueType::kInt});
  schema.AddColumn({"", "incr_advances", ValueType::kInt});
  schema.AddColumn({"", "pending_rows", ValueType::kInt});
  schema.AddColumn({"", "delta_version", ValueType::kInt});
  // Durable sessions also report the engine-wide durability counters
  // (repeated on every row — SHOW STATS is a per-view relation).
  if (durable != nullptr) {
    schema.AddColumn({"", "wal_records", ValueType::kInt});
    schema.AddColumn({"", "wal_bytes", ValueType::kInt});
    schema.AddColumn({"", "last_checkpoint_epoch", ValueType::kInt});
    schema.AddColumn({"", "recovered_epoch", ValueType::kInt});
  }
  Table out(std::move(schema));
  const std::map<std::string, ViewCacheStats> stats = cut.CacheStats();
  const auto as_int = [](uint64_t v) {
    return Value::Int(static_cast<int64_t>(v));
  };
  for (const auto& name : catalog.ViewNames()) {
    SVC_ASSIGN_OR_RETURN(const MaterializedView* view, catalog.GetView(name));
    size_t pending_rows = 0;
    for (const auto& rel : view->base_relations()) {
      pending_rows += cut.PendingRows(rel);
    }
    auto it = stats.find(name);
    const ViewCacheStats s = it == stats.end() ? ViewCacheStats{} : it->second;
    Row row = {Value::String(name),          as_int(s.hits),
               as_int(s.misses),             as_int(s.full_cleans),
               as_int(s.incremental_advances), as_int(pending_rows),
               as_int(cut.delta_version())};
    if (durable != nullptr) {
      const DurabilityStats ds = durable->stats();
      row.push_back(as_int(ds.wal_records));
      row.push_back(as_int(ds.wal_bytes));
      row.push_back(as_int(ds.last_checkpoint_epoch));
      row.push_back(as_int(ds.recovered_epoch));
    }
    out.AppendUnchecked(std::move(row));
  }
  SqlResult result;
  result.kind = SqlResultKind::kRows;
  result.message = std::to_string(out.NumRows()) + " view(s)";
  result.rows = std::move(out);
  return result;
}

Result<SqlResult> SqlSession::ExecShowMaintenance(const EngineCut& cut) {
  const MaintenancePolicyConfig cfg = cut.catalog().maintenance_policy();
  SVC_ASSIGN_OR_RETURN(std::vector<ViewMaintenanceScore> scores,
                       cut.ScoreViews(cfg, /*elapsed_ms=*/0));
  return RenderMaintenance(cfg, scores);
}

SqlSession::PendingKeys* SqlSession::PendingKeysFor(
    const std::string& relation, PendingKeys* scratch) {
  // Only a private engine's queue is this session's alone. Elsewhere other
  // sessions mutate it between this session's statements, and the
  // row-count drift check cannot distinguish "same counts, different keys"
  // (e.g. a REFRESH followed by the same number of new inserts). Rebuild
  // from the write cut every statement — it is taken under the mode's
  // writer serialization, so it is authoritative.
  if (handle_.private_engine() == nullptr) return scratch;
  return &pending_keys_[relation];
}

void SqlSession::SyncPendingKeys(const EngineCut& cut,
                                 const std::string& relation,
                                 const std::vector<size_t>& pk_indices,
                                 PendingKeys* cache) {
  size_t inserts = 0;
  size_t deletes = 0;
  cut.ForEachPendingSet(relation, [&](const DeltaSet& pending) {
    inserts += pending.InsertRows(relation);
    deletes += pending.DeleteRows(relation);
  });
  auto sync = [&](size_t n, bool insert_side, size_t* rows,
                  std::set<std::string>* keys) {
    if (*rows == n) return;
    keys->clear();
    auto add = [&](const Row& r) { keys->insert(EncodeRowKey(r, pk_indices)); };
    cut.ForEachPendingSet(relation, [&](const DeltaSet& pending) {
      if (insert_side) {
        pending.ForEachInsert(relation, add);
      } else {
        pending.ForEachDelete(relation, add);
      }
    });
    *rows = n;
  };
  sync(inserts, true, &cache->insert_rows, &cache->inserts);
  sync(deletes, false, &cache->delete_rows, &cache->deletes);
}

Status SqlSession::CheckInsertKeys(const Statement& stmt, const Table& table,
                                   const std::vector<Row>& rows,
                                   const std::vector<Row>& committed,
                                   const PendingKeys& pending,
                                   std::vector<std::string>* batch_keys) {
  // Primary-key validation: a conflicting delta would poison the pending
  // queue (every later REFRESH fails on the duplicate), so reject NULL
  // keys, duplicates within the statement, keys already queued for
  // insertion, and keys of committed rows not queued for deletion.
  const Schema& schema = table.schema();
  const std::vector<size_t>& pk = table.pk_indices();
  auto describe_key = [&](const Row& row) {
    std::string out;
    for (size_t i : pk) {
      if (!out.empty()) out += ", ";
      out += schema.column(i).name + "=" + row[i].ToString();
    }
    return out;
  };
  std::set<std::string> committed_keys;
  for (const Row& row : committed) committed_keys.insert(EncodeRowKey(row, pk));
  std::set<std::string> batch;
  batch_keys->reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i : pk) {
      if (rows[r][i].is_null()) {
        return Status::ConstraintViolation(
            "INSERT INTO " + stmt.target + " row " + std::to_string(r + 1) +
            " has NULL in primary-key column '" + schema.column(i).name + "'");
      }
    }
    std::string key = EncodeRowKey(rows[r], pk);
    std::string where;
    if (!batch.insert(key).second) {
      where = "this statement";
    } else if (pending.inserts.count(key)) {
      where = "the pending deltas";
    } else if (committed_keys.count(key) && !pending.deletes.count(key)) {
      where =
          "a committed row (DELETE it first; an update is "
          "delete + insert)";
    }
    if (!where.empty()) {
      return Status::ConstraintViolation(
          "INSERT INTO " + stmt.target + " row " + std::to_string(r + 1) +
          " duplicates the primary key (" + describe_key(rows[r]) + ") of " +
          where);
    }
    batch_keys->push_back(std::move(key));
  }
  return Status::OK();
}

Result<const Table*> SqlSession::ResolveBaseTable(const EngineCut& cut,
                                                  const std::string& name,
                                                  const char* verb) const {
  if (cut.catalog().HasView(name)) {
    return Status::InvalidArgument(
        std::string(verb) + " targets a base relation, but '" + name +
        "' is a materialized view (views change via REFRESH after deltas "
        "to their base relations)");
  }
  if (name.rfind("__", 0) == 0) {
    return Status::InvalidArgument("'" + name +
                                   "' is an internal delta relation");
  }
  return cut.catalog().db().GetTable(name);
}

}  // namespace svc
