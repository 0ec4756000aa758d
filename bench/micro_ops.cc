// Micro-benchmark: relational operator throughput of the engine substrate
// — scan+filter, hash join, hash aggregation, the composed join+group-by
// pipeline, and the η sampling operator — measured for the *current*
// executor against a faithful replica of the original string-keyed,
// row-copying implementation (kept below as the permanent baseline).
//
// This is the canonical before/after harness for executor work: it emits
// BENCH_executor.json and, with --min-speedup, acts as a regression gate
// on the join+aggregate pipeline (scripts/check.sh runs it at 3.0x).
// Rewriting the file keeps the blocks other benches merged into it
// (--merge-json: fig14_net, fig14_chaos, policy_pareto).
//
// A second section measures parallel scaling: the current executor at
// threads=1 vs threads=N (--threads, default 8) on the same plans, with a
// row-count cross-check (the parallel executor is bit-deterministic).
// --min-parallel-speedup gates the join+aggregate parallel speedup; it
// defaults to off because the attainable ratio is bounded by the physical
// core count of the machine (a 1-core container can only show 1.0x).
//
// The dml section times a 2-key DELETE and a 10-row INSERT through a
// SqlSession over TPCD lineitem at SF 0.01 and 0.04; the run exits 1 when
// the DELETE slows by more than 1.5x on the 4x larger table (key-addressed
// writes must not cost in proportion to the table).
//
// The exact_sum row prices order-free summation (common/exact_sum.h) per
// term against a naive loop, and the sharded_query block's cold grouped
// CORR query after a REFRESH at 4 shards counts the cross-shard gathers it
// builds: the run exits 1 when there is any (sum, count and avg add the
// shards' exact moments instead).
//
// Usage: micro_ops [--rows N] [--reps N] [--out FILE] [--min-speedup X]
//                  [--threads N] [--min-parallel-speedup X]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/exact_sum.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/shared_engine.h"
#include "core/sharded_engine.h"
#include "core/svc.h"
#include "relational/executor.h"
#include "sql/session.h"
#include "storage/durable_engine.h"
#include "tpcd/tpcd_gen.h"
#include "tpcd/tpcd_views.h"

namespace svc {
namespace {

Database MakeDb(int64_t rows) {
  Database db;
  Table fact(Schema({{"", "id", ValueType::kInt},
                     {"", "key", ValueType::kInt},
                     {"", "val", ValueType::kDouble}}));
  (void)fact.SetPrimaryKey({"id"});
  Table dim(Schema({{"", "key", ValueType::kInt},
                    {"", "attr", ValueType::kDouble}}));
  (void)dim.SetPrimaryKey({"key"});
  Rng rng(5);
  const int64_t dims = std::max<int64_t>(rows / 16, 1);
  for (int64_t k = 0; k < dims; ++k) {
    (void)dim.Insert({Value::Int(k), Value::Double(rng.NextDouble())});
  }
  for (int64_t i = 0; i < rows; ++i) {
    (void)fact.Insert({Value::Int(i), Value::Int(rng.UniformInt(0, dims - 1)),
                       Value::Double(rng.Uniform(0, 100))});
  }
  db.PutTable("fact", std::move(fact));
  db.PutTable("dim", std::move(dim));
  return db;
}

// ---- Baseline: the original executor's algorithms ---------------------------
// Deep-copying scans, std::string row keys, node-based std:: hash
// containers. Deliberately kept verbatim-in-spirit so the comparison stays
// reproducible as the real executor evolves.

Table BaselineScan(const Database& db, const std::string& name,
                   const std::string& alias) {
  const Table* t = *db.GetTable(name);
  Table out(t->schema().WithQualifier(alias));
  for (const auto& r : t->rows()) out.AppendUnchecked(r);
  return out;
}

Table BaselineSelect(Table in, const ExprPtr& pred_template) {
  ExprPtr pred = pred_template->Clone();
  (void)pred->Bind(in.schema());
  Table out(in.schema());
  for (const auto& r : in.rows()) {
    if (pred->Eval(r).IsTrue()) out.AppendUnchecked(r);
  }
  return out;
}

bool BaselineAnyNull(const Row& row, const std::vector<size_t>& idx) {
  for (size_t i : idx) {
    if (row[i].is_null()) return true;
  }
  return false;
}

/// The seed executor's general hash-join path verbatim: build the right
/// side into a std::unordered_multimap keyed by encoded std::string keys,
/// probe the left with a fresh key string per row, and keep the
/// matched-row bookkeeping the seed carried for outer joins.
Table BaselineJoinInner(const Table& left, const Table& right,
                        const std::vector<std::string>& lrefs,
                        const std::vector<std::string>& rrefs) {
  const std::vector<size_t> lidx = *left.schema().ResolveAll(lrefs);
  const std::vector<size_t> ridx = *right.schema().ResolveAll(rrefs);
  const Schema out_schema = Schema::Concat(left.schema(), right.schema());

  std::unordered_multimap<std::string, size_t> build;
  build.reserve(right.NumRows() * 2);
  for (size_t i = 0; i < right.NumRows(); ++i) {
    if (BaselineAnyNull(right.row(i), ridx)) continue;
    build.emplace(EncodeRowKey(right.row(i), ridx), i);
  }
  std::vector<char> right_matched(right.NumRows(), 0);
  Table out(out_schema);
  auto emit = [&](const Row* l, const Row* r) {
    Row row;
    row.reserve(out_schema.NumColumns());
    row.insert(row.end(), l->begin(), l->end());
    row.insert(row.end(), r->begin(), r->end());
    out.AppendUnchecked(std::move(row));
  };
  for (size_t i = 0; i < left.NumRows(); ++i) {
    const Row& l = left.row(i);
    if (BaselineAnyNull(l, lidx)) continue;
    const std::string key = EncodeRowKey(l, lidx);
    auto [it, end] = build.equal_range(key);
    for (; it != end; ++it) {
      right_matched[it->second] = 1;
      emit(&l, &right.row(it->second));
    }
  }
  return out;
}

/// The seed executor's hash aggregation verbatim: std::string group keys
/// into a node-based std::unordered_map, a generic per-aggregate state
/// vector (including the unordered_set the seed embedded for
/// count-distinct), and a virtual Eval + Value copy per aggregate input.
Table BaselineAggregate(const Table& in, const std::string& group_col,
                        const std::vector<AggItem>& aggs) {
  const std::vector<size_t> gidx = *in.schema().ResolveAll({group_col});
  std::vector<ExprPtr> inputs(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].input) {
      inputs[a] = aggs[a].input->Clone();
      (void)inputs[a]->Bind(in.schema());
    }
  }

  struct State {
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0.0;
    bool int_input = true;
    std::unordered_set<std::string> distinct;
  };
  std::unordered_map<std::string, size_t> group_of;
  std::vector<Row> group_keys;
  std::vector<std::vector<State>> states;
  for (const auto& r : in.rows()) {
    const std::string key = EncodeRowKey(r, gidx);
    auto [it, inserted] = group_of.emplace(key, group_keys.size());
    if (inserted) {
      Row gk;
      for (size_t i : gidx) gk.push_back(r[i]);
      group_keys.push_back(std::move(gk));
      states.emplace_back(aggs.size());
    }
    auto& st = states[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      State& s = st[a];
      if (aggs[a].func == AggFunc::kCountStar) {
        ++s.count;
        continue;
      }
      const Value v = inputs[a]->Eval(r);
      if (v.is_null()) continue;
      switch (aggs[a].func) {
        case AggFunc::kSum:
          ++s.count;
          if (v.type() == ValueType::kInt && s.int_input) {
            s.isum += v.AsInt();
          } else {
            if (s.int_input) {
              s.dsum += static_cast<double>(s.isum);
              s.int_input = false;
            }
            s.dsum += v.ToDouble();
          }
          break;
        case AggFunc::kCount:
          ++s.count;
          break;
        default:
          break;
      }
    }
  }
  Schema out_schema;
  for (size_t i : gidx) out_schema.AddColumn(in.schema().column(i));
  for (const auto& a : aggs) {
    out_schema.AddColumn({"", a.alias, ValueType::kDouble});
  }
  Table out(out_schema);
  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row row = group_keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const State& s = states[g][a];
      if (aggs[a].func == AggFunc::kCountStar ||
          aggs[a].func == AggFunc::kCount) {
        row.push_back(Value::Int(s.count));
      } else if (s.int_input) {
        row.push_back(Value::Int(s.isum));
      } else {
        row.push_back(Value::Double(s.dsum));
      }
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Table BaselineEta(const Table& in, const std::vector<std::string>& cols,
                  double m, HashFamily family) {
  const std::vector<size_t> idx = *in.schema().ResolveAll(cols);
  Table out(in.schema());
  for (const auto& r : in.rows()) {
    const std::string key = EncodeRowKey(r, idx);
    if (HashInSample(key, m, family)) out.AppendUnchecked(r);
  }
  return out;
}

// ---- Harness ----------------------------------------------------------------

struct BenchResult {
  std::string name;
  double baseline_ms = 0;
  double current_ms = 0;
  size_t out_rows = 0;
  double speedup() const { return baseline_ms / current_ms; }
};

/// Best-of-`reps` wall time in milliseconds (one warmup run first).
double TimeMs(int reps, const std::function<size_t()>& fn, size_t* out_rows) {
  *out_rows = fn();  // warmup + result capture
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    const size_t n = fn();
    best = std::min(best, sw.ElapsedMillis());
    if (n != *out_rows) {
      std::fprintf(stderr, "[micro_ops] nondeterministic row count\n");
      std::exit(2);
    }
  }
  return best;
}

size_t RunPlan(const PlanNode& plan, const Database& db,
               ExecOptions opts = {}) {
  auto r = ExecutePlan(plan, db, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "[micro_ops] plan failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return r->NumRows();
}

/// The blocks other benches merged into the artifact at `path`: the text
/// from the first block a --merge-json writer appended (each starts with
/// a line holding only ',') up to the file's final '}'. "" when there is
/// no file or no such block.
std::string MergedBlocks(const std::string& path) {
  FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) content.append(buf, n);
  std::fclose(in);
  const size_t first = content.find("\n,\n");
  const size_t close = content.find_last_of('}');
  if (first == std::string::npos || close == std::string::npos ||
      close < first) {
    return "";
  }
  return content.substr(first + 1, close - first - 1);
}

/// The machine and build a block was measured on, as one JSON member.
std::string HostJson() {
  std::string sha = "unknown";
  if (FILE* git = popen("git -C \"" SVC_REPO_DIR
                        "\" describe --always --dirty --abbrev=12 2>/dev/null",
                        "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), git) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    pclose(git);
  }
  return "\"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"g++ " __VERSION__ "\", \"build_type\": \"" +
         std::string(SVC_BUILD_TYPE) + "\", \"git_sha\": \"" + sha + "\"}";
}

}  // namespace
}  // namespace svc

int main(int argc, char** argv) {
  using namespace svc;
  int64_t rows = 100000;
  int reps = 7;
  double min_speedup = 0.0;           // 0 = report only
  double min_parallel_speedup = 0.0;  // 0 = report only
  double min_cache_speedup = 0.0;     // 0 = report only
  int threads = 8;
  std::string out_path = "BENCH_executor.json";
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--rows") == 0) {
      rows = std::atoll(next("--rows"));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(next("--reps"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
      min_speedup = std::atof(next("--min-speedup"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--min-parallel-speedup") == 0) {
      min_parallel_speedup = std::atof(next("--min-parallel-speedup"));
    } else if (std::strcmp(argv[i], "--min-cache-speedup") == 0) {
      min_cache_speedup = std::atof(next("--min-cache-speedup"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  // atoll/atoi return 0 on garbage; zero rows/reps/threads would time
  // nothing and report nonsense (1e300 ms, NaN speedups) as a gate verdict.
  if (rows < 1 || reps < 1 || threads < 1) {
    std::fprintf(stderr,
                 "invalid --rows/--reps/--threads (must be >= 1; got "
                 "%lld/%d/%d)\n",
                 static_cast<long long>(rows), reps, threads);
    return 2;
  }

  Database db = MakeDb(rows);
  std::vector<BenchResult> results;

  auto bench = [&](const std::string& name,
                   const std::function<size_t()>& baseline,
                   const std::function<size_t()>& current) {
    BenchResult r;
    r.name = name;
    size_t rows_base = 0, rows_cur = 0;
    r.baseline_ms = TimeMs(reps, baseline, &rows_base);
    r.current_ms = TimeMs(reps, current, &rows_cur);
    if (rows_base != rows_cur) {
      std::fprintf(stderr,
                   "[micro_ops] %s: baseline produced %zu rows, current %zu\n",
                   name.c_str(), rows_base, rows_cur);
      std::exit(2);
    }
    r.out_rows = rows_cur;
    results.push_back(r);
    std::printf("%-16s baseline %8.2f ms   current %8.2f ms   speedup %5.2fx"
                "   (%zu rows)\n",
                name.c_str(), r.baseline_ms, r.current_ms, r.speedup(),
                r.out_rows);
  };

  // scan + filter
  {
    ExprPtr pred = Expr::Gt(Expr::Col("val"), Expr::LitDouble(50));
    PlanPtr plan = PlanNode::Select(PlanNode::Scan("fact"), pred->Clone());
    bench(
        "scan_filter",
        [&] { return BaselineSelect(BaselineScan(db, "fact", "fact"), pred)
                  .NumRows(); },
        [&] { return RunPlan(*plan, db); });
  }

  // hash join (fact ⋈ dim)
  {
    PlanPtr plan = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    bench(
        "hash_join",
        [&] {
          return BaselineJoinInner(BaselineScan(db, "fact", "f"),
                                   BaselineScan(db, "dim", "d"), {"f.key"},
                                   {"d.key"})
              .NumRows();
        },
        [&] { return RunPlan(*plan, db); });
  }

  // hash aggregation (group fact by key)
  {
    PlanPtr plan = PlanNode::Aggregate(
        PlanNode::Scan("fact"), {"key"},
        {{AggFunc::kSum, Expr::Col("val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench(
        "hash_aggregate",
        [&] {
          return BaselineAggregate(
                     BaselineScan(db, "fact", "fact"), "key",
                     {{AggFunc::kSum, Expr::Col("val"), "s"},
                      {AggFunc::kCountStar, nullptr, "c"}})
              .NumRows();
        },
        [&] { return RunPlan(*plan, db); });
  }

  // composed join + group-by pipeline — the regression-gated path
  {
    PlanPtr join = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    PlanPtr plan = PlanNode::Aggregate(
        join, {"f.key"},
        {{AggFunc::kSum, Expr::Col("f.val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench(
        "join_aggregate",
        [&] {
          Table joined = BaselineJoinInner(BaselineScan(db, "fact", "f"),
                                           BaselineScan(db, "dim", "d"),
                                           {"f.key"}, {"d.key"});
          return BaselineAggregate(joined, "f.key",
                                   {{AggFunc::kSum, Expr::Col("f.val"), "s"},
                                    {AggFunc::kCountStar, nullptr, "c"}})
              .NumRows();
        },
        [&] { return RunPlan(*plan, db); });
  }

  // η sampling operator
  {
    PlanPtr plan = PlanNode::HashFilter(PlanNode::Scan("fact"), {"id"}, 0.1,
                                        HashFamily::kFnv1a);
    bench(
        "eta_sample",
        [&] { return BaselineEta(BaselineScan(db, "fact", "fact"), {"id"}, 0.1,
                                 HashFamily::kFnv1a)
                  .NumRows(); },
        [&] { return RunPlan(*plan, db); });
  }

  // ---- Parallel scaling: current executor, threads=1 vs threads=N ----------
  struct ParResult {
    std::string name;
    double t1_ms = 0;
    double tn_ms = 0;
    size_t out_rows = 0;
    double speedup() const { return t1_ms / tn_ms; }
  };
  std::vector<ParResult> par_results;
  auto bench_par = [&](const std::string& name, const PlanNode& plan) {
    ParResult r;
    r.name = name;
    size_t rows_seq = 0, rows_par = 0;
    r.t1_ms = TimeMs(
        reps, [&] { return RunPlan(plan, db, ExecOptions{1}); }, &rows_seq);
    r.tn_ms = TimeMs(
        reps, [&] { return RunPlan(plan, db, ExecOptions{threads}); },
        &rows_par);
    if (rows_seq != rows_par) {
      std::fprintf(stderr,
                   "[micro_ops] %s: threads=1 produced %zu rows, threads=%d "
                   "produced %zu\n",
                   name.c_str(), rows_seq, threads, rows_par);
      std::exit(2);
    }
    r.out_rows = rows_par;
    par_results.push_back(r);
    std::printf("%-16s threads=1 %8.2f ms   threads=%-2d %8.2f ms   "
                "speedup %5.2fx   (%zu rows)\n",
                name.c_str(), r.t1_ms, threads, r.tn_ms, r.speedup(),
                r.out_rows);
  };
  std::printf("-- parallel scaling (threads=%d) --\n", threads);
  {
    PlanPtr join = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    bench_par("hash_join", *join);
  }
  {
    PlanPtr plan = PlanNode::Aggregate(
        PlanNode::Scan("fact"), {"key"},
        {{AggFunc::kSum, Expr::Col("val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench_par("hash_aggregate", *plan);
  }
  {
    PlanPtr join = PlanNode::Join(PlanNode::Scan("fact", "f"),
                                  PlanNode::Scan("dim", "d"), JoinType::kInner,
                                  {{"f.key", "d.key"}}, nullptr, true);
    PlanPtr plan = PlanNode::Aggregate(
        std::move(join), {"f.key"},
        {{AggFunc::kSum, Expr::Col("f.val"), "s"},
         {AggFunc::kCountStar, nullptr, "c"}});
    bench_par("join_aggregate", *plan);
  }

  // -- Serving layer: repeated SVC queries on an unchanged stale engine --
  // Cold = every query re-runs the full cleaning pipeline (the cache-off
  // path, which was the only path before the cleaned-sample cache); warm =
  // the cache serves the memoized samples and each query pays only the
  // estimator. The CoW ingest measurement drives single-row commits
  // through a SharedEngine at increasing queue depths: with the chunked
  // DeltaSet a commit copies only the rows of the last batch, so the cost
  // stays flat while the queue grows.
  struct CacheBench {
    double cold_ms = 0;
    double warm_ms = 0;
    double speedup() const { return cold_ms / warm_ms; }
    std::vector<std::pair<size_t, double>> commit_us;  // depth -> µs/commit
  } cache_bench;
  {
    const int64_t cache_rows = std::min<int64_t>(rows, 20000);
    SvcEngine engine(MakeDb(cache_rows));
    PlanPtr def = PlanNode::Aggregate(
        PlanNode::Scan("fact"), {"key"},
        {{AggFunc::kSum, Expr::Col("val"), "sv"},
         {AggFunc::kCountStar, nullptr, "c"}});
    if (auto st = engine.CreateView("factView", std::move(def)); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    Rng rng(17);
    const int64_t dims = std::max<int64_t>(cache_rows / 16, 1);
    for (int64_t i = 0; i < cache_rows / 20; ++i) {
      if (auto st = engine.InsertRecord(
              "fact", {Value::Int(cache_rows + i),
                       Value::Int(rng.UniformInt(0, dims - 1)),
                       Value::Double(rng.Uniform(0, 100))});
          !st.ok()) {
        std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
        return 2;
      }
    }
    AggregateQuery q = AggregateQuery::Sum(Expr::Col("sv"));
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    auto run_query = [&](const SvcEngine& e) -> size_t {
      auto r = e.Query("factView", q, qopts);
      if (!r.ok()) {
        std::fprintf(stderr, "[micro_ops] query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      return r->estimate.sample_rows;
    };
    SvcEngine cold(engine);
    cold.set_sample_cache_enabled(false);
    size_t cold_rows = 0, warm_rows = 0;
    cache_bench.cold_ms = TimeMs(reps, [&] { return run_query(cold); },
                                 &cold_rows);
    cache_bench.warm_ms = TimeMs(reps, [&] { return run_query(engine); },
                                 &warm_rows);
    if (cold_rows != warm_rows) {
      std::fprintf(stderr,
                   "[micro_ops] query_cache: cold used %zu sample rows, "
                   "warm %zu\n",
                   cold_rows, warm_rows);
      return 2;
    }
    std::printf("-- query cache (repeated SVC query, %lld-row view) --\n",
                static_cast<long long>(cache_rows));
    std::printf("%-16s cold %8.3f ms   warm %8.3f ms   speedup %7.1fx\n",
                "svc_query", cache_bench.cold_ms, cache_bench.warm_ms,
                cache_bench.speedup());

    // CoW ingest: one-row commits at increasing queue depth.
    std::printf("-- shared-engine ingest commit vs queue depth --\n");
    for (const size_t depth : {size_t{0}, size_t{2000}, size_t{8000}}) {
      SharedEngine se(MakeDb(2000));
      int64_t next_id = 1000000;
      // Pre-queue `depth` rows as one batch commit.
      if (depth > 0) {
        DeltaSet batch;
        for (size_t i = 0; i < depth; ++i) {
          (void)batch.AddInsert(se.Snapshot()->engine.db(), "fact",
                                {Value::Int(next_id++), Value::Int(0),
                                 Value::Double(1.0)});
        }
        if (auto st = se.IngestDeltas(std::move(batch)); !st.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
          return 2;
        }
      }
      constexpr int kCommits = 200;
      Stopwatch sw;
      for (int i = 0; i < kCommits; ++i) {
        if (auto st = se.InsertRecord(
                "fact", {Value::Int(next_id++), Value::Int(0),
                         Value::Double(1.0)});
            !st.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
          return 2;
        }
      }
      const double us = sw.ElapsedMillis() * 1e3 / kCommits;
      cache_bench.commit_us.push_back({depth, us});
      std::printf("queued=%-6zu commit %8.2f us\n", depth, us);
    }
  }

  // -- Sharded scatter-gather query: unsharded vs 4-way fan-out ---------------
  // The same cold SVC query (sample caches off, so every run pays the full
  // cleaning pipeline) served by one engine vs a 4-shard ShardedEngine:
  // the query scatters to per-shard snapshots on the pool, per-shard
  // samples are merged in canonical order, and the stock estimator runs
  // once at the coordinator. The answer is bit-identical to the unsharded
  // engine's (cross-checked below); the block is report-only because the
  // fan-out win is bounded by the physical core count (docs/PERF.md).
  struct ShardedBench {
    int shards = 0;
    double unsharded_ms = 0;
    double sharded_ms = 0;
    size_t sample_rows = 0;
    double speedup() const { return unsharded_ms / sharded_ms; }
  } sharded_bench;
  {
    const int64_t sh_rows = std::min<int64_t>(rows, 20000);
    constexpr int kShards = 4;
    sharded_bench.shards = kShards;
    // SPJ view keyed by the fact PK (id): one view row per base row, so
    // ratio x rows sample sizes, and the view's natural order is already
    // the canonical encoded-key order the gather path produces.
    auto view_def = [] {
      return PlanNode::Select(PlanNode::Scan("fact"),
                              Expr::Gt(Expr::Col("val"), Expr::LitDouble(-1)));
    };
    // One delta workload, applied identically to both engines.
    Rng rng(23);
    const int64_t dims = std::max<int64_t>(sh_rows / 16, 1);
    std::vector<Row> deltas;
    for (int64_t i = 0; i < sh_rows / 20; ++i) {
      deltas.push_back({Value::Int(sh_rows + i),
                        Value::Int(rng.UniformInt(0, dims - 1)),
                        Value::Double(rng.Uniform(0, 100))});
    }
    Database base = MakeDb(sh_rows);

    SvcEngine flat{Database(base)};
    flat.set_sample_cache_enabled(false);
    if (auto st = flat.CreateView("factView", view_def()); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    for (const Row& r : deltas) {
      if (auto st = flat.InsertRecord("fact", r); !st.ok()) {
        std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
        return 2;
      }
    }

    ShardedEngine sharded(Database(), kShards);
    sharded.set_sample_cache_enabled(false);
    if (auto st = sharded.CreateTable("fact", **base.GetTable("fact"));
        !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    if (auto st = sharded.CreateView("factView", view_def()); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }
    if (auto st = sharded.InsertRows("fact", deltas); !st.ok()) {
      std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
      return 2;
    }

    AggregateQuery q = AggregateQuery::Sum(Expr::Col("val"));
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    const auto snap = sharded.Snapshot();
    auto query_flat = [&]() -> Result<SvcAnswer> {
      return flat.Query("factView", q, qopts);
    };
    auto query_sharded = [&]() -> Result<SvcAnswer> {
      return sharded.Query(*snap, "factView", q, qopts);
    };
    auto rows_of = [](const Result<SvcAnswer>& r) -> size_t {
      if (!r.ok()) {
        std::fprintf(stderr, "[micro_ops] sharded_query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      return r->estimate.sample_rows;
    };
    size_t flat_rows = 0, sharded_rows = 0;
    sharded_bench.unsharded_ms =
        TimeMs(reps, [&] { return rows_of(query_flat()); }, &flat_rows);
    sharded_bench.sharded_ms =
        TimeMs(reps, [&] { return rows_of(query_sharded()); }, &sharded_rows);
    sharded_bench.sample_rows = sharded_rows;
    const double flat_val = query_flat()->estimate.value;
    const double sharded_val = query_sharded()->estimate.value;
    if (flat_rows != sharded_rows ||
        std::memcmp(&flat_val, &sharded_val, sizeof flat_val) != 0) {
      std::fprintf(stderr,
                   "[micro_ops] sharded_query: answers diverged "
                   "(unsharded %.17g on %zu sample rows, sharded %.17g on "
                   "%zu)\n",
                   flat_val, flat_rows, sharded_val, sharded_rows);
      return 2;
    }
    std::printf("-- sharded scatter-gather query (%d shards, cold clean) --\n",
                kShards);
    std::printf("%-16s unsharded %8.3f ms   sharded %8.3f ms   "
                "speedup %5.2fx   (%zu sample rows)\n",
                "sharded_query", sharded_bench.unsharded_ms,
                sharded_bench.sharded_ms, sharded_bench.speedup(),
                sharded_bench.sample_rows);
  }

  // -- Cold grouped CORR after a REFRESH at 4 shards -------------------------
  // Q7 (revenue by l_shipmode) on the SF 0.01 TPCD join view, first query
  // after each REFRESH: every shard part is new, so a read that needed the
  // logical view would rebuild a cross-shard merge. Sum, count and avg add
  // the shards' exact moments; any gather fails the run.
  struct ColdBench {
    size_t view_rows = 0;
    size_t groups = 0;
    double ms = 0;
    uint64_t gathers = 0;
  } cold_bench;
  constexpr int kColdReps = 7;
  {
    auto fail = [](const std::string& what) {
      std::fprintf(stderr, "[micro_ops] cold grouped query: %s\n",
                   what.c_str());
      return 2;
    };
    Result<Database> tpcd = GenerateTpcdDatabase(TpcdConfig());
    if (!tpcd.ok()) return fail(tpcd.status().ToString());
    auto eng = std::make_shared<ShardedEngine>(std::move(tpcd).value(),
                                               sharded_bench.shards);
    if (auto st = eng->CreateView("join_view", TpcdJoinViewDef(),
                                  TpcdJoinViewSamplingKey());
        !st.ok()) {
      return fail(st.ToString());
    }
    SqlSession session(EngineHandle::Sharded(eng));
    ViewQuery q7;
    for (const ViewQuery& vq : TpcdJoinViewQueries()) {
      if (vq.name == "Q7") q7 = vq;
    }
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    std::vector<double> ms;
    const uint64_t gathers_before = eng->CoordinatorGathersBuilt();
    for (int i = 0; i < kColdReps; ++i) {
      // A key-addressed update on each side of the REFRESH, so the query
      // has a pending row to clean against all-new shard parts.
      for (const std::string& sql :
           {"DELETE FROM lineitem WHERE l_orderkey = " +
                std::to_string(2 * i + 1) + " AND l_linenumber = 1",
            std::string("REFRESH ALL"),
            "DELETE FROM lineitem WHERE l_orderkey = " +
                std::to_string(2 * i + 2) + " AND l_linenumber = 1"}) {
        if (auto r = session.Execute(sql); !r.ok()) {
          return fail(r.status().ToString());
        }
      }
      const ShardedSnapshotPtr snap = eng->Snapshot();
      Stopwatch sw;
      auto r = eng->QueryGrouped(*snap, "join_view", q7.group_by, q7.query,
                                 qopts);
      ms.push_back(sw.ElapsedMillis());
      if (!r.ok()) return fail(r.status().ToString());
      cold_bench.groups = r->result.group_keys.size();
    }
    cold_bench.gathers = eng->CoordinatorGathersBuilt() - gathers_before;
    for (int s = 0; s < sharded_bench.shards; ++s) {
      cold_bench.view_rows +=
          (*eng->Snapshot()->shards[s]->engine.db().GetTable("join_view"))
              ->NumRows();
    }
    std::sort(ms.begin(), ms.end());
    cold_bench.ms = ms[ms.size() / 2];
    std::printf("%-16s cold grouped CORR after REFRESH %8.3f ms (median of "
                "%d, %zu groups, %zu view rows)   gathers built %llu\n",
                "sharded_cold", cold_bench.ms, kColdReps, cold_bench.groups,
                cold_bench.view_rows,
                static_cast<unsigned long long>(cold_bench.gathers));
  }

  // -- Stale-side memo: warm grouped CORR on the TPCD join view --------------
  // A repeated grouped SVC+CORR query (Q7: revenue by l_shipmode) over the
  // TPCD SF 0.01 join view with pending updates. With the memo the warm
  // query pays only the correction: q(S) and the cleaned samples are
  // memoized. With the cache off every query re-cleans and recomputes q(S)
  // over the whole view. The two answers must agree in every bit.
  struct ExactBench {
    size_t terms = 0;
    double naive_ns = 0;
    double exact_ns = 0;
    size_t partial_bytes = 0;
  } exact_bench;
  struct MemoBench {
    size_t view_rows = 0;
    size_t groups = 0;
    double memo_ms = 0;
    double nocache_ms = 0;
    double speedup() const { return nocache_ms / memo_ms; }
  } memo_bench;
  {
    TpcdConfig cfg;
    auto fail = [](const Status& st) {
      std::fprintf(stderr, "[micro_ops] stale_memo: %s\n",
                   st.ToString().c_str());
      return 2;
    };
    Result<Database> tpcd = GenerateTpcdDatabase(cfg);
    if (!tpcd.ok()) return fail(tpcd.status());
    SvcEngine engine(std::move(tpcd).value());
    if (auto st = engine.CreateView("join_view", TpcdJoinViewDef(),
                                    TpcdJoinViewSamplingKey());
        !st.ok()) {
      return fail(st);
    }
    TpcdUpdateConfig ucfg;
    ucfg.fraction = 0.05;
    Result<DeltaSet> updates = GenerateTpcdUpdates(*engine.db(), cfg, ucfg);
    if (!updates.ok()) return fail(updates.status());
    if (auto st = engine.IngestDeltas(std::move(updates).value()); !st.ok()) {
      return fail(st);
    }
    memo_bench.view_rows = (*engine.db()->GetTable("join_view"))->NumRows();
    ViewQuery q7;
    for (const ViewQuery& vq : TpcdJoinViewQueries()) {
      if (vq.name == "Q7") q7 = vq;
    }
    SvcQueryOptions qopts;
    qopts.ratio = 0.1;
    SvcEngine nocache(engine);
    nocache.set_sample_cache_enabled(false);
    auto run = [&](const SvcEngine& e) -> GroupedResult {
      auto r = e.QueryGrouped("join_view", q7.group_by, q7.query, qopts);
      if (!r.ok()) {
        std::fprintf(stderr, "[micro_ops] stale_memo query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      return std::move(r).value().result;
    };
    auto groups = [&](const SvcEngine& e) { return run(e).group_keys.size(); };
    size_t memo_groups = 0, nocache_groups = 0;
    memo_bench.memo_ms =
        TimeMs(reps, [&] { return groups(engine); }, &memo_groups);
    memo_bench.nocache_ms =
        TimeMs(reps, [&] { return groups(nocache); }, &nocache_groups);
    memo_bench.groups = memo_groups;
    const GroupedResult with_memo = run(engine);
    const GroupedResult without = run(nocache);
    bool same = with_memo.group_keys.size() == without.group_keys.size();
    for (size_t g = 0; same && g < with_memo.group_keys.size(); ++g) {
      const Estimate& a = with_memo.estimates[g];
      const Estimate& b = without.estimates[g];
      same = with_memo.group_keys[g] == without.group_keys[g] &&
             std::memcmp(&a.value, &b.value, sizeof a.value) == 0 &&
             std::memcmp(&a.ci_low, &b.ci_low, sizeof a.ci_low) == 0 &&
             std::memcmp(&a.ci_high, &b.ci_high, sizeof a.ci_high) == 0 &&
             a.sample_rows == b.sample_rows;
    }
    if (!same) {
      std::fprintf(stderr,
                   "[micro_ops] stale_memo: the memoized answer differs from "
                   "the cache-off answer\n");
      return 2;
    }
    std::printf("-- stale-side memo (grouped CORR, %zu-row TPCD join view, "
                "%zu groups) --\n", memo_bench.view_rows, memo_bench.groups);
    std::printf("%-16s memo %8.3f ms   cache off %8.3f ms   speedup %6.1fx\n",
                "stale_memo", memo_bench.memo_ms, memo_bench.nocache_ms,
                memo_bench.speedup());

    // -- Exact summation: the revenue terms of the same join view ----------
    const Table& view = **engine.db()->GetTable("join_view");
    ExprPtr revenue = Expr::Mul(
        Expr::Col("l_extendedprice"),
        Expr::Sub(Expr::LitInt(1), Expr::Col("l_discount")));
    if (auto st = revenue->Bind(view.schema()); !st.ok()) return fail(st);
    std::vector<double> terms;
    terms.reserve(view.NumRows());
    for (const Row& r : view.rows()) terms.push_back(revenue->Eval(r).ToDouble());
    constexpr int kPasses = 50;
    volatile double sink = 0;
    auto per_term_ns = [&](const std::function<double()>& sum) {
      double best = 1e300;
      for (int i = 0; i < reps; ++i) {
        Stopwatch sw;
        for (int pass = 0; pass < kPasses; ++pass) sink = sum();
        best = std::min(best, sw.ElapsedMillis());
      }
      return best * 1e6 / (kPasses * static_cast<double>(terms.size()));
    };
    exact_bench.terms = terms.size();
    exact_bench.naive_ns = per_term_ns([&] {
      double total = 0;
      for (double t : terms) total += t;
      return total;
    });
    exact_bench.exact_ns = per_term_ns([&] {
      ExactSum total;
      for (double t : terms) total.Add(t);
      return total.Round();
    });
    ExactSum total;
    for (double t : terms) total.Add(t);
    const ExactSum::Partial partial = total.Compact();
    exact_bench.partial_bytes = sizeof(partial) + partial.HeapBytes();
    (void)sink;
    std::printf("-- exact summation (%zu revenue terms of the join view) --\n",
                exact_bench.terms);
    std::printf("%-16s naive %6.2f ns/term   exact %6.2f ns/term   "
                "(x%.1f)   dense %zu B   partial %zu B\n",
                "exact_sum", exact_bench.naive_ns, exact_bench.exact_ns,
                exact_bench.exact_ns / exact_bench.naive_ns,
                sizeof(ExactSum), exact_bench.partial_bytes);
  }

  // -- Key-addressed DML: write cost vs table size ---------------------------
  // A 2-key DELETE and a 10-row INSERT through a SqlSession on a shared
  // engine over TPCD lineitem at two scales, 4x apart, interleaved so both
  // see the same machine state. Both statements name whole primary keys, so
  // neither may cost in proportion to the table: the run fails when the
  // DELETE's median time grows by more than kMaxDmlDeleteGrowth (a scanning
  // DELETE grows about 4x).
  constexpr double kMaxDmlDeleteGrowth = 1.5;
  constexpr int kDmlReps = 41;
  struct DmlPoint {
    double scale = 0;
    size_t rows = 0;
    int64_t orders = 0;
    std::unique_ptr<SqlSession> session;
    std::vector<double> delete_ms;
    std::vector<double> insert_ms;
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<DmlPoint> dml(2);
  {
    auto fail = [](const std::string& what) {
      std::fprintf(stderr, "[micro_ops] dml: %s\n", what.c_str());
      return 2;
    };
    for (size_t p = 0; p < dml.size(); ++p) {
      TpcdConfig cfg;
      cfg.scale_factor = p == 0 ? 0.01 : 0.04;
      Result<Database> tpcd = GenerateTpcdDatabase(cfg);
      if (!tpcd.ok()) return fail(tpcd.status().ToString());
      dml[p].scale = cfg.scale_factor;
      dml[p].rows = (*tpcd->GetTable("lineitem"))->NumRows();
      dml[p].orders = static_cast<int64_t>(cfg.NumOrders());
      dml[p].session = std::make_unique<SqlSession>(EngineHandle::Shared(
          std::make_shared<SharedEngine>(std::move(tpcd).value())));
    }
    for (int i = 0; i < kDmlReps; ++i) {
      for (DmlPoint& point : dml) {
        // Every order has line 1, and each rep names orders no earlier rep
        // touched, so every DELETE queues exactly two rows.
        const std::string del =
            "DELETE FROM lineitem WHERE (l_orderkey = " +
            std::to_string(2 * i + 1) + " AND l_linenumber = 1) OR " +
            "(l_orderkey = " + std::to_string(2 * i + 2) +
            " AND l_linenumber = 1)";
        std::string ins = "INSERT INTO lineitem VALUES ";
        for (int ln = 1; ln <= 10; ++ln) {
          ins += std::string(ln > 1 ? ", " : "") + "(" +
                 std::to_string(point.orders + 1 + i) + ", " +
                 std::to_string(ln) +
                 ", 1, 1, 5, 100.0, 0.05, 'N', 'AIR', 19950101)";
        }
        Stopwatch sw;
        Result<SqlResult> r = point.session->Execute(del);
        point.delete_ms.push_back(sw.ElapsedMillis());
        if (!r.ok()) return fail(r.status().ToString());
        if (r->message.rfind("queued 2 delete(s)", 0) != 0) {
          return fail("DELETE queued the wrong rows: " + r->message);
        }
        sw.Restart();
        r = point.session->Execute(ins);
        point.insert_ms.push_back(sw.ElapsedMillis());
        if (!r.ok()) return fail(r.status().ToString());
      }
    }
  }
  const double dml_delete_small = median(dml[0].delete_ms);
  const double dml_delete_large = median(dml[1].delete_ms);
  const double dml_insert_small = median(dml[0].insert_ms);
  const double dml_insert_large = median(dml[1].insert_ms);
  const double dml_delete_ratio = dml_delete_large / dml_delete_small;
  const double dml_insert_ratio = dml_insert_large / dml_insert_small;
  std::printf("-- key-addressed DML (shared engine, TPCD lineitem, median of "
              "%d) --\n", kDmlReps);
  for (const DmlPoint& p : dml) {
    std::printf("SF %-5.2f %7zu rows   DELETE 2 keys %7.3f ms   "
                "INSERT 10 rows %7.3f ms\n",
                p.scale, p.rows, median(p.delete_ms), median(p.insert_ms));
  }
  std::printf("%-16s DELETE x%.2f   INSERT x%.2f   (gate: DELETE <= "
              "x%.2f)\n", "dml_growth", dml_delete_ratio, dml_insert_ratio,
              kMaxDmlDeleteGrowth);

  // -- Durable commit latency per WAL fsync policy ---------------------------
  // One-row logged commits through a DurableEngine in a scratch directory.
  // The spread between off / every=N / always is the price of the
  // durability guarantee (documented in docs/PERF.md); there is no gate
  // because the absolute numbers are storage-hardware-bound.
  constexpr int kWalCommits = 64;
  std::vector<std::pair<std::string, double>> wal_commit_us;
  {
    std::printf("-- durable commit latency (WAL fsync policy) --\n");
    for (const char* spec : {"off", "every=8", "always"}) {
      char tmpl[] = "/tmp/svc_wal_bench_XXXXXX";
      if (mkdtemp(tmpl) == nullptr) {
        std::fprintf(stderr, "[micro_ops] mkdtemp failed\n");
        return 2;
      }
      const std::string dir = tmpl;
      {
        DurableOptions dopts;
        dopts.data_dir = dir;
        dopts.wal = ParseFsyncSpec(spec).value();
        auto opened = DurableEngine::Open(dopts);
        if (!opened.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n",
                       opened.status().ToString().c_str());
          return 2;
        }
        std::shared_ptr<DurableEngine> engine = std::move(opened).value();
        Table t(Schema({{"", "id", ValueType::kInt},
                        {"", "val", ValueType::kDouble}}));
        (void)t.SetPrimaryKey({"id"});
        int64_t next_id = 0;
        auto commit = [&] {
          return engine->InsertRecord(
              "wal_fact", {Value::Int(next_id++), Value::Double(1.0)});
        };
        // Table creation (and the first append's file growth) stays out of
        // the timed loop.
        if (auto st = engine->CreateTable("wal_fact", std::move(t));
            !st.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
          return 2;
        }
        if (auto st = commit(); !st.ok()) {
          std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
          return 2;
        }
        Stopwatch sw;
        for (int i = 0; i < kWalCommits; ++i) {
          if (auto st = commit(); !st.ok()) {
            std::fprintf(stderr, "[micro_ops] %s\n", st.ToString().c_str());
            return 2;
          }
        }
        const double us = sw.ElapsedMillis() * 1e3 / kWalCommits;
        wal_commit_us.push_back({spec, us});
        std::printf("fsync=%-8s commit %8.2f us   (%d commits)\n", spec, us,
                    kWalCommits);
      }
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  // JSON report.
  const BenchResult* gate = nullptr;
  for (const auto& r : results) {
    if (r.name == "join_aggregate") gate = &r;
  }
  const ParResult* par_gate = nullptr;
  for (const auto& r : par_results) {
    if (r.name == "join_aggregate") par_gate = &r;
  }
  const std::string merged = MergedBlocks(out_path);
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"generated_by\": \"bench/micro_ops\",\n");
  std::fprintf(f, "  \"rows\": %lld,\n  \"reps\": %d,\n",
               static_cast<long long>(rows), reps);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"baseline_ms\": %.3f, "
                 "\"current_ms\": %.3f, \"speedup\": %.2f, "
                 "\"input_rows_per_s\": %.0f, \"out_rows\": %zu}%s\n",
                 r.name.c_str(), r.baseline_ms, r.current_ms, r.speedup(),
                 static_cast<double>(rows) / (r.current_ms / 1e3),
                 r.out_rows, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"parallel\": {\n    \"threads\": %d,\n", threads);
  std::fprintf(f, "    \"benchmarks\": [\n");
  for (size_t i = 0; i < par_results.size(); ++i) {
    const auto& r = par_results[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"threads1_ms\": %.3f, "
                 "\"threadsN_ms\": %.3f, \"speedup\": %.2f, "
                 "\"out_rows\": %zu}%s\n",
                 r.name.c_str(), r.t1_ms, r.tn_ms, r.speedup(), r.out_rows,
                 i + 1 < par_results.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"gate\": {\"name\": \"join_aggregate\", "
               "\"min_speedup\": %.2f, \"speedup\": %.2f, \"pass\": %s}\n"
               "  },\n",
               min_parallel_speedup, par_gate ? par_gate->speedup() : 0.0,
               (par_gate && (min_parallel_speedup <= 0.0 ||
                             par_gate->speedup() >= min_parallel_speedup))
                   ? "true"
                   : "false");
  std::fprintf(f, "  \"query_cache\": {\n");
  std::fprintf(f,
               "    \"cold_ms\": %.3f, \"warm_ms\": %.3f,\n",
               cache_bench.cold_ms, cache_bench.warm_ms);
  std::fprintf(f,
               "    \"stale_memo\": {\"view_rows\": %zu, \"groups\": %zu, "
               "\"memo_ms\": %.3f, \"nocache_ms\": %.3f, "
               "\"speedup\": %.1f, \"answer_bit_identical\": true},\n",
               memo_bench.view_rows, memo_bench.groups, memo_bench.memo_ms,
               memo_bench.nocache_ms, memo_bench.speedup());
  std::fprintf(f, "    \"ingest_commit\": [\n");
  for (size_t i = 0; i < cache_bench.commit_us.size(); ++i) {
    std::fprintf(f, "      {\"queued_rows\": %zu, \"commit_us\": %.2f}%s\n",
                 cache_bench.commit_us[i].first,
                 cache_bench.commit_us[i].second,
                 i + 1 < cache_bench.commit_us.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"gate\": {\"name\": \"svc_query_warm_vs_cold\", "
               "\"min_speedup\": %.2f, \"speedup\": %.2f, \"pass\": %s}\n"
               "  },\n",
               min_cache_speedup, cache_bench.speedup(),
               (min_cache_speedup <= 0.0 ||
                cache_bench.speedup() >= min_cache_speedup)
                   ? "true"
                   : "false");
  std::fprintf(f, "  \"sharded_query\": {\n");
  std::fprintf(f,
               "    \"shards\": %d, \"unsharded_ms\": %.3f, "
               "\"sharded_ms\": %.3f, \"speedup\": %.2f,\n",
               sharded_bench.shards, sharded_bench.unsharded_ms,
               sharded_bench.sharded_ms, sharded_bench.speedup());
  std::fprintf(f,
               "    \"sample_rows\": %zu, \"answer_bit_identical\": true,\n",
               sharded_bench.sample_rows);
  std::fprintf(f,
               "    \"cold_grouped_corr\": {\"query\": \"Q7\", "
               "\"after\": \"REFRESH\", \"view_rows\": %zu, \"groups\": %zu, "
               "\"reps\": %d, \"median_ms\": %.3f, \"gathers_built\": %llu, "
               "\"max_gathers\": 0, \"pass\": %s},\n",
               cold_bench.view_rows, cold_bench.groups, kColdReps,
               cold_bench.ms,
               static_cast<unsigned long long>(cold_bench.gathers),
               cold_bench.gathers == 0 ? "true" : "false");
  std::fprintf(f, "    %s\n  },\n", HostJson().c_str());
  std::fprintf(f,
               "  \"exact_sum\": {\"terms\": %zu, \"naive_ns_per_term\": "
               "%.3f, \"exact_ns_per_term\": %.3f, \"ratio\": %.2f, "
               "\"dense_bytes\": %zu, \"partial_bytes\": %zu,\n    %s},\n",
               exact_bench.terms, exact_bench.naive_ns, exact_bench.exact_ns,
               exact_bench.exact_ns / exact_bench.naive_ns, sizeof(ExactSum),
               exact_bench.partial_bytes, HostJson().c_str());
  std::fprintf(f,
               "  \"dml\": {\"table\": \"lineitem\", \"engine\": \"shared\", "
               "\"reps\": %d, \"small_rows\": %zu, \"large_rows\": %zu, "
               "\"small_delete_ms\": %.4f, \"large_delete_ms\": %.4f, "
               "\"delete_ratio\": %.2f, \"small_insert_ms\": %.4f, "
               "\"large_insert_ms\": %.4f, \"insert_ratio\": %.2f, "
               "\"max_delete_ratio\": %.2f, \"pass\": %s},\n",
               kDmlReps, dml[0].rows, dml[1].rows, dml_delete_small,
               dml_delete_large, dml_delete_ratio, dml_insert_small,
               dml_insert_large, dml_insert_ratio, kMaxDmlDeleteGrowth,
               dml_delete_ratio <= kMaxDmlDeleteGrowth ? "true" : "false");
  std::fprintf(f, "  \"wal_commit\": {\n    \"commits\": %d,\n", kWalCommits);
  std::fprintf(f, "    \"policies\": [\n");
  for (size_t i = 0; i < wal_commit_us.size(); ++i) {
    std::fprintf(f, "      {\"fsync\": \"%s\", \"commit_us\": %.2f}%s\n",
                 wal_commit_us[i].first.c_str(), wal_commit_us[i].second,
                 i + 1 < wal_commit_us.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f,
               "  \"gate\": {\"name\": \"join_aggregate\", \"min_speedup\": "
               "%.2f, \"speedup\": %.2f, \"pass\": %s}\n",
               min_speedup, gate ? gate->speedup() : 0.0,
               (gate && (min_speedup <= 0.0 || gate->speedup() >= min_speedup))
                   ? "true"
                   : "false");
  std::fprintf(f, "%s}\n", merged.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  bool fail = false;
  if (min_speedup > 0.0 && (!gate || gate->speedup() < min_speedup)) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: join_aggregate speedup %.2fx is "
                 "below the %.2fx floor\n",
                 gate ? gate->speedup() : 0.0, min_speedup);
    fail = true;
  }
  if (min_parallel_speedup > 0.0 &&
      (!par_gate || par_gate->speedup() < min_parallel_speedup)) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: join_aggregate parallel speedup "
                 "%.2fx at %d threads is below the %.2fx floor\n",
                 par_gate ? par_gate->speedup() : 0.0, threads,
                 min_parallel_speedup);
    fail = true;
  }
  if (min_cache_speedup > 0.0 &&
      cache_bench.speedup() < min_cache_speedup) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: warm repeated SVC query is only "
                 "%.1fx faster than cold (floor %.1fx)\n",
                 cache_bench.speedup(), min_cache_speedup);
    fail = true;
  }
  if (cold_bench.gathers > 0) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: %d cold grouped CORR queries on %d "
                 "shards built %llu cross-shard gathers (must be 0)\n",
                 kColdReps, sharded_bench.shards,
                 static_cast<unsigned long long>(cold_bench.gathers));
    fail = true;
  }
  if (dml_delete_ratio > kMaxDmlDeleteGrowth) {
    std::fprintf(stderr,
                 "[micro_ops] REGRESSION: a 2-key DELETE got %.2fx slower on "
                 "a 4x larger table (ceiling %.2fx)\n",
                 dml_delete_ratio, kMaxDmlDeleteGrowth);
    fail = true;
  }
  return fail ? 1 : 0;
}
