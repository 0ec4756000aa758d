// Maintenance-policy Pareto: cost-based scheduling vs fixed-interval
// REFRESH on a bursty ingest workload.
//
// The workload alternates heavy-ingest rounds and idle rounds (bursts land
// in rounds where round % 8 < 3), with two SVC serving queries per round.
// A fixed-interval baseline refreshes every K rounds no matter what; the
// policy arm instead drives SharedEngine::MaintenanceTick with a simulated
// clock (100 ms per round), so the cost model — staleness share + probe CI
// vs the error budget + time-since-refresh vs the SLA — decides when the
// refresh commit runs. Idle stretches score zero (nothing pending), so the
// policy skips exactly the refreshes the fixed schedule wastes, and bursts
// pull refreshes earlier than the fixed schedule would grant them.
//
// Per arm we report refresh commits, mean relative error of the serving
// queries against a fresh oracle replica, and statements/sec. Refresh
// counts and errors are bit-deterministic (hash-based sampling, simulated
// clock); only the wall-clock column varies run to run, so the --check
// gate judges the deterministic quantities:
//
//   exists policy point p and fixed point f with
//     p.refreshes < f.refreshes  AND  p.mean_error <= 1.05 * f.mean_error
//
// i.e. the policy reaches a fixed baseline's accuracy with strictly fewer
// maintenance commits.
//
// Flags: --rounds N   serving rounds per arm (default 48)
//        --base N     committed base rows (default 2000)
//        --batch N    delta rows per burst round (default 200)
//        --check      enforce the Pareto gate (exit 1 on failure)
//        --merge-json PATH  append a "policy_pareto" object into an
//                           existing BENCH json artifact

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/shared_engine.h"
#include "sql/session.h"

namespace {

using namespace svc;

constexpr uint64_t kRoundMs = 100;  ///< simulated wall time per round
constexpr int kGroups = 50;

struct Params {
  int rounds = 48;
  size_t base = 2000;
  int batch = 200;
};

bool IsBurstRound(int round) { return round % 8 < 3; }

/// Deterministic delta batch for `round` (identical across every arm and
/// the oracle, so all replicas see the same stream).
std::string BurstInsert(const Params& p, int round) {
  int64_t next = static_cast<int64_t>(p.base);
  for (int r = 0; r < round; ++r) {
    if (IsBurstRound(r)) next += p.batch;
  }
  std::string sql = "INSERT INTO F VALUES ";
  for (int b = 0; b < p.batch; ++b) {
    const int64_t id = next + b;
    if (b > 0) sql += ", ";
    sql += "(" + std::to_string(id) + ", " + std::to_string(id % kGroups) +
           ", " + std::to_string((id % 97) * 0.5 + 1.0) + ")";
  }
  return sql;
}

const char* kServingQueries[] = {
    "SELECT SUM(sv) AS x FROM V WITH SVC(ratio=0.2, mode=corr)",
    "SELECT SUM(sv) AS x FROM V WITH SVC(ratio=0.2, mode=aqp)",
};
constexpr size_t kNumQueries = 2;

double RunScalar(SqlSession* session, const std::string& sql) {
  SqlResult r = bench::CheckedValue(session->Execute(sql), "svc query");
  bench::CheckOk(r.rows.NumRows() == 1
                     ? Status::OK()
                     : Status::Internal("expected one estimate row"),
                 "svc query shape");
  return r.rows.row(0)[0].AsDouble();
}

/// CREATE TABLE + committed base load + view definition, shared by every
/// replica so their serving state is identical before round 0.
size_t SetUpReplica(SqlSession* session, const Params& p) {
  size_t statements = 0;
  bench::CheckOk(session
                     ->Execute("CREATE TABLE F (id INT, g INT, v DOUBLE, "
                               "PRIMARY KEY (id))")
                     .status(),
                 "create table");
  ++statements;
  for (size_t at = 0; at < p.base; at += 500) {
    std::string sql = "INSERT INTO F VALUES ";
    const size_t end = std::min(p.base, at + 500);
    for (size_t id = at; id < end; ++id) {
      if (id > at) sql += ", ";
      sql += "(" + std::to_string(id) + ", " +
             std::to_string(id % kGroups) + ", " +
             std::to_string((id % 97) * 0.5 + 1.0) + ")";
    }
    bench::CheckOk(session->Execute(sql).status(), "base load");
    ++statements;
  }
  bench::CheckOk(session->Execute("REFRESH ALL").status(), "base refresh");
  bench::CheckOk(
      session
          ->Execute("CREATE MATERIALIZED VIEW V AS SELECT g, COUNT(1) AS c, "
                    "SUM(v) AS sv FROM F GROUP BY g")
          .status(),
      "create view");
  statements += 2;
  return statements;
}

/// Fresh truth per (round, query): an oracle replica that refreshes every
/// round. A refreshed view has nothing pending, so its SVC answer is the
/// exact aggregate.
std::vector<std::vector<double>> ComputeTruth(const Params& p) {
  SqlSession oracle(EngineHandle::Private());
  SetUpReplica(&oracle, p);
  std::vector<std::vector<double>> truth(p.rounds);
  for (int round = 0; round < p.rounds; ++round) {
    if (IsBurstRound(round)) {
      bench::CheckOk(oracle.Execute(BurstInsert(p, round)).status(),
                     "oracle ingest");
    }
    bench::CheckOk(oracle.Execute("REFRESH ALL").status(), "oracle refresh");
    for (size_t q = 0; q < kNumQueries; ++q) {
      truth[round].push_back(RunScalar(&oracle, kServingQueries[q]));
    }
  }
  return truth;
}

struct ArmResult {
  std::string arm;      ///< "fixed" or "policy"
  std::string param;    ///< "K=4" or "sla=800ms"
  uint64_t refreshes = 0;
  uint64_t warms = 0;
  double mean_error = 0;  ///< mean relative error vs the fresh oracle
  size_t statements = 0;
  double wall_s = 0;
};

/// One serving arm over the shared burst stream. `fixed_every` > 0 runs
/// REFRESH ALL on that cadence; otherwise `policy_sql` arms the cost model
/// and each round advances the simulated clock and calls MaintenanceTick.
ArmResult RunArm(const Params& p,
                 const std::vector<std::vector<double>>& truth,
                 int fixed_every, const std::string& policy_sql,
                 const std::string& param_label) {
  auto shared = std::make_shared<SharedEngine>(Database());
  SqlSession session(EngineHandle::Shared(shared));
  ArmResult out;
  out.arm = fixed_every > 0 ? "fixed" : "policy";
  out.param = param_label;
  Stopwatch sw;
  out.statements = SetUpReplica(&session, p);
  if (fixed_every == 0) {
    bench::CheckOk(session.Execute(policy_sql).status(), "set policy");
    ++out.statements;
  }
  double error_sum = 0;
  size_t error_n = 0;
  uint64_t sim_since_refresh = 0;
  for (int round = 0; round < p.rounds; ++round) {
    if (IsBurstRound(round)) {
      bench::CheckOk(session.Execute(BurstInsert(p, round)).status(),
                     "arm ingest");
      ++out.statements;
    }
    if (fixed_every > 0) {
      if (round % fixed_every == fixed_every - 1) {
        bench::CheckOk(session.Execute("REFRESH ALL").status(),
                       "fixed refresh");
        ++out.statements;
        ++out.refreshes;
      }
    } else {
      sim_since_refresh += kRoundMs;
      const bool refreshed = bench::CheckedValue(
          shared->MaintenanceTick(sim_since_refresh), "policy tick");
      ++out.statements;  // the tick is the arm's maintenance statement
      if (refreshed) sim_since_refresh = 0;
    }
    for (size_t q = 0; q < kNumQueries; ++q) {
      const double got = RunScalar(&session, kServingQueries[q]);
      const double want = truth[round][q];
      if (std::fabs(want) > 1e-12) {
        error_sum += std::fabs(got - want) / std::fabs(want);
        ++error_n;
      }
      ++out.statements;
    }
  }
  out.wall_s = sw.ElapsedSeconds();
  if (fixed_every == 0) {
    const MaintenanceStats ms = shared->maintenance_stats();
    out.refreshes = ms.refreshes;
    out.warms = ms.warms;
  }
  out.mean_error = error_n > 0 ? error_sum / static_cast<double>(error_n) : 0;
  return out;
}

/// The --check Pareto gate (deterministic quantities only).
bool ParetoGate(const std::vector<ArmResult>& fixed,
                const std::vector<ArmResult>& policy, std::string* why) {
  for (const ArmResult& pr : policy) {
    for (const ArmResult& fr : fixed) {
      if (pr.refreshes < fr.refreshes &&
          pr.mean_error <= 1.05 * fr.mean_error) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "policy %s (%llu refreshes, %.4f err) beats fixed %s "
                      "(%llu refreshes, %.4f err)",
                      pr.param.c_str(),
                      static_cast<unsigned long long>(pr.refreshes),
                      pr.mean_error, fr.param.c_str(),
                      static_cast<unsigned long long>(fr.refreshes),
                      fr.mean_error);
        *why = buf;
        return true;
      }
    }
  }
  *why = "no policy point reached a fixed baseline's accuracy with fewer "
         "refreshes";
  return false;
}

/// Appends `"policy_pareto": {...}` into an existing `{...}` JSON artifact
/// (BENCH_executor.json), replacing any block a previous run merged.
void MergeParetoJson(const std::string& path,
                     const std::vector<ArmResult>& fixed,
                     const std::vector<ArmResult>& policy, bool gate_ok) {
  FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    std::fprintf(stderr, "[bench] --merge-json: cannot read %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) content.append(buf, n);
  std::fclose(in);
  const size_t close = content.find_last_of('}');
  if (close == std::string::npos) {
    std::fprintf(stderr, "[bench] --merge-json: %s is not a JSON object\n",
                 path.c_str());
    std::exit(2);
  }
  content.resize(close);
  const size_t old = content.find(",\n  \"policy_pareto\":");
  if (old != std::string::npos) content.resize(old);
  auto arm_json = [](const std::vector<ArmResult>& arms) {
    std::string out = "[";
    for (size_t i = 0; i < arms.size(); ++i) {
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s\n      {\"param\": \"%s\", \"refreshes\": %llu, "
                    "\"warms\": %llu, \"mean_rel_error\": %.6f, "
                    "\"stmts_per_s\": %.1f}",
                    i > 0 ? "," : "", arms[i].param.c_str(),
                    static_cast<unsigned long long>(arms[i].refreshes),
                    static_cast<unsigned long long>(arms[i].warms),
                    arms[i].mean_error,
                    static_cast<double>(arms[i].statements) / arms[i].wall_s);
      out += row;
    }
    return out + "\n    ]";
  };
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] --merge-json: cannot write %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::fprintf(out,
               "%s,\n  \"policy_pareto\": {\n"
               "    \"fixed\": %s,\n"
               "    \"policy\": %s,\n"
               "    \"pareto_gate\": %s\n  }\n}\n",
               content.c_str(), arm_json(fixed).c_str(),
               arm_json(policy).c_str(), gate_ok ? "true" : "false");
  std::fclose(out);
  std::printf("merged policy_pareto into %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  bool check = false;
  std::string merge_json;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* what) -> long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return std::atol(argv[++i]);
    };
    if (std::strcmp(argv[i], "--rounds") == 0) {
      p.rounds = static_cast<int>(next("--rounds"));
    } else if (std::strcmp(argv[i], "--base") == 0) {
      p.base = static_cast<size_t>(next("--base"));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      p.batch = static_cast<int>(next("--batch"));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--merge-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --merge-json\n");
        return 2;
      }
      merge_json = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::printf(
      "-- Maintenance policy vs fixed-interval REFRESH "
      "(rounds=%d base=%zu burst_batch=%d, bursts at round %% 8 < 3) --\n",
      p.rounds, p.base, p.batch);

  const std::vector<std::vector<double>> truth = ComputeTruth(p);

  std::vector<ArmResult> fixed;
  for (int k : {1, 4, 16}) {
    fixed.push_back(RunArm(p, truth, k, "", "K=" + std::to_string(k)));
  }
  std::vector<ArmResult> policy;
  for (int sla_ms : {200, 800, 3200}) {
    const std::string sql =
        "SET MAINTENANCE POLICY (mode=auto, budget=0.05, sla_ms=" +
        std::to_string(sla_ms) + ", ratio=0.2)";
    policy.push_back(
        RunArm(p, truth, 0, sql, "sla=" + std::to_string(sla_ms) + "ms"));
  }

  TablePrinter t({"arm", "param", "refreshes", "warms", "mean_rel_err",
                  "stmts", "wall_s", "stmts_per_s"});
  auto add = [&](const ArmResult& r) {
    t.AddRow({r.arm, r.param, std::to_string(r.refreshes),
              std::to_string(r.warms), TablePrinter::Num(r.mean_error, 4),
              std::to_string(r.statements), TablePrinter::Num(r.wall_s, 3),
              TablePrinter::Num(
                  static_cast<double>(r.statements) / r.wall_s, 1)});
  };
  for (const auto& r : fixed) add(r);
  for (const auto& r : policy) add(r);
  t.Print();

  std::string why;
  const bool ok = ParetoGate(fixed, policy, &why);
  std::printf(
      "\nmean_rel_err = serving-query error vs a fresh oracle replica; "
      "refreshes and\nerrors are deterministic (hash sampling + simulated "
      "100 ms rounds), wall_s is\nnot (single-core container — see "
      "docs/PERF.md).\npareto gate: %s — %s\n",
      ok ? "PASS" : "FAIL", why.c_str());

  if (!merge_json.empty()) MergeParetoJson(merge_json, fixed, policy, ok);
  if (check && !ok) return 1;
  return 0;
}
