// Serving-layer companion to Figure 14: drives the fig14-style
// ingest/query/refresh workload through *SQL sessions* (svc_shell's
// SqlSession) and through direct C++ engine calls, sequentially and with
// N concurrent sessions, so the same SQL scripts that document scenarios
// double as throughput workloads.
//
// Each session owns an independent SvcEngine (shared-nothing, as in the
// paper's partitioned serving model), so concurrent sessions measure how
// the process scales when every session has its own data shard. The SQL vs
// direct comparison isolates the serving-layer overhead: parse + route +
// result rendering on top of the identical clean-sample/estimate path.
//
// --shared adds the snapshot-isolated SharedEngine mode: N reader sessions
// issue SVC SELECTs against ONE engine while a writer session concurrently
// ingests delta batches and runs REFRESH commits. Readers run on immutable
// snapshots and never take the writer lock, so reader throughput with the
// concurrent refresher is compared against the same readers with the
// writer idle — the gap is the copy-on-write commit cost the readers
// *indirectly* pay (cache pressure), not blocking.
//
// --net serves the same engine through an in-process svc_served
// (SvcServer) on a loopback socket and drives it with N closed-loop
// SvcClient threads: the full network path — framing, CRC, serde encode /
// decode, session pool — measured as throughput and tail latency, with
// text Query vs prepared Execute as separate rows (the prepared delta is
// the parse + plan cost the AST cache removes; the server's
// statements_parsed counter proves Executes never touch the parser).
//
// Flags: --rows N (base log rows, default 20000)
//        --sessions N (concurrent sessions, default 4)
//        --iters N (ingest+query rounds per session, default 15)
//        --batch N (delta rows per round, default 100)
//        --shared (also run the shared-engine reader/refresher mode)
//        --net (also run the network closed-loop mode)
//        --net-queries N (requests per client in --net, default 400)
//        --net-chaos (with --net: also run the fault-injected leg — a
//                     degrade-enabled server, retrying clients, and a
//                     dropped response re-armed throughout the run; the
//                     retry/reconnect/replay/degrade counters prove the
//                     robustness machinery ran, and every request still
//                     has to succeed)
//        --merge-json PATH (append "fig14_net" — and with --net-chaos,
//                           "fig14_chaos" — objects into an existing
//                           BENCH json artifact)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/shared_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fault.h"
#include "sql/planner.h"
#include "sql/session.h"

namespace {

using namespace svc;

constexpr char kViewSql[] =
    "SELECT Log.videoId, COUNT(1) AS visitCount "
    "FROM Log, Video WHERE Log.videoId = Video.videoId "
    "GROUP BY Log.videoId";

Database BuildBaseDb(size_t log_rows, uint64_t seed) {
  Database db;
  Table log(Schema({{"", "sessionId", ValueType::kInt},
                    {"", "videoId", ValueType::kInt}}));
  bench::CheckOk(log.SetPrimaryKey({"sessionId"}), "log pk");
  Table video(Schema({{"", "videoId", ValueType::kInt},
                      {"", "ownerId", ValueType::kInt},
                      {"", "duration", ValueType::kDouble}}));
  bench::CheckOk(video.SetPrimaryKey({"videoId"}), "video pk");
  Rng rng(seed);
  Zipfian popularity(200, 1.1);
  for (int64_t v = 1; v <= 200; ++v) {
    bench::CheckOk(video.Insert({Value::Int(v), Value::Int(100 + v % 11),
                                 Value::Double(rng.Uniform(0.2, 3.0))}),
                   "video insert");
  }
  for (size_t s = 0; s < log_rows; ++s) {
    bench::CheckOk(
        log.Insert({Value::Int(static_cast<int64_t>(s)),
                    Value::Int(static_cast<int64_t>(popularity.Next(&rng)))}),
        "log insert");
  }
  bench::CheckOk(db.CreateTable("Log", std::move(log)), "create Log");
  bench::CheckOk(db.CreateTable("Video", std::move(video)), "create Video");
  return db;
}

struct WorkloadParams {
  size_t rows = 20000;
  int sessions = 4;
  int iters = 15;
  int batch = 100;
};

/// One session's workload via the SQL layer. Returns statements executed.
size_t RunSqlSession(const WorkloadParams& p, uint64_t seed) {
  SqlSession session(EngineHandle::Private(BuildBaseDb(p.rows, seed)));
  bench::CheckOk(
      session.Execute(std::string("CREATE MATERIALIZED VIEW visitView AS ") +
                      kViewSql)
          .status(),
      "create view (sql)");
  size_t statements = 1;
  Rng rng(seed ^ 0x5e551055);
  Zipfian popularity(200, 1.1);
  int64_t next_id = static_cast<int64_t>(p.rows);
  for (int it = 0; it < p.iters; ++it) {
    std::string insert = "INSERT INTO Log VALUES ";
    for (int b = 0; b < p.batch; ++b) {
      if (b > 0) insert += ", ";
      insert += "(" + std::to_string(next_id++) + ", " +
                std::to_string(popularity.Next(&rng)) + ")";
    }
    bench::CheckOk(session.Execute(insert).status(), "insert (sql)");
    auto q = session.Execute(
        "SELECT COUNT(1) FROM visitView WHERE visitCount > 100 "
        "WITH SVC(ratio=0.1, mode=corr)");
    bench::CheckOk(q.status(), "svc select (sql)");
    statements += 2;
    if ((it + 1) % 5 == 0) {
      bench::CheckOk(session.Execute("REFRESH VIEW visitView").status(),
                     "refresh (sql)");
      ++statements;
    }
  }
  return statements;
}

/// The identical workload via direct engine calls (no SQL text).
size_t RunDirectSession(const WorkloadParams& p, uint64_t seed) {
  SvcEngine engine(BuildBaseDb(p.rows, seed));
  PlanPtr def =
      bench::CheckedValue(SqlToPlan(kViewSql, *engine.db()), "plan view");
  bench::CheckOk(engine.CreateView("visitView", std::move(def)),
                 "create view (direct)");
  size_t ops = 1;
  Rng rng(seed ^ 0x5e551055);
  Zipfian popularity(200, 1.1);
  int64_t next_id = static_cast<int64_t>(p.rows);
  AggregateQuery q = AggregateQuery::Count(
      Expr::Gt(Expr::Col("visitCount"), Expr::LitInt(100)));
  SvcQueryOptions opts;
  opts.ratio = 0.1;
  opts.mode = EstimatorMode::kCorr;
  for (int it = 0; it < p.iters; ++it) {
    for (int b = 0; b < p.batch; ++b) {
      bench::CheckOk(
          engine.InsertRecord(
              "Log", {Value::Int(next_id++),
                      Value::Int(static_cast<int64_t>(popularity.Next(&rng)))}),
          "insert (direct)");
    }
    bench::CheckedValue(engine.Query("visitView", q, opts),
                        "query (direct)");
    ops += 2;
    if ((it + 1) % 5 == 0) {
      bench::CheckOk(engine.MaintainAll(), "refresh (direct)");
      ++ops;
    }
  }
  return ops;
}

/// Shared-engine mode: `readers` SQL sessions over one SharedEngine, each
/// issuing `queries` SVC SELECTs; optionally a writer session concurrently
/// ingesting `batch`-row INSERTs and REFRESHing every 5th batch until the
/// readers finish. Returns reader wall seconds; outputs the commit counts.
struct SharedRunStats {
  double reader_wall = 0;
  size_t reader_queries = 0;
  size_t ingest_commits = 0;
  size_t refresh_commits = 0;
};

SharedRunStats RunSharedWorkload(const WorkloadParams& p, int readers,
                                 bool with_writer, bool cache_enabled) {
  auto shared = std::make_shared<SharedEngine>(BuildBaseDb(p.rows, 1));
  if (!cache_enabled) {
    // Disable the cleaned-sample cache on the head; every fork a commit
    // publishes inherits the flag, so all snapshots serve cold.
    bench::CheckOk(shared->Commit([](SvcEngine* e) {
      e->set_sample_cache_enabled(false);
      return Status::OK();
    }), "disable cache");
  }
  {
    SqlSession admin(EngineHandle::Shared(shared));
    bench::CheckOk(
        admin
            .Execute(std::string("CREATE MATERIALIZED VIEW visitView AS ") +
                     kViewSql)
            .status(),
        "create view (shared)");
    // Make the view stale up-front in BOTH modes: a fresh view takes the
    // trivial no-op cleaning path, which would make the idle baseline
    // measure cheaper queries, not less contention.
    Rng rng(0xba5e11);
    Zipfian popularity(200, 1.1);
    std::string insert = "INSERT INTO Log VALUES ";
    for (int b = 0; b < p.batch; ++b) {
      if (b > 0) insert += ", ";
      insert += "(" + std::to_string(static_cast<int64_t>(p.rows) + b) +
                ", " + std::to_string(popularity.Next(&rng)) + ")";
    }
    bench::CheckOk(admin.Execute(insert).status(), "stale seed (shared)");
  }
  const size_t queries_per_reader = static_cast<size_t>(p.iters) * 4;
  std::atomic<bool> done{false};
  std::atomic<size_t> executed{0};

  std::thread writer;
  SharedRunStats stats;
  if (with_writer) {
    writer = std::thread([&] {
      SqlSession session(EngineHandle::Shared(shared));
      Rng rng(0x5e551055);
      Zipfian popularity(200, 1.1);
      // Ids continue after the stale-seed batch ingested above.
      int64_t next_id = static_cast<int64_t>(p.rows) + p.batch;
      size_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::string insert = "INSERT INTO Log VALUES ";
        for (int b = 0; b < p.batch; ++b) {
          if (b > 0) insert += ", ";
          insert += "(" + std::to_string(next_id++) + ", " +
                    std::to_string(popularity.Next(&rng)) + ")";
        }
        bench::CheckOk(session.Execute(insert).status(), "insert (shared)");
        ++stats.ingest_commits;
        if (++round % 5 == 0) {
          bench::CheckOk(session.Execute("REFRESH VIEW visitView").status(),
                         "refresh (shared)");
          ++stats.refresh_commits;
        }
      }
    });
  }

  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&] {
      SqlSession session(EngineHandle::Shared(shared));
      for (size_t i = 0; i < queries_per_reader; ++i) {
        auto q = session.Execute(
            "SELECT COUNT(1) FROM visitView WHERE visitCount > 100 "
            "WITH SVC(ratio=0.1, mode=corr)");
        bench::CheckOk(q.status(), "svc select (shared reader)");
        executed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  stats.reader_wall = sw.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  stats.reader_queries = executed.load();
  return stats;
}

// ---- --net: closed-loop clients over a loopback SvcServer -------------------

struct NetRunStats {
  double wall = 0;            ///< wall seconds for all clients
  size_t requests = 0;        ///< total requests answered
  uint64_t parses = 0;        ///< server statements_parsed delta
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

double PercentileMs(std::vector<double>* lat_s, double q) {
  if (lat_s->empty()) return 0;
  const size_t idx = std::min(
      lat_s->size() - 1,
      static_cast<size_t>(q * static_cast<double>(lat_s->size())));
  std::nth_element(lat_s->begin(),
                   lat_s->begin() + static_cast<ptrdiff_t>(idx),
                   lat_s->end());
  return (*lat_s)[idx] * 1e3;
}

/// `clients` closed-loop connections each issuing `queries` point lookups
/// against the served view — as text Query frames (parse + plan per
/// request) or as one Prepare + `queries` Execute frames (AST cached
/// server-side, `?` re-bound per request).
NetRunStats RunNetWorkload(SvcServer* server, int clients, int queries,
                           bool prepared) {
  const uint64_t parses_before = server->stats().statements_parsed;
  std::vector<std::vector<double>> latencies(clients);
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = server->port();
      copts.client_name = "fig14_net";
      auto client = bench::CheckedValue(SvcClient::Connect(copts),
                                        "connect (net)");
      std::vector<double>& lat = latencies[c];
      lat.reserve(queries);
      SvcClient::Prepared stmt;
      if (prepared) {
        stmt = bench::CheckedValue(
            client->Prepare("SELECT videoId, visitCount FROM visitView "
                            "WHERE visitCount > ?"),
            "prepare (net)");
      }
      Rng rng(static_cast<uint64_t>(c) + 1);
      for (int q = 0; q < queries; ++q) {
        const int64_t threshold = static_cast<int64_t>(rng.Next() % 200);
        Stopwatch sw;
        if (prepared) {
          bench::CheckOk(
              client->ExecutePrepared(stmt, {Value::Int(threshold)}).status(),
              "execute (net)");
        } else {
          bench::CheckOk(
              client
                  ->Execute("SELECT videoId, visitCount FROM visitView "
                            "WHERE visitCount > " +
                            std::to_string(threshold))
                  .status(),
              "query (net)");
        }
        lat.push_back(sw.ElapsedSeconds());
      }
    });
  }
  for (auto& t : threads) t.join();
  NetRunStats stats;
  stats.wall = wall.ElapsedSeconds();
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  stats.requests = all.size();
  stats.parses = server->stats().statements_parsed - parses_before;
  stats.p50_ms = PercentileMs(&all, 0.50);
  stats.p95_ms = PercentileMs(&all, 0.95);
  stats.p99_ms = PercentileMs(&all, 0.99);
  return stats;
}

// ---- --net-chaos: the same loop under injected faults + degradation --------

struct ChaosRunStats {
  double wall = 0;
  size_t requests = 0;      ///< responses the clients accepted (all of them)
  uint64_t retries = 0;     ///< client re-sends after retryable failures
  uint64_t reconnects = 0;  ///< transport re-establishments after Connect
  uint64_t faults = 0;      ///< server net_faults_injected delta
  uint64_t replays = 0;     ///< server idem_replays delta (dedup hits)
  uint64_t degraded = 0;    ///< server degraded_admissions delta
  uint64_t shed = 0;        ///< server overload_rejections delta
};

/// The closed loop again, but hostile: the server runs in --degrade mode
/// with max_inflight=1 (so concurrent SVC queries are admitted degraded and
/// everything else is shed-and-retried), the clients retry with idempotency
/// tokens, and a chaos thread keeps one conn.drop_response armed for the
/// whole run. Every request must still come back successfully — the
/// counters quantify how much robustness machinery that took.
ChaosRunStats RunChaosNetWorkload(SvcServer* server, int clients,
                                  int queries) {
  const ServerStats before = server->stats();
  std::atomic<bool> done{false};
  std::atomic<uint64_t> client_retries{0}, client_reconnects{0};

  // Re-arm a dropped response every ~15 answered frames. ShouldTrigger
  // fires exactly once per Arm, so the thread watches the server's fault
  // counter and re-arms after each fire.
  std::thread chaos([&] {
    uint64_t fired = before.net_faults_injected;
    FaultInjector::Net().Arm("conn.drop_response", 15);
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t now = server->stats().net_faults_injected;
      if (now > fired) {
        fired = now;
        FaultInjector::Net().Arm("conn.drop_response", 15);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FaultInjector::Net().Disarm();
  });

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::atomic<size_t> answered{0};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = server->port();
      copts.client_name = "fig14_chaos";
      copts.max_retries = 16;
      copts.recv_timeout_ms = 2000;
      copts.backoff_initial_ms = 2;
      copts.backoff_max_ms = 20;
      copts.backoff_seed = static_cast<uint64_t>(c) + 1;
      auto client = bench::CheckedValue(SvcClient::Connect(copts),
                                        "connect (chaos)");
      Rng rng(static_cast<uint64_t>(c) + 1);
      for (int q = 0; q < queries; ++q) {
        // Mostly SVC estimates (degradable past max_inflight); every 8th a
        // plain lookup, which degrade mode sheds under pressure and the
        // client must retry through.
        if (q % 8 == 7) {
          const int64_t threshold = static_cast<int64_t>(rng.Next() % 200);
          bench::CheckOk(
              client
                  ->Execute("SELECT videoId, visitCount FROM visitView "
                            "WHERE visitCount > " +
                            std::to_string(threshold))
                  .status(),
              "lookup (chaos)");
        } else {
          bench::CheckOk(client
                             ->Execute("SELECT SUM(visitCount) FROM visitView "
                                       "WITH SVC(ratio=0.5, mode=corr)")
                             .status(),
                         "estimate (chaos)");
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
      client_retries.fetch_add(client->retries(), std::memory_order_relaxed);
      client_reconnects.fetch_add(client->reconnects(),
                                  std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  ChaosRunStats stats;
  stats.wall = wall.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  chaos.join();
  const ServerStats after = server->stats();
  stats.requests = answered.load();
  stats.retries = client_retries.load();
  stats.reconnects = client_reconnects.load();
  stats.faults = after.net_faults_injected - before.net_faults_injected;
  stats.replays = after.idem_replays - before.idem_replays;
  stats.degraded = after.degraded_admissions - before.degraded_admissions;
  stats.shed = after.overload_rejections - before.overload_rejections;
  return stats;
}

/// Appends `"fig14_chaos": {...}` next to fig14_net in the BENCH artifact:
/// the robustness counters ride the same file as the throughput numbers.
void MergeChaosJson(const std::string& path, int clients, int queries,
                    const ChaosRunStats& s) {
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
  const size_t old = content.find(",\n  \"fig14_chaos\":");
  if (old != std::string::npos) content.resize(old);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] --merge-json: cannot write %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::fprintf(
      out,
      "%s,\n  \"fig14_chaos\": {\n"
      "    \"clients\": %d, \"queries_per_client\": %d,\n"
      "    \"requests_ok\": %zu, \"throughput_rps\": %.1f,\n"
      "    \"client_retries\": %llu, \"client_reconnects\": %llu,\n"
      "    \"net_faults_injected\": %llu, \"idem_replays\": %llu,\n"
      "    \"degraded_admissions\": %llu, \"overload_rejections\": %llu\n"
      "  }\n}\n",
      content.c_str(), clients, queries, s.requests,
      static_cast<double>(s.requests) / s.wall,
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.reconnects),
      static_cast<unsigned long long>(s.faults),
      static_cast<unsigned long long>(s.replays),
      static_cast<unsigned long long>(s.degraded),
      static_cast<unsigned long long>(s.shed));
  std::fclose(out);
  std::printf("merged fig14_chaos into %s\n", path.c_str());
}

/// Appends `"fig14_net": {...}` into an existing `{...}` JSON artifact
/// (BENCH_executor.json) so the network numbers ride the same file the
/// executor gate writes.
void MergeNetJson(const std::string& path, int clients, int queries,
                  const NetRunStats& text, const NetRunStats& prepared) {
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
  // Drop everything after the final closing brace, then reopen the object.
  const size_t close = content.find_last_of('}');
  if (close == std::string::npos) {
    std::fprintf(stderr, "[bench] --merge-json: %s is not a JSON object\n",
                 path.c_str());
    std::exit(2);
  }
  content.resize(close);
  // Re-merging after a previous run replaces the old fig14_net object.
  const size_t old = content.find(",\n  \"fig14_net\":");
  if (old != std::string::npos) content.resize(old);
  auto mode_json = [](const NetRunStats& s) {
    char out[256];
    std::snprintf(out, sizeof(out),
                  "{\"throughput_rps\": %.1f, \"p50_ms\": %.3f, "
                  "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"parses\": %llu}",
                  static_cast<double>(s.requests) / s.wall, s.p50_ms,
                  s.p95_ms, s.p99_ms,
                  static_cast<unsigned long long>(s.parses));
    return std::string(out);
  };
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] --merge-json: cannot write %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::fprintf(out,
               "%s,\n  \"fig14_net\": {\n"
               "    \"clients\": %d, \"queries_per_client\": %d,\n"
               "    \"text\": %s,\n"
               "    \"prepared\": %s\n  }\n}\n",
               content.c_str(), clients, queries, mode_json(text).c_str(),
               mode_json(prepared).c_str());
  std::fclose(out);
  std::printf("merged fig14_net into %s\n", path.c_str());
}

/// Runs `n` concurrent copies of `fn` and returns wall seconds.
template <typename Fn>
double TimeConcurrent(int n, Fn fn) {
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([i, &fn] { fn(static_cast<uint64_t>(i) + 1); });
  }
  for (auto& t : threads) t.join();
  return sw.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadParams p;
  bool run_shared = false;
  bool run_net = false;
  bool run_chaos = false;
  int net_queries = 400;
  std::string merge_json;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* what) -> long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return std::atol(argv[++i]);
    };
    if (std::strcmp(argv[i], "--rows") == 0) {
      p.rows = static_cast<size_t>(next("--rows"));
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      p.sessions = static_cast<int>(next("--sessions"));
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      p.iters = static_cast<int>(next("--iters"));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      p.batch = static_cast<int>(next("--batch"));
    } else if (std::strcmp(argv[i], "--shared") == 0) {
      run_shared = true;
    } else if (std::strcmp(argv[i], "--net") == 0) {
      run_net = true;
    } else if (std::strcmp(argv[i], "--net-queries") == 0) {
      net_queries = static_cast<int>(next("--net-queries"));
    } else if (std::strcmp(argv[i], "--net-chaos") == 0) {
      run_chaos = true;
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
      "-- SQL serving layer vs direct engine API "
      "(rows=%zu iters=%d batch=%d) --\n",
      p.rows, p.iters, p.batch);

  // Warm-up (allocator, page cache), then measure.
  (void)RunDirectSession({p.rows / 4, 1, 2, p.batch}, 99);

  size_t sql_ops = 0, direct_ops = 0;
  const double direct_1 =
      bench::TimeSeconds([&] { direct_ops = RunDirectSession(p, 1); });
  const double sql_1 =
      bench::TimeSeconds([&] { sql_ops = RunSqlSession(p, 1); });

  TablePrinter t({"path", "sessions", "ops", "wall_s", "ops_per_s",
                  "overhead"});
  t.AddRow({"direct", "1", std::to_string(direct_ops),
            TablePrinter::Num(direct_1, 3),
            TablePrinter::Num(static_cast<double>(direct_ops) / direct_1, 1),
            "--"});
  t.AddRow({"sql", "1", std::to_string(sql_ops),
            TablePrinter::Num(sql_1, 3),
            TablePrinter::Num(static_cast<double>(sql_ops) / sql_1, 1),
            TablePrinter::Pct(sql_1 / direct_1 - 1.0, 1)});

  if (p.sessions > 1) {
    const double direct_n = TimeConcurrent(
        p.sessions, [&](uint64_t seed) { RunDirectSession(p, seed); });
    const double sql_n = TimeConcurrent(
        p.sessions, [&](uint64_t seed) { RunSqlSession(p, seed); });
    const double dn_ops = static_cast<double>(direct_ops * p.sessions);
    const double sn_ops = static_cast<double>(sql_ops * p.sessions);
    t.AddRow({"direct", std::to_string(p.sessions),
              std::to_string(static_cast<size_t>(dn_ops)),
              TablePrinter::Num(direct_n, 3),
              TablePrinter::Num(dn_ops / direct_n, 1), "--"});
    t.AddRow({"sql", std::to_string(p.sessions),
              std::to_string(static_cast<size_t>(sn_ops)),
              TablePrinter::Num(sql_n, 3),
              TablePrinter::Num(sn_ops / sql_n, 1),
              TablePrinter::Pct(sql_n / direct_n - 1.0, 1)});
  }
  t.Print();
  std::printf(
      "\noverhead = SQL wall time over direct engine calls for the identical "
      "workload\n(parse + route + render; expected near zero — the "
      "clean-sample/estimate path dominates).\nConcurrent sessions are "
      "shared-nothing; scaling is bounded by physical cores\n(see "
      "docs/PERF.md \"Measured scaling\").\n");

  if (run_shared) {
    std::printf(
        "\n-- Shared engine: %d reader session(s), snapshot-isolated --\n",
        p.sessions);
    TablePrinter st({"writer", "cache", "readers", "queries", "wall_s",
                     "queries_per_s", "ingests", "refreshes"});
    for (const bool cache_enabled : {true, false}) {
      const SharedRunStats idle =
          RunSharedWorkload(p, p.sessions, false, cache_enabled);
      const SharedRunStats busy =
          RunSharedWorkload(p, p.sessions, true, cache_enabled);
      const char* cache = cache_enabled ? "on" : "off";
      st.AddRow({"idle", cache, std::to_string(p.sessions),
                 std::to_string(idle.reader_queries),
                 TablePrinter::Num(idle.reader_wall, 3),
                 TablePrinter::Num(
                     static_cast<double>(idle.reader_queries) /
                         idle.reader_wall, 1),
                 "0", "0"});
      st.AddRow({"refreshing", cache, std::to_string(p.sessions),
                 std::to_string(busy.reader_queries),
                 TablePrinter::Num(busy.reader_wall, 3),
                 TablePrinter::Num(
                     static_cast<double>(busy.reader_queries) /
                         busy.reader_wall, 1),
                 std::to_string(busy.ingest_commits),
                 std::to_string(busy.refresh_commits)});
    }
    st.Print();
    std::printf(
        "\nReaders run on immutable snapshots and never take the writer "
        "lock: the\nidle-vs-refreshing gap is copy-on-write commit work "
        "competing for cores/cache,\nnot blocking (torn-read freedom is "
        "asserted by tests/test_concurrent_engine.cc).\ncache=on shares one "
        "cleaning run per (snapshot, ratio) across all readers;\ncache=off "
        "re-cleans per query (the pre-cache behavior).\n");
  }

  if (run_net) {
    std::printf(
        "\n-- Network serving (svc_served in-process, loopback): %d "
        "closed-loop client(s) x %d request(s) --\n",
        p.sessions, net_queries);
    auto shared = std::make_shared<SharedEngine>(BuildBaseDb(p.rows, 1));
    {
      SqlSession admin(EngineHandle::Shared(shared));
      bench::CheckOk(
          admin
              .Execute(std::string("CREATE MATERIALIZED VIEW visitView AS ") +
                       kViewSql)
              .status(),
          "create view (net)");
    }
    ServerOptions sopts;
    sopts.workers = p.sessions;
    sopts.max_inflight = static_cast<uint32_t>(p.sessions) * 4;
    SvcServer server(sopts, shared);
    bench::CheckOk(server.Start(), "server start (net)");

    // Warm-up, then measure text Query frames vs prepared Execute frames.
    (void)RunNetWorkload(&server, 1, std::max(net_queries / 10, 10), false);
    const NetRunStats text =
        RunNetWorkload(&server, p.sessions, net_queries, false);
    const NetRunStats prep =
        RunNetWorkload(&server, p.sessions, net_queries, true);
    server.Stop();

    TablePrinter nt({"mode", "clients", "requests", "wall_s", "req_per_s",
                     "p50_ms", "p95_ms", "p99_ms", "parses"});
    auto add = [&](const char* mode, const NetRunStats& s) {
      nt.AddRow({mode, std::to_string(p.sessions),
                 std::to_string(s.requests), TablePrinter::Num(s.wall, 3),
                 TablePrinter::Num(static_cast<double>(s.requests) / s.wall,
                                   1),
                 TablePrinter::Num(s.p50_ms, 3), TablePrinter::Num(s.p95_ms, 3),
                 TablePrinter::Num(s.p99_ms, 3), std::to_string(s.parses)});
    };
    add("text", text);
    add("prepared", prep);
    nt.Print();
    std::printf(
        "\nClosed loop: every client waits for its response before sending "
        "the next\nrequest, so req_per_s counts whole wire round-trips "
        "(frame + CRC + serde both\nways). prepared parses once per client "
        "connection (%d parse(s) here) and\nre-binds ? per Execute — the "
        "text-vs-prepared gap is the per-request parse +\nplan cost. "
        "Single-core container caveat: clients, IO thread, and workers\n"
        "share one core (docs/PERF.md \"Measured scaling\").\n",
        p.sessions);
    if (!merge_json.empty()) {
      MergeNetJson(merge_json, p.sessions, net_queries, text, prep);
    }

    if (run_chaos) {
      std::printf(
          "\n-- Chaos serving (degrade mode, dropped responses re-armed, "
          "retrying clients) --\n");
      ServerOptions chaos_opts;
      chaos_opts.workers = p.sessions;
      chaos_opts.max_inflight = 1;  // force degraded admission under load
      chaos_opts.degrade = true;
      chaos_opts.degrade_max_inflight = static_cast<uint32_t>(p.sessions) * 4;
      chaos_opts.degrade_ratio_scale = 0.5;
      SvcServer chaos_server(chaos_opts, shared);
      bench::CheckOk(chaos_server.Start(), "server start (chaos)");
      const ChaosRunStats cs =
          RunChaosNetWorkload(&chaos_server, p.sessions, net_queries);
      chaos_server.Stop();

      TablePrinter ct({"requests_ok", "wall_s", "req_per_s", "retries",
                       "reconnects", "faults", "replays", "degraded",
                       "shed"});
      ct.AddRow({std::to_string(cs.requests), TablePrinter::Num(cs.wall, 3),
                 TablePrinter::Num(
                     static_cast<double>(cs.requests) / cs.wall, 1),
                 std::to_string(cs.retries), std::to_string(cs.reconnects),
                 std::to_string(cs.faults), std::to_string(cs.replays),
                 std::to_string(cs.degraded), std::to_string(cs.shed)});
      ct.Print();
      std::printf(
          "\nEvery request succeeded despite the injected faults: dropped "
          "responses force\nreconnect + idempotent re-send (replays = dedup "
          "hits that prevented double\nexecution), and past max_inflight=1 "
          "the degrade admission path answers SVC\nestimates at half the "
          "sampling ratio (degraded) while shedding exact queries\nfor the "
          "client to retry (shed).\n");
      if (!merge_json.empty()) {
        MergeChaosJson(merge_json, p.sessions, net_queries, cs);
      }
    }
  } else if (!merge_json.empty()) {
    std::fprintf(stderr, "--merge-json requires --net\n");
    return 2;
  } else if (run_chaos) {
    std::fprintf(stderr, "--net-chaos requires --net\n");
    return 2;
  }
  return 0;
}
