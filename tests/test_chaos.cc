// Chaos tests: the deterministic network fault injector, end-to-end request
// deadlines, idempotent client retry, and graceful degradation.
//
// The heart is a differential harness: for every network fault site and
// every fault position, a retrying client must finish the workload with a
// transcript *bit-identical* to the fault-free run (and to an in-process
// replica) — lost responses are replayed from the server's idempotency
// journal, never re-executed, so no write lands twice and no read answers
// differently. A test that runs svc_served as a child process covers the
// hardest window: the server crashing after a write's WAL append but before
// its response, with the client converging against the restarted server.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "core/sharded_engine.h"
#include "core/shared_engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/session.h"
#include "storage/durable_engine.h"
#include "storage/fault.h"
#include "storage/serde.h"
#include "tests/served_process.h"
#include "tests/test_util.h"

namespace svc {
namespace {

/// Disarms both injectors on scope exit so one test's arming can never leak
/// into the next.
struct InjectorGuard {
  InjectorGuard() {
    FaultInjector::Net().Disarm();
    FaultInjector::Global().Disarm();
  }
  ~InjectorGuard() {
    FaultInjector::Net().Disarm();
    FaultInjector::Global().Disarm();
  }
};

/// The quickstart-shaped workload the differential runs end to end: DDL,
/// loads, a materialized view, staleness, SVC estimates in both modes, a
/// refresh, an exact read-back, and SHOW STATS (in-memory stats are fully
/// deterministic because a replayed retry never re-executes).
const std::vector<std::string>& Workload() {
  static const std::vector<std::string>* kStmts = new std::vector<std::string>{
      "CREATE TABLE Video (videoId INT, ownerId INT, duration DOUBLE, "
      "PRIMARY KEY (videoId));",
      "INSERT INTO Video VALUES (1, 101, 1.5), (2, 102, 0.8), (3, 100, 2.5), "
      "(4, 101, 1.1);",
      "CREATE TABLE Log (sessionId INT, videoId INT, "
      "PRIMARY KEY (sessionId));",
      "INSERT INTO Log VALUES (0, 1), (1, 1), (2, 2), (3, 3), (4, 3), (5, 1), "
      "(6, 2), (7, 3), (8, 1), (9, 2);",
      "REFRESH ALL;",
      "CREATE MATERIALIZED VIEW visitView AS SELECT Log.videoId, COUNT(1) AS "
      "visitCount FROM Log, Video WHERE Log.videoId = Video.videoId GROUP BY "
      "Log.videoId;",
      "INSERT INTO Log VALUES (100, 2), (101, 2), (102, 3), (103, 1), "
      "(104, 4), (105, 4);",
      "SELECT COUNT(1) FROM visitView WHERE visitCount > 2 WITH "
      "SVC(ratio=0.5, mode=corr);",
      "SELECT SUM(visitCount) FROM visitView WITH SVC(ratio=0.5, mode=aqp);",
      "REFRESH VIEW visitView;",
      "SELECT videoId, visitCount FROM visitView WHERE visitCount > 2;",
      "SHOW STATS;",
  };
  return *kStmts;
}

/// Flattens a SqlResult to a comparison key covering every field a client
/// can observe: kind, message, estimator mode, degraded flag, and all rows
/// (order-insensitively, via the bit-exact row-key codec).
std::string Render(const SqlResult& r) {
  std::string out = std::to_string(static_cast<int>(r.kind)) + "|" +
                    r.message + "|" +
                    std::to_string(static_cast<int>(r.mode_used)) + "|" +
                    (r.degraded ? "D" : "-");
  for (const std::string& key : testing_util::EncodedRows(r.rows)) {
    out += "|" + key;
  }
  return out;
}

std::unique_ptr<SvcServer> StartServer(ServerOptions opts = {}) {
  auto server = std::make_unique<SvcServer>(
      std::move(opts), std::make_shared<SharedEngine>(Database()));
  EXPECT_TRUE(server->Start().ok());
  return server;
}

ClientOptions RetryingClientOptions(uint16_t port) {
  ClientOptions opts;
  opts.port = port;
  opts.max_retries = 8;
  opts.recv_timeout_ms = 250;  // conn.stall costs one timeout, not a hang
  opts.backoff_initial_ms = 5;
  opts.backoff_max_ms = 20;
  return opts;
}

/// Runs the workload over the wire against a fresh in-memory server with a
/// retrying client, with `site` (nullptr = fault-free) armed to fire on its
/// `nth` hit. Returns the rendered transcript; surfaces server counters and
/// client retry counts through the out-params.
std::vector<std::string> RunWorkloadOverWire(bool prepared, const char* site,
                                             uint64_t nth, ServerStats* stats,
                                             uint64_t* retries) {
  std::vector<std::string> transcript;
  FaultInjector::Net().Disarm();
  auto server = StartServer();
  auto client = SvcClient::Connect(RetryingClientOptions(server->port()));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (!client.ok()) return transcript;
  if (site != nullptr) FaultInjector::Net().Arm(site, nth);
  for (const std::string& sql : Workload()) {
    Result<SqlResult> r = Status::Internal("unset");
    if (!prepared) {
      r = (*client)->Execute(sql);
    } else {
      auto stmt = (*client)->Prepare(sql);
      if (!stmt.ok()) {
        r = stmt.status();
      } else {
        r = (*client)->ExecutePrepared(*stmt, {});
      }
    }
    if (r.ok()) {
      transcript.push_back(Render(*r));
    } else {
      transcript.push_back("ERR|" + r.status().ToString());
    }
  }
  FaultInjector::Net().Disarm();
  *stats = server->stats();
  *retries = (*client)->retries();
  return transcript;
}

// For every fault site, at several response positions (a DDL ack, a write
// ack, an estimate, the final SHOW STATS), in both text and prepared mode:
// the retrying client's transcript must be bit-identical to the fault-free
// run and to an in-process shared-engine replica. SHOW STATS inside the
// workload doubles as the no-duplicate-writes check — a re-executed insert
// or refresh would shift pending_rows / delta_version.
TEST(ChaosNetFaultTest, DifferentialAcrossSitesAndPositions) {
  InjectorGuard guard;

  std::vector<std::string> replica;
  {
    SqlSession local(
        EngineHandle::Shared(std::make_shared<SharedEngine>(Database())));
    for (const std::string& sql : Workload()) {
      auto r = local.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      replica.push_back(Render(*r));
    }
  }

  // Response numbering: the injector is armed after the Hello handshake,
  // so statement k's response is hit k in text mode (prepared mode
  // interleaves Prepare responses, landing the same nth on different —
  // equally interesting — frames).
  const char* kSites[] = {"conn.stall", "conn.drop_response",
                          "conn.close_mid_frame", "send.short_write"};
  const uint64_t kPositions[] = {1, 7, 9, 12};

  for (bool prepared : {false, true}) {
    ServerStats base_stats;
    uint64_t base_retries = 0;
    const std::vector<std::string> baseline =
        RunWorkloadOverWire(prepared, nullptr, 0, &base_stats, &base_retries);
    ASSERT_EQ(baseline.size(), Workload().size());
    EXPECT_EQ(base_retries, 0u);
    // The wire adds nothing and loses nothing: remote == local, bit for bit.
    EXPECT_EQ(baseline, replica) << "prepared=" << prepared;

    for (const char* site : kSites) {
      for (uint64_t nth : kPositions) {
        ServerStats stats;
        uint64_t retried = 0;
        const std::vector<std::string> faulted =
            RunWorkloadOverWire(prepared, site, nth, &stats, &retried);
        const std::string label = std::string(site) + ":" +
                                  std::to_string(nth) +
                                  (prepared ? " (prepared)" : " (text)");
        EXPECT_EQ(faulted, baseline) << label;
        EXPECT_EQ(stats.net_faults_injected, 1u) << label;
        EXPECT_GE(retried, 1u) << label;
        if (!prepared) {
          // Text mode: every response past Hello carries an idempotency
          // token, so the lost response is always answered from the
          // journal — exactly once, never re-executed.
          EXPECT_EQ(stats.idem_replays, 1u) << label;
        }
      }
    }
  }
}

// ---- Raw wire helper -------------------------------------------------------

/// A minimal raw protocol speaker for tests that need pipelined frames or a
/// downgraded Hello — SvcClient is strictly request/response and always
/// offers the latest protocol version.
class RawWire {
 public:
  explicit RawWire(uint16_t port) { Init(port); }
  ~RawWire() {
    if (fd_ >= 0) close(fd_);
  }

  void SendBytes(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  void SendFrame(FrameTag tag, uint32_t request_id, const std::string& body) {
    Frame frame;
    frame.tag = tag;
    frame.request_id = request_id;
    frame.body = body;
    std::string wire;
    EncodeFrame(frame, &wire);
    SendBytes(wire);
  }

  void ReadFrame(Frame* out) {
    char buf[65536];
    while (true) {
      auto decoded = TryDecodeFrame(&inbuf_, kDefaultMaxFrameBytes);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      if (decoded->has_value()) {
        *out = std::move(**decoded);
        return;
      }
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "server closed the connection mid-frame";
      inbuf_.append(buf, static_cast<size_t>(n));
    }
  }

  /// Hello handshake offering `max_version`; returns the negotiated one.
  uint32_t Hello(uint32_t max_version) {
    HelloRequest req;
    req.max_version = max_version;
    req.client_name = "raw-chaos";
    std::string body;
    EncodeHelloRequest(req, &body);
    SendFrame(FrameTag::kHello, 1, body);
    Frame reply;
    ReadFrame(&reply);
    EXPECT_EQ(reply.tag, FrameTag::kHelloOk);
    auto hello = DecodeHelloReply(reply.body);
    EXPECT_TRUE(hello.ok());
    return hello.ok() ? hello->version : 0;
  }

 private:
  void Init(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }

  int fd_ = -1;
  std::string inbuf_;
};

std::string QueryBody(const std::string& sql) {
  std::string body;
  PutStr(&body, sql);
  return body;
}

// ---- v1 interop ------------------------------------------------------------

// A v1 client against a v2 server: the handshake negotiates down to 1, bare
// Query bodies (no trailing RequestMeta) execute, and the kEstimate body's
// v1 prefix [message, mode, table] is self-contained — the v2 degraded flag
// rides a single trailing byte a v1 decoder never reads.
TEST(ChaosInteropTest, V1ClientAgainstV2Server) {
  InjectorGuard guard;
  auto server = StartServer();
  RawWire raw(server->port());
  ASSERT_EQ(raw.Hello(1), 1u);

  const std::vector<std::string> setup = {
      Workload()[0], Workload()[1], Workload()[2], Workload()[3],
      Workload()[4], Workload()[5], Workload()[6],
  };
  uint32_t id = 10;
  for (const std::string& sql : setup) {
    raw.SendFrame(FrameTag::kQuery, ++id, QueryBody(sql));
    Frame reply;
    raw.ReadFrame(&reply);
    ASSERT_NE(reply.tag, FrameTag::kError)
        << sql << ": " << DecodeErrorBody(reply.body).ToString();
  }

  raw.SendFrame(FrameTag::kQuery, ++id, QueryBody(Workload()[7]));
  Frame est;
  raw.ReadFrame(&est);
  ASSERT_EQ(est.tag, FrameTag::kEstimate);
  // The full (v2) decode sees a non-degraded answer...
  auto decoded = DecodeSqlResultBody(est.tag, est.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->degraded);
  // ...and the flag is exactly the final byte, after the whole v1 payload.
  ASSERT_FALSE(est.body.empty());
  EXPECT_EQ(est.body.back(), '\0');
}

// ---- Graceful degradation --------------------------------------------------

std::vector<std::string> DegradeSetup() {
  // SVC samples *view groups*, so a visible CI-width difference between
  // sampling ratios needs many groups: 100 videos, each its own group, with
  // uneven visit counts and a delta touching most of them.
  std::vector<std::string> setup = {
      "CREATE TABLE Video (videoId INT, ownerId INT, PRIMARY KEY (videoId));",
      "CREATE TABLE Log (sessionId INT, videoId INT, "
      "PRIMARY KEY (sessionId));",
  };
  std::string videos = "INSERT INTO Video VALUES ";
  for (int v = 1; v <= 100; ++v) {
    videos += (v > 1 ? ", (" : "(") + std::to_string(v) + ", " +
              std::to_string(100 + v % 7) + ")";
  }
  setup.push_back(videos + ";");
  std::string base = "INSERT INTO Log VALUES ";
  for (int i = 0; i < 200; ++i) {
    base += (i ? ", (" : "(") + std::to_string(i) + ", " +
            std::to_string(1 + i % 100) + ")";
  }
  setup.push_back(base + ";");
  setup.push_back("REFRESH ALL;");
  setup.push_back(
      "CREATE MATERIALIZED VIEW visitView AS SELECT Log.videoId, COUNT(1) AS "
      "visitCount FROM Log, Video WHERE Log.videoId = Video.videoId GROUP BY "
      "Log.videoId;");
  std::string delta = "INSERT INTO Log VALUES ";
  for (int i = 0; i < 150; ++i) {
    delta += (i ? ", (" : "(") + std::to_string(1000 + i) + ", " +
             std::to_string(1 + (i * 13) % 100) + ")";
  }
  setup.push_back(delta + ";");
  return setup;
}

Result<size_t> CiColumn(const SqlResult& r, const std::string& name) {
  return r.rows.schema().Resolve(name);
}

double CiWidth(const SqlResult& r) {
  auto lo = CiColumn(r, "ci_low");
  auto hi = CiColumn(r, "ci_high");
  EXPECT_TRUE(lo.ok() && hi.ok());
  EXPECT_EQ(r.rows.NumRows(), 1u);
  if (!lo.ok() || !hi.ok() || r.rows.NumRows() != 1) return 0.0;
  const Row& row = r.rows.rows()[0];
  return row[*hi].AsDouble() - row[*lo].AsDouble();
}

// A pipelined burst against `--degrade --max-inflight 1
// --degrade-max-inflight 4`: the first query is admitted normally; while it
// executes, the next three are admitted *degraded* — a WITH SVC query runs
// at the reduced ratio and is flagged, anything else is shed with
// kOverloaded (degraded mode must never answer in the wrong mode) — and
// past the hard cap everything is shed. Admission order on one connection
// is deterministic: frames are decoded in arrival order while exec.delay
// pins the first query in its in-flight slot.
TEST(ChaosDegradeTest, BurstDegradesSvcQueriesAndShedsTheRest) {
  InjectorGuard guard;
  ServerOptions sopts;
  sopts.degrade = true;
  sopts.max_inflight = 1;
  sopts.degrade_max_inflight = 4;
  sopts.degrade_ratio_scale = 0.5;
  auto server = StartServer(std::move(sopts));

  {
    ClientOptions copts;
    copts.port = server->port();
    auto setup = SvcClient::Connect(copts);
    ASSERT_TRUE(setup.ok());
    for (const std::string& sql : DegradeSetup()) {
      auto r = (*setup)->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
  }

  RawWire raw(server->port());
  ASSERT_EQ(raw.Hello(kProtocolVersionMax), kProtocolVersionMax);

  const std::string est =
      "SELECT SUM(visitCount) FROM visitView WITH SVC(ratio=0.5, mode=corr);";
  const std::string insert = "INSERT INTO Log VALUES (900, 1);";
  FaultInjector::Net().Arm("exec.delay", 1);  // pins q1 for 50 ms

  std::string burst;
  auto add = [&](uint32_t id, const std::string& sql) {
    Frame f;
    f.tag = FrameTag::kQuery;
    f.request_id = id;
    f.body = QueryBody(sql);
    EncodeFrame(f, &burst);
  };
  add(11, est);     // admitted normally (in-flight 0)
  add(12, est);     // degraded (in-flight 1 >= max_inflight)
  add(13, insert);  // degraded admission, then shed: not a WITH SVC query
  add(14, est);     // degraded (in-flight 3 < hard cap)
  add(15, est);     // shed: hard cap reached
  add(16, est);     // shed
  raw.SendBytes(burst);

  std::map<uint32_t, Frame> replies;
  for (int i = 0; i < 6; ++i) {
    Frame f;
    ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&f));
    replies[f.request_id] = std::move(f);
  }
  ASSERT_EQ(replies.size(), 6u);

  ASSERT_EQ(replies[11].tag, FrameTag::kEstimate);
  auto q1 = DecodeSqlResultBody(FrameTag::kEstimate, replies[11].body);
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(q1->degraded);

  for (uint32_t id : {12u, 14u}) {
    ASSERT_EQ(replies[id].tag, FrameTag::kEstimate) << "id " << id;
    auto q = DecodeSqlResultBody(FrameTag::kEstimate, replies[id].body);
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(q->degraded) << "id " << id;
    // Degraded means the same estimator at a reduced ratio: never a wrong
    // answer, just a wider confidence interval.
    EXPECT_GT(CiWidth(*q), CiWidth(*q1)) << "id " << id;
  }

  ASSERT_EQ(replies[13].tag, FrameTag::kError);
  const Status shed = DecodeErrorBody(replies[13].body);
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  EXPECT_NE(shed.ToString().find("shedding"), std::string::npos);
  EXPECT_TRUE(IsRetryableStatus(shed.code()));

  for (uint32_t id : {15u, 16u}) {
    ASSERT_EQ(replies[id].tag, FrameTag::kError) << "id " << id;
    EXPECT_EQ(DecodeErrorBody(replies[id].body).code(),
              StatusCode::kOverloaded);
  }

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.degraded_admissions, 3u);
  EXPECT_EQ(stats.overload_rejections, 2u);
}

// The session-level contract behind the wire flag: a degraded execution
// scales the requested sampling ratio down, marks the result, and pays for
// the saved work with a wider CI — it never changes the answer's mode.
TEST(ChaosDegradeTest, DegradedSessionWidensConfidenceInterval) {
  SqlSession session(EngineHandle::Private());
  for (const std::string& sql : DegradeSetup()) {
    auto r = session.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  const std::string est =
      "SELECT SUM(visitCount) FROM visitView WITH SVC(ratio=0.5, mode=corr);";
  auto normal = session.Execute(est);
  ASSERT_TRUE(normal.ok());
  ASSERT_EQ(normal->kind, SqlResultKind::kEstimate);
  EXPECT_FALSE(normal->degraded);

  session.set_degrade_ratio_scale(0.5);
  auto degraded = session.Execute(est);
  session.set_degrade_ratio_scale(1.0);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->mode_used, normal->mode_used);
  EXPECT_GT(CiWidth(*degraded), CiWidth(*normal));
}

// ---- Deadlines -------------------------------------------------------------

// A deadline smaller than the (injected) execution stall fails with
// kDeadlineExceeded — a terminal, non-retryable code — and the same
// statement finishes fine once the stall is gone.
TEST(ChaosDeadlineTest, DeadlineExpiresDuringInjectedStall) {
  InjectorGuard guard;
  auto server = StartServer();
  {
    ClientOptions copts;
    copts.port = server->port();
    auto setup = SvcClient::Connect(copts);
    ASSERT_TRUE(setup.ok());
    SVC_ASSERT_OK(
        (*setup)->Execute("CREATE TABLE t (k INT, PRIMARY KEY (k));").status());
  }

  ClientOptions copts;
  copts.port = server->port();
  copts.deadline_ms = 30;
  auto client = SvcClient::Connect(copts);
  ASSERT_TRUE(client.ok());

  FaultInjector::Net().Arm("exec.delay", 1);  // 50 ms > the 30 ms budget
  auto late = (*client)->Execute("SELECT k FROM t;");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(late.status().ToString().find("deadline"), std::string::npos);
  EXPECT_FALSE(IsRetryableStatus(late.status().code()));
  FaultInjector::Net().Disarm();

  SVC_ASSERT_OK((*client)->Execute("SELECT k FROM t;").status());
  EXPECT_EQ(server->stats().deadline_exceeded, 1u);
}

// The cooperative half of cancellation: a session with an already-expired
// token refuses the statement before any mutation, and works again once
// the token is cleared.
TEST(ChaosDeadlineTest, ExpiredCancelTokenFailsBeforeMutation) {
  SqlSession session(EngineHandle::Private());
  SVC_ASSERT_OK(
      session.Execute("CREATE TABLE t (k INT, PRIMARY KEY (k));").status());
  SVC_ASSERT_OK(session.Execute("INSERT INTO t VALUES (1);").status());
  SVC_ASSERT_OK(session.Execute("REFRESH ALL;").status());

  CancelToken token = CancelToken::After(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(token.Expired());
  session.set_cancel_token(&token);
  auto blocked = session.Execute("INSERT INTO t VALUES (2);");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kDeadlineExceeded);
  session.set_cancel_token(nullptr);

  // Nothing landed while cancelled; the retried statement applies cleanly.
  SVC_ASSERT_OK(session.Execute("INSERT INTO t VALUES (2);").status());
  SVC_ASSERT_OK(session.Execute("REFRESH ALL;").status());
  auto rows = session.Execute("SELECT k FROM t;");
  SVC_ASSERT_OK(rows.status());
  EXPECT_EQ(rows->rows.NumRows(), 2u);
}

// A request deadline cancels a long plain SELECT on every engine mode. The
// sharded engine runs plain SELECTs over its gathered catalog, and once ran
// them with the shard's executor options, which never carried the request's
// token: the query ran to completion past its deadline. With one executor
// thread the token is polled on operator entry, so the expired deadline
// lands at the second UNION branch.
TEST(ChaosDeadlineTest, DeadlineCancelsPlainSelectOnEveryEngine) {
  std::string rows;
  for (int k = 0; k < 900; ++k) {
    if (k > 0) rows += ", ";
    rows += "(" + std::to_string(k) + ", " + std::to_string(k % 3) + ")";
  }
  std::vector<std::pair<std::string, EngineHandle>> engines;
  engines.emplace_back(
      "shared",
      EngineHandle::Shared(std::make_shared<SharedEngine>(Database())));
  engines.emplace_back(
      "4 shards",
      EngineHandle::Sharded(std::make_shared<ShardedEngine>(Database(), 4)));
  for (auto& [mode, handle] : engines) {
    SCOPED_TRACE(mode);
    SqlSession session(std::move(handle));
    const std::vector<std::string> setup = {
        "CREATE TABLE t1 (k INT, v INT, PRIMARY KEY (k));",
        "CREATE TABLE t2 (k INT, v INT, PRIMARY KEY (k));",
        "INSERT INTO t1 VALUES " + rows + ";",
        "INSERT INTO t2 VALUES " + rows + ";",
        "REFRESH ALL;",
    };
    for (const std::string& sql : setup) {
      SVC_ASSERT_OK(session.Execute(sql).status());
    }
    CancelToken token = CancelToken::After(20);
    session.set_cancel_token(&token);
    auto slow = session.Execute(
        "SELECT t1.k FROM t1, t2 WHERE t1.v = t2.v UNION "
        "SELECT t2.k FROM t1, t2 WHERE t1.v = t2.v;");
    session.set_cancel_token(nullptr);
    ASSERT_FALSE(slow.ok());
    EXPECT_EQ(slow.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// ---- Exactly-once retry, durable -------------------------------------------

// The classic lost-ack: a durable server commits an INSERT (WAL appended)
// but its response is dropped on the wire. The retrying client re-sends the
// same (token, seq); the journal answers with the recorded frame and the
// write lands exactly once.
TEST(ChaosRetryTest, RetriedInsertCommitsExactlyOnceDurable) {
  InjectorGuard guard;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("svc_chaos_retry_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);

  DurableOptions dopts;
  dopts.data_dir = dir;
  auto engine = DurableEngine::Open(dopts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServerOptions sopts;
  auto server = std::make_unique<SvcServer>(sopts, *engine);
  ASSERT_TRUE(server->Start().ok());

  auto client = SvcClient::Connect(RetryingClientOptions(server->port()));
  ASSERT_TRUE(client.ok());
  SVC_ASSERT_OK((*client)
                    ->Execute("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k));")
                    .status());
  SVC_ASSERT_OK((*client)->Execute("INSERT INTO t VALUES (1, 10);").status());

  FaultInjector::Net().Arm("conn.drop_response", 1);
  auto retried = (*client)->Execute("INSERT INTO t VALUES (2, 20);");
  SVC_ASSERT_OK(retried.status());
  FaultInjector::Net().Disarm();
  // The replay is the journaled response, byte-identical to a normal ack —
  // not a special "already applied" synthesis (that is reserved for marks
  // recovered without their frame; see the crash test).
  EXPECT_NE(retried->message.find("queued"), std::string::npos);

  SVC_ASSERT_OK((*client)->Execute("REFRESH ALL;").status());
  auto rows = (*client)->Execute("SELECT k, v FROM t;");
  SVC_ASSERT_OK(rows.status());
  EXPECT_EQ(rows->rows.NumRows(), 2u);

  EXPECT_GE((*client)->retries(), 1u);
  EXPECT_GE((*client)->reconnects(), 1u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.net_faults_injected, 1u);
  EXPECT_EQ(stats.idem_replays, 1u);

  server.reset();
  std::filesystem::remove_all(dir);
}

// ---- Crash between commit and response ---------------------------------------

// The hardest window: the server crashes *after* a write's WAL append but
// *before* its response leaves the process. The client cannot know whether
// the write landed — only the recovered idempotency mark can say. A child
// svc_served process serves a durable directory and dies at the armed crash
// site; the test restarts a server over the recovered directory on the
// same port; the retrying client converges with every statement applied
// exactly once, and the final state matches a replica that never crashed.
TEST(ChaosCrashTest, CrashBeforeResponseConvergesViaRetry) {
  InjectorGuard guard;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("svc_chaos_crash_" + std::to_string(getpid())))
          .string();
  const std::string port_file = dir + ".port";
  std::filesystem::remove_all(dir);
  std::filesystem::remove(port_file);
  std::filesystem::create_directories(dir);

  // SVC_FAULT arms the crash on the response to the first delivery of
  // idempotency seq 3 (CREATE TABLE is seq 1, so that is the second
  // INSERT), whose WAL record, idempotency mark included, is then durable.
  // Keyed by seq, not by request count, so client timeouts that retry
  // earlier statements (a slow sanitizer build) cannot move the crash to
  // another statement.
  testing_util::ServedProcess child;
  ASSERT_EQ(child.Start(dir, port_file, "server.pre_response.seq3"), "");
  const uint16_t port = child.port();

  const std::vector<std::string> stmts = {
      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k));",
      "INSERT INTO t VALUES (1, 10);",
      "INSERT INTO t VALUES (2, 20);",  // seq 3: the crash window
      "INSERT INTO t VALUES (3, 30);",
      "REFRESH ALL;",
  };
  std::vector<std::string> outcomes(stmts.size());
  std::atomic<bool> driver_ok{true};
  std::thread driver([&] {
    ClientOptions copts;
    copts.port = port;
    copts.max_retries = 60;  // must span the crash + restart gap
    copts.recv_timeout_ms = 250;
    copts.backoff_initial_ms = 10;
    copts.backoff_max_ms = 100;
    auto c = SvcClient::Connect(copts);
    if (!c.ok()) {
      driver_ok = false;
      return;
    }
    for (size_t i = 0; i < stmts.size(); ++i) {
      auto r = (*c)->Execute(stmts[i]);
      if (!r.ok()) {
        driver_ok = false;
        outcomes[i] = "ERR|" + r.status().ToString();
        return;
      }
      outcomes[i] = r->message;
    }
  });

  ASSERT_EQ(child.Wait(), FaultInjector::kCrashExitCode);

  // Restart over the recovered directory, on the same port (SO_REUSEADDR;
  // a few rebind attempts tolerate lingering TIME_WAIT conns).
  DurableOptions dopts;
  dopts.data_dir = dir;
  auto engine = DurableEngine::Open(dopts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ServerOptions sopts;
  sopts.port = port;
  std::unique_ptr<SvcServer> server;
  Status started = Status::Unavailable("not started");
  for (int i = 0; i < 40 && !started.ok(); ++i) {
    server = std::make_unique<SvcServer>(sopts, *engine);
    started = server->Start();
    if (!started.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(started.ok()) << started.ToString();

  driver.join();
  EXPECT_TRUE(driver_ok.load());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(stmts[i]);
    EXPECT_EQ(outcomes[i].find("ERR|"), std::string::npos) << outcomes[i];
  }
  // The write in the crash window was acked from its recovered idempotency
  // mark — durably applied, not re-executed.
  EXPECT_NE(outcomes[2].find("already applied"), std::string::npos)
      << outcomes[2];
  EXPECT_GE(server->stats().idem_replays, 1u);

  // Final state: bit-identical rows to a replica that never crashed.
  SqlSession replica(EngineHandle::Private());
  for (const std::string& s : stmts) SVC_ASSERT_OK((replica.Execute(s)).status());
  auto want = replica.Execute("SELECT k, v FROM t;");
  SVC_ASSERT_OK(want.status());
  ClientOptions copts;
  copts.port = port;
  auto reader = SvcClient::Connect(copts);
  ASSERT_TRUE(reader.ok());
  auto got = (*reader)->Execute("SELECT k, v FROM t;");
  SVC_ASSERT_OK(got.status());
  EXPECT_EQ(testing_util::EncodedRows(got->rows),
            testing_util::EncodedRows(want->rows));

  server.reset();
  engine->reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove(port_file);
}

}  // namespace
}  // namespace svc
