// Socket-level server tests (server/server.h + server/client.h): the Hello
// handshake and version negotiation, transcript equivalence of a remote
// shell vs a local session, N concurrent clients vs a private-engine
// replica, prepared statements skipping the parser (observable in the
// server counters), admission control under a pipelined flood, and clean
// Error responses — never crashes or hangs — for malformed frames, unknown
// tags, and out-of-order traffic.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "shell/shell.h"
#include "storage/durable_engine.h"
#include "storage/serde.h"
#include "tests/test_util.h"

namespace svc {
namespace {

std::unique_ptr<SvcServer> StartServer(ServerOptions opts = {}) {
  auto server = std::make_unique<SvcServer>(
      std::move(opts), std::make_shared<SharedEngine>(Database()));
  EXPECT_TRUE(server->Start().ok());
  return server;
}

std::unique_ptr<SvcClient> ConnectTo(const SvcServer& server) {
  ClientOptions opts;
  opts.port = server.port();
  auto client = SvcClient::Connect(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// A raw TCP connection for speaking mangled protocol at the server: tests
/// of framing failures cannot go through SvcClient, which only emits
/// well-formed frames.
class RawConn {
 public:
  explicit RawConn(uint16_t port) { Init(port); }
  ~RawConn() {
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

  void Hello() {
    HelloRequest req;
    req.client_name = "raw-test";
    std::string body;
    EncodeHelloRequest(req, &body);
    SendFrame(FrameTag::kHello, next_id_++, body);
    Frame reply;
    ASSERT_NO_FATAL_FAILURE(ReadFrame(&reply));
    ASSERT_EQ(reply.tag, FrameTag::kHelloOk);
  }

  /// Blocks until one whole frame arrives.
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

  /// True once the server closes the connection (after draining input).
  bool ServerClosed() {
    char buf[4096];
    while (true) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      inbuf_.append(buf, static_cast<size_t>(n));
    }
  }

  uint32_t next_id() { return next_id_++; }

 private:
  void Init(uint16_t port) {  // ctor body; gtest ASSERTs need a void scope
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }

  int fd_ = -1;
  uint32_t next_id_ = 1;
  std::string inbuf_;
};

StatusCode CodeOf(const Frame& error_frame) {
  EXPECT_EQ(error_frame.tag, FrameTag::kError);
  return DecodeErrorBody(error_frame.body).code();
}

// ---- Lifecycle --------------------------------------------------------------

TEST(ServerTest, StartsOnEphemeralPortAndStopsIdempotently) {
  auto server = StartServer();
  EXPECT_GT(server->port(), 0);
  server->Stop();
  server->Stop();  // idempotent; destructor will call it again
}

TEST(ServerTest, HelloNegotiatesVersionAndCountsConnections) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->negotiated_version(), kProtocolVersionMax);
  EXPECT_EQ(server->stats().connections_accepted, 1u);
}

// ---- Statement execution over the wire --------------------------------------

TEST(ServerTest, RemoteShellTranscriptMatchesLocalSession) {
  std::ifstream in(std::string(SVC_REPO_DIR) + "/examples/quickstart.sql");
  ASSERT_TRUE(in.is_open());
  std::ostringstream script;
  script << in.rdbuf();

  SqlSession local(EngineHandle::Private());
  std::ostringstream local_out;
  ShellOptions opts;
  opts.echo = true;
  Shell local_shell(&local, &local_out, opts);
  SVC_ASSERT_OK(local_shell.RunScript(script.str()));

  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  std::ostringstream remote_out;
  Shell remote_shell(client.get(), &remote_out, opts);
  SVC_ASSERT_OK(remote_shell.RunScript(script.str()));

  // The whole rendered transcript — table layout, estimates, stats — is
  // bit-identical over the socket.
  EXPECT_EQ(remote_out.str(), local_out.str());
}

TEST(ServerTest, ErrorStatusCodesSurviveTheWire) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  auto missing = client->Execute("SELECT * FROM missing;");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kUnknownRelation);

  auto garbled = client->Execute("SELEKT;");
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(garbled.status().code(), StatusCode::kParseError);

  SVC_ASSERT_OK(client->Execute("CREATE TABLE t (a INT, PRIMARY KEY (a));")
                    .status());
  auto dup = client->Execute("INSERT INTO t VALUES (1), (1);");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
}

/// Blanks the one legitimately cross-session line in a transcript: REFRESH
/// reports how many *engine-global* pending deltas the commit drained, and
/// on a shared engine that count depends on which client's REFRESH ran
/// first. Every other line — all row data — must be bit-identical.
std::string MaskRefreshSummaries(const std::string& transcript) {
  std::istringstream in(transcript);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("refreshed ", 0) == 0) line = "refreshed <masked>";
    out << line << "\n";
  }
  return out.str();
}

TEST(ServerTest, ConcurrentClientsMatchPrivateEngineReplicas) {
  constexpr int kClients = 4;
  auto server = StartServer();
  std::vector<std::string> remote(kClients), local(kClients);

  auto workload_for = [](int c) {
    const std::string t = "t" + std::to_string(c);
    std::ostringstream sql;
    sql << "CREATE TABLE " << t << " (a INT, b DOUBLE, PRIMARY KEY (a));";
    sql << "INSERT INTO " << t << " VALUES ";
    for (int i = 0; i < 20; ++i) {
      sql << (i > 0 ? ", " : "") << "(" << i << ", " << (c + 1) * i << ".5)";
    }
    sql << ";REFRESH ALL;";
    sql << "SELECT COUNT(1) AS n, SUM(b) AS s FROM " << t << ";";
    sql << "SELECT a, b FROM " << t << " WHERE a < 5;";
    return sql.str();
  };

  // Each client runs its own workload concurrently against the one shared
  // server; disjoint relations make every transcript deterministic.
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = server->port();
      auto client = SvcClient::Connect(copts);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      std::ostringstream out;
      ShellOptions opts;
      opts.echo = true;
      Shell shell(client->get(), &out, opts);
      SVC_ASSERT_OK(shell.RunScript(workload_for(c)));
      remote[c] = out.str();
    });
  }
  for (auto& t : threads) t.join();

  // A fresh private engine replays each workload serially: the remote
  // transcript of every client must match its replica bit for bit.
  for (int c = 0; c < kClients; ++c) {
    SqlSession replica(EngineHandle::Private());
    std::ostringstream out;
    ShellOptions opts;
    opts.echo = true;
    Shell shell(&replica, &out, opts);
    SVC_ASSERT_OK(shell.RunScript(workload_for(c)));
    local[c] = out.str();
    EXPECT_EQ(MaskRefreshSummaries(remote[c]), MaskRefreshSummaries(local[c]))
        << "client " << c;
  }
}

// ---- Prepared statements ----------------------------------------------------

TEST(ServerTest, PreparedMatchesTextAndSkipsTheParser) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  SVC_ASSERT_OK(
      client->Execute("CREATE TABLE t (a INT, b DOUBLE, PRIMARY KEY (a));")
          .status());

  SVC_ASSERT_OK_AND_ASSIGN(
      SvcClient::Prepared ins,
      client->Prepare("INSERT INTO t VALUES (?, ?);"));
  EXPECT_EQ(ins.num_params, 2u);
  const uint64_t parsed_before = server->stats().statements_parsed;
  for (int i = 0; i < 8; ++i) {
    SVC_ASSERT_OK(client
                      ->ExecutePrepared(
                          ins, {Value::Int(i), Value::Double(i * 0.5)})
                      .status());
  }
  // Eight Executes, zero new parses: the server served them from the
  // cached AST.
  EXPECT_EQ(server->stats().statements_parsed, parsed_before);
  EXPECT_GE(server->stats().prepared_executes, 8u);
  SVC_ASSERT_OK(client->Execute("REFRESH ALL;").status());

  SVC_ASSERT_OK_AND_ASSIGN(
      SvcClient::Prepared sel,
      client->Prepare("SELECT a, b FROM t WHERE a >= ?;"));
  EXPECT_EQ(sel.num_params, 1u);
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult prepared_rows,
                           client->ExecutePrepared(sel, {Value::Int(5)}));
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult text_rows,
                           client->Execute("SELECT a, b FROM t WHERE a >= 5;"));
  // Differential: the bound plan answers exactly like the literal text.
  EXPECT_EQ(testing_util::EncodedRows(prepared_rows.rows),
            testing_util::EncodedRows(text_rows.rows));

  SVC_ASSERT_OK(client->ClosePrepared(sel));
  auto closed = client->ExecutePrepared(sel, {Value::Int(5)});
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kNotFound);
}

TEST(ServerTest, PreparedParamCountIsEnforced) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  SVC_ASSERT_OK(
      client->Execute("CREATE TABLE t (a INT, PRIMARY KEY (a));").status());
  SVC_ASSERT_OK_AND_ASSIGN(SvcClient::Prepared ins,
                           client->Prepare("INSERT INTO t VALUES (?);"));
  auto missing = client->ExecutePrepared(ins, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  auto extra = client->ExecutePrepared(ins, {Value::Int(1), Value::Int(2)});
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, QueryWithPlaceholdersMustBePrepared) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  // Rejected after parsing, before execution — the relation need not even
  // exist for the placeholder check to fire.
  auto r = client->Execute("SELECT a FROM t WHERE a = ?;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, ExecuteUnknownStatementIdFailsCleanly) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  SvcClient::Prepared bogus;
  bogus.id = 999;
  auto r = client->ExecutePrepared(bogus, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---- Protocol abuse ---------------------------------------------------------

TEST(ServerTest, QueryBeforeHelloIsAProtocolError) {
  auto server = StartServer();
  RawConn raw(server->port());
  std::string body;
  PutStr(&body, "SELECT 1;");
  raw.SendFrame(FrameTag::kQuery, raw.next_id(), body);
  Frame reply;
  ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&reply));
  EXPECT_EQ(CodeOf(reply), StatusCode::kProtocol);
}

TEST(ServerTest, VersionMismatchIsRejected) {
  auto server = StartServer();
  RawConn raw(server->port());
  HelloRequest req;
  req.max_version = 0;  // speaks nothing the server knows
  req.client_name = "ancient";
  std::string body;
  EncodeHelloRequest(req, &body);
  raw.SendFrame(FrameTag::kHello, raw.next_id(), body);
  Frame reply;
  ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&reply));
  EXPECT_EQ(CodeOf(reply), StatusCode::kProtocol);
}

TEST(ServerTest, UnknownTagGetsErrorAndConnectionSurvives) {
  auto server = StartServer();
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  Frame junk;
  junk.tag = static_cast<FrameTag>(0x7F);
  junk.body = "???";
  SVC_ASSERT_OK_AND_ASSIGN(Frame reply, client->RoundTrip(junk));
  EXPECT_EQ(CodeOf(reply), StatusCode::kProtocol);
  // A minor-version client sending a frame this server doesn't know must
  // not lose the connection: the next request still works.
  SVC_ASSERT_OK(
      client->Execute("CREATE TABLE t (a INT, PRIMARY KEY (a));").status());
}

TEST(ServerTest, BadCrcGetsErrorFrameThenDisconnect) {
  auto server = StartServer();
  RawConn raw(server->port());
  ASSERT_NO_FATAL_FAILURE(raw.Hello());
  Frame query;
  query.tag = FrameTag::kQuery;
  query.request_id = 2;
  PutStr(&query.body, "SELECT 1;");
  std::string wire;
  EncodeFrame(query, &wire);
  wire[wire.size() - 1] ^= 0x40;  // corrupt the payload under the CRC
  raw.SendBytes(wire);
  Frame reply;
  ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.request_id, 0u);  // framing is broken; no id is trusted
  EXPECT_EQ(CodeOf(reply), StatusCode::kProtocol);
  EXPECT_TRUE(raw.ServerClosed());
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST(ServerTest, OversizedFrameGetsErrorFrameThenDisconnect) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  auto server = StartServer(opts);
  RawConn raw(server->port());
  ASSERT_NO_FATAL_FAILURE(raw.Hello());
  // A header declaring a body far beyond the limit: the server must refuse
  // at the header, not buffer 16 MiB first.
  std::string wire;
  PutU32(&wire, 1u << 24);
  PutU32(&wire, 0);  // CRC never checked; length is rejected first
  raw.SendBytes(wire);
  Frame reply;
  ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&reply));
  EXPECT_EQ(CodeOf(reply), StatusCode::kProtocol);
  EXPECT_TRUE(raw.ServerClosed());
}

TEST(ServerTest, ValidThenCorruptFrameInOneBurstDoesNotWedgeTheServer) {
  ServerOptions opts;
  opts.max_inflight = 2;
  auto server = StartServer(opts);
  // One TCP burst: a well-formed query immediately followed by a corrupt
  // frame. The IO thread usually decodes both in a single read pass — the
  // query is queued for a worker, then the protocol error must dequeue it
  // again without unbalancing the in-flight counter or leaving a worker
  // to pop the emptied request queue.
  for (int round = 0; round < 8; ++round) {
    RawConn raw(server->port());
    ASSERT_NO_FATAL_FAILURE(raw.Hello());
    Frame query;
    query.tag = FrameTag::kQuery;
    query.request_id = 2;
    PutStr(&query.body, "SELECT a FROM t;");
    std::string burst;
    EncodeFrame(query, &burst);
    query.request_id = 3;
    std::string corrupt;
    EncodeFrame(query, &corrupt);
    corrupt[corrupt.size() - 1] ^= 0x40;
    burst += corrupt;
    raw.SendBytes(burst);
    EXPECT_TRUE(raw.ServerClosed());
  }
  EXPECT_GE(server->stats().protocol_errors, 8u);
  // The in-flight counter must still be balanced: an underflow would pin
  // inflight >= max_inflight and reject every future request as
  // Overloaded.
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 4; ++i) {
    SVC_ASSERT_OK(client
                      ->Execute("CREATE TABLE t" + std::to_string(i) +
                                " (a INT, PRIMARY KEY (a));")
                      .status());
  }
}

TEST(ServerTest, OversizedResultBecomesDecodableOutOfRangeError) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  auto server = StartServer(opts);
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  SVC_ASSERT_OK(
      client->Execute("CREATE TABLE t (a INT, s STRING, PRIMARY KEY (a));")
          .status());
  const std::string filler(64, 'x');
  for (int i = 0; i < 32; ++i) {
    SVC_ASSERT_OK(client
                      ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", '" + filler + "');")
                      .status());
  }
  SVC_ASSERT_OK(client->Execute("REFRESH ALL;").status());
  // The full table is ~2 KiB encoded — beyond any frame this server may
  // send. The answer must be a decodable OutOfRange error, not an
  // oversized frame the client rejects as an unrecoverable framing
  // failure.
  auto big = client->Execute("SELECT a, s FROM t;");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
  // The connection (and its framing) survives: a narrower query answers.
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult one,
                           client->Execute("SELECT s FROM t WHERE a = 0;"));
  EXPECT_EQ(one.rows.NumRows(), 1u);
}

TEST(ServerTest, TruncatedFrameThenDisconnectDoesNotWedgeTheServer) {
  auto server = StartServer();
  {
    RawConn raw(server->port());
    ASSERT_NO_FATAL_FAILURE(raw.Hello());
    std::string half;
    PutU32(&half, 64);  // promises 64 payload bytes, delivers none
    raw.SendBytes(half);
  }  // disconnect with the frame still incomplete
  // The server must reap that connection and keep serving new ones.
  auto client = ConnectTo(*server);
  ASSERT_NE(client, nullptr);
  SVC_ASSERT_OK(
      client->Execute("CREATE TABLE t (a INT, PRIMARY KEY (a));").status());
}

TEST(ServerTest, PipelinedFloodHitsAdmissionControl) {
  ServerOptions opts;
  opts.max_inflight = 1;
  opts.workers = 1;
  auto server = StartServer(opts);
  RawConn raw(server->port());
  ASSERT_NO_FATAL_FAILURE(raw.Hello());
  std::string ddl;
  PutStr(&ddl, "CREATE TABLE t (a INT, PRIMARY KEY (a));");
  raw.SendFrame(FrameTag::kQuery, raw.next_id(), ddl);
  Frame created;
  ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&created));
  ASSERT_EQ(created.tag, FrameTag::kOk);

  // Blast one batch of pipelined queries in a single write. With one
  // in-flight slot, the IO thread must reject some of them immediately
  // with Overloaded while the worker chews the first.
  constexpr uint32_t kFlood = 64;
  std::string burst;
  for (uint32_t i = 0; i < kFlood; ++i) {
    Frame query;
    query.tag = FrameTag::kQuery;
    query.request_id = raw.next_id();
    PutStr(&query.body, "SELECT a FROM t;");
    EncodeFrame(query, &burst);
  }
  raw.SendBytes(burst);

  uint32_t ok = 0, overloaded = 0;
  for (uint32_t i = 0; i < kFlood; ++i) {
    Frame reply;
    ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&reply));
    if (reply.tag == FrameTag::kError) {
      EXPECT_EQ(CodeOf(reply), StatusCode::kOverloaded);
      ++overloaded;
    } else {
      EXPECT_EQ(reply.tag, FrameTag::kResultSet);
      ++ok;
    }
  }
  EXPECT_EQ(ok + overloaded, kFlood);
  EXPECT_GE(ok, 1u);          // admission control never starves the line
  EXPECT_GE(overloaded, 1u);  // ...and the flood did trip it
  EXPECT_EQ(server->stats().overload_rejections, overloaded);

  // Back under the limit, the same connection serves again.
  std::string body;
  PutStr(&body, "SELECT a FROM t;");
  raw.SendFrame(FrameTag::kQuery, raw.next_id(), body);
  Frame reply;
  ASSERT_NO_FATAL_FAILURE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.tag, FrameTag::kResultSet);
}

TEST(ServerTest, RetryOverlappingItsFirstDeliveryRunsTheWriteOnce) {
  // A client that times out resends its write on a fresh connection, so the
  // resend can arrive while the first delivery still executes. Both carry
  // one (token, seq): the write must run once, and both connections must
  // get its answer rather than a duplicate-key error from a second run.
  auto server = StartServer();
  auto client = ConnectTo(*server);
  SVC_ASSERT_OK(
      client->Execute("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k));")
          .status());
  // Large enough that the two deliveries overlap in execution.
  std::string sql = "INSERT INTO t VALUES ";
  for (int k = 0; k < 3000; ++k) {
    sql += (k > 0 ? ", (" : "(") + std::to_string(k) + ", 1)";
  }
  RequestMeta meta;
  meta.idem_token = "overlap";
  meta.idem_seq = 1;
  std::string body;
  PutStr(&body, sql);
  AppendRequestMeta(meta, &body);
  RawConn first(server->port());
  RawConn second(server->port());
  ASSERT_NO_FATAL_FAILURE(first.Hello());
  ASSERT_NO_FATAL_FAILURE(second.Hello());
  first.SendFrame(FrameTag::kQuery, first.next_id(), body);
  second.SendFrame(FrameTag::kQuery, second.next_id(), body);
  Frame a;
  Frame b;
  ASSERT_NO_FATAL_FAILURE(first.ReadFrame(&a));
  ASSERT_NO_FATAL_FAILURE(second.ReadFrame(&b));
  ASSERT_NE(a.tag, FrameTag::kError) << DecodeErrorBody(a.body).ToString();
  ASSERT_NE(b.tag, FrameTag::kError) << DecodeErrorBody(b.body).ToString();
  EXPECT_EQ(a.body, b.body);
  EXPECT_EQ(server->stats().idem_replays, 1u);
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult queued,
                           DecodeSqlResultBody(a.tag, a.body));
  EXPECT_EQ(queued.message,
            "queued 3000 insert(s) into t; REFRESH commits them");
}

// ---- Durable serving --------------------------------------------------------

TEST(ServerTest, DurableServerPersistsAcrossRestart) {
  const std::string dir = ::testing::TempDir() + "/svc_served_durable";
  std::filesystem::remove_all(dir);
  DurableOptions dopts;
  dopts.data_dir = dir;
  {
    SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<DurableEngine> durable,
                             DurableEngine::Open(dopts));
    SvcServer server(ServerOptions{}, durable);
    SVC_ASSERT_OK(server.Start());
    ClientOptions copts;
    copts.port = server.port();
    SVC_ASSERT_OK_AND_ASSIGN(std::unique_ptr<SvcClient> client,
                             SvcClient::Connect(copts));
    SVC_ASSERT_OK(
        client->Execute("CREATE TABLE t (a INT, PRIMARY KEY (a));").status());
    SVC_ASSERT_OK(
        client->Execute("INSERT INTO t VALUES (1), (2), (3);").status());
    SVC_ASSERT_OK(client->Execute("REFRESH ALL;").status());
    server.Stop();
  }
  // Reopen the directory: the WAL replays the remote session's commits.
  SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<DurableEngine> reopened,
                           DurableEngine::Open(dopts));
  SqlSession session(EngineHandle::Durable(reopened));
  SVC_ASSERT_OK_AND_ASSIGN(SqlResult rows,
                           session.Execute("SELECT COUNT(1) AS n FROM t;"));
  ASSERT_EQ(rows.rows.NumRows(), 1u);
  EXPECT_TRUE(rows.rows.row(0)[0] == Value::Int(3));
  std::filesystem::remove_all(dir);
}

// ---- EngineHandle -----------------------------------------------------------

TEST(EngineHandleTest, ModesExposeExactlyOneEngine) {
  EngineHandle priv = EngineHandle::Private();
  EXPECT_FALSE(priv.is_shared());
  EXPECT_FALSE(priv.is_durable());
  EXPECT_NE(priv.private_engine(), nullptr);

  auto shared_engine = std::make_shared<SharedEngine>(Database());
  EngineHandle shared = EngineHandle::Shared(shared_engine);
  EXPECT_TRUE(shared.is_shared());
  EXPECT_FALSE(shared.is_durable());
  EXPECT_EQ(shared.private_engine(), nullptr);
  EXPECT_EQ(shared.shared().get(), shared_engine.get());

  const std::string dir = ::testing::TempDir() + "/svc_handle_durable";
  std::filesystem::remove_all(dir);
  DurableOptions dopts;
  dopts.data_dir = dir;
  SVC_ASSERT_OK_AND_ASSIGN(std::shared_ptr<DurableEngine> durable,
                           DurableEngine::Open(dopts));
  EngineHandle dh = EngineHandle::Durable(durable);
  EXPECT_TRUE(dh.is_shared());  // durable implies shared-mode semantics
  EXPECT_TRUE(dh.is_durable());
  EXPECT_EQ(dh.shared().get(), durable->shared().get());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace svc
