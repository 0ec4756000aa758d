#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/cancel.h"
#include "sql/params.h"
#include "sql/parser.h"
#include "storage/fault.h"
#include "storage/serde.h"

namespace svc {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Blocking send of the whole buffer (the fd is non-blocking, so wait on
/// EAGAIN with short polls). Returns false when the peer is gone, the
/// server is stopping, or no byte could be sent for `timeout_ms` — a peer
/// that stopped reading must not wedge the calling thread forever.
bool SendAll(int fd, const char* data, size_t len,
             const std::atomic<bool>& stopping, int timeout_ms) {
  size_t sent = 0;
  int stalled_ms = 0;
  while (sent < len) {
    if (stopping.load()) return false;
    const ssize_t n = send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      stalled_ms = 0;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (stalled_ms >= timeout_ms) return false;
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int step = std::min(200, timeout_ms - stalled_ms);
      (void)poll(&pfd, 1, step);
      stalled_ms += step;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// A degraded admission may only run statements that *have* a cheaper
/// correct mode: WITH SVC selects, which degrade to a reduced sampling
/// ratio (same estimator, wider CI). Everything else is shed exactly as if
/// admission had rejected it — a degraded answer must never be a
/// wrong-mode answer.
Status CheckDegradable(bool degraded, const Statement& stmt) {
  if (!degraded ||
      (stmt.kind == Statement::Kind::kSelect && stmt.svc.present)) {
    return Status::OK();
  }
  return Status::Overloaded(
      "server is shedding load: only WITH SVC queries are admitted in "
      "degraded mode; retry later");
}

}  // namespace

SvcServer::SvcServer(ServerOptions opts, std::shared_ptr<SharedEngine> engine)
    : opts_(std::move(opts)), shared_(std::move(engine)) {}

SvcServer::SvcServer(ServerOptions opts, std::shared_ptr<DurableEngine> durable)
    : opts_(std::move(opts)),
      shared_(durable->shared()),
      durable_(std::move(durable)) {}

SvcServer::SvcServer(ServerOptions opts, std::shared_ptr<ShardedEngine> sharded)
    : opts_(std::move(opts)), sharded_(std::move(sharded)) {}

SvcServer::~SvcServer() { Stop(); }

EngineHandle SvcServer::MakeHandle() const {
  if (sharded_ != nullptr) return EngineHandle::Sharded(sharded_);
  return durable_ != nullptr ? EngineHandle::Durable(durable_)
                             : EngineHandle::Shared(shared_);
}

Status SvcServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + opts_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind " + opts_.host + ":" + std::to_string(opts_.port));
  }
  if (listen(listen_fd_, 128) < 0) return Errno("listen");
  SVC_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (pipe(wake_pipe_) < 0) return Errno("pipe");
  SVC_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
  SVC_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[1]));

  // Seed the idempotency journal with what the durable engine recovered: a
  // client retrying a write across a server crash must be told "already
  // applied", not commit it twice. Recovered entries carry no cached
  // response frame (it died with the old process).
  if (durable_ != nullptr) {
    std::lock_guard<std::mutex> lock(idem_mu_);
    for (const auto& [token, seq] : durable_->IdemMarks()) {
      IdemEntry& e = idem_journal_[token];
      e.seq = std::max(e.seq, seq);
    }
  }

  started_ = true;
  stopping_.store(false);
  io_thread_ = std::thread([this] { IoLoop(); });
  const int n_workers = opts_.workers < 1 ? 1 : opts_.workers;
  worker_threads_.reserve(n_workers);
  for (int i = 0; i < n_workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void SvcServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  WakeIo();
  work_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : worker_threads_) {
    work_cv_.notify_all();
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, conn] : conns_) close(conn->fd);
    conns_.clear();
    ready_.clear();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  started_ = false;
}

void SvcServer::WakeIo() {
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    ssize_t ignored = write(wake_pipe_[1], &b, 1);
    (void)ignored;
  }
}

ServerStats SvcServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<std::string, uint64_t> SvcServer::StatsMap() const {
  const ServerStats s = stats();
  return {
      {"connections_accepted", s.connections_accepted},
      {"requests", s.requests},
      {"statements_parsed", s.statements_parsed},
      {"prepared_executes", s.prepared_executes},
      {"overload_rejections", s.overload_rejections},
      {"protocol_errors", s.protocol_errors},
      {"degraded_admissions", s.degraded_admissions},
      {"idem_replays", s.idem_replays},
      {"deadline_exceeded", s.deadline_exceeded},
      {"net_faults_injected", s.net_faults_injected},
  };
}

Frame SvcServer::ErrorFrame(uint32_t request_id, const Status& status) const {
  Frame frame;
  frame.tag = FrameTag::kError;
  frame.request_id = request_id;
  EncodeErrorBody(status, &frame.body);
  return frame;
}

void SvcServer::WriteFrame(Conn* conn, const Frame& frame) {
  std::string wire;
  EncodeFrame(frame, &wire);
  const size_t payload_bytes = wire.size() - kFrameHeaderBytes;
  if (payload_bytes > opts_.max_frame_bytes) {
    // The peer would reject this as an unrecoverable oversized frame and
    // drop the connection with a misleading framing error; answer with a
    // decodable error instead.
    wire.clear();
    EncodeFrame(
        ErrorFrame(frame.request_id,
                   Status::OutOfRange(
                       "result frame of " + std::to_string(payload_bytes) +
                       " bytes exceeds the " +
                       std::to_string(opts_.max_frame_bytes) +
                       "-byte frame limit; narrow the query")),
        &wire);
  }
  // Deterministic network damage (SVC_NET_FAULT, storage/fault.h): each
  // site mangles exactly one response the way a real network or peer
  // failure would — the server itself keeps serving, and a retrying client
  // must converge to the same transcript as a fault-free run.
  FaultInjector& net = FaultInjector::Net();
  if (net.armed()) {
    const auto hit = [&](const char* site) {
      if (!net.ShouldTrigger(site)) return false;
      // One line per injected fault so harnesses (scripts/check.sh
      // --chaos) can assert the damage actually happened.
      std::fprintf(stderr, "[net-fault] injected %s (request %u)\n", site,
                   frame.request_id);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.net_faults_injected;
      return true;
    };
    const auto abandon = [&](size_t prefix_bytes) {
      if (prefix_bytes > 0) {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        SendAll(conn->fd, wire.data(), std::min(prefix_bytes, wire.size()),
                stopping_, opts_.send_timeout_ms);
      }
      shutdown(conn->fd, SHUT_RDWR);
      std::lock_guard<std::mutex> lock(mu_);
      conn->closing = true;
    };
    if (hit("conn.stall")) {
      // Swallow the response but keep the connection open: the client sees
      // dead air and must bound its recv instead of hanging forever.
      return;
    }
    if (hit("conn.drop_response")) {
      // Close without answering: the client sees EOF mid-request.
      abandon(0);
      return;
    }
    if (hit("conn.close_mid_frame")) {
      // Half the frame, then close: the client's framer holds a torn
      // prefix it must discard when it reconnects.
      abandon(wire.size() / 2);
      return;
    }
    if (hit("send.short_write")) {
      // Tear inside the 8-byte frame header — the worst possible spot.
      abandon(3);
      return;
    }
  }

  bool sent;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    sent = SendAll(conn->fd, wire.data(), wire.size(), stopping_,
                   opts_.send_timeout_ms);
  }
  if (!sent) {
    // Peer gone (or unresponsive past the timeout): stop reading from it
    // and let the IO thread reap the connection once it drains.
    std::lock_guard<std::mutex> lock(mu_);
    conn->closing = true;
  }
}

void SvcServer::IoLoop() {
  std::vector<struct pollfd> pfds;
  std::vector<ConnPtr> polled;
  while (!stopping_.load()) {
    pfds.clear();
    polled.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [fd, conn] : conns_) {
        if (conn->closing) continue;
        pfds.push_back({fd, POLLIN, 0});
        polled.push_back(conn);
      }
    }
    if (poll(pfds.data(), pfds.size(), 200) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;
    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (pfds[1].revents & POLLIN) {
      while (true) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd).ok()) {
          close(fd);
          continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->session = std::make_unique<SqlSession>(MakeHandle());
        std::lock_guard<std::mutex> lock(mu_);
        conns_[fd] = std::move(conn);
        ++stats_.connections_accepted;
      }
    }
    for (size_t i = 2; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        DrainReadable(polled[i - 2]);
      }
    }
    // Reap connections that are closing and fully drained.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& c = *it->second;
      if (c.closing && !c.busy && c.pending.empty()) {
        close(c.fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void SvcServer::DrainReadable(const ConnPtr& conn) {
  char buf[65536];
  bool peer_closed = false;
  while (true) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    peer_closed = true;  // orderly shutdown or hard error
    break;
  }
  while (true) {
    auto decoded = TryDecodeFrame(&conn->inbuf, opts_.max_frame_bytes);
    if (!decoded.ok()) {
      // Framing is unrecoverable: report once, stop reading, close after
      // in-flight work drains. Queued-but-unstarted requests are dropped —
      // their responses could not be trusted to be complete either.
      WriteFrame(conn.get(), ErrorFrame(0, decoded.status()));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.protocol_errors;
      inflight_ -= static_cast<uint32_t>(conn->pending.size());
      conn->pending.clear();
      conn->closing = true;
      // If the conn is still queued (no worker claimed it yet), dequeue it
      // too: a worker popping it now would find the emptied pending deque.
      // When a worker *does* hold it, it is not in ready_ — the worker owns
      // its request's in-flight slot and clears busy when it finishes.
      auto queued = std::find(ready_.begin(), ready_.end(), conn);
      if (queued != ready_.end()) {
        ready_.erase(queued);
        conn->busy = false;
      }
      return;
    }
    if (!decoded->has_value()) break;
    Frame frame = std::move(**decoded);
    bool overloaded = false;
    // Past max_inflight, --degrade admits a further window of requests in
    // degraded mode (WITH SVC queries only, at a reduced sampling ratio)
    // instead of shedding them outright.
    const uint32_t hard_cap =
        !opts_.degrade ? opts_.max_inflight
        : opts_.degrade_max_inflight != 0 ? opts_.degrade_max_inflight
                                          : 4 * opts_.max_inflight;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const bool degraded =
          inflight_ >= opts_.max_inflight && inflight_ < hard_cap;
      if (inflight_ >= hard_cap) {
        ++stats_.overload_rejections;
        overloaded = true;
      } else {
        if (degraded) ++stats_.degraded_admissions;
        ++inflight_;
        ++stats_.requests;
        conn->pending.push_back(PendingReq{std::move(frame), degraded,
                                           std::chrono::steady_clock::now()});
        if (!conn->busy) {
          conn->busy = true;
          ready_.push_back(conn);
          work_cv_.notify_one();
        }
      }
    }
    if (overloaded) {
      WriteFrame(conn.get(),
                 ErrorFrame(frame.request_id,
                            Status::Overloaded(
                                "server at max in-flight requests (" +
                                std::to_string(hard_cap) +
                                "); retry later")));
    }
  }
  if (peer_closed) {
    std::lock_guard<std::mutex> lock(mu_);
    conn->closing = true;
  }
}

void SvcServer::WorkerLoop() {
  while (true) {
    ConnPtr conn;
    PendingReq request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stopping_.load() || !ready_.empty(); });
      if (stopping_.load()) return;
      conn = std::move(ready_.front());
      ready_.pop_front();
      // Defensive: never pop an empty queue. A protocol error clears
      // pending (and dequeues the conn, so this should be unreachable).
      if (conn->pending.empty()) {
        conn->busy = false;
        continue;
      }
      request = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    Frame response = HandleRequest(conn.get(), request);
    // Release the in-flight slot BEFORE the response hits the wire: a
    // client that pipelines its next request the instant it reads this
    // reply must find the slot free, not race the decrement and get a
    // spurious Overloaded.
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    WriteFrame(conn.get(), response);
    // Schedule this connection's next pending request (per-connection
    // serial execution preserves response order for pipelined clients —
    // `busy` stays set until after our write above).
    bool poke_io = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!conn->pending.empty() && !stopping_.load()) {
        ready_.push_back(conn);
        work_cv_.notify_one();
      } else {
        conn->busy = false;
        if (conn->closing) poke_io = true;
      }
    }
    if (poke_io) WakeIo();  // let the IO thread reap it
  }
}

Frame SvcServer::HandleRequest(Conn* conn, const PendingReq& pending) {
  const Frame& request = pending.frame;
  const uint32_t id = request.request_id;
  auto fail = [&](const Status& status) { return ErrorFrame(id, status); };
  auto count = [&](uint64_t ServerStats::* field) {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*field);
  };

  if (!conn->hello_done && request.tag != FrameTag::kHello) {
    count(&ServerStats::protocol_errors);
    return fail(Status::Protocol("expected a Hello frame first"));
  }
  switch (request.tag) {
    case FrameTag::kHello: {
      auto hello = DecodeHelloRequest(request.body);
      if (!hello.ok()) return fail(hello.status());
      if (hello->max_version < kProtocolVersionMin) {
        count(&ServerStats::protocol_errors);
        return fail(Status::Protocol(
            "no common protocol version (client <= " +
            std::to_string(hello->max_version) + ", server >= " +
            std::to_string(kProtocolVersionMin) + ")"));
      }
      conn->negotiated_version =
          std::min(hello->max_version, kProtocolVersionMax);
      conn->hello_done = true;
      Frame reply;
      reply.tag = FrameTag::kHelloOk;
      reply.request_id = id;
      HelloReply body;
      body.version = static_cast<uint32_t>(conn->negotiated_version);
      body.server_name = opts_.server_name;
      EncodeHelloReply(body, &reply.body);
      return reply;
    }
    case FrameTag::kQuery: {
      ByteReader r(request.body);
      auto sql = r.Str();
      if (!sql.ok()) return fail(sql.status());
      auto meta = DecodeRequestMetaTail(&r);
      if (!meta.ok()) return fail(meta.status());
      return ExecuteWithMeta(conn, pending, *meta, [&]() -> Result<SqlResult> {
        count(&ServerStats::statements_parsed);
        auto stmt = ParseStatement(*sql);
        if (!stmt.ok()) return stmt.status();
        if (stmt->num_params > 0) {
          return Status::InvalidArgument(
              "query has ? placeholders; use Prepare/Execute");
        }
        SVC_RETURN_IF_ERROR(CheckDegradable(pending.degraded, *stmt));
        return conn->session->Execute(*stmt);
      });
    }
    case FrameTag::kPrepare: {
      ByteReader r(request.body);
      auto sql = r.Str();
      if (!sql.ok()) return fail(sql.status());
      count(&ServerStats::statements_parsed);
      auto stmt = ParseStatement(*sql);
      if (!stmt.ok()) return fail(stmt.status());
      const uint64_t stmt_id = conn->next_stmt_id++;
      const uint32_t num_params = stmt->num_params;
      conn->prepared.emplace(stmt_id, std::move(*stmt));
      Frame reply;
      reply.tag = FrameTag::kPrepared;
      reply.request_id = id;
      EncodePreparedBody(stmt_id, num_params, &reply.body);
      return reply;
    }
    case FrameTag::kExecute: {
      ByteReader r(request.body);
      auto req = DecodeExecuteBody(&r);
      if (!req.ok()) return fail(req.status());
      auto meta = DecodeRequestMetaTail(&r);
      if (!meta.ok()) return fail(meta.status());
      return ExecuteWithMeta(conn, pending, *meta, [&]() -> Result<SqlResult> {
        auto it = conn->prepared.find(req->stmt_id);
        if (it == conn->prepared.end()) {
          return Status::NotFound("no prepared statement #" +
                                  std::to_string(req->stmt_id));
        }
        auto bound = BindStatementParams(it->second, req->params);
        if (!bound.ok()) return bound.status();
        SVC_RETURN_IF_ERROR(CheckDegradable(pending.degraded, *bound));
        count(&ServerStats::prepared_executes);
        return conn->session->Execute(*bound);
      });
    }
    case FrameTag::kClose: {
      ByteReader r(request.body);
      auto stmt_id = r.U64();
      if (!stmt_id.ok()) return fail(stmt_id.status());
      Frame reply;
      reply.tag = FrameTag::kOk;
      reply.request_id = id;
      if (*stmt_id == 0) {
        std::lock_guard<std::mutex> lock(mu_);
        conn->closing = true;
        PutStr(&reply.body, "goodbye");
        return reply;
      }
      if (conn->prepared.erase(*stmt_id) == 0) {
        return fail(Status::NotFound("no prepared statement #" +
                                     std::to_string(*stmt_id)));
      }
      PutStr(&reply.body, "statement closed");
      return reply;
    }
    case FrameTag::kStatsReq: {
      Frame reply;
      reply.tag = FrameTag::kStats;
      reply.request_id = id;
      EncodeStatsBody(StatsMap(), &reply.body);
      return reply;
    }
    default:
      count(&ServerStats::protocol_errors);
      return fail(Status::Protocol(
          "unknown frame tag " +
          std::to_string(static_cast<int>(request.tag))));
  }
}

Frame SvcServer::ExecuteWithMeta(Conn* conn, const PendingReq& request,
                                 const RequestMeta& meta,
                                 const std::function<Result<SqlResult>()>& run) {
  const uint32_t id = request.frame.request_id;
  auto count = [&](uint64_t ServerStats::* field) {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*field);
  };

  // Fault site: stretch this request's execution so a deterministic test
  // can make a small deadline expire without real load.
  FaultInjector& net = FaultInjector::Net();
  if (net.armed() && net.ShouldTrigger("exec.delay")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Idempotency dedup: a retried (token, seq) replays the recorded
  // response byte-for-byte instead of re-executing — the write behind it
  // committed exactly once, and even a retried *read* answers identically
  // (no second execution, no counter bumps), so a client transcript is
  // bit-identical whether or not the network misbehaved.
  if (!meta.idem_token.empty()) {
    std::unique_lock<std::mutex> lock(idem_mu_);
    idem_cv_.wait(lock, [&] {
      auto running = idem_inflight_.find(meta.idem_token);
      return running == idem_inflight_.end() ||
             running->second != meta.idem_seq;
    });
    auto it = idem_journal_.find(meta.idem_token);
    if (it != idem_journal_.end() && meta.idem_seq <= it->second.seq) {
      count(&ServerStats::idem_replays);
      if (it->second.has_frame && meta.idem_seq == it->second.seq) {
        Frame replay;
        replay.tag = it->second.tag;
        replay.request_id = id;
        replay.body = it->second.body;
        return replay;
      }
      // The mark survived (WAL / idem sidecar) but its response frame died
      // with the previous process: the effect is durably applied, so
      // acknowledge without re-executing.
      Frame reply;
      reply.tag = FrameTag::kOk;
      reply.request_id = id;
      PutStr(&reply.body, "already applied (idempotent replay)");
      return reply;
    }
    idem_inflight_[meta.idem_token] = meta.idem_seq;
  }
  // Clears the in-flight mark on every return below — after the journal
  // update, so a waiting retry finds the response to replay.
  struct InflightMark {
    SvcServer* server;
    const RequestMeta* meta;
    InflightMark(const InflightMark&) = delete;
    InflightMark& operator=(const InflightMark&) = delete;
    ~InflightMark() {
      if (meta == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(server->idem_mu_);
        auto it = server->idem_inflight_.find(meta->idem_token);
        if (it != server->idem_inflight_.end() &&
            it->second == meta->idem_seq) {
          server->idem_inflight_.erase(it);
        }
      }
      server->idem_cv_.notify_all();
    }
  } inflight{this, meta.idem_token.empty() ? nullptr : &meta};

  // Deadline: queue wait counts against it (the client's clock started at
  // send). Expired before execution → fail immediately; otherwise thread
  // the remaining budget through the session as a cancellation token the
  // executor polls between chunks.
  CancelToken token;
  if (meta.deadline_ms != 0) {
    const auto waited = std::chrono::steady_clock::now() - request.admitted;
    const uint64_t waited_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(waited).count());
    if (waited_ms >= meta.deadline_ms) {
      count(&ServerStats::deadline_exceeded);
      return ErrorFrame(
          id, Status::DeadlineExceeded(
                  "deadline of " + std::to_string(meta.deadline_ms) +
                  " ms expired after " + std::to_string(waited_ms) +
                  " ms in the admission queue"));
    }
    token = CancelToken::After(meta.deadline_ms - waited_ms);
    conn->session->set_cancel_token(&token);
  }
  if (request.degraded) {
    conn->session->set_degrade_ratio_scale(opts_.degrade_ratio_scale);
  }
  if (!meta.idem_token.empty()) {
    conn->session->set_idempotency(meta.idem_token, meta.idem_seq);
  }

  Result<SqlResult> result = run();

  conn->session->set_cancel_token(nullptr);
  conn->session->set_degrade_ratio_scale(1.0);
  conn->session->set_idempotency("", 0);

  // Crash-fault site "server.pre_response.seq<N>": the first delivery of
  // idempotency seq N dies here, its effects (WAL append and idempotency
  // mark included) committed and its response unsent — the classic "did
  // my write land?" window a retrying client must resolve via its token
  // after the server restarts. Keyed by seq, it names one statement however
  // many client retries arrive before it; a retry of seq N replays above.
  FaultInjector& crash = FaultInjector::Global();
  if (!meta.idem_token.empty() && crash.armed()) {
    crash.MaybeCrash(
        ("server.pre_response.seq" + std::to_string(meta.idem_seq)).c_str());
  }

  Frame reply;
  reply.request_id = id;
  if (result.ok()) {
    reply.tag = EncodeSqlResultBody(*result, &reply.body);
  } else {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      count(&ServerStats::deadline_exceeded);
    }
    reply = ErrorFrame(id, result.status());
  }

  // Journal the response under the client's token — unless it failed with
  // a *retryable* error (e.g. Overloaded from degraded-mode shedding): the
  // client will re-send the same (token, seq) and genuinely wants a fresh
  // execution then, not a replay of the rejection.
  if (!meta.idem_token.empty() &&
      (result.ok() || !IsRetryableStatus(result.status().code()))) {
    std::lock_guard<std::mutex> lock(idem_mu_);
    IdemEntry& e = idem_journal_[meta.idem_token];
    e.seq = meta.idem_seq;
    e.has_frame = true;
    e.tag = reply.tag;
    e.body = reply.body;
  }
  return reply;
}

}  // namespace svc
