#ifndef SVC_SERVER_SERVER_H_
#define SVC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"
#include "sql/session.h"

namespace svc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker threads executing statements (requests from different
  /// connections run in parallel; per connection, strictly in order).
  int workers = 4;
  /// Admission control: requests queued + executing across all
  /// connections. Excess requests are answered immediately with an
  /// Overloaded error frame instead of queueing without bound.
  uint32_t max_inflight = 64;
  /// Frames larger than this are a protocol error (connection dropped).
  /// Responses that would exceed it are answered with an OutOfRange error
  /// frame instead of an undecodable oversized frame.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A response write that makes no progress for this long (the peer
  /// stopped reading) marks the connection dead instead of wedging the
  /// writing thread.
  int send_timeout_ms = 5000;
  /// Reported in the Hello reply.
  std::string server_name = "svc_served";
  /// Graceful degradation: instead of rejecting every request past
  /// max_inflight, admit up to `degrade_max_inflight` extra requests in
  /// *degraded* mode — WITH SVC queries run at
  /// `ratio * degrade_ratio_scale` (same estimator, wider CI) and their
  /// results carry the wire-visible degraded flag; any other statement in
  /// degraded admission is still answered Overloaded (only sampling-based
  /// reads have a cheaper correct mode to degrade to).
  bool degrade = false;
  /// Absolute in-flight ceiling in degrade mode (0 = 4 * max_inflight).
  uint32_t degrade_max_inflight = 0;
  /// Sampling-ratio multiplier for degraded WITH SVC queries, in (0, 1).
  double degrade_ratio_scale = 0.5;
};

/// Monotonic server-wide counters (also served over the wire as the Stats
/// frame). `statements_parsed` vs `prepared_executes` is the observable
/// proof that prepared statements skip the parser.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests = 0;           ///< frames admitted for execution
  uint64_t statements_parsed = 0;  ///< ParseStatement calls (Query + Prepare)
  uint64_t prepared_executes = 0;  ///< Execute frames served from the AST cache
  uint64_t overload_rejections = 0;
  uint64_t protocol_errors = 0;
  uint64_t degraded_admissions = 0;  ///< requests admitted past max_inflight
  uint64_t idem_replays = 0;     ///< retried requests answered from the journal
  uint64_t deadline_exceeded = 0;  ///< requests failed by their deadline
  uint64_t net_faults_injected = 0;  ///< SVC_NET_FAULT damage events inflicted
};

/// The svc network server: accepts TCP connections speaking the framed
/// protocol (server/protocol.h), multiplexes them onto a worker pool, and
/// runs every statement through a per-connection shared-mode SqlSession —
/// so each read executes on one immutable SharedEngine snapshot and each
/// write is one serialized commit, exactly like concurrent in-process
/// sessions (transcripts are bit-identical to `svc_shell --shared`).
///
/// Structure: one IO thread owns the listen socket and every connection's
/// read side (poll + non-blocking reads + frame extraction); `workers`
/// threads execute admitted requests. Per connection at most one request
/// executes at a time and responses are written in request order, so
/// pipelined clients get answers in the order they asked. Responses are
/// written by the worker (or, for overload/protocol errors, the IO thread)
/// under a per-connection write lock.
///
/// Prepared statements live per connection: Prepare parses once and caches
/// the AST; Execute deep-clones the cached Statement with literals bound
/// (sql/params.h) and never touches the parser.
class SvcServer {
 public:
  /// Serves the given shared engine.
  SvcServer(ServerOptions opts, std::shared_ptr<SharedEngine> engine);
  /// Serves a durable engine: statements run with durable-session
  /// semantics (every write WAL-logged before publishing).
  SvcServer(ServerOptions opts, std::shared_ptr<DurableEngine> durable);
  /// Serves a sharded engine: statements run with sharded-session
  /// semantics (scatter-gather reads, shard-routed writes).
  SvcServer(ServerOptions opts, std::shared_ptr<ShardedEngine> sharded);
  /// Stops and joins all threads.
  ~SvcServer();

  SvcServer(const SvcServer&) = delete;
  SvcServer& operator=(const SvcServer&) = delete;

  /// Binds, listens, and starts the IO + worker threads.
  Status Start();

  /// Graceful shutdown: stops accepting, closes connections, joins
  /// threads. Idempotent.
  void Stop();

  /// The bound port (after Start); useful with ServerOptions::port == 0.
  uint16_t port() const { return port_; }

  /// Snapshot of the server counters.
  ServerStats stats() const;

  /// The counters as the wire Stats frame reports them.
  std::map<std::string, uint64_t> StatsMap() const;

 private:
  /// One admitted request: the frame plus its admission context (degraded
  /// requests run WITH SVC at a reduced ratio; the admission timestamp
  /// anchors the request's deadline, so queue time counts against it).
  struct PendingReq {
    Frame frame;
    bool degraded = false;
    std::chrono::steady_clock::time_point admitted;
  };

  struct Conn {
    int fd = -1;
    std::string inbuf;  // IO thread only
    // Requests decoded but not yet executing; guarded by SvcServer::mu_.
    std::deque<PendingReq> pending;
    bool busy = false;      // a worker is executing; guarded by mu_
    bool closing = false;   // no more reads; reap when drained (mu_)
    bool hello_done = false;           // executing thread only
    uint64_t negotiated_version = 0;   // executing thread only
    std::mutex write_mu;               // serializes response writes
    std::unique_ptr<SqlSession> session;
    std::map<uint64_t, Statement> prepared;  // executing thread only
    uint64_t next_stmt_id = 1;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  EngineHandle MakeHandle() const;

  void IoLoop();
  void WorkerLoop();

  /// Reads everything available from `conn`, extracts frames, and either
  /// admits them (pending queue / ready list) or answers overload &
  /// protocol errors inline. Called by the IO thread.
  void DrainReadable(const ConnPtr& conn);

  /// The response to `request` (everything except transport errors).
  Frame HandleRequest(Conn* conn, const PendingReq& request);

  /// Executes a Query/Execute statement under the request's v2 metadata:
  /// deadline enforcement (cooperative cancellation), idempotency dedup
  /// (replay the journaled response for a retried (token, seq)), and
  /// degraded-admission ratio scaling. `run` parses/binds and validates;
  /// it is only invoked when the request must actually execute.
  Frame ExecuteWithMeta(Conn* conn, const PendingReq& request,
                        const RequestMeta& meta,
                        const std::function<Result<SqlResult>()>& run);

  Frame ErrorFrame(uint32_t request_id, const Status& status) const;
  void WriteFrame(Conn* conn, const Frame& frame);
  void WakeIo();

  ServerOptions opts_;
  std::shared_ptr<SharedEngine> shared_;
  std::shared_ptr<DurableEngine> durable_;
  std::shared_ptr<ShardedEngine> sharded_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::map<int, ConnPtr> conns_;       // keyed by fd; IO thread + reaping
  std::deque<ConnPtr> ready_;          // conns whose next request may run
  uint32_t inflight_ = 0;              // admitted, not yet answered
  ServerStats stats_;

  /// Idempotency dedup journal, keyed by client token. One entry per token
  /// (clients are synchronous: only their *latest* request is ever
  /// retried). A live entry caches the full response frame so a retry
  /// replays it byte-identically; an entry recovered from the durable
  /// engine's marks has no frame — a retry of it gets a synthesized "write
  /// already applied" Ok (the write committed; the response died with the
  /// old process).
  struct IdemEntry {
    uint64_t seq = 0;
    bool has_frame = false;
    FrameTag tag = FrameTag::kOk;
    std::string body;
  };
  mutable std::mutex idem_mu_;
  std::map<std::string, IdemEntry> idem_journal_;
  /// Token -> seq of the request executing now. A retry resent on a fresh
  /// connection after a client timeout can arrive while its first delivery
  /// still executes; it waits on idem_cv_ for that delivery's journal entry
  /// instead of executing the statement a second time.
  std::map<std::string, uint64_t> idem_inflight_;
  std::condition_variable idem_cv_;

  std::thread io_thread_;
  std::vector<std::thread> worker_threads_;
};

}  // namespace svc

#endif  // SVC_SERVER_SERVER_H_
