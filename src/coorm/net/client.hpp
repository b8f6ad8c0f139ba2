// Client side of the wire protocol: an AppLink over a TCP connection.
//
// RmsClient gives application code the exact interface an in-process
// `Session` gives it (rms/app_link.hpp), with the remote round trips
// hidden behind the same synchronous calls:
//  - connect() performs the HELLO/WELCOME handshake and learns the
//    RMS-assigned application id;
//  - request() sends REQUEST with a fresh correlation cookie and pumps the
//    socket until the matching REQ_ACK arrives, returning the id the
//    server assigned — downstream frames that arrive first are queued, in
//    order, for normal delivery;
//  - downstream frames (views/started/expired/ended/killed) decode into
//    `AppEndpoint` callbacks dispatched from the owning IoExecutor loop,
//    in arrival order, never re-entrantly from inside a blocking wait.
//
// View pushes: the daemon ships sequenced VIEWS_DELTA frames. The client
// keeps the last applied view pair; a full push replaces it, a delta push
// splices per-cluster windows onto it (profile_diff.hpp), and each applied
// push is VIEWS_ACKed so the daemon may diff against it. Any gap, unknown
// cluster or undecodable window acks `resync` instead — the daemon
// answers with a full sync point — so the views delivered to the endpoint
// are bit-identical to full pushes at every commit, just cheaper on the
// wire.
//
// Crash safety: with Config::reconnect set, a lost connection
// does not end the session. The client redials with exponential backoff +
// deterministic jitter, presents the (app, token) pair its WELCOME handed
// out in a RESUME frame, and on RESUME_ACK(ok) replays the one possibly
// unacked REQUEST by cookie (the server dedups). The daemon re-announces
// any started/expired/ended the client may have missed while detached —
// at-least-once — and the client dedups those by request id, so the
// application observes each transition exactly once across daemon
// restarts. Only a RESUME_ACK(!ok) — session gone for real — or an
// explicit KILLED escalates to onKilled().
//
// Threading: one loop thread owns the client (the same model as the
// server side). The blocking pump polls only this client's socket, so
// several RmsClients can share one loop without dispatching each other's
// callbacks mid-wait.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "coorm/common/metrics.hpp"

#include "coorm/net/io_executor.hpp"
#include "coorm/net/socket.hpp"
#include "coorm/net/wire.hpp"
#include "coorm/rms/app_link.hpp"
#include "coorm/rms/server.hpp"

namespace coorm::net {

/// A blocking RPC (connect handshake, request ack, stats) exceeded
/// Config::rpcTimeout. The connection stays up — a late answer is
/// discarded — so the caller may retry; only socket death ends a session.
struct TimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class RmsClient final : public AppLink {
 public:
  struct Config {
    Endpoint server{};
    std::string name = "app";  ///< reported in HELLO (server diagnostics)
    /// Bound on any blocking wait (handshake, request ack). Expiry throws
    /// TimeoutError rather than blocking the loop forever.
    Time rpcTimeout = sec(30);
    /// Resume a lost session instead of reporting it killed: redial with
    /// backoff and present the WELCOME token in a RESUME frame. Requires
    /// a daemon with a resume window (Daemon::Config::resumeGrace).
    bool reconnect = false;
    /// Dial attempts for connect()/dial() and for each resume cycle; the
    /// gaps follow the backoff policy below.
    int connectAttempts = 1;
    Time backoffBase = msec(50);  ///< first retry delay (doubles per try)
    Time backoffMax = sec(2);     ///< retry delay cap (jitter keeps [d/2, d])
  };

  RmsClient(IoExecutor& executor, Config config);
  ~RmsClient() override;

  RmsClient(const RmsClient&) = delete;
  RmsClient& operator=(const RmsClient&) = delete;

  /// Connects, performs the handshake, and routes downstream events to
  /// `endpoint` (which must outlive the client). Throws std::runtime_error
  /// if the daemon cannot be reached or the handshake fails.
  void connect(AppEndpoint& endpoint);

  /// Dials the daemon without performing the HELLO handshake: no session
  /// is created, no downstream events flow, but admin round trips
  /// (stats()) work. Throws std::runtime_error if the daemon cannot be
  /// reached. End with disconnect() as usual.
  void dial();

  /// True between a successful connect() and disconnect()/death.
  [[nodiscard]] bool connected() const { return fd_.valid(); }
  /// True once the server killed the session or the connection died.
  [[nodiscard]] bool dead() const { return dead_; }

  /// request() round trips completed so far (load-generator reporting).
  [[nodiscard]] std::uint64_t requestsSent() const { return requestsSent_; }

  /// Successful RESUME handshakes performed so far.
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

  /// Admin round trip: STATS → STATS_REPLY. Returns the daemon's metrics
  /// snapshot, or nullopt if the connection is dead or the wait timed out.
  /// Works on any connected client; no requests need to be in flight.
  [[nodiscard]] std::optional<metrics::Snapshot> stats();

  // --- AppLink -------------------------------------------------------------
  [[nodiscard]] AppId app() const override { return app_; }
  /// Synchronous round trip; an invalid id means the RMS rejected the
  /// request or the connection is dead.
  RequestId request(const RequestSpec& spec) override;
  void done(RequestId id, std::vector<NodeId> released) override;
  using AppLink::done;
  /// Sends GOODBYE and closes. Idempotent.
  void disconnect() override;

 private:
  /// The view pair an applied push left the client holding, queued for
  /// delivery to the endpoint.
  struct ViewsMsg {
    View nonPreemptive;
    View preemptive;
  };
  using DownMsg = std::variant<ViewsMsg, StartedMsg, ExpiredMsg, EndedMsg,
                               KilledMsg>;

  void onIo(short events);
  /// Drains readable socket data into the frame buffer and queues decoded
  /// downstream frames; returns false if the connection died.
  bool readFrames();
  /// Decodes the complete frames already buffered in inbound_ (a resume
  /// hands over frames read during its ack wait); false if that killed us.
  bool parseBuffered();
  /// Decodes one downstream frame into the delivery queue (or stashes a
  /// REQ_ACK for a blocking request()).
  void handleFrame(const FrameView& frame);
  /// Ensures a drain event is scheduled; delivery always happens from the
  /// executor, never from inside a read pump.
  void armDrain();
  void drain();
  void sendFrame();  ///< flushes scratch_ to the socket (blocking-ish)
  /// Polls this socket only until `pred` or timeout; queues events aside.
  template <typename Pred>
  bool pumpUntil(Pred pred);
  void markDead();
  /// The socket died: resume (reconnect policy permitting) or markDead.
  void onConnectionLost();
  /// Redial + RESUME handshake loop. True once re-attached (socket live,
  /// unacked REQUEST replayed); false when attempts ran out or the server
  /// nacked (session gone).
  bool tryResume();
  /// Backoff delay before retry `attempt` (0-based): exponential from
  /// backoffBase, capped at backoffMax, deterministic jitter in [d/2, d].
  [[nodiscard]] Time backoffDelay(int attempt) const;
  /// True (and remembered) if this notification kind was already delivered
  /// for `id` — the dedup behind at-least-once re-announcement.
  bool alreadyDelivered(RequestId id, std::uint8_t kindBit);

  IoExecutor& executor_;
  Config config_;
  Fd fd_;
  AppEndpoint* endpoint_ = nullptr;
  AppId app_{};
  FrameBuffer inbound_;
  std::vector<std::uint8_t> scratch_;
  std::deque<DownMsg> pending_;
  /// Pending deferred drain, cancelled on destruction so a client deleted
  /// with deliveries in flight never gets a callback into freed memory.
  EventHandle drainEvent_;
  bool drainArmed_ = false;
  bool dead_ = false;
  /// onKilled must fire at most once, whether the death was an explicit
  /// KILLED frame, the EOF that follows it, or a socket error.
  bool killedQueued_ = false;
  std::uint64_t nextCookie_ = 1;
  std::uint64_t requestsSent_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t token_ = 0;  ///< RESUME credential from WELCOME
  bool resuming_ = false;    ///< a resume cycle is on the stack
  bool timedOut_ = false;    ///< last pumpUntil ended by deadline, not death
  // Blocking-request state: the cookie being awaited and its answer. The
  // spec rides along so a resume mid-wait can replay the REQUEST.
  std::uint64_t awaitingCookie_ = 0;
  RequestSpec pendingSpec_{};
  bool ackReceived_ = false;
  RequestId ackId_{};
  // Delivery dedup across resumes: request id -> bitmask of kinds
  // (1=started, 2=expired, 4=ended) already handed to the endpoint.
  // FIFO-bounded; re-announced duplicates are dropped here.
  std::unordered_map<std::int64_t, std::uint8_t> delivered_;
  std::deque<std::int64_t> deliveredOrder_;
  // Blocking-stats state, mirroring the request()/REQ_ACK pattern.
  bool awaitingStats_ = false;
  bool statsReceived_ = false;
  metrics::Snapshot statsReply_{};
  // Delta-push state: the last applied view pair (the base delta pushes
  // splice into) and its sequence number. `viewsSynced_` drops on any
  // resync condition; only a full push raises it again.
  View curNp_;
  View curP_;
  std::uint32_t viewsSeq_ = 0;
  bool viewsSynced_ = false;
};

}  // namespace coorm::net
