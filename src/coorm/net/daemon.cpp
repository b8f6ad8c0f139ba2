#include "coorm/net/daemon.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/log.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/profile/profile_diff.hpp"

namespace coorm::net {

namespace {

/// Collects the per-cluster splice windows turning `prev` into `next`.
/// Unchanged clusters are omitted. False when the cluster sets differ —
/// a delta cannot add or drop clusters, so such pushes go out full.
bool buildDeltas(const View& prev, const View& next,
                 std::vector<ClusterDelta>& out) {
  out.clear();
  const std::vector<ClusterId> clusters = next.clusters();
  if (clusters != prev.clusters()) return false;
  for (const ClusterId cid : clusters) {
    Time lo = 0;
    Time hi = 0;
    const std::span<const Segment> newSegs = next.cap(cid).segments();
    if (!diffWindow(prev.cap(cid).segments(), newSegs, lo, hi)) continue;
    ClusterDelta delta;
    delta.cluster = cid;
    delta.lo = lo;
    delta.hi = hi;
    // The window spliceWindow() expects is exactly the new profile's
    // segments starting in [lo, hi): diffWindow guarantees the values at
    // lo-1 agree, so emit-on-change relative to the base is the identity.
    for (const Segment& seg : newSegs) {
      if (seg.start >= hi) break;
      if (seg.start >= lo) delta.window.push_back(seg);
    }
    out.push_back(std::move(delta));
  }
  return true;
}

}  // namespace

/// One accepted peer: the socket-facing state plus the AppEndpoint the
/// Server notifies. Downstream callbacks run as executor events on the
/// loop thread, so everything here is single-threaded.
struct Daemon::Connection final : AppEndpoint {
  Daemon* daemon = nullptr;
  Fd fd;
  FrameBuffer inbound;
  std::vector<std::uint8_t> outbound;
  std::size_t outboundPos = 0;  ///< written prefix of `outbound`
  Session* session = nullptr;   ///< null until HELLO (or RESUME)
  std::string peerName;         ///< from HELLO, for diagnostics
  Time lastActivity = 0;        ///< last inbound traffic (idle sweep)
  bool writable = false;        ///< POLLOUT interest currently registered
  bool closeWhenFlushed = false;  ///< KILLED sent; close after drain
  bool clean = false;           ///< GOODBYE seen: disconnect, never detach
  bool dead = false;            ///< torn down; ignore further activity
  bool flushArmed = false;      ///< zero-delay flush event pending
  EventHandle flushEvent;       ///< coalesced flush (cancellable)
  EventHandle destroyEvent;     ///< deferred destruction (cancellable)

  // Delta-push state. `viewSeq` numbers this connection's pushes;
  // `acked*` is the last push the client confirmed applied (only ever the
  // *latest* push — an ack of anything older is stale and ignored, so a
  // delta's base is always exactly what the client holds); `sent*` is the
  // view pair of the latest push, the base the next delta diffs against.
  std::uint32_t viewSeq = 0;
  std::uint32_t ackedSeq = 0;
  bool ackedValid = false;
  View sentNp;
  View sentP;
  bool sentValid = false;

  // --- AppEndpoint ---------------------------------------------------------
  void onViews(const View& nonPreemptive, const View& preemptive) override {
    if (dead) return;
    daemon->pushViews(*this, nonPreemptive, preemptive);
  }
  void onStarted(RequestId id, const std::vector<NodeId>& nodeIds) override {
    if (dead) return;
    encodeStarted(daemon->scratch_, id, nodeIds);
    daemon->send(*this);
  }
  void onExpired(RequestId id) override {
    if (dead) return;
    encode(daemon->scratch_, ExpiredMsg{id});
    daemon->send(*this);
  }
  void onEnded(RequestId id) override {
    if (dead) return;
    encode(daemon->scratch_, EndedMsg{id});
    daemon->send(*this);
  }
  void onKilled() override {
    if (dead) return;
    encode(daemon->scratch_, KilledMsg{});
    daemon->send(*this);
    // The session is gone; drain the notification, then drop the peer.
    closeWhenFlushed = true;
    if (outboundPos == outbound.size()) daemon->teardown(*this);
  }
};

Daemon::Daemon(IoExecutor& executor, Server& server, Config config)
    : executor_(executor), server_(server), config_(config) {
  std::string error;
  listener_ = listenOn(config_.listen, error);
  if (!listener_.valid()) {
    throw std::runtime_error("coorm_rmsd: cannot listen on " +
                             net::toString(config_.listen) + ": " + error);
  }
  port_ = boundPort(listener_.get());
  executor_.watch(listener_.get(), IoExecutor::kReadable,
                  [this](short) { onAcceptable(); });
  if (config_.idleDeadline > 0) armIdleSweep();
  if (config_.resumeGrace > 0) armResumeReaper();
}

Daemon::~Daemon() {
  close();
  connections_.clear();
}

std::size_t Daemon::connectionCount() const {
  std::size_t n = 0;
  for (const auto& conn : connections_) n += conn->dead ? 0 : 1;
  return n;
}

void Daemon::close() {
  if (closed_) return;
  closed_ = true;
  Executor::cancel(idleSweep_);
  Executor::cancel(resumeReaper_);
  executor_.unwatch(listener_.get());
  listener_.reset();
  for (auto& conn : connections_) {
    if (!conn->dead) teardown(*conn);
    Executor::cancel(conn->flushEvent);
    // The deferred destroy events reference this Daemon, which may be
    // torn down before they fire; cancel them and keep the Connection
    // objects as tombstones until the destructor instead. Endpoint
    // notifications still queued on the executor (close() may run from
    // inside a loop callback) then land on live, `dead`-guarded objects.
    Executor::cancel(conn->destroyEvent);
  }
}

void Daemon::onAcceptable() {
  while (true) {
    Fd fd = acceptOn(listener_.get());
    if (!fd.valid()) return;
    auto conn = std::make_unique<Connection>();
    conn->daemon = this;
    conn->fd = std::move(fd);
    conn->lastActivity = executor_.now();
    Connection* raw = conn.get();
    executor_.watch(raw->fd.get(), IoExecutor::kReadable,
                    [this, raw](short events) { onConnectionIo(*raw, events); });
    connections_.push_back(std::move(conn));
  }
}

void Daemon::onConnectionIo(Connection& conn, short events) {
  if (conn.dead) return;
  // POLLHUP rides along with the final readable burst of a closing peer,
  // so an error/hangup must not short-circuit the read path below — it
  // only forces the drop decision at the end.
  const bool errored = (events & IoExecutor::kError) != 0;
  if (!errored) {
    if ((events & IoExecutor::kWritable) != 0) {
      flush(conn);
      if (conn.dead) return;
    }
    if ((events & IoExecutor::kReadable) == 0) return;
  }

  // Frames that arrived in the same burst as an EOF/reset still count:
  // parse everything buffered first, then map the dead peer to a
  // disconnect (a final DONE right before close must not be dropped, and
  // a GOODBYE right before close is a clean departure, not a dead peer).
  const DrainStatus status = drainReadable(conn.fd.get(), conn.inbound);
  conn.lastActivity = executor_.now();

  FrameView frame;
  bool more = true;
  while (more && !conn.dead) {
    switch (conn.inbound.next(frame)) {
      case FrameBuffer::Next::kFrame:
        ++framesIn_;
        handleFrame(conn, frame);
        continue;
      case FrameBuffer::Next::kNeedMore:
        more = false;
        break;
      case FrameBuffer::Next::kBad:
        COORM_LOG(LogLevel::kWarn, "net")
            << "protocol error from " << conn.peerName << "; dropping peer";
        metrics::increment(metrics::Event::kDeadPeerDrops);
        teardown(conn);
        return;
    }
  }
  if ((errored || status != DrainStatus::kOk) && !conn.dead) {
    // EOF/reset without a GOODBYE first: the peer vanished on us.
    metrics::increment(metrics::Event::kDeadPeerDrops);
    teardown(conn);
  }
}

void Daemon::handleFrame(Connection& conn, const FrameView& frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      HelloMsg msg;
      if (!decode(frame.payload, msg) || conn.session != nullptr) break;
      conn.peerName = msg.name;
      conn.session = server_.connect(conn, msg.name);
      encode(scratch_, WelcomeMsg{conn.session->app(),
                                  server_.sessionToken(conn.session->app())});
      send(conn);
      return;
    }
    case MsgType::kResume: {
      ResumeMsg msg;
      if (!decode(frame.payload, msg) || conn.session != nullptr) break;
      Session* resumed = server_.resumeSession(msg.app, msg.token, conn);
      if (resumed != nullptr) {
        // A half-open predecessor may still think it owns this session;
        // neutralise it first (null the pointer so its teardown does not
        // disconnect the session we just re-attached).
        for (auto& other : connections_) {
          if (other.get() != &conn && !other->dead &&
              other->session == resumed) {
            other->session = nullptr;
            teardown(*other);
          }
        }
        conn.session = resumed;
        conn.peerName = "resumed app " + std::to_string(msg.app.value);
      }
      encode(scratch_, ResumeAckMsg{resumed != nullptr, msg.app});
      send(conn);
      // A nack is an answer, not a violation: the client falls back to a
      // fresh HELLO (or gives up) on the same connection.
      return;
    }
    case MsgType::kPing: {
      PingMsg msg;
      if (!decode(frame.payload, msg)) break;
      encode(scratch_, PongMsg{msg.nonce});
      send(conn);
      return;
    }
    case MsgType::kPong:
      // Heartbeat reply; lastActivity was already refreshed on receipt.
      if (frame.payload.size() != 8) break;
      return;
    case MsgType::kRequest: {
      // Daemon-side RTT: decode through the REQ_ACK hitting send(2) (or
      // the coalescing buffer) — the share of client-observed latency the
      // daemon is accountable for.
      const metrics::Stopwatch rtt;
      trace::Span span("request");
      RequestMsg msg;
      if (!decode(frame.payload, msg) || conn.session == nullptr) break;
      // Semantic validation the in-process caller contract promises the
      // Server (which asserts it): reject bad specs with an invalid-id
      // ack instead of feeding them through.
      RequestId id{};
      if (msg.spec.nodes > 0 && msg.spec.duration > 0 &&
          server_.machine().nodesOn(msg.spec.cluster) > 0) {
        id = conn.session->request(msg.spec, msg.cookie);
      } else {
        COORM_LOG(LogLevel::kWarn, "net")
            << conn.peerName << ": invalid request spec rejected";
      }
      encode(scratch_, RequestAckMsg{msg.cookie, id});
      send(conn);
      metrics::record(metrics::Histo::kRequestRttUs, rtt.elapsedMicros());
      return;
    }
    case MsgType::kDone: {
      DoneMsg msg;
      if (!decode(frame.payload, msg) || conn.session == nullptr) break;
      conn.session->done(msg.id, std::move(msg.released));
      return;
    }
    case MsgType::kViewsAck: {
      ViewsAckMsg msg;
      if (!decode(frame.payload, msg) || conn.session == nullptr) break;
      if (msg.status == ViewsAckMsg::Status::kApplied) {
        // Only an ack of the *latest* push counts: it proves the client
        // holds exactly sent{Np,P}, the base the next delta diffs
        // against. A stale ack (raced by a newer push) proves nothing.
        if (msg.seq == conn.viewSeq) {
          conn.ackedSeq = msg.seq;
          conn.ackedValid = true;
        }
        return;
      }
      // Resync request: the client lost the delta stream (gap, unknown
      // cluster, malformed window). Restate the latest views as a full
      // sync point; harmless if several resyncs race.
      metrics::increment(metrics::Event::kViewsResync);
      conn.ackedValid = false;
      if (conn.sentValid) {
        encodeViewsFull(scratch_, ++conn.viewSeq, conn.sentNp, conn.sentP);
        send(conn);
      }
      return;
    }
    case MsgType::kGoodbye: {
      // Legal with or without a session: admin peers (stats queries) say
      // goodbye too. teardown() handles the session-less case.
      if (!frame.payload.empty()) break;
      conn.clean = true;   // deliberate departure: disconnect, never detach
      teardown(conn);
      return;
    }
    case MsgType::kStats: {
      // Admin query: allowed with or without an established session, so
      // operators can poll a daemon without joining as an application.
      if (!frame.payload.empty()) break;
      encode(scratch_, StatsReplyMsg{server_.metricsSnapshot()});
      send(conn);
      return;
    }
    default:
      break;  // downstream types from a client are protocol violations
  }
  COORM_LOG(LogLevel::kWarn, "net")
      << "bad " << net::toString(frame.type) << " frame from "
      << conn.peerName << "; dropping peer";
  metrics::increment(metrics::Event::kDeadPeerDrops);
  teardown(conn);
}

void Daemon::pushViews(Connection& conn, const View& nonPreemptive,
                       const View& preemptive) {
  // Delta only against a base the client provably holds: the latest push,
  // acked. Anything else (first push, unacked pipeline, post-resync,
  // changed cluster set) ships as a full sync point.
  const bool delta = conn.sentValid && conn.ackedValid &&
                     buildDeltas(conn.sentNp, nonPreemptive, npDeltas_) &&
                     buildDeltas(conn.sentP, preemptive, pDeltas_);
  const std::uint32_t seq = ++conn.viewSeq;
  if (delta) {
    const std::size_t before = scratch_.size();
    encodeViewsDelta(scratch_, seq, conn.ackedSeq, npDeltas_, pDeltas_);
    metrics::increment(metrics::Event::kViewsDeltaSent);
    const std::size_t fullBytes = kHeaderSize + 4 + 1 +
                                  viewWireSize(nonPreemptive) +
                                  viewWireSize(preemptive);
    const std::size_t deltaBytes = scratch_.size() - before;
    if (deltaBytes < fullBytes) {
      metrics::increment(metrics::Event::kViewsDeltaBytesSaved,
                         fullBytes - deltaBytes);
    }
  } else {
    encodeViewsFull(scratch_, seq, nonPreemptive, preemptive);
  }
  send(conn);
  conn.sentNp = nonPreemptive;
  conn.sentP = preemptive;
  conn.sentValid = true;
  // The new push is now the latest; any earlier ack no longer names it.
  conn.ackedValid = false;
}

void Daemon::send(Connection& conn) {
  // The encode() overloads appended one frame to scratch_; move it into
  // the connection's buffer.
  ++framesOut_;
  const bool hadPending = conn.outboundPos < conn.outbound.size();
  if (conn.outbound.empty()) {
    conn.outbound.swap(scratch_);
  } else {
    conn.outbound.insert(conn.outbound.end(), scratch_.begin(),
                         scratch_.end());
  }
  scratch_.clear();
  if (hadPending) metrics::increment(metrics::Event::kFramesCoalesced);

  // Coalescing: instead of one send(2) per frame, batch every frame
  // queued during this loop turn (all notifications of one pass commit
  // arrive back-to-back) and flush once from a zero-delay event — it is
  // dispatched by the same runOne() that delivered the inputs, so no
  // extra wakeup and no added latency. The high-water mark bounds how
  // much a burst can buffer before the kernel gets a look at it.
  if (conn.outbound.size() - conn.outboundPos >= config_.flushHighWater) {
    flush(conn);
    return;
  }
  if (!conn.flushArmed) {
    conn.flushArmed = true;
    Connection* raw = &conn;
    conn.flushEvent = executor_.after(0, [this, raw] {
      raw->flushArmed = false;
      if (!raw->dead) flush(*raw);
    });
  }
}

void Daemon::flush(Connection& conn) {
  trace::Span span("flush");
  while (conn.outboundPos < conn.outbound.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.outbound.data() + conn.outboundPos,
               conn.outbound.size() - conn.outboundPos, MSG_NOSIGNAL);
    if (n > 0) {
      metrics::record(metrics::Histo::kWriteBatchBytes,
                      static_cast<std::uint64_t>(n));
      conn.outboundPos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    metrics::increment(metrics::Event::kDeadPeerDrops);
    teardown(conn);  // broken pipe etc.
    return;
  }

  if (conn.outboundPos == conn.outbound.size()) {
    conn.outbound.clear();
    conn.outboundPos = 0;
    if (conn.writable) {
      conn.writable = false;
      executor_.updateEvents(conn.fd.get(), IoExecutor::kReadable);
    }
    if (conn.closeWhenFlushed) teardown(conn);
    return;
  }

  // Backpressure: keep at most the configured amount in flight; a peer
  // that lets the buffer grow past the cap is dead for our purposes.
  if (conn.outbound.size() - conn.outboundPos > config_.maxOutboundBytes) {
    COORM_LOG(LogLevel::kWarn, "net")
        << conn.peerName << ": outbound buffer over "
        << config_.maxOutboundBytes << " bytes; dropping peer";
    metrics::increment(metrics::Event::kDeadPeerDrops);
    teardown(conn);
    return;
  }
  if (!conn.writable) {
    conn.writable = true;
    metrics::increment(metrics::Event::kBackpressureStalls);
    executor_.updateEvents(conn.fd.get(),
                           IoExecutor::kReadable | IoExecutor::kWritable);
  }
}

void Daemon::teardown(Connection& conn) {
  if (conn.dead) return;
  conn.dead = true;
  Executor::cancel(conn.flushEvent);
  conn.flushArmed = false;
  executor_.unwatch(conn.fd.get());
  conn.fd.reset();
  // Map the dead peer to the protocol-level departure. With a resume
  // window configured, a *vanished* peer only detaches its session (a
  // RESUME inside the window re-attaches; the reaper disconnects it
  // otherwise); a deliberate GOODBYE always disconnects for real. Both
  // are no-ops on an already killed/disconnected session.
  if (conn.session != nullptr) {
    if (config_.resumeGrace > 0 && !conn.clean) {
      server_.detachEndpoint(conn.session->app());
    } else {
      conn.session->disconnect();
    }
  }
  // Destroy the Connection *behind* any endpoint notifications already
  // queued on the executor: they were scheduled earlier at this same
  // timestamp, so they dispatch first (and no new ones follow — the
  // session is disconnected, and `dead` guards the object meanwhile).
  Connection* raw = &conn;
  conn.destroyEvent = executor_.after(0, [this, raw] { destroy(raw); });
}

void Daemon::armIdleSweep() {
  const Time period = std::max<Time>(config_.idleDeadline / 2, 1);
  idleSweep_ = executor_.after(period, [this] {
    const Time now = executor_.now();
    for (auto& conn : connections_) {
      if (conn->dead) continue;
      const Time idle = now - conn->lastActivity;
      if (idle >= config_.idleDeadline) {
        COORM_LOG(LogLevel::kWarn, "net")
            << conn->peerName << ": idle for " << idle
            << " ms; dropping peer";
        metrics::increment(metrics::Event::kIdlePeerDrops);
        teardown(*conn);
      } else if (idle >= config_.idleDeadline / 2) {
        encode(scratch_, PingMsg{++pingNonce_});
        send(*conn);
      }
    }
    armIdleSweep();
  });
}

void Daemon::armResumeReaper() {
  const Time period = std::max<Time>(config_.resumeGrace / 2, 1);
  resumeReaper_ = executor_.after(period, [this] {
    server_.dropUnresumedBefore(executor_.now() - config_.resumeGrace);
    armResumeReaper();
  });
}

void Daemon::destroy(Connection* conn) {
  const auto it = std::find_if(
      connections_.begin(), connections_.end(),
      [conn](const std::unique_ptr<Connection>& c) { return c.get() == conn; });
  if (it != connections_.end()) connections_.erase(it);
}

}  // namespace coorm::net
