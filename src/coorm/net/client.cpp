#include "coorm/net/client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "coorm/common/check.hpp"
#include "coorm/common/log.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/profile/profile_diff.hpp"

namespace coorm::net {

namespace {

/// Writes one whole pre-encoded frame to `fd` (blocking-ish, bounded by
/// `deadline`). Used by the resume handshake, which must not touch the
/// client's scratch_ buffer — a resume can fire from inside sendFrame()
/// while scratch_ still holds the frame being retried.
bool sendAll(int fd, const std::vector<std::uint8_t>& bytes,
             Executor& executor, Time deadline) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + pos, bytes.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (executor.now() > deadline) return false;
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

/// Splices one delta list onto `view`. False — the caller must resync, the
/// view may be part-updated — when a delta names a cluster the view lacks
/// (capRef would silently materialize a zero base and splice onto *that*).
bool applyDeltas(View& view, const std::vector<ClusterDelta>& deltas) {
  const std::vector<ClusterId> have = view.clusters();  // sorted
  for (const ClusterDelta& d : deltas) {
    if (!std::binary_search(have.begin(), have.end(), d.cluster)) return false;
    spliceWindow(view.capRef(d.cluster), d.lo, d.hi, d.window);
  }
  return true;
}

}  // namespace

RmsClient::RmsClient(IoExecutor& executor, Config config)
    : executor_(executor), config_(std::move(config)) {}

RmsClient::~RmsClient() {
  Executor::cancel(drainEvent_);
  if (fd_.valid()) {
    executor_.unwatch(fd_.get());
    fd_.reset();
  }
}

void RmsClient::connect(AppEndpoint& endpoint) {
  COORM_CHECK(!fd_.valid());
  endpoint_ = &endpoint;
  const int attempts = std::max(config_.connectAttempts, 1);
  std::string error = "no connect attempts";
  bool sawTimeout = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ::poll(nullptr, 0, static_cast<int>(backoffDelay(attempt - 1)));
    }
    // Clean slate for this try: an earlier one may have died mid-handshake
    // (chaos: a daemon can be killed between accept and WELCOME).
    dead_ = false;
    killedQueued_ = false;
    pending_.clear();
    inbound_ = FrameBuffer{};
    app_ = AppId{};
    token_ = 0;
    curNp_ = View{};
    curP_ = View{};
    viewsSeq_ = 0;
    viewsSynced_ = false;

    fd_ = connectTo(config_.server, error);
    if (!fd_.valid()) continue;

    encode(scratch_, HelloMsg{config_.name});
    sendFrame();
    if (!fd_.valid() || dead_) {
      error = "connection lost during handshake";
      continue;
    }

    timedOut_ = false;
    // The WELCOME is intercepted in handleFrame via app_ becoming valid.
    if (pumpUntil([&] { return app_.valid(); })) {
      executor_.watch(fd_.get(), IoExecutor::kReadable,
                      [this](short events) { onIo(events); });
      return;
    }
    sawTimeout = timedOut_;
    error = timedOut_ ? "handshake timed out"
                      : "connection lost during handshake";
    fd_.reset();
    pending_.clear();  // no spurious onKilled for a connection that never was
  }
  // Never connected: leave the client reusable (not "killed") and report.
  dead_ = false;
  killedQueued_ = false;
  pending_.clear();
  if (sawTimeout) {
    throw TimeoutError("RmsClient: handshake with " +
                       net::toString(config_.server) + " timed out");
  }
  throw std::runtime_error("RmsClient: cannot connect to " +
                           net::toString(config_.server) + ": " + error);
}

void RmsClient::dial() {
  COORM_CHECK(!fd_.valid());
  const int attempts = std::max(config_.connectAttempts, 1);
  std::string error = "no connect attempts";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ::poll(nullptr, 0, static_cast<int>(backoffDelay(attempt - 1)));
    }
    fd_ = connectTo(config_.server, error);
    if (fd_.valid()) return;
  }
  throw std::runtime_error("RmsClient: cannot connect to " +
                           net::toString(config_.server) + ": " + error);
}

RequestId RmsClient::request(const RequestSpec& spec) {
  if (!fd_.valid() || dead_) return RequestId{};
  trace::Span span("request_rtt");
  RequestMsg msg;
  msg.cookie = nextCookie_++;
  msg.spec = spec;
  // Stash the awaited cookie + spec *before* sending: a resume triggered
  // anywhere below replays exactly this REQUEST, and the server dedups by
  // cookie if the original did land.
  awaitingCookie_ = msg.cookie;
  pendingSpec_ = spec;
  ackReceived_ = false;
  ackId_ = RequestId{};
  encode(scratch_, msg);
  sendFrame();
  if (dead_) {
    awaitingCookie_ = 0;
    return RequestId{};
  }

  // Pump this socket until the matching ack: the remote stand-in for the
  // in-process request()'s synchronous return. Downstream frames arriving
  // first queue up for ordinary (executor-dispatched) delivery.
  timedOut_ = false;
  const bool acked = pumpUntil([&] { return ackReceived_; });
  awaitingCookie_ = 0;
  if (acked) {
    ++requestsSent_;
    return ackId_;
  }
  if (timedOut_) {
    throw TimeoutError("RmsClient::request: no REQ_ACK within rpcTimeout");
  }
  return RequestId{};
}

std::optional<metrics::Snapshot> RmsClient::stats() {
  if (!fd_.valid() || dead_) return std::nullopt;
  encode(scratch_, StatsMsg{});
  sendFrame();
  if (dead_) return std::nullopt;

  awaitingStats_ = true;
  statsReceived_ = false;
  timedOut_ = false;
  pumpUntil([&] { return statsReceived_; });
  awaitingStats_ = false;
  if (statsReceived_) return statsReply_;
  if (timedOut_) {
    throw TimeoutError("RmsClient::stats: no STATS_REPLY within rpcTimeout");
  }
  return std::nullopt;
}

void RmsClient::done(RequestId id, std::vector<NodeId> released) {
  if (!fd_.valid() || dead_) return;
  DoneMsg msg;
  msg.id = id;
  msg.released = std::move(released);
  encode(scratch_, msg);
  sendFrame();
}

void RmsClient::disconnect() {
  if (!fd_.valid() || dead_) return;
  encode(scratch_, GoodbyeMsg{});
  sendFrame();
  executor_.unwatch(fd_.get());
  fd_.reset();
}

void RmsClient::onIo(short events) {
  if ((events & IoExecutor::kError) != 0) {
    onConnectionLost();
    // A resume hands over the frames that rode in behind its ack.
    if (fd_.valid() && !dead_) parseBuffered();
    return;
  }
  if ((events & IoExecutor::kReadable) != 0) readFrames();
}

bool RmsClient::readFrames() {
  if (!fd_.valid()) return false;
  // Parse frames that rode in with an EOF/reset before declaring the
  // connection dead: trailing deliveries must still reach the endpoint.
  const DrainStatus status = drainReadable(fd_.get(), inbound_);
  if (!parseBuffered()) return false;
  if (status != DrainStatus::kOk) {
    // The peer vanished; a resume (policy permitting) revives fd_ and hands
    // over the frames that rode in behind its ack. Parse them now: no
    // readable event is due for bytes already read.
    onConnectionLost();
    return fd_.valid() && !dead_ && parseBuffered();
  }
  return true;
}

bool RmsClient::parseBuffered() {
  FrameView frame;
  while (fd_.valid()) {
    switch (inbound_.next(frame)) {
      case FrameBuffer::Next::kFrame:
        handleFrame(frame);
        continue;
      case FrameBuffer::Next::kNeedMore:
        return true;
      case FrameBuffer::Next::kBad:
        COORM_LOG(LogLevel::kWarn, "net") << "protocol error from server";
        markDead();
        return false;
    }
  }
  return fd_.valid();
}

void RmsClient::handleFrame(const FrameView& frame) {
  switch (frame.type) {
    case MsgType::kWelcome: {
      WelcomeMsg msg;
      if (decode(frame.payload, msg)) {
        app_ = msg.app;
        token_ = msg.token;  // the RESUME credential
        return;
      }
      break;
    }
    case MsgType::kRequestAck: {
      RequestAckMsg msg;
      if (!decode(frame.payload, msg)) break;
      if (msg.cookie == awaitingCookie_ && awaitingCookie_ != 0) {
        ackReceived_ = true;
        ackId_ = msg.id;
      }
      // Unmatched acks (e.g. after a timed-out wait) are dropped.
      return;
    }
    case MsgType::kViewsDelta: {
      ViewsDeltaMsg msg;
      if (!decode(frame.payload, msg)) {
        // A malformed push is recoverable as long as its sequence number
        // is readable: nack it and the daemon restates a full sync point.
        // Without even a seq there is nothing to ack — protocol error.
        if (frame.payload.size() < 4) break;
        viewsSynced_ = false;
        encode(scratch_, ViewsAckMsg{Reader(frame.payload).u32(),
                                     ViewsAckMsg::Status::kResync});
        sendFrame();
        return;
      }
      if (msg.full) {
        curNp_ = std::move(msg.nonPreemptive);
        curP_ = std::move(msg.preemptive);
      } else if (!viewsSynced_ || msg.baseSeq != viewsSeq_ ||
                 !applyDeltas(curNp_, msg.nonPreemptiveDeltas) ||
                 !applyDeltas(curP_, msg.preemptiveDeltas)) {
        // Sequence gap or unknown cluster: drop the push (the full sync
        // point answering the nack carries the current views) and desync
        // so later deltas against bases we never applied are refused too.
        viewsSynced_ = false;
        encode(scratch_, ViewsAckMsg{msg.seq, ViewsAckMsg::Status::kResync});
        sendFrame();
        return;
      }
      viewsSeq_ = msg.seq;
      viewsSynced_ = true;
      encode(scratch_, ViewsAckMsg{msg.seq, ViewsAckMsg::Status::kApplied});
      sendFrame();
      if (dead_ || !fd_.valid()) return;  // the ack send may have killed us
      ViewsMsg views;
      views.nonPreemptive = curNp_;
      views.preemptive = curP_;
      pending_.push_back(std::move(views));
      armDrain();
      return;
    }
    case MsgType::kStarted: {
      StartedMsg msg;
      if (!decode(frame.payload, msg)) break;
      if (alreadyDelivered(msg.id, 1)) return;  // resume re-announcement
      pending_.push_back(std::move(msg));
      armDrain();
      return;
    }
    case MsgType::kExpired: {
      ExpiredMsg msg;
      if (!decode(frame.payload, msg)) break;
      if (alreadyDelivered(msg.id, 2)) return;  // resume re-announcement
      pending_.push_back(msg);
      armDrain();
      return;
    }
    case MsgType::kEnded: {
      EndedMsg msg;
      if (!decode(frame.payload, msg)) break;
      if (alreadyDelivered(msg.id, 4)) return;  // resume re-announcement
      pending_.push_back(msg);
      armDrain();
      return;
    }
    case MsgType::kPing: {
      PingMsg msg;
      if (!decode(frame.payload, msg)) break;
      encode(scratch_, PongMsg{msg.nonce});
      sendFrame();
      return;
    }
    case MsgType::kResumeAck: {
      // Post-commit duplicates (a late ack after a timed-out resume wait)
      // carry no state the client still wants; drop them.
      ResumeAckMsg msg;
      if (!decode(frame.payload, msg)) break;
      return;
    }
    case MsgType::kStatsReply: {
      StatsReplyMsg msg;
      if (!decode(frame.payload, msg)) break;
      if (awaitingStats_) {
        statsReceived_ = true;
        statsReply_ = msg.stats;
      }
      // Unsolicited replies (e.g. after a timed-out stats()) are dropped.
      return;
    }
    case MsgType::kKilled: {
      if (!frame.payload.empty()) break;
      if (!killedQueued_) {
        killedQueued_ = true;
        pending_.push_back(KilledMsg{});
        armDrain();
      }
      return;
    }
    default:
      break;  // upstream types from a server are protocol violations
  }
  COORM_LOG(LogLevel::kWarn, "net")
      << "bad " << net::toString(frame.type) << " frame from server";
  markDead();
}

void RmsClient::armDrain() {
  if (drainArmed_) return;
  drainArmed_ = true;
  drainEvent_ = executor_.after(0, [this] { drain(); });
}

void RmsClient::drain() {
  drainArmed_ = false;
  // Callbacks may trigger further (blocking) calls on this client, which
  // enqueue more events: keep popping until empty so FIFO order holds.
  while (!pending_.empty()) {
    DownMsg msg = std::move(pending_.front());
    pending_.pop_front();
    if (auto* views = std::get_if<ViewsMsg>(&msg)) {
      endpoint_->onViews(views->nonPreemptive, views->preemptive);
    } else if (auto* started = std::get_if<StartedMsg>(&msg)) {
      endpoint_->onStarted(started->id, started->nodeIds);
    } else if (auto* expired = std::get_if<ExpiredMsg>(&msg)) {
      endpoint_->onExpired(expired->id);
    } else if (auto* ended = std::get_if<EndedMsg>(&msg)) {
      endpoint_->onEnded(ended->id);
    } else {
      dead_ = true;  // KilledMsg: the session is gone
      endpoint_->onKilled();
    }
  }
}

void RmsClient::sendFrame() {
  std::size_t pos = 0;
  const Time deadline = executor_.now() + config_.rpcTimeout;
  while (pos < scratch_.size() && fd_.valid()) {
    const ssize_t n = ::send(fd_.get(), scratch_.data() + pos,
                             scratch_.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // A client's outbound frames are small; block (bounded) until the
      // kernel buffer drains rather than growing an outbound queue.
      if (executor_.now() > deadline) {
        markDead();
        break;
      }
      pollfd p{fd_.get(), POLLOUT, 0};
      poll(&p, 1, 100);
      continue;
    }
    // Connection loss mid-frame: resume (policy permitting) and re-send
    // the whole frame — the dead daemon never acted on the partial bytes,
    // and the server dedups a REQUEST the resume itself already replayed.
    onConnectionLost();
    if (fd_.valid() && !dead_) {
      pos = 0;
      continue;
    }
    break;
  }
  scratch_.clear();
}

template <typename Pred>
bool RmsClient::pumpUntil(Pred pred) {
  const Time deadline = executor_.now() + config_.rpcTimeout;
  while (true) {
    // A resume may have handed over frames it read while waiting for its
    // ack; consume those before (and instead of) blocking in poll.
    if (!parseBuffered()) return pred();
    if (pred()) return true;
    if (!fd_.valid() || dead_) return false;
    if (executor_.now() > deadline) {
      COORM_LOG(LogLevel::kWarn, "net") << "rpc timeout";
      timedOut_ = true;  // the connection stays up; the caller throws
      return false;
    }
    pollfd p{fd_.get(), POLLIN, 0};
    const int rc = poll(&p, 1, 100);
    if (rc > 0 &&
        (p.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0) {
      // On error/hangup: drain whatever arrived first, then resume or die.
      if (!readFrames()) return pred();
    }
  }
}

void RmsClient::markDead() {
  dead_ = true;
  if (fd_.valid()) {
    executor_.unwatch(fd_.get());
    fd_.reset();
  }
  // Death outside an explicit KILLED frame still ends the session from the
  // application's point of view; tell it once, from the executor.
  if (!killedQueued_) {
    killedQueued_ = true;
    pending_.push_back(KilledMsg{});
    armDrain();
  }
}

void RmsClient::onConnectionLost() {
  if (dead_) return;
  if (fd_.valid()) {
    executor_.unwatch(fd_.get());
    fd_.reset();
  }
  if (tryResume()) return;
  markDead();
}

bool RmsClient::tryResume() {
  if (resuming_ || !config_.reconnect || !app_.valid() || token_ == 0 ||
      killedQueued_ || dead_) {
    return false;
  }
  resuming_ = true;
  bool resumed = false;
  const int attempts = std::max(config_.connectAttempts, 1);
  for (int attempt = 0; attempt < attempts && !resumed; ++attempt) {
    if (attempt > 0) {
      ::poll(nullptr, 0, static_cast<int>(backoffDelay(attempt - 1)));
    }
    std::string error;
    Fd fd = connectTo(config_.server, error);
    if (!fd.valid()) continue;

    // RESUME handshake on the candidate socket; commit nothing until the
    // ack says the session is still ours.
    std::vector<std::uint8_t> buf;
    encode(buf, ResumeMsg{app_, token_});
    if (!sendAll(fd.get(), buf, executor_,
                 executor_.now() + config_.rpcTimeout)) {
      continue;
    }
    FrameBuffer fb;
    FrameView frame;
    const Time deadline = executor_.now() + config_.rpcTimeout;
    bool got = false;
    bool ok = false;
    bool broken = false;
    while (!got && !broken && executor_.now() <= deadline) {
      pollfd p{fd.get(), POLLIN, 0};
      const int rc = ::poll(&p, 1, 100);
      if (rc <= 0) continue;
      const DrainStatus status = drainReadable(fd.get(), fb);
      while (!got && !broken) {
        const FrameBuffer::Next next = fb.next(frame);
        if (next == FrameBuffer::Next::kNeedMore) break;
        if (next == FrameBuffer::Next::kBad) {
          broken = true;
          break;
        }
        if (frame.type == MsgType::kResumeAck) {
          ResumeAckMsg msg;
          if (decode(frame.payload, msg)) {
            got = true;
            ok = msg.ok;
          } else {
            broken = true;
          }
        }
        // Anything before the ack is unexpected; skip it.
      }
      if (!got && status != DrainStatus::kOk) broken = true;
    }
    if (!got) continue;
    if (!ok) break;  // the session is gone for real: retrying cannot help

    // Commit: install the socket (with any frames that rode in behind the
    // ack — pumpUntil/readFrames parse them), rewatch, replay the REQUEST
    // still awaiting its ack.
    fd_ = std::move(fd);
    inbound_ = std::move(fb);
    executor_.watch(fd_.get(), IoExecutor::kReadable,
                    [this](short events) { onIo(events); });
    if (awaitingCookie_ != 0 && !ackReceived_) {
      RequestMsg msg;
      msg.cookie = awaitingCookie_;
      msg.spec = pendingSpec_;
      buf.clear();
      encode(buf, msg);
      if (!sendAll(fd_.get(), buf, executor_,
                   executor_.now() + config_.rpcTimeout)) {
        executor_.unwatch(fd_.get());
        fd_.reset();
        continue;  // the new connection died instantly; keep trying
      }
    }
    ++reconnects_;
    resumed = true;
    COORM_LOG(LogLevel::kInfo, "net")
        << config_.name << ": session resumed after "
        << (attempt + 1) << " attempt(s)";
  }
  resuming_ = false;
  return resumed;
}

Time RmsClient::backoffDelay(int attempt) const {
  Time d = std::max<Time>(config_.backoffBase, 1);
  const Time cap = std::max<Time>(config_.backoffMax, 1);
  for (int i = 0; i < attempt && d < cap; ++i) d = satAdd(d, d);
  d = std::min(d, cap);
  // Deterministic jitter (hash of name + attempt) lands the delay in
  // [d/2, d]: a herd of clients killed together redials desynchronised
  // without this code needing a PRNG.
  std::uint64_t h = std::hash<std::string>{}(config_.name) +
                    0x9E3779B97F4A7C15ull *
                        (static_cast<std::uint64_t>(attempt) + 1);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return d / 2 + static_cast<Time>(h % static_cast<std::uint64_t>(d / 2 + 1));
}

bool RmsClient::alreadyDelivered(RequestId id, std::uint8_t kindBit) {
  constexpr std::size_t kCap = 4096;
  auto [it, fresh] = delivered_.try_emplace(id.value, std::uint8_t{0});
  if (fresh) {
    deliveredOrder_.push_back(id.value);
    if (deliveredOrder_.size() > kCap) {
      delivered_.erase(deliveredOrder_.front());
      deliveredOrder_.pop_front();
    }
  }
  if ((it->second & kindBit) != 0) return true;
  it->second = static_cast<std::uint8_t>(it->second | kindBit);
  return false;
}

}  // namespace coorm::net
