// The network front-end of the RMS: session multiplexing over TCP.
//
// A Daemon owns a listening socket on an IoExecutor loop and adapts each
// accepted connection to the in-process protocol seam:
//  - upstream frames decode into the exact calls an in-process application
//    would make (HELLO -> Server::connect, REQUEST -> Session::request +
//    a REQ_ACK carrying the returned id, DONE -> Session::done,
//    GOODBYE -> Session::disconnect);
//  - each connection *is* an AppEndpoint: the server's downstream
//    notifications (views/started/expired/ended/killed) encode into the
//    connection's outbound buffer in delivery order;
//  - partial reads reassemble through FrameBuffer; writes coalesce per
//    session (every frame of one pass commit batches into a single flush,
//    armed as a zero-delay loop event) and fall back to POLLOUT-driven
//    draining under backpressure, with a hard cap that declares a
//    non-draining peer dead;
//  - view pushes ship as sequenced VIEWS_DELTA frames: once the client
//    acks a push, the next one carries only per-cluster splice windows
//    against that acked base (profile/profile_diff.hpp); any nack, gap or
//    unacked pipeline falls back to a full sequenced push;
//  - a dead peer (EOF, socket error, protocol violation, cap overflow)
//    maps to Session::disconnect(), exactly as if the application had
//    left — the RMS-side cleanup path is the same code either way.
//
// Lifetime: the Daemon must be destroyed (or close()d) before the Server,
// and the executor must not dispatch further events after the Daemon and
// Server are gone (both post loop events that reference them).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coorm/net/io_executor.hpp"
#include "coorm/net/socket.hpp"
#include "coorm/net/wire.hpp"
#include "coorm/rms/server.hpp"

namespace coorm::net {

class Daemon {
 public:
  struct Config {
    Endpoint listen{};  ///< port 0 picks an ephemeral port
    /// Idle sweep: a connection silent for this long is dropped
    /// (idle_peer_drops); one silent for half of it is PINGed first, so a
    /// live-but-quiet peer only has to PONG. 0 disables the sweep.
    Time idleDeadline = 0;
    /// Reconnect window: when > 0, a vanished peer *detaches* its session
    /// (Server::detachEndpoint) instead of disconnecting it, and a RESUME
    /// within this window re-attaches; sessions detached longer are
    /// reaped. 0 restores the strict PR 5 behaviour (dead peer ==
    /// disconnect) — half-open clients then cannot resume.
    Time resumeGrace = 0;
  };

  /// Binds and starts accepting. Throws std::runtime_error if the listen
  /// socket cannot be set up.
  Daemon(IoExecutor& executor, Server& server, Config config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The actually-bound port (resolves an ephemeral-port listen).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Live (accepted, not yet torn down) connections.
  [[nodiscard]] std::size_t connectionCount() const;

  /// Frames decoded from / written to peers so far (introspection).
  [[nodiscard]] std::uint64_t framesIn() const { return framesIn_; }
  [[nodiscard]] std::uint64_t framesOut() const { return framesOut_; }

  /// Stops accepting and tears down every connection now (sessions
  /// disconnect). Safe to call from inside a loop callback: the torn-down
  /// Connection objects stay alive (as tombstones) until the Daemon is
  /// destroyed, so endpoint notifications already queued on the executor
  /// still land on guarded objects. Idempotent; the destructor calls it.
  void close();

 private:
  struct Connection;

  void onAcceptable();
  void onConnectionIo(Connection& conn, short events);
  void handleFrame(Connection& conn, const FrameView& frame);
  /// Repeating timers: PING/drop silent peers, reap never-resumed
  /// sessions. Re-armed from their own callbacks; cancelled by close().
  void armIdleSweep();
  void armResumeReaper();
  /// One view push: a splice-window delta when the client has acked the
  /// previous push (and cluster sets match), a full sequenced push
  /// otherwise.
  void pushViews(Connection& conn, const View& nonPreemptive,
                 const View& preemptive);
  /// Appends an encoded frame to the connection's outbound buffer;
  /// flushes now (past the high-water mark) or arms the
  /// one-per-loop-turn flush event.
  void send(Connection& conn);
  void flush(Connection& conn);
  /// Declares the peer gone: disconnects the session, closes the socket
  /// and schedules the Connection object's destruction behind any
  /// endpoint events already queued on the executor.
  void teardown(Connection& conn);
  void destroy(Connection* conn);

  IoExecutor& executor_;
  Server& server_;
  Config config_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<std::uint8_t> scratch_;  ///< frame encode buffer (reused)
  std::vector<ClusterDelta> npDeltas_;  ///< per-push scratch (reused)
  std::vector<ClusterDelta> pDeltas_;
  std::uint64_t framesIn_ = 0;
  std::uint64_t framesOut_ = 0;
  std::uint64_t pingNonce_ = 0;
  EventHandle idleSweep_;
  EventHandle resumeReaper_;
  bool closed_ = false;
};

}  // namespace coorm::net
