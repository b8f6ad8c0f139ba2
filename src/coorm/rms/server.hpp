// The CooRMv2 RMS server: sessions, the request/done protocol, view pushes,
// start notifications, node-ID management and protocol enforcement
// (paper §3.2, §3.3 and Appendix A.5).
//
// The server wraps the pure Scheduler with everything stateful:
//  - applications connect() and obtain a Session through which they submit
//    request() and done() messages;
//  - a scheduling pass runs at most once per re-scheduling interval
//    (administrator parameter, §3.2), coalescing bursts of messages;
//  - each pass runs inline, inside its timer event, on the executor's
//    thread: it reclaims ended requests, runs the pure scheduling
//    computation on the live request sets (which writes each request's
//    schedule in place) and commits — stashes and pushes views, starts due
//    requests and checks violations — before the executor dispatches
//    anything else; see README "Scheduling passes";
//  - when a request's computed start time arrives and enough node IDs are
//    free, the request starts and the application is notified (startNotify);
//    otherwise it stays pending until other applications release nodes
//    (Appendix A.5, "nodeIDs" discussion). The start step runs at each pass
//    commit and again on every release (DONE, disconnect, kill, the expiry
//    of an explicit pre-allocation), so a start a pass already decided does
//    not wait for the next pass;
//  - NEXT-chained requests inherit node IDs across the transition: a grown
//    request receives additional IDs, a shrunk one returns the IDs the
//    application chose to release (§3.1.2);
//  - new views are pushed to an application whenever they change (§3.1.4);
//  - an application that holds more preemptible nodes than its preemptive
//    view allows past a grace period is killed (§3.1.4).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coorm/common/executor.hpp"
#include "coorm/common/ids.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/time.hpp"
#include "coorm/profile/view.hpp"
#include "coorm/rms/app_link.hpp"
#include "coorm/rms/machine.hpp"
#include "coorm/rms/node_pool.hpp"
#include "coorm/rms/request_set.hpp"
#include "coorm/rms/scheduler.hpp"
#include "coorm/sim/trace.hpp"

namespace coorm {

namespace rms {
class Journal;
enum class RecordType : std::uint8_t;
}  // namespace rms

/// Callbacks the RMS delivers to an application. All notifications are
/// posted as zero-delay events on the server's executor, so application
/// code never runs inside the scheduling pass.
class AppEndpoint {
 public:
  virtual ~AppEndpoint() = default;

  /// New non-preemptive and preemptive views (paper steps 2/12 of Fig. 8).
  virtual void onViews(const View& nonPreemptive, const View& preemptive) {
    (void)nonPreemptive;
    (void)preemptive;
  }

  /// The request started; `nodeIds` is the complete set now attached to it
  /// (startNotify).
  virtual void onStarted(RequestId id, const std::vector<NodeId>& nodeIds) {
    (void)id;
    (void)nodeIds;
  }

  /// The request reached the end of its duration and has a NEXT successor
  /// that needs fewer nodes: the application must call done(id, released)
  /// choosing which node IDs to give back. Failing to answer within the
  /// violation grace period kills the application.
  virtual void onExpired(RequestId id) { (void)id; }

  /// The request is over (done processed, natural end, or cancellation).
  virtual void onEnded(RequestId id) { (void)id; }

  /// The RMS terminated the session (protocol violation).
  virtual void onKilled() {}
};

class Session;

/// Observer of node-ID allocation changes, used by the experiment harness
/// to integrate per-application resource areas.
class AllocationObserver {
 public:
  virtual ~AllocationObserver() = default;
  /// `delta` nodes were granted (positive) or released (negative).
  virtual void onAllocationChanged(AppId app, ClusterId cluster,
                                   NodeCount delta, RequestType type,
                                   Time at) = 0;
  virtual void onAppKilled(AppId app, Time at) { (void)app, (void)at; }
};

class Server {
 public:
  struct Config {
    /// Minimum spacing between scheduling passes (paper: 1 s, §5.1.3).
    Time reschedInterval = sec(1);
    /// How long an application may hold preemptible nodes beyond what its
    /// preemptive view allows before being killed.
    Time violationGrace = sec(5);
    /// Strict equi-partitioning (Fig. 11 baseline) instead of filling.
    bool strictEquiPartition = false;
    /// Incremental scheduling passes (Scheduler::Config::incremental):
    /// lease-clean applications (mutation epoch unchanged since the
    /// previous pass, every request started) are served from the
    /// scheduler's cache instead of being re-derived each pass; every pass
    /// still publishes, and the server stashes, both views of every
    /// application. Bit-identical either way; `false` is the full-recompute
    /// reference the differential suites compare with.
    bool incremental = true;
    /// Log a structured one-line phase breakdown for any pass whose wall
    /// time reaches this (milliseconds; 0 = never). Outlier forensics —
    /// `--slow-pass-ms` on the tools.
    Time slowPass = 0;
  };

  Server(Executor& executor, Machine machine);  // default config
  Server(Executor& executor, Machine machine, Config config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Connect an application. The endpoint must outlive the session.
  /// `name` is a diagnostic label (the wire HELLO name) kept with the
  /// session and journaled.
  Session* connect(AppEndpoint& endpoint, std::string name = {});

  // --- crash safety & reconnect (rms/journal.hpp, net RESUME) -------------

  /// Attach a journal: from here on every durable transition (session
  /// open/close, accepted request, start, end, kill, pass commit) is
  /// appended, with fsync barriers at the reply-gating points. If any
  /// records were previously replayed via restoreFromJournal(), the log is
  /// immediately compacted to the records of the restored live state. Not
  /// owned; pass nullptr to detach.
  void attachJournal(rms::Journal* journal);

  /// Rebuild state from scanned journal records (rms::Journal::scan) —
  /// call on a freshly constructed server, before attachJournal() and
  /// before accepting connections. On success `lastTime` (if non-null)
  /// receives the largest timestamp seen: the caller must advance a
  /// real-time executor to it (IoExecutor::advanceTo) so restored
  /// absolute times stay in the past. Returns false and sets `error` on
  /// any semantically inconsistent record — treat like corruption and
  /// refuse startup. Each record is applied by the same state transition
  /// the live handler ran. Restored sessions have no endpoint until a
  /// RESUME re-attaches one; every delivery flag starts cleared, so a
  /// RESUME re-announces everything the log holds at least once.
  bool restoreFromJournal(
      const std::vector<std::vector<std::uint8_t>>& records, Time* lastTime,
      std::string* error);

  /// Re-attach an endpoint to a surviving (or replayed) session. Validates
  /// the token minted at connect(); returns nullptr (and changes nothing)
  /// on unknown app, token mismatch, or a killed/disconnected session. On
  /// success the latest computed views are pushed and recorded as sent —
  /// passes kept computing them while the session was detached, and
  /// nothing arms a pass at resume — and any start, expiry or end the
  /// client may have missed while detached is re-announced.
  Session* resumeSession(AppId app, std::uint64_t token,
                         AppEndpoint& endpoint);

  /// The session lost its transport but may come back: detach the endpoint
  /// (suppressing notifications) instead of disconnecting. A later
  /// resumeSession() re-attaches; dropUnresumedBefore() reaps it if none
  /// arrives.
  void detachEndpoint(AppId app);

  /// Disconnect every session that has been endpoint-less since `cutoff`
  /// or earlier — the reaper for clients that never resumed.
  void dropUnresumedBefore(Time cutoff);

  /// Token minted for the app at connect() (0 if unknown): the WELCOME
  /// credential a client presents in RESUME.
  [[nodiscard]] std::uint64_t sessionToken(AppId app);

  /// Compact the attached journal now: rewrite it as the records that
  /// rebuild the live state (ops/test hook; pass commits do this
  /// automatically once the journal passes 1 MiB).
  void journalSnapshotNow();

  /// Register an allocation observer (several may be attached; they are
  /// invoked in registration order).
  void addObserver(AllocationObserver* observer) {
    observers_.push_back(observer);
  }
  void setTrace(Trace* trace) { trace_ = trace; }

  [[nodiscard]] const Machine& machine() const { return scheduler_.machine(); }
  [[nodiscard]] const NodePool& pool() const { return pool_; }

  /// Number of scheduling passes run so far (test/bench introspection).
  [[nodiscard]] std::uint64_t passCount() const { return passCount_; }

  /// Snapshot of the process-wide metrics registry (common/metrics.hpp).
  /// The daemon's STATS reply is built from exactly this call, so a remote
  /// query and an in-process read observe the same counters.
  [[nodiscard]] metrics::Snapshot metricsSnapshot() const {
    return metrics::snapshot();
  }

  /// Force a scheduling pass now, bypassing the re-scheduling interval
  /// (used by tests and the throughput benchmark).
  void runSchedulingPassNow();

  /// Look up a request (nullptr if unknown or already reclaimed). Test
  /// helper.
  [[nodiscard]] const Request* findRequest(RequestId id);

 private:
  friend class Session;

  struct SessionState {
    AppId app{};
    /// nullptr while detached: restored from a journal and not yet
    /// resumed, or transport lost and awaiting RESUME. Notifications are
    /// suppressed while detached.
    AppEndpoint* endpoint = nullptr;
    std::uint64_t token = 0;     ///< RESUME credential minted at connect
    std::string name;            ///< diagnostic label (wire HELLO name)
    Time detachedAt = kNever;    ///< when the endpoint went away
    /// Idempotency cookies of accepted requests (bounded, oldest-first
    /// eviction): reconnect-replayed REQUESTs dedup against this.
    std::vector<std::pair<std::uint64_t, RequestId>> cookieCache;
    std::unique_ptr<Session> session;
    std::vector<std::unique_ptr<Request>> owned;
    RequestSet preAllocations;
    RequestSet nonPreemptible;
    RequestSet preemptible;
    /// Most recently computed views, stashed by runPass(). The
    /// non-preemptive one stays the operand pair the pass published and is
    /// evaluated only where it is read: a push to an attached endpoint,
    /// Session::nonPreemptiveView(), a RESUME. A detached session never
    /// evaluates it.
    NonPreemptiveView lastNonPreemptive;
    View lastPreemptive;
    View sentNonPreemptive;   ///< views last pushed to the application
    View sentPreemptive;
    /// The pair sentNonPreemptive's value was last evaluated from: while
    /// lastNonPreemptive is still this pair, its value is already known.
    NonPreemptiveView sentNonPreemptiveFrom;
    bool viewsEverSent = false;
    bool killed = false;
    bool disconnected = false;
    /// Bumped on every mutation of this application's requests or sets
    /// (AppSchedule::epoch). Lets the pass keep the app's SetIndex, and
    /// serve an all-started app from the incremental cache, while nothing
    /// touched it since the previous pass. Starts at 1: 0 is the "unknown,
    /// re-index every pass" sentinel.
    std::uint64_t mutationEpoch = 1;
    EventHandle violationTimer;
    /// Implicit pre-allocation wrapping a given NP request (§3.2).
    std::unordered_map<Request*, Request*> wrapperOf;
  };

  // --- message handlers (called from Session) -----------------------------
  RequestId handleRequest(SessionState& st, const RequestSpec& spec,
                          std::uint64_t cookie = 0);
  void handleDone(SessionState& st, RequestId id,
                  std::vector<NodeId> released);
  void handleDisconnect(SessionState& st);

  // --- scheduling ----------------------------------------------------------
  void requestReschedule();
  /// One scheduling pass, inline: reclaims ended requests, runs the
  /// scheduler on the live request sets, then stashes and pushes views,
  /// starts due requests, checks violations and journals the pass commit.
  /// Logs the Config::slowPass outlier breakdown line.
  void runPass();
  /// The start step: starts, in connection and set order, every unstarted
  /// request a pass scheduled at or before now whose NEXT/COALLOC
  /// constraint holds and whose node IDs are free, all under one stamp.
  /// Journals each start (durable at the caller's fsync) and posts its
  /// STARTED. Returns the number of requests started.
  std::uint64_t startDueRequests();
  bool tryStart(SessionState& st, Request& r, Time now);
  /// The shared tail of the handlers that free node IDs or capacity, or end
  /// a NEXT predecessor (handleDone, handleDisconnect, killApp, and the
  /// expiry of an explicit pre-allocation): the start step, then the fsync
  /// that makes the release and those starts durable, then a pass for
  /// whatever the release changed beyond that.
  void commitRelease();
  /// Pushes the latest views to every attached scheduled session that has
  /// not seen their values yet.
  void pushViews();
  /// Posts the session's latest views to its endpoint and records them as
  /// sent; unless `always`, only when their values differ from the last
  /// push. The non-preemptive pair is evaluated only when it moved since
  /// it was last evaluated for a push. Returns whether it posted.
  bool deliverViews(SessionState& st, bool always);
  void checkViolations();
  /// Whether `st` holds more started preemptible nodes on some cluster than
  /// its last preemptive view allows at `at` (§3.1.4): the test that arms
  /// the violation timer at commit and decides the kill when it fires.
  [[nodiscard]] bool exceedsPreemptiveView(const SessionState& st,
                                           Time at) const;
  /// Pass-start reclamation of ended requests (the lifetime rule in
  /// README "Scheduling passes"): frees every ended request no unstarted
  /// request, live implicit-wrapper pair or unannounced end still needs,
  /// and unlinks the started requests that named one.
  void pruneEnded();

  // --- state transitions ---------------------------------------------------
  // The one implementation of each journaled state change. A live handler
  // decides (fresh ids, the implicit wrap, node IDs to grant or trim,
  // executor_.now()) and calls the transition; journal replay calls it
  // with what the record carries. Transitions never journal, post
  // notifications or arm passes: their callers do.

  /// kSessionOpen: registers a session (no endpoint yet).
  SessionState& openSession(AppId app, std::uint64_t token, std::string name);
  /// kRequest: adopts `fields` as a new request of `st`, paired with
  /// `wrapper` if non-null; a non-zero `cookie` enters the dedup cache.
  Request& admitRequest(SessionState& st, Request fields, Request* wrapper,
                        std::uint64_t cookie);
  /// kStarted: `nodeIds` is the complete allocation from now on — held
  /// (NEXT-inherited) IDs outside it go back to the pool, the others are
  /// claimed. Arms the expiry timer.
  void startRequest(SessionState& st, Request& r, Time at, Time scheduledAt,
                    NodeCount nAlloc, std::vector<NodeId> nodeIds);
  /// kEnded: a started request ends (`released` goes back, the rest moves
  /// to an unstarted NEXT successor or the pool); an unstarted one is
  /// cancelled (inherited IDs back, children orphaned). Unpairs `r` from
  /// its implicit wrapper, which ends by its own transition.
  void finishRequest(SessionState& st, Request& r, Time at, Time duration,
                     std::span<const NodeId> released);
  /// kSessionClosed / kAppKilled: ends every request, frees every node.
  void closeSession(SessionState& st, Time at, bool killed);

  // --- request lifecycle ---------------------------------------------------
  /// Records a mutation of `st`'s requests, their constraint edges or set
  /// membership. Every code path that touches them must call this; only a
  /// pass's own result stores (scheduledAt, nAlloc, fixed,
  /// earliestScheduleAt) need not. The epoch is what lets the next pass keep
  /// the app's SetIndex and treat an all-started app as clean; debug builds
  /// assert when a set's membership moved under an unchanged epoch.
  static void markDirty(SessionState& st) {
    // 0 is the "unknown, re-index every pass" sentinel — never hand it out
    // on wrap.
    if (++st.mutationEpoch == 0) st.mutationEpoch = 1;
  }
  void endRequest(SessionState& st, Request& r,
                  std::span<const NodeId> released);
  void cancelUnstarted(SessionState& st, Request& r);
  /// Ends (or cancels) `wrapper`, the implicit PA whose request just
  /// ended; nullptr and already-ended wrappers are left alone.
  void endImplicitWrapper(SessionState& st, Request* wrapper);
  /// Posts onEnded to an attached, live endpoint (not for implicit PAs).
  void notifyEnded(SessionState& st, Request& r);
  void cancelExpiryTimer(RequestId id);
  void onExpiryTimer(AppId app, RequestId id);
  void killApp(SessionState& st);
  /// Returns the IDs of `ids` that `r` actually holds to the pool.
  void releaseIds(SessionState& st, Request& r, std::span<const NodeId> ids,
                  Time at);
  void releaseAllIds(SessionState& st, Request& r, Time at);
  /// Pool release + observer report of IDs `r` no longer holds.
  void returnToPool(SessionState& st, const Request& r,
                    std::span<const NodeId> ids, Time at);
  /// Report the end of a started pre-allocation to observers.
  void notifyPaEnd(SessionState& st, const Request& r, Time at);

  [[nodiscard]] SessionState* findSession(AppId app);
  /// The request with this id (nullptr if unknown or reclaimed).
  [[nodiscard]] Request* indexedRequest(RequestId id);
  [[nodiscard]] RequestSet& setFor(SessionState& st, RequestType type);
  [[nodiscard]] Request* findUnstartedNextChild(SessionState& st,
                                                const Request& r);
  [[nodiscard]] static Request* pairedWrapper(SessionState& st, Request& r);
  void trace(const std::string& actor, const std::string& what);

  // --- journal emit & replay (no-ops while journal_ == nullptr) ------------
  /// Appends to the journal, or to compactSink_ while compacting.
  void journalAppend(const std::vector<std::uint8_t>& payload);
  void journalSyncNow();
  void journalSessionOpen(const SessionState& st);
  void journalRequest(const Request& r, const Request* wrapper,
                      std::uint64_t cookie);
  void journalStarted(const Request& r, std::span<const NodeId> nodeIds);
  void journalEnded(const Request& r, std::span<const NodeId> released);
  void journalSessionEvent(rms::RecordType type, AppId app, Time at);
  /// Rewrites the journal as the records that rebuild the live state.
  void compactJournal();

  /// Decodes and validates one record, then applies it through the
  /// transition its live handler uses.
  bool replayRecord(std::span<const std::uint8_t> payload, bool first,
                    Time* lastTime, std::string* error);

  Executor& executor_;
  Scheduler scheduler_;
  NodePool pool_;
  Config config_;
  std::vector<AllocationObserver*> observers_;
  Trace* trace_ = nullptr;

  std::vector<std::unique_ptr<SessionState>> sessions_;  // connection order
  std::unordered_map<std::int64_t, Request*> requestIndex_;
  std::unordered_map<std::int64_t, EventHandle> expiryTimers_;

  std::int32_t nextAppId_ = 0;
  std::int64_t nextRequestId_ = 0;
  Time lastPassAt_ = kNever;
  bool passPending_ = false;
  std::uint64_t passCount_ = 0;

  rms::Journal* journal_ = nullptr;  ///< not owned; nullptr = no journaling
  std::uint64_t tokenSeed_ = 0;      ///< session-token mint state
  std::uint64_t replayedRecords_ = 0;
  std::vector<std::uint8_t> journalScratch_;  ///< reused record buffer
  /// Non-null while compactJournal() collects the records it rewrites.
  std::vector<std::vector<std::uint8_t>>* compactSink_ = nullptr;

  // --- pass state ----------------------------------------------------------
  std::vector<SessionState*> passApps_;  ///< the scheduled sessions, in order
  /// The pass's input and output, one per entry of passApps_: refilled in
  /// place each pass, so steady-state passes allocate nothing for it.
  /// Between passes each entry holds the superseded views the commit
  /// swapped out of its session's stash; the next pass drops them.
  std::vector<AppSchedule> passSchedules_;

  /// Wall-time breakdown of the current/last pass (µs, whole and per
  /// phase).
  struct PassPhases {
    std::uint64_t totalUs = 0;
    std::uint64_t pruneUs = 0;
    std::uint64_t captureUs = 0;
    std::uint64_t scheduleUs = 0;
    std::uint64_t writeBackUs = 0;
    std::uint64_t viewsUs = 0;
    std::uint64_t commitUs = 0;
  };
  PassPhases passPhases_{};
};

/// An application's direct (in-process) handle on the RMS: the AppLink
/// implementation that makes plain function calls into the Server. It
/// points at its session's state, which the server keeps for its whole
/// lifetime.
class Session final : public AppLink {
 public:
  /// Submit a request; returns its id immediately (paper request()).
  RequestId request(const RequestSpec& spec) override;

  /// Submit with an idempotency cookie (network clients): resubmitting the
  /// same non-zero cookie — a reconnecting client replaying a REQUEST whose
  /// ack it never saw — returns the id already assigned instead of creating
  /// a duplicate. Cookie 0 means "no dedup" and behaves like request(spec).
  RequestId request(const RequestSpec& spec, std::uint64_t cookie);

  /// Terminate a request now (paper done()). For NEXT-shrink transitions,
  /// `released` names the node IDs given back. Calling done() on a request
  /// that has not started cancels it.
  void done(RequestId id, std::vector<NodeId> released) override;
  using AppLink::done;

  /// Leave the system, releasing everything.
  void disconnect() override;

  [[nodiscard]] AppId app() const override { return state_->app; }
  [[nodiscard]] bool killed() const;

  /// The latest views the RMS computed for this application (committed
  /// state). The non-preemptive view is held as the pair a pass published
  /// (profile/view.hpp), so each call evaluates it.
  [[nodiscard]] View nonPreemptiveView() const;
  [[nodiscard]] const View& preemptiveView() const;

 private:
  friend class Server;
  Session(Server* server, Server::SessionState* state)
      : server_(server), state_(state) {}
  Server* server_;
  Server::SessionState* state_;
};

}  // namespace coorm
