#include "coorm/rms/server.hpp"

#include <algorithm>
#include <iterator>
#include <random>
#include <span>
#include <utility>

#include "coorm/common/check.hpp"
#include "coorm/common/log.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/wire.hpp"
#include "coorm/rms/journal.hpp"

namespace coorm {

namespace {

/// Session-token mixer (splitmix64): tokens must be stable across the
/// session's life and hard to guess from an app id, not cryptographic.
std::uint64_t mixToken(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kCookieCacheCap = 1024;

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

RequestId Session::request(const RequestSpec& spec) {
  return request(spec, /*cookie=*/0);
}

RequestId Session::request(const RequestSpec& spec, std::uint64_t cookie) {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  if (st->killed || st->disconnected) return RequestId{};
  return server_->handleRequest(*st, spec, cookie);
}

void Session::done(RequestId id, std::vector<NodeId> released) {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  if (st->killed || st->disconnected) return;
  server_->handleDone(*st, id, std::move(released));
}

void Session::disconnect() {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  if (st->killed || st->disconnected) return;
  server_->handleDisconnect(*st);
}

bool Session::killed() const {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  return st->killed;
}

View Session::nonPreemptiveView() const {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  return st->lastNonPreemptive.materialize();
}

const View& Session::preemptiveView() const {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  return st->lastPreemptive;
}

// ---------------------------------------------------------------------------
// Server: construction & sessions
// ---------------------------------------------------------------------------

Server::Server(Executor& executor, Machine machine)
    : Server(executor, std::move(machine), Config{}) {}

Server::Server(Executor& executor, Machine machine, Config config)
    : executor_(executor),
      scheduler_(machine, Scheduler::Config{config.strictEquiPartition,
                                            config.incremental}),
      pool_(machine),
      config_(config) {
  tokenSeed_ = (std::uint64_t{std::random_device{}()} << 32) ^
               std::random_device{}();
}

Server::~Server() {
  metrics::add(metrics::Gauge::kLiveRequests,
               -static_cast<std::int64_t>(requestIndex_.size()));
  // Every session not yet closed counts as live, detached ones included.
  const auto open = std::count_if(
      sessions_.begin(), sessions_.end(),
      [](const auto& st) { return !st->killed && !st->disconnected; });
  metrics::add(metrics::Gauge::kLiveSessions, -open);
}

Session* Server::connect(AppEndpoint& endpoint, std::string name) {
  const AppId app{nextAppId_++};
  SessionState& st = openSession(
      app, mixToken(tokenSeed_ ^ static_cast<std::uint64_t>(app.value)),
      std::move(name));
  st.endpoint = &endpoint;
  journalSessionOpen(st);
  trace(toString(app), "connect");
  journalSyncNow();
  requestReschedule();
  return st.session.get();
}

Server::SessionState* Server::findSession(AppId app) {
  for (auto& st : sessions_) {
    if (st->app == app) return st.get();
  }
  return nullptr;
}

Request* Server::indexedRequest(RequestId id) {
  const auto it = requestIndex_.find(id.value);
  return it != requestIndex_.end() ? it->second : nullptr;
}

RequestSet& Server::setFor(SessionState& st, RequestType type) {
  switch (type) {
    case RequestType::kPreAllocation: return st.preAllocations;
    case RequestType::kNonPreemptible: return st.nonPreemptible;
    case RequestType::kPreemptible: return st.preemptible;
  }
  COORM_CHECK(false && "bad request type");
  __builtin_unreachable();
}

const Request* Server::findRequest(RequestId id) {
  return indexedRequest(id);
}

void Server::trace(const std::string& actor, const std::string& what) {
  if (trace_ != nullptr) trace_->record(executor_.now(), actor, what);
  COORM_LOG(LogLevel::kDebug, "rms") << actor << ": " << what;
}

// ---------------------------------------------------------------------------
// State transitions (shared by the live handlers and journal replay)
// ---------------------------------------------------------------------------

Server::SessionState& Server::openSession(AppId app, std::uint64_t token,
                                          std::string name) {
  auto st = std::make_unique<SessionState>();
  st->app = app;
  st->token = token;
  st->name = std::move(name);
  st->session.reset(new Session(this, app));
  sessions_.push_back(std::move(st));
  metrics::add(metrics::Gauge::kLiveSessions, 1);
  nextAppId_ = std::max(nextAppId_, app.value + 1);
  return *sessions_.back();
}

Request& Server::admitRequest(SessionState& st, Request fields,
                              Request* wrapper, std::uint64_t cookie) {
  markDirty(st);
  auto owned = std::make_unique<Request>(std::move(fields));
  Request& r = *owned;
  setFor(st, r.type).add(&r);
  requestIndex_.emplace(r.id.value, &r);
  st.owned.push_back(std::move(owned));
  metrics::add(metrics::Gauge::kLiveRequests, 1);
  nextRequestId_ = std::max(nextRequestId_, r.id.value + 1);
  if (wrapper != nullptr) st.wrapperOf.emplace(&r, wrapper);
  if (cookie != 0) {
    if (st.cookieCache.size() >= kCookieCacheCap) {
      st.cookieCache.erase(st.cookieCache.begin());
    }
    st.cookieCache.emplace_back(cookie, r.id);
  }
  return r;
}

void Server::startRequest(SessionState& st, Request& r, Time at,
                          Time scheduledAt, NodeCount nAlloc,
                          std::vector<NodeId> nodeIds) {
  markDirty(st);
  std::vector<NodeId> held = r.nodeIds;
  std::vector<NodeId> granted = nodeIds;
  std::sort(held.begin(), held.end());
  std::sort(granted.begin(), granted.end());
  std::vector<NodeId> excess;
  std::set_difference(held.begin(), held.end(), granted.begin(), granted.end(),
                      std::back_inserter(excess));
  std::vector<NodeId> fresh;
  std::set_difference(granted.begin(), granted.end(), held.begin(), held.end(),
                      std::back_inserter(fresh));
  returnToPool(st, r, excess, at);
  if (!fresh.empty()) {
    pool_.claim(fresh);
    for (AllocationObserver* observer : observers_) {
      observer->onAllocationChanged(st.app, r.cluster, std::ssize(fresh),
                                    r.type, at);
    }
  }
  r.nodeIds = std::move(nodeIds);
  r.nAlloc = nAlloc;
  r.scheduledAt = scheduledAt;
  r.startedAt = at;
  if (!isInf(r.duration)) {
    const AppId app = st.app;
    const RequestId id = r.id;
    expiryTimers_[id.value] = executor_.schedule(
        r.plannedEnd(), [this, app, id] { onExpiryTimer(app, id); });
  }
  if (r.type == RequestType::kPreAllocation) {
    // Pre-allocations carry no node IDs but occupy capacity: report them
    // so accounting can charge for marked-but-unused resources (§7).
    for (AllocationObserver* observer : observers_) {
      observer->onAllocationChanged(st.app, r.cluster, r.nodes, r.type, at);
    }
  }
}

void Server::finishRequest(SessionState& st, Request& r, Time at,
                           Time duration, std::span<const NodeId> released) {
  markDirty(st);
  cancelExpiryTimer(r.id);
  r.duration = duration;
  r.endedAt = at;
  if (r.started()) {
    notifyPaEnd(st, r, at);
    Request* successor = findUnstartedNextChild(st, r);
    if (successor != nullptr) {
      // NEXT transition: the application keeps common resources. Whatever
      // it chose to release goes back to the pool; the rest moves to the
      // successor (extra IDs, if the successor grows, are attached when it
      // starts).
      releaseIds(st, r, released, at);
      successor->nodeIds.insert(successor->nodeIds.end(), r.nodeIds.begin(),
                                r.nodeIds.end());
      r.nodeIds.clear();
    } else {
      releaseAllIds(st, r, at);
    }
  } else {
    // Inherited node IDs stashed on a pending NEXT successor go back.
    releaseAllIds(st, r, at);
    // Orphan children: they lose their constraint rather than dangle.
    for (auto& owned : st.owned) {
      if (owned->relatedTo == &r) {
        owned->relatedTo = nullptr;
        owned->relatedHow = Relation::kFree;
      }
    }
  }
  st.wrapperOf.erase(&r);
}

void Server::closeSession(SessionState& st, Time at, bool killed) {
  (killed ? st.killed : st.disconnected) = true;
  metrics::add(metrics::Gauge::kLiveSessions, -1);
  markDirty(st);
  Executor::cancel(st.violationTimer);
  for (auto& owned : st.owned) {
    Request& r = *owned;
    if (r.ended()) continue;
    cancelExpiryTimer(r.id);
    releaseAllIds(st, r, at);
    r.endedAt = at;
    notifyPaEnd(st, r, at);
  }
  if (killed) {
    for (AllocationObserver* observer : observers_) {
      observer->onAppKilled(st.app, at);
    }
  }
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

RequestId Server::handleRequest(SessionState& st, const RequestSpec& spec,
                                std::uint64_t cookie) {
  COORM_CHECK(spec.nodes > 0);
  COORM_CHECK(spec.duration > 0);
  COORM_CHECK(scheduler_.machine().nodesOn(spec.cluster) > 0);

  if (cookie != 0) {
    // Reconnect replay dedup: a REQUEST whose ack the client never saw
    // comes back with the same cookie — re-acknowledge the id it already
    // has instead of accepting a duplicate.
    for (const auto& [seen, id] : st.cookieCache) {
      if (seen == cookie) {
        trace(toString(st.app), "request deduped by cookie -> " + toString(id));
        return id;
      }
    }
  }

  Request* related = nullptr;
  if (spec.relatedHow != Relation::kFree) {
    related = indexedRequest(spec.relatedTo);
    if (related == nullptr || related->app != st.app) {
      // Constraint target unknown (e.g. already reclaimed) or not owned by
      // this application: reject (paper A.6: invalid requests are not
      // handled gracefully — but they must not take the RMS down).
      COORM_LOG(LogLevel::kWarn, "rms")
          << toString(st.app) << " constraint target "
          << toString(spec.relatedTo) << " rejected";
      trace(toString(st.app), "request rejected (bad constraint target)");
      return RequestId{};
    }
  }

  const auto fresh = [&](RequestType type) {
    Request r;
    r.id = RequestId{nextRequestId_++};
    r.app = st.app;
    r.cluster = spec.cluster;
    r.nodes = spec.nodes;
    r.duration = spec.duration;
    r.type = type;
    r.relatedHow = spec.relatedHow;
    r.relatedTo = related;
    return r;
  };

  // Implicit pre-allocation wrap (§3.2): a bare non-preemptible request of
  // an application that manages no explicit pre-allocation gets a shadow PA
  // of the same shape, so it is schedulable "inside a pre-allocation".
  Request* wrapper = nullptr;
  if (spec.type == RequestType::kNonPreemptible &&
      std::none_of(st.preAllocations.begin(), st.preAllocations.end(),
                   [](const Request* pa) {
                     return !pa->implicit && !pa->ended();
                   })) {
    Request pa = fresh(RequestType::kPreAllocation);
    pa.implicit = true;
    if (related != nullptr) {
      // Mirror the NP chain on the PA side when the target has a wrapper.
      Request* relatedWrapper = pairedWrapper(st, *related);
      if (relatedWrapper != nullptr) pa.relatedTo = relatedWrapper;
    }
    wrapper = &admitRequest(st, std::move(pa), nullptr, 0);
    journalRequest(*wrapper, nullptr, 0);
  }

  Request fields = fresh(spec.type);
  if (wrapper != nullptr && spec.relatedHow == Relation::kFree) {
    // Anchor the bare NP request to its shadow PA so they start together.
    // NEXT/COALLOC relations are kept as sent (node-ID inheritance relies
    // on them); their wrappers mirror the chain instead.
    fields.relatedHow = Relation::kCoAlloc;
    fields.relatedTo = wrapper;
  }
  const Request& r = admitRequest(st, std::move(fields), wrapper, cookie);
  journalRequest(r, wrapper, cookie);
  journalSyncNow();  // durable before the caller can ack the id

  trace(toString(st.app), "request " + r.describe());
  requestReschedule();
  return r.id;
}

void Server::handleDone(SessionState& st, RequestId id,
                        std::vector<NodeId> released) {
  Request* r = indexedRequest(id);
  if (r == nullptr || r->app != st.app || r->ended()) return;

  trace(toString(st.app),
        "done " + toString(id) + " releasing " +
            std::to_string(released.size()) + " nodes");
  if (!r->started()) {
    cancelUnstarted(st, *r);
  } else {
    endRequest(st, *r, released);
  }
  journalSyncNow();  // ends release nodes others may be granted: durable
  requestReschedule();
}

void Server::handleDisconnect(SessionState& st) {
  trace(toString(st.app), "disconnect");
  const Time now = executor_.now();
  closeSession(st, now, /*killed=*/false);
  journalSessionEvent(rms::RecordType::kSessionClosed, st.app, now);
  journalSyncNow();
  requestReschedule();
}

// ---------------------------------------------------------------------------
// Request lifecycle
// ---------------------------------------------------------------------------

void Server::notifyPaEnd(SessionState& st, const Request& r, Time at) {
  if (r.type != RequestType::kPreAllocation || !r.started()) return;
  for (AllocationObserver* observer : observers_) {
    observer->onAllocationChanged(st.app, r.cluster, -r.nodes, r.type, at);
  }
}

void Server::returnToPool(SessionState& st, const Request& r,
                          std::span<const NodeId> ids, Time at) {
  if (ids.empty()) return;
  markDirty(st);
  pool_.release(ids);
  for (AllocationObserver* observer : observers_) {
    observer->onAllocationChanged(st.app, r.cluster, -std::ssize(ids), r.type,
                                  at);
  }
}

void Server::releaseIds(SessionState& st, Request& r,
                        std::span<const NodeId> ids, Time at) {
  // Keep only IDs the request actually holds (tolerate sloppy callers).
  std::vector<NodeId> actual;
  for (const NodeId& id : ids) {
    const auto it = std::find(r.nodeIds.begin(), r.nodeIds.end(), id);
    if (it != r.nodeIds.end()) {
      r.nodeIds.erase(it);
      actual.push_back(id);
    }
  }
  returnToPool(st, r, actual, at);
}

void Server::releaseAllIds(SessionState& st, Request& r, Time at) {
  returnToPool(st, r, r.nodeIds, at);
  r.nodeIds.clear();
}

Request* Server::findUnstartedNextChild(SessionState& st, const Request& r) {
  for (Request* candidate : setFor(st, r.type)) {
    if (candidate->relatedTo == &r &&
        candidate->relatedHow == Relation::kNext && !candidate->started() &&
        !candidate->ended()) {
      return candidate;
    }
  }
  return nullptr;
}

Request* Server::pairedWrapper(SessionState& st, Request& r) {
  const auto it = st.wrapperOf.find(&r);
  return it != st.wrapperOf.end() ? it->second : nullptr;
}

void Server::endRequest(SessionState& st, Request& r,
                        std::span<const NodeId> released) {
  COORM_CHECK(r.started() && !r.ended());
  const Time now = executor_.now();
  Request* wrapper = pairedWrapper(st, r);
  // Paper done(): the duration becomes the time actually used.
  finishRequest(st, r, now, std::max<Time>(now - r.startedAt, 0), released);
  journalEnded(r, released);
  endImplicitWrapper(st, wrapper);
  notifyEnded(st, r);
}

void Server::cancelUnstarted(SessionState& st, Request& r) {
  COORM_CHECK(!r.started() && !r.ended());
  Request* wrapper = pairedWrapper(st, r);
  finishRequest(st, r, executor_.now(), r.duration, {});
  journalEnded(r, {});
  endImplicitWrapper(st, wrapper);
  notifyEnded(st, r);
}

void Server::endImplicitWrapper(SessionState& st, Request* wrapper) {
  // An implicit wrapper PA lives exactly as long as the request it wraps.
  if (wrapper == nullptr || wrapper->ended()) return;
  if (!wrapper->started()) {
    cancelUnstarted(st, *wrapper);
    return;
  }
  const Time now = executor_.now();
  finishRequest(st, *wrapper, now,
                std::max<Time>(now - wrapper->startedAt, 0), {});
  journalEnded(*wrapper, {});
}

void Server::notifyEnded(SessionState& st, Request& r) {
  if (st.killed || st.disconnected || r.implicit || st.endpoint == nullptr) {
    return;
  }
  r.endNotified = true;
  AppEndpoint* endpoint = st.endpoint;
  const RequestId id = r.id;
  executor_.after(0, [endpoint, id] { endpoint->onEnded(id); });
}

void Server::cancelExpiryTimer(RequestId id) {
  const auto timer = expiryTimers_.find(id.value);
  if (timer == expiryTimers_.end()) return;
  Executor::cancel(timer->second);
  expiryTimers_.erase(timer);
}

void Server::onExpiryTimer(AppId app, RequestId id) {
  SessionState* st = findSession(app);
  if (st == nullptr || st->killed || st->disconnected) return;
  Request* r = indexedRequest(id);
  if (r == nullptr || r->ended()) return;

  expiryTimers_.erase(id.value);
  trace("rms", "expiry of " + toString(id));

  // Pre-allocations carry no node IDs, so there is nothing the application
  // must decide at their end; implicit wrappers in particular must stay
  // invisible. End them server-side.
  if (r->type == RequestType::kPreAllocation) {
    endRequest(*st, *r, {});
    journalSyncNow();
    return;
  }

  // The application decides what happens at the end of a request (which
  // node IDs move to a NEXT successor, whether to re-request, ...), so ask
  // it — but arm a backstop: not answering is a protocol violation. A
  // detached session gets the announcement at resume instead (the backstop
  // still runs: an app that never comes back is in violation).
  if (st->endpoint != nullptr) {
    r->expiryNotified = true;
    AppEndpoint* endpoint = st->endpoint;
    executor_.after(0, [endpoint, id] { endpoint->onExpired(id); });
  }

  executor_.after(config_.violationGrace, [this, app, id] {
    SessionState* session = findSession(app);
    if (session == nullptr || session->killed || session->disconnected) return;
    const Request* entry = indexedRequest(id);
    if (entry != nullptr && !entry->ended()) {
      trace("rms", "killing " + toString(app) + ": request " + toString(id) +
                       " not terminated after expiry");
      killApp(*session);
    }
  });
}

void Server::killApp(SessionState& st) {
  const Time now = executor_.now();
  closeSession(st, now, /*killed=*/true);
  journalSessionEvent(rms::RecordType::kAppKilled, st.app, now);
  if (st.endpoint != nullptr) {
    AppEndpoint* endpoint = st.endpoint;
    executor_.after(0, [endpoint] { endpoint->onKilled(); });
  }
  journalSyncNow();
  requestReschedule();
}

// ---------------------------------------------------------------------------
// Scheduling passes
// ---------------------------------------------------------------------------

void Server::requestReschedule() {
  if (passPending_) return;
  const Time now = executor_.now();
  const Time due = lastPassAt_ == kNever
                       ? now
                       : std::max(now, satAdd(lastPassAt_, config_.reschedInterval));
  passPending_ = true;
  executor_.schedule(due, [this] {
    passPending_ = false;
    runPass();
  });
}

void Server::runSchedulingPassNow() { runPass(); }

void Server::runPass() {
  lastPassAt_ = executor_.now();
  ++passCount_;
  metrics::increment(metrics::Event::kSchedulePasses);
  passPhases_ = PassPhases{};
  {
    const trace::Phase pass("pass", metrics::Histo::kPassLatencyUs,
                            &passPhases_.totalUs);
    {
      const trace::Phase phase("prune", metrics::Histo::kPassPruneUs,
                               &passPhases_.pruneUs);
      pruneEnded();
    }
    {
      const trace::Phase phase("capture", metrics::Histo::kPassCaptureUs,
                               &passPhases_.captureUs);
      passSchedules_.clear();
      passApps_.clear();
      for (auto& st : sessions_) {
        if (st->killed || st->disconnected) continue;
        AppSchedule& app = passSchedules_.emplace_back();
        app.app = st->app;
        app.preAllocations = &st->preAllocations;
        app.nonPreemptible = &st->nonPreemptible;
        app.preemptible = &st->preemptible;
        app.epoch = st->mutationEpoch;
        passApps_.push_back(st.get());
      }
      if (passSnapshot_ == nullptr) {
        passSnapshot_ = std::make_unique<RequestSetSnapshot>();
      }
      // In place: steady state allocates nothing.
      passSnapshot_->recapture(passSchedules_);
    }
    try {
      const trace::Phase phase("schedule", metrics::Histo::kPassScheduleUs,
                               &passPhases_.scheduleUs);
      scheduler_.schedulePass(*passSnapshot_, lastPassAt_);
    } catch (...) {
      // A pass that threw computed nothing committable: nothing is written
      // back or pushed, and the next protocol message arms a fresh pass.
      // The snapshot's result scratch now diverges from the live requests,
      // so its captured epochs must not let the next capture skip an app;
      // the scheduler's incremental cache describes a pass that never
      // committed, so the next pass must not splice from it.
      passSnapshot_->invalidate();
      scheduler_.invalidateIncremental();
      throw;
    }
    {
      const trace::Phase phase("write_back", metrics::Histo::kPassWriteBackUs,
                               &passPhases_.writeBackUs);
      passSnapshot_->writeBack();
      const std::span<AppSnapshot> scheduled = passSnapshot_->apps();
      for (std::size_t i = 0; i < passApps_.size(); ++i) {
        // Lease renewal: an epoch-clean, all-started application whose
        // views the pass did not publish keeps its stash — the pass proved
        // both views' values unchanged. Any published view means the app's
        // share moved (a dirty neighbour preempted part of it) and the
        // stash is replaced as usual.
        if (scheduled[i].viewsReused) {
          metrics::increment(metrics::Event::kLeasesRenewed);
          continue;
        }
        if (config_.incremental &&
            scheduled[i].lastCapture() == CaptureKind::kSkipped &&
            scheduled[i].allStarted()) {
          metrics::increment(metrics::Event::kLeasesPreempted);
        }
        // Stash freshly computed views before starting requests so
        // violation checks and pushes see consistent data. Swapped, not
        // moved: the retired views go back into the snapshot, and the next
        // pass drops them inside schedulePass() just before it builds their
        // replacements, so blocks whose last holder was the stash are the
        // first ones that pass reuses.
        std::swap(passApps_[i]->lastNonPreemptive,
                  scheduled[i].nonPreemptiveView);
        std::swap(passApps_[i]->lastPreemptive, scheduled[i].preemptiveView);
      }
    }
    {
      // Push views before start notifications so applications react to
      // starts with fresh availability information (the grant may race a
      // view change; events are delivered in queue order).
      const trace::Phase phase("views", metrics::Histo::kPassViewsUs,
                               &passPhases_.viewsUs);
      pushViews();
    }
    {
      const trace::Phase phase("commit", metrics::Histo::kPassCommitUs,
                               &passPhases_.commitUs);
      startDueRequests();
      checkViolations();

      // Pass-commit barrier: the starts journaled above and this marker
      // become durable together, before the executor dispatches any of the
      // commit's notification events — a client never observes a start the
      // journal could lose. This is the only fsync on the pass hot path.
      if (journal_ != nullptr) {
        journalScratch_.clear();
        net::Writer w(journalScratch_);
        w.u8(static_cast<std::uint8_t>(rms::RecordType::kPassCommit));
        w.i64(lastPassAt_);
        journalAppend(journalScratch_);
        journalSyncNow();
        if (journal_->bytes() > config_.journalCompactBytes) compactJournal();
      }
    }
  }

  const auto slowUs = static_cast<std::uint64_t>(config_.slowPass) * 1000;
  if (config_.slowPass <= 0 || passPhases_.totalUs < slowUs) return;
  COORM_LOG(LogLevel::kWarn, "rms")
      << "slow pass " << passCount_ << " at t=" << lastPassAt_
      << "ms total_us=" << passPhases_.totalUs
      << " prune_us=" << passPhases_.pruneUs
      << " capture_us=" << passPhases_.captureUs
      << " schedule_us=" << passPhases_.scheduleUs
      << " write_back_us=" << passPhases_.writeBackUs
      << " views_us=" << passPhases_.viewsUs
      << " commit_us=" << passPhases_.commitUs
      << " apps=" << passApps_.size();
}

void Server::startDueRequests() {
  const Time now = executor_.now();
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& st : sessions_) {
      if (st->killed || st->disconnected) continue;
      for (const RequestType type :
           {RequestType::kPreAllocation, RequestType::kNonPreemptible,
            RequestType::kPreemptible}) {
        for (Request* r : setFor(*st, type)) {
          if (r->started() || r->ended()) continue;
          if (r->scheduledAt > now) continue;
          if (tryStart(*st, *r, now)) progress = true;
        }
      }
    }
  }
}

bool Server::tryStart(SessionState& st, Request& r, Time now) {
  // Implicit wrapper PAs start in lockstep with the request they wrap
  // (below); if they started on their own while the wrapped request was
  // still waiting for node IDs, their window would no longer cover it.
  if (r.implicit) return false;

  // NEXT successors wait for their parent to finish; COALLOC children wait
  // for the parent to start (an unstarted implicit wrapper parent is fine:
  // it starts together with us).
  if (r.relatedTo != nullptr) {
    if (r.relatedHow == Relation::kNext && !r.relatedTo->ended()) return false;
    if (r.relatedHow == Relation::kCoAlloc && !r.relatedTo->started() &&
        !r.relatedTo->ended() && !r.relatedTo->implicit) {
      return false;
    }
  }

  // `now` is the commit-level timestamp from startDueRequests: every start
  // in one commit shares one stamp, exactly as under the simulation engine
  // (whose clock is frozen during a pass). Per-request clock reads would
  // let wall-clock stamps straddle a millisecond and split occupation
  // breakpoints that the serial reference merges.
  std::vector<NodeId> grant = r.nodeIds;
  NodeCount nAlloc = r.nAlloc;
  if (r.type != RequestType::kPreAllocation) {
    const NodeCount needed =
        r.type == RequestType::kPreemptible ? r.nAlloc : r.nodes;
    const NodeCount have = std::ssize(grant);
    if (have > needed) {
      // The application released fewer IDs than the shrink required; trim
      // deterministically from the tail.
      COORM_LOG(LogLevel::kWarn, "rms")
          << toString(r.id) << " over-inherited; trimming "
          << (have - needed) << " nodes";
      grant.resize(static_cast<std::size_t>(needed));
    } else if (have < needed) {
      if (pool_.freeCount(r.cluster) < needed - have) return false;  // pending
      const std::vector<NodeId> extra =
          pool_.lowestFree(r.cluster, needed - have);
      grant.insert(grant.end(), extra.begin(), extra.end());
    }
    if (r.type != RequestType::kPreemptible) nAlloc = r.nodes;
  }

  startRequest(st, r, now, r.scheduledAt, nAlloc, std::move(grant));
  journalStarted(r, r.nodeIds);  // durable at the commit-end fsync
  // Start the implicit wrapper PA together with the request it wraps.
  Request* wrapper = pairedWrapper(st, r);
  if (wrapper != nullptr && !wrapper->started()) {
    startRequest(st, *wrapper, now, now, wrapper->nodes, {});
    journalStarted(*wrapper, {});
  }

  trace("rms", "start " + r.describe() + " with " +
                   std::to_string(r.nodeIds.size()) + " nodes");
  // Shadow pre-allocations stay invisible to the app; detached sessions
  // get the announcement re-posted at resume.
  if (!r.implicit && st.endpoint != nullptr) {
    r.startNotified = true;
    AppEndpoint* endpoint = st.endpoint;
    const RequestId id = r.id;
    const std::vector<NodeId> ids = r.nodeIds;
    executor_.after(0, [endpoint, id, ids] { endpoint->onStarted(id, ids); });
  }
  return true;
}

bool Server::exceedsPreemptiveView(const SessionState& st, Time at) const {
  for (const ClusterSpec& cluster : scheduler_.machine().clusters) {
    NodeCount held = 0;
    for (const Request* r : st.preemptible) {
      if (r->started() && !r->ended() && r->cluster == cluster.id) {
        held += std::ssize(r->nodeIds);
      }
    }
    if (held > st.lastPreemptive.at(cluster.id, at)) return true;
  }
  return false;
}

void Server::checkViolations() {
  const Time now = executor_.now();
  for (auto& stPtr : sessions_) {
    SessionState& st = *stPtr;
    if (st.killed || st.disconnected) continue;
    if (!exceedsPreemptiveView(st, now)) {
      Executor::cancel(st.violationTimer);
      st.violationTimer = nullptr;
      continue;
    }
    if (st.violationTimer != nullptr && !st.violationTimer->cancelled) {
      continue;  // already armed
    }
    const AppId app = st.app;
    st.violationTimer =
        executor_.after(config_.violationGrace, [this, app] {
          SessionState* session = findSession(app);
          if (session == nullptr || session->killed || session->disconnected) {
            return;
          }
          if (exceedsPreemptiveView(*session, executor_.now())) {
            trace("rms", "killing " + toString(app) +
                             ": preemptible resources not released");
            killApp(*session);
            return;
          }
          session->violationTimer = nullptr;
        });
  }
}

void Server::pushViews() {
  for (SessionState* stPtr : passApps_) {
    SessionState& st = *stPtr;
    if (st.killed || st.disconnected) continue;
    if (st.endpoint == nullptr) continue;  // detached: RESUME pushes
    if (deliverViews(st, /*always=*/false)) {
      trace("rms", "views -> " + toString(st.app));
    }
  }
}

bool Server::deliverViews(SessionState& st, bool always) {
  // lastNonPreemptive/lastPreemptive were stashed by the pass's write-back.
  if (!st.viewsEverSent ||
      !(st.sentNonPreemptiveFrom == st.lastNonPreemptive)) {
    View np = st.lastNonPreemptive.materialize();
    st.sentNonPreemptiveFrom = st.lastNonPreemptive;
    if (!always && st.viewsEverSent && st.sentNonPreemptive.sameAs(np) &&
        st.sentPreemptive.sameAs(st.lastPreemptive)) {
      return false;  // a new pair with the value the application holds
    }
    st.sentNonPreemptive = std::move(np);
  } else if (!always && st.sentPreemptive.sameAs(st.lastPreemptive)) {
    return false;
  }
  st.viewsEverSent = true;
  st.sentPreemptive = st.lastPreemptive;
  AppEndpoint* endpoint = st.endpoint;
  const View np = st.sentNonPreemptive;
  const View p = st.sentPreemptive;
  executor_.after(0, [endpoint, np, p] { endpoint->onViews(np, p); });
  return true;
}

void Server::pruneEnded() {
  // Runs at pass start only: the snapshot about to be captured is the first
  // reader of the sets after this, and every session touched here is
  // marked dirty so no capture skips it.
  std::vector<const Request*> pinned;
  for (auto& stPtr : sessions_) {
    SessionState& st = *stPtr;
    const bool live = !st.killed && !st.disconnected;
    // A dead session never schedules again: its wrapper pairs are over.
    if (!live) st.wrapperOf.clear();

    // The lifetime rule: an ended request is reclaimed unless an unstarted
    // request still names it as its NEXT/COALLOC target (the successor is
    // placed relative to it and inherits its node IDs), it is half of a
    // live implicit-wrapper pair, or its end is not yet announced (the
    // endpoint was detached, or the request was replayed from the journal:
    // a resume re-announces it first).
    pinned.clear();
    for (const auto& owned : st.owned) {
      if (owned->relatedTo != nullptr && !owned->started() &&
          !owned->ended()) {
        pinned.push_back(owned->relatedTo);
      }
    }
    for (const auto& [np, pa] : st.wrapperOf) {
      pinned.push_back(np);
      pinned.push_back(pa);
    }
    std::sort(pinned.begin(), pinned.end());
    const auto reclaimable = [&](const Request& r) {
      const bool endPending = live && !r.implicit && !r.endNotified;
      return r.ended() && !endPending &&
             !std::binary_search(pinned.begin(), pinned.end(), &r);
    };

    std::int64_t freed = 0;
    for (const auto& owned : st.owned) {
      Request& r = *owned;
      if (reclaimable(r)) {
        ++freed;
      } else if (r.relatedTo != nullptr && reclaimable(*r.relatedTo)) {
        // Only a started (or ended) request can name a reclaimable target,
        // and nothing reads such a request's parent any more: it becomes a
        // root, exactly as a compacted journal (-1 link) restores it.
        r.relatedTo = nullptr;
      }
    }
    if (freed == 0) continue;

    markDirty(st);
    for (RequestSet* set :
         {&st.preAllocations, &st.nonPreemptible, &st.preemptible}) {
      set->removeIf([&](const Request* r) { return reclaimable(*r); });
    }
    for (auto& owned : st.owned) {
      if (!reclaimable(*owned)) continue;
      // Every path that ends a request cancels its expiry timer.
      COORM_DCHECK(!expiryTimers_.contains(owned->id.value));
      requestIndex_.erase(owned->id.value);
      owned.reset();
    }
    std::erase(st.owned, nullptr);
    metrics::add(metrics::Gauge::kLiveRequests, -freed);
  }
}

// ---------------------------------------------------------------------------
// Crash safety: journal emit & compaction (rms/journal.hpp)
// ---------------------------------------------------------------------------

void Server::journalAppend(const std::vector<std::uint8_t>& payload) {
  if (compactSink_ != nullptr) {
    compactSink_->push_back(payload);
  } else {
    journal_->append(payload);
  }
}

void Server::journalSyncNow() {
  if (journal_ != nullptr) journal_->sync();
}

void Server::journalSessionOpen(const SessionState& st) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kSessionOpen));
  w.i32(st.app.value);
  w.u64(st.token);
  w.u32(static_cast<std::uint32_t>(st.name.size()));
  w.bytes(st.name.data(), st.name.size());
  w.i64(executor_.now());
  journalAppend(journalScratch_);
}

void Server::journalRequest(const Request& r, const Request* wrapper,
                            std::uint64_t cookie) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kRequest));
  w.i32(r.app.value);
  w.i64(r.id.value);
  w.i32(r.cluster.value);
  w.i64(r.nodes);
  w.i64(r.duration);
  w.u8(static_cast<std::uint8_t>(r.type));
  w.u8(static_cast<std::uint8_t>(r.relatedHow));
  w.i64(r.relatedTo != nullptr ? r.relatedTo->id.value : -1);
  w.u8(r.implicit ? 1 : 0);
  w.i64(wrapper != nullptr ? wrapper->id.value : -1);
  w.u64(cookie);
  journalAppend(journalScratch_);
}

void Server::journalStarted(const Request& r, std::span<const NodeId> nodeIds) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kStarted));
  w.i64(r.id.value);
  w.i64(r.startedAt);
  w.i64(r.scheduledAt);
  w.i64(r.nAlloc);
  net::writeNodeIds(w, nodeIds);
  journalAppend(journalScratch_);
}

void Server::journalEnded(const Request& r, std::span<const NodeId> released) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kEnded));
  w.i64(r.id.value);
  w.i64(r.endedAt);
  w.i64(r.duration);
  net::writeNodeIds(w, released);
  journalAppend(journalScratch_);
}

void Server::journalSessionEvent(rms::RecordType type, AppId app, Time at) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(type));
  w.i32(app.value);
  w.i64(at);
  journalAppend(journalScratch_);
}

void Server::attachJournal(rms::Journal* journal) {
  journal_ = journal;
  // A journal restored from disk still carries the previous process's
  // record stream; supersede it with the live state so replay cost stays
  // proportional to live state, not history.
  if (journal_ != nullptr && replayedRecords_ > 0) journalSnapshotNow();
}

void Server::journalSnapshotNow() {
  if (journal_ == nullptr) return;
  compactJournal();
}

void Server::compactJournal() {
  // State, not history: the records below, replayed through the same
  // transitions, rebuild every live session and every request it still
  // owns — nothing that was reclaimed, nothing about dead sessions.
  std::vector<std::vector<std::uint8_t>> records;
  compactSink_ = &records;
  {
    // Ids never go backwards: the newest request or session may already be
    // reclaimed, so the counters travel explicitly.
    journalScratch_.clear();
    net::Writer w(journalScratch_);
    w.u8(static_cast<std::uint8_t>(rms::RecordType::kCounters));
    w.i64(executor_.now());
    w.i32(nextAppId_);
    w.i64(nextRequestId_);
    w.i64(lastPassAt_);
    journalAppend(journalScratch_);
  }
  for (const auto& stPtr : sessions_) {
    SessionState& st = *stPtr;
    if (st.killed || st.disconnected) continue;
    journalSessionOpen(st);
    // `owned` and the cookie cache are both in admission (= id) order, and
    // a request only names older requests of its own application.
    auto cookie = st.cookieCache.begin();
    for (const auto& owned : st.owned) {
      Request& r = *owned;
      while (cookie != st.cookieCache.end() && cookie->second < r.id) ++cookie;
      const bool cached =
          cookie != st.cookieCache.end() && cookie->second == r.id;
      journalRequest(r, pairedWrapper(st, r), cached ? cookie->first : 0);
      if (r.started()) {
        // An ended request whose unstarted NEXT successor inherited its
        // node IDs is written as started with those IDs: replaying its end
        // (below, once the successor exists) hands them over again.
        const Request* heir = r.ended() ? findUnstartedNextChild(st, r)
                                        : nullptr;
        journalStarted(r, heir != nullptr ? heir->nodeIds : r.nodeIds);
      } else if (r.ended()) {
        // A cancel orphaned every older child, so only requests admitted
        // after it still name it: its end goes right here.
        journalEnded(r, {});
      }
    }
    for (const auto& owned : st.owned) {
      if (owned->started() && owned->ended()) journalEnded(*owned, {});
    }
  }
  compactSink_ = nullptr;
  journal_->compact(records);
}

// ---------------------------------------------------------------------------
// Crash safety: journal replay
// ---------------------------------------------------------------------------

namespace {

bool replayFail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "journal replay: " + why;
  return false;
}

}  // namespace

bool Server::restoreFromJournal(
    const std::vector<std::vector<std::uint8_t>>& records, Time* lastTime,
    std::string* error) {
  COORM_CHECK(sessions_.empty() && journal_ == nullptr &&
              "restore requires a fresh, journal-less server");
  Time maxTime = 0;
  bool first = true;
  for (const auto& payload : records) {
    if (!replayRecord(payload, first, &maxTime, error)) return false;
    first = false;
    ++replayedRecords_;
    metrics::increment(metrics::Event::kJournalRecordsReplayed);
  }

  bool anyLive = false;
  for (auto& st : sessions_) {
    if (!st->killed && !st->disconnected) {
      // Awaiting RESUME from the moment the old process died (best known
      // as the last journaled timestamp); dropUnresumedBefore() reaps.
      st->detachedAt = maxTime;
      anyLive = true;
    }
  }
  if (lastTime != nullptr) *lastTime = maxTime;
  if (anyLive || lastPassAt_ != kNever) requestReschedule();
  COORM_LOG(LogLevel::kInfo, "rms")
      << "journal replay: " << replayedRecords_ << " record(s), "
      << sessions_.size() << " session(s), clock resumed at " << maxTime;
  return true;
}

bool Server::replayRecord(std::span<const std::uint8_t> payload, bool first,
                          Time* lastTime, std::string* error) {
  if (payload.empty()) return replayFail(error, "empty record");
  const auto type = static_cast<rms::RecordType>(payload[0]);
  net::Reader r(payload.subspan(1));
  const auto bump = [lastTime](Time at) {
    *lastTime = std::max(*lastTime, at);
  };
  const auto liveSession = [this](AppId app) -> SessionState* {
    SessionState* st = findSession(app);
    return st != nullptr && !st->killed && !st->disconnected ? st : nullptr;
  };

  switch (type) {
    case rms::RecordType::kCounters: {
      const Time at = r.i64();
      const std::int32_t nextApp = r.i32();
      const std::int64_t nextRequest = r.i64();
      const Time lastPass = r.i64();
      if (!r.done()) return replayFail(error, "malformed counters record");
      if (!first) return replayFail(error, "counters record not at log head");
      nextAppId_ = nextApp;
      nextRequestId_ = nextRequest;
      lastPassAt_ = lastPass;
      bump(at);
      return true;
    }
    case rms::RecordType::kSessionOpen: {
      const AppId app{r.i32()};
      const std::uint64_t token = r.u64();
      const std::uint32_t nameLen = r.u32();
      if (nameLen > (1u << 16)) return replayFail(error, "absurd name length");
      const auto nameBytes = r.bytes(nameLen);
      std::string name(nameBytes.begin(), nameBytes.end());
      const Time at = r.i64();
      if (!r.done()) return replayFail(error, "malformed session-open");
      if (findSession(app) != nullptr) {
        return replayFail(error, "duplicate session " + toString(app));
      }
      openSession(app, token, std::move(name));
      bump(at);
      return true;
    }
    case rms::RecordType::kRequest: {
      Request fields;
      fields.app = AppId{r.i32()};
      fields.id = RequestId{r.i64()};
      fields.cluster = ClusterId{r.i32()};
      fields.nodes = r.i64();
      fields.duration = r.i64();
      const std::uint8_t rtype = r.u8();
      const std::uint8_t how = r.u8();
      const RequestId relatedTo{r.i64()};
      const std::uint8_t implicit = r.u8();
      const RequestId wrapperId{r.i64()};
      const std::uint64_t cookie = r.u64();
      if (!r.done() || !fields.id.valid() || fields.nodes <= 0 ||
          rtype > 2 || how > 2 || implicit > 1 ||
          scheduler_.machine().nodesOn(fields.cluster) <= 0) {
        return replayFail(error, "malformed request record");
      }
      fields.type = static_cast<RequestType>(rtype);
      fields.relatedHow = static_cast<Relation>(how);
      fields.implicit = implicit != 0;
      SessionState* st = liveSession(fields.app);
      if (st == nullptr) {
        return replayFail(error,
                          "request for unknown/dead " + toString(fields.app));
      }
      if (indexedRequest(fields.id) != nullptr) {
        return replayFail(error, "duplicate request " + toString(fields.id));
      }
      // Constraint targets and wrappers are older requests of the same app.
      const auto target = [&](RequestId id, Request** out) {
        if (!id.valid()) return true;
        *out = indexedRequest(id);
        return *out != nullptr && (*out)->app == fields.app;
      };
      Request* wrapper = nullptr;
      if (!target(relatedTo, &fields.relatedTo) ||
          !target(wrapperId, &wrapper)) {
        return replayFail(error, "constraint target missing for " +
                                     toString(fields.id));
      }
      admitRequest(*st, std::move(fields), wrapper, cookie);
      return true;
    }
    case rms::RecordType::kStarted: {
      const RequestId id{r.i64()};
      const Time startedAt = r.i64();
      const Time scheduledAt = r.i64();
      const NodeCount nAlloc = r.i64();
      std::vector<NodeId> ids;
      if (!net::readNodeIds(r, ids) || !r.done()) {
        return replayFail(error, "malformed started record");
      }
      Request* req = indexedRequest(id);
      if (req == nullptr || req->started() || req->ended()) {
        return replayFail(error, "start of unknown/started " + toString(id));
      }
      // Every granted node exists, is granted once, and is free or already
      // held by the request (inherited over a NEXT hand-over).
      const auto grantable = [&](const NodeId& nid) {
        return nid.index >= 0 &&
               nid.index < scheduler_.machine().nodesOn(nid.cluster) &&
               (pool_.isFree(nid) ||
                std::find(req->nodeIds.begin(), req->nodeIds.end(), nid) !=
                    req->nodeIds.end());
      };
      std::vector<NodeId> sorted = ids;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end() ||
          !std::all_of(ids.begin(), ids.end(), grantable)) {
        return replayFail(error, "start of " + toString(id) +
                                     " grants a node allocated elsewhere");
      }
      startRequest(*findSession(req->app), *req, startedAt, scheduledAt,
                   nAlloc, std::move(ids));
      bump(startedAt);
      return true;
    }
    case rms::RecordType::kEnded: {
      const RequestId id{r.i64()};
      const Time endedAt = r.i64();
      const Time duration = r.i64();
      std::vector<NodeId> released;
      if (!net::readNodeIds(r, released) || !r.done()) {
        return replayFail(error, "malformed ended record");
      }
      Request* req = indexedRequest(id);
      if (req == nullptr || req->ended()) {
        return replayFail(error, "end of unknown/ended " + toString(id));
      }
      // The implicit wrapper's own end follows as its own record.
      finishRequest(*findSession(req->app), *req, endedAt, duration,
                    released);
      bump(endedAt);
      return true;
    }
    case rms::RecordType::kSessionClosed:
    case rms::RecordType::kAppKilled: {
      const AppId app{r.i32()};
      const Time at = r.i64();
      if (!r.done()) return replayFail(error, "malformed session event");
      SessionState* st = liveSession(app);
      if (st == nullptr) {
        return replayFail(error, "close/kill of unknown/dead " +
                                     toString(app));
      }
      closeSession(*st, at, type == rms::RecordType::kAppKilled);
      bump(at);
      return true;
    }
    case rms::RecordType::kPassCommit: {
      const Time at = r.i64();
      if (!r.done()) return replayFail(error, "malformed pass-commit");
      lastPassAt_ = at;
      bump(at);
      return true;
    }
  }
  return replayFail(error,
                    "unknown record type " + std::to_string(payload[0]));
}

// ---------------------------------------------------------------------------
// Reconnect: resume / detach / reap
// ---------------------------------------------------------------------------

std::uint64_t Server::sessionToken(AppId app) {
  SessionState* st = findSession(app);
  return st != nullptr ? st->token : 0;
}

void Server::detachEndpoint(AppId app) {
  SessionState* st = findSession(app);
  if (st == nullptr || st->killed || st->disconnected ||
      st->endpoint == nullptr) {
    return;
  }
  st->endpoint = nullptr;
  st->detachedAt = executor_.now();
  trace(toString(app), "detach (awaiting resume)");
}

void Server::dropUnresumedBefore(Time cutoff) {
  std::vector<AppId> doomed;
  for (const auto& st : sessions_) {
    if (st->killed || st->disconnected || st->endpoint != nullptr) continue;
    if (st->detachedAt != kNever && st->detachedAt <= cutoff) {
      doomed.push_back(st->app);
    }
  }
  for (AppId app : doomed) {
    SessionState* st = findSession(app);
    if (st == nullptr) continue;
    trace(toString(app), "never resumed; disconnecting");
    handleDisconnect(*st);
  }
}

Session* Server::resumeSession(AppId app, std::uint64_t token,
                               AppEndpoint& endpoint) {
  SessionState* st = findSession(app);
  if (st == nullptr || st->killed || st->disconnected ||
      st->token != token) {
    return nullptr;
  }
  st->endpoint = &endpoint;
  st->detachedAt = kNever;
  metrics::increment(metrics::Event::kSessionsResumed);
  metrics::increment(metrics::Event::kReconnects);
  trace(toString(app), "resume");

  // Push the latest computed views. Passes kept computing them while the
  // session was detached (pushViews skipped it), and nothing arms a pass
  // here, so the last-sent ones may be stale — and a session restored from
  // the journal has none. Before the first pass there is nothing to push;
  // that pass pushes to the now attached endpoint.
  if (!st->lastNonPreemptive.empty()) deliverViews(*st, /*always=*/true);

  // Re-announce anything that happened while no endpoint was attached
  // (including everything replayed from a journal, whose delivery flags
  // are conservatively cleared): at-least-once, the client dedups by id.
  const Time now = executor_.now();
  for (const auto& rp : st->owned) {
    Request& r = *rp;
    if (r.implicit) continue;
    if (r.started() && !r.startNotified) {
      r.startNotified = true;
      const RequestId id = r.id;
      const std::vector<NodeId> ids = r.nodeIds;
      executor_.after(0,
                      [&endpoint, id, ids] { endpoint.onStarted(id, ids); });
    }
    if (r.started() && !r.ended() && !r.expiryNotified &&
        r.type != RequestType::kPreAllocation && !isInf(r.duration) &&
        r.plannedEnd() <= now &&
        expiryTimers_.find(r.id.value) == expiryTimers_.end()) {
      // Expired while detached (the timer fired into a void): re-announce;
      // the violation backstop armed at fire time still stands.
      r.expiryNotified = true;
      const RequestId id = r.id;
      executor_.after(0, [&endpoint, id] { endpoint.onExpired(id); });
    }
    if (r.ended() && !r.endNotified) {
      r.endNotified = true;
      const RequestId id = r.id;
      executor_.after(0, [&endpoint, id] { endpoint.onEnded(id); });
    }
  }
  return st->session.get();
}

}  // namespace coorm
