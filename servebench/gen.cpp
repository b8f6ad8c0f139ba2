// servebench_gen: the seeded load generator of the coorm_rmsd serving
// benchmark (see README.md in this directory), plus the in-process helpers
// the benchmark needs around it.
//
//   servebench_gen schedule   --workload W --seed S --seconds T
//       print the op schedule the seed generates (determinism test)
//   servebench_gen population --seed S --journal FILE --out DIR
//       build the journal-restored population of `population` in-process:
//       a Server on the sim Engine with an attached rms::Journal
//   servebench_gen replay     --journal FILE [--reps N] [--digest]
//       time Journal::scan + Server::restoreFromJournal; --digest prints
//       the restored apps, requests and node IDs instead
//   servebench_gen run        --workload W --seed S --seconds T --out DIR
//       [--trace] [--setup-only]
//       drive the four live applications against a running daemon. Reads
//       "go PORT DAEMON_PID CLOCK_NS" on stdin, prints "ready NS" once
//       every live app holds its first grant, then runs the open-loop
//       schedule and writes raw samples to DIR for run.py.
//
// Threads: one per live application (four), the main thread runs the
// malleable filler and conducts the phases. Each thread owns one
// IoExecutor and one RmsClient connection.
#include <dirent.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/net/wire.hpp"
#include "coorm/profile/profile_diff.hpp"
#include "coorm/rms/journal.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace {

using namespace coorm;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kNone = INT64_MAX;
constexpr ClusterId kCluster{0};

std::int64_t nowNs() { return static_cast<std::int64_t>(metrics::nowNanos()); }

[[noreturn]] void die(const std::string& why) {
  std::cerr << "servebench_gen: " << why << "\n";
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads and their seeded schedules
// ---------------------------------------------------------------------------

/// Everything a workload fixes. Times are milliseconds unless named _ns.
struct Workload {
  std::string name;
  NodeCount nodes;          ///< machine size (one cluster)
  int population;           ///< journal-restored applications
  double rigidRate;         ///< jobs/s per rigid stream (two streams)
  NodeCount rigidMaxNodes;  ///< job sizes uniform in [1, max]
  Time wallMin, wallMax;    ///< job walltimes
  Time runMin, runMax;      ///< job runtimes (done() before the walltime)
  int chains;               ///< independent NEXT chains of the evolving app
  NodeCount chainMin, chainMax;
  Time holdMin, holdMax;    ///< how long each chain step is held
};

// Non-preemptible demand fits each machine by itself: two streams of at
// most ~12 concurrent jobs of <= 8 nodes plus the evolving app's
// pre-allocation (chains x chainMax), so a request waits only for the
// re-scheduling interval and for the filler's release.
const Workload kChurn{"churn", 384, 0, 50.0, 8, 300, 600, 20, 80,
                      4, 2, 16, 25, 45};
const Workload kPopulation{"population", 1024, 250, 38.0, 8, 300, 600, 20, 80,
                           4, 2, 16, 25, 45};

const Workload& workloadNamed(const std::string& name) {
  if (name == kChurn.name) return kChurn;
  if (name == kPopulation.name) return kPopulation;
  die("unknown workload '" + name + "' (want churn|population)");
}

/// Warm-up before the measured window: caches fill, the filler settles.
constexpr std::int64_t kWarmNs = 1000 * kMs;
/// Gap between "ready" and the schedule's time zero.
constexpr std::int64_t kLeadNs = 50 * kMs;
/// How long measured operations may take to complete after the window.
constexpr std::int64_t kDrainNs = 3000 * kMs;
/// Sequential REQUESTs after quiescing, to align daemon and client traces.
constexpr int kMarkerCount = 24;

struct Job {
  std::int64_t at;  ///< send time, ns after schedule zero
  NodeCount nodes;
  Time walltime;
  Time runtime;
};

struct Step {
  NodeCount nodes;
  Time hold;
};

struct Schedule {
  std::array<std::vector<Job>, 2> rigid;
  std::vector<std::vector<Step>> chains;
};

Schedule makeSchedule(const Workload& w, std::uint64_t seed,
                      std::int64_t horizonNs) {
  Rng root(seed);
  Schedule s;
  const double meanGap = 1e9 / w.rigidRate;
  for (auto& stream : s.rigid) {
    Rng rng = root.fork();
    double t = 0;
    for (;;) {
      t += rng.uniformReal(0.5, 1.5) * meanGap;
      if (t >= static_cast<double>(horizonNs)) break;
      Job job{};
      job.at = static_cast<std::int64_t>(t);
      job.nodes = rng.uniformInt(1, w.rigidMaxNodes);
      job.walltime = rng.uniformInt(w.wallMin, w.wallMax);
      job.runtime = rng.uniformInt(w.runMin, w.runMax);
      stream.push_back(job);
    }
  }
  // Enough steps for the whole horizon even if every resize were instant.
  const std::int64_t steps = horizonNs / (w.holdMin * kMs) + 2;
  for (int c = 0; c < w.chains; ++c) {
    Rng rng = root.fork();
    std::vector<Step> chain;
    NodeCount prev = -1;
    for (std::int64_t k = 0; k < steps; ++k) {
      NodeCount n = prev;
      while (n == prev) n = rng.uniformInt(w.chainMin, w.chainMax);
      chain.push_back({n, rng.uniformInt(w.holdMin, w.holdMax)});
      prev = n;
    }
    s.chains.push_back(std::move(chain));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Small I/O helpers
// ---------------------------------------------------------------------------

std::string joinIds(const std::vector<NodeId>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i].index);
  }
  return out;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// /proc sample of one process: CPU ticks, context switches summed over
/// its live threads, peak RSS.
struct ProcSample {
  std::int64_t t = 0;
  long utime = 0;
  long stime = 0;
  long volCs = 0;
  long involCs = 0;
  long hwmKb = 0;
  int threads = 0;
};

long statusField(const std::string& text, const char* key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtol(text.c_str() + at + std::strlen(key), nullptr, 10);
}

ProcSample sampleProc(const std::string& pid) {
  ProcSample s;
  s.t = nowNs();
  const std::string stat = readFile("/proc/" + pid + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    // Field 3 (state) is the first after ')'; utime/stime are 14 and 15.
    for (int i = 3; i <= 15 && (fields >> field); ++i) {
      if (i == 14) s.utime = std::stol(field);
      if (i == 15) s.stime = std::stol(field);
    }
  }
  s.hwmKb = statusField(readFile("/proc/" + pid + "/status"), "VmHWM:");
  const std::string taskDir = "/proc/" + pid + "/task";
  if (DIR* dir = ::opendir(taskDir.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      ++s.threads;
      const std::string status =
          readFile(taskDir + "/" + entry->d_name + "/status");
      s.volCs += statusField(status, "voluntary_ctxt_switches:");
      s.involCs += statusField(status, "nonvoluntary_ctxt_switches:");
    }
    ::closedir(dir);
  }
  return s;
}

int countOwnSockets() {
  int sockets = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      char target[256] = {};
      const std::string link = std::string("/proc/self/fd/") + entry->d_name;
      const ssize_t n = ::readlink(link.c_str(), target, sizeof(target) - 1);
      if (n > 0 && std::strncmp(target, "socket:", 7) == 0) ++sockets;
    }
    ::closedir(dir);
  }
  return sockets;
}

std::string procJson(const ProcSample& s) {
  std::ostringstream o;
  o << "{\"t_ns\":" << s.t << ",\"utime\":" << s.utime
    << ",\"stime\":" << s.stime << ",\"vol_cs\":" << s.volCs
    << ",\"invol_cs\":" << s.involCs << ",\"hwm_kb\":" << s.hwmKb
    << ",\"threads\":" << s.threads << "}";
  return o.str();
}

/// STATS snapshot as JSON; histograms as sparse [lower_bound, count] pairs.
std::string statsJson(const metrics::Snapshot& s) {
  std::ostringstream o;
  o << "{\"events\":{";
  for (std::size_t i = 0; i < metrics::kEventCount; ++i) {
    o << (i ? "," : "") << "\"" << metrics::name(static_cast<metrics::Event>(i))
      << "\":" << s.events[i];
  }
  o << "},\"gauges\":{";
  for (std::size_t i = 0; i < metrics::kGaugeCount; ++i) {
    o << (i ? "," : "") << "\"" << metrics::name(static_cast<metrics::Gauge>(i))
      << "\":" << s.gauges[i];
  }
  o << "},\"histos\":{";
  for (std::size_t i = 0; i < metrics::kHistoCount; ++i) {
    const metrics::HistogramData& h = s.histos[i];
    o << (i ? "," : "") << "\"" << metrics::name(static_cast<metrics::Histo>(i))
      << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < metrics::kHistoBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      o << (first ? "" : ",") << "[" << metrics::bucketLowerBound(b) << ","
        << h.buckets[b] << "]";
      first = false;
    }
    o << "]}";
  }
  o << "}}";
  return o.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Live applications
// ---------------------------------------------------------------------------

enum Phase : int {
  kSetup = 0,
  kRunning = 1,   ///< schedule running (warm-up, window, drain)
  kQuiesce = 2,   ///< no new REQUESTs; each actor acknowledges
  kMarkers = 3,   ///< the marker actor sends the alignment REQUESTs
  kStop = 4,
};

struct Shared {
  const Workload* workload = nullptr;
  Schedule schedule;
  std::int64_t seconds = 0;
  bool setupOnly = false;
  net::Endpoint daemon{};
  std::int64_t clockNs = 0;  ///< daemon clock zero, estimated (steady ns)
  // Written by the conductor before phase moves to kRunning.
  std::int64_t origin = 0;       ///< schedule time zero
  std::int64_t windowStart = 0;  ///< measured window [start, end)
  std::int64_t windowEnd = 0;
  std::atomic<int> phase{kSetup};
  std::atomic<int> ready{0};
  std::atomic<int> drained{0};
  std::atomic<int> quiesced{0};
  std::atomic<bool> markersDone{false};

  [[nodiscard]] bool inWindow(std::int64_t t) const {
    return t >= windowStart && t < windowEnd;
  }
};

/// One sample row per upstream operation and per completion, written as
/// TSV for run.py (see writeRun).
struct ReqRow {
  const char* purpose;
  std::int64_t sched, send, ack;
  std::int64_t id;
  bool ok;
};
struct DoneRow {
  const char* purpose;
  std::int64_t sched, send;
  std::int64_t id;
};
struct StartRow {
  std::int64_t id, sched, started;
};
struct ResizeRow {
  int chain;
  bool grow;
  std::int64_t begin, started;
};
struct ViewRow {
  std::int64_t t;
  std::size_t segments;
};
struct FailRow {
  std::string what;
  std::int64_t t;
};

class Actor : public AppEndpoint {
 public:
  Actor(Shared& shared, int index, std::string name)
      : sh_(shared), index_(index), name_(std::move(name)) {}
  ~Actor() override {
    if (tfd_ >= 0) ::close(tfd_);
  }
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  void threadMain();

  // Collected samples, read after the thread is joined.
  std::vector<ReqRow> reqs;
  std::vector<DoneRow> dones;
  std::vector<StartRow> starts;
  std::vector<ResizeRow> resizes;
  std::vector<ViewRow> views;
  std::vector<FailRow> fails;
  std::vector<std::string> events;  ///< checker event stream lines
  std::vector<std::pair<std::int64_t, std::int64_t>> markers;
  std::vector<std::int64_t> lateGenNs;  ///< generator-caused lateness
  /// Consecutive applied view pairs (prev, cur), sampled for diff+encode.
  std::vector<std::array<View, 4>> viewPairs;
  std::vector<net::RequestMsg> upRequests;
  std::vector<net::DoneMsg> upDones;
  [[nodiscard]] const std::string& name() const { return name_; }

  // --- AppEndpoint: every callback is spanned and logged ------------------
  void onViews(const View& np, const View& p) final {
    trace::Span span("gen.on_views");
    const std::int64_t t = nowNs();
    views.push_back({t, np.cap(kCluster).segments().size() +
                            p.cap(kCluster).segments().size()});
    if (++viewCount_ % 5 == 0 && havePrev_ && viewPairs.size() < 128) {
      viewPairs.push_back({prevNp_, prevP_, np, p});
    }
    prevNp_ = np;
    prevP_ = p;
    havePrev_ = true;
    handleViews(np, p, t);
  }
  void onStarted(RequestId id, const std::vector<NodeId>& ids) final {
    trace::Span span("gen.on_started");
    handleStarted(id, ids, nowNs());
  }
  void onExpired(RequestId id) final {
    trace::Span span("gen.on_expired");
    handleExpired(id, nowNs());
  }
  void onEnded(RequestId id) final {
    trace::Span span("gen.on_ended");
    (void)id;
  }
  void onKilled() final {
    const std::int64_t t = nowNs();
    events.push_back("killed " + std::to_string(t) + " " + name_);
    fails.push_back({"killed", t});
    killed_ = true;
  }

 protected:
  virtual void setup(std::int64_t now) = 0;
  [[nodiscard]] virtual bool setupDone() const = 0;
  virtual void work(std::int64_t now) = 0;
  [[nodiscard]] virtual std::int64_t nextDue() const = 0;
  /// True once every measured operation completed; past the drain
  /// deadline, marks the stragglers failed and returns true.
  virtual bool drained(std::int64_t now) = 0;
  virtual void handleViews(const View&, const View&, std::int64_t) {}
  virtual void handleStarted(RequestId, const std::vector<NodeId>&,
                             std::int64_t) {}
  virtual void handleExpired(RequestId id, std::int64_t now) {
    timedDone(id, {}, now, "expired", false);
  }
  /// The conductor's hook (main thread only).
  virtual void conduct(std::int64_t) {}

  [[nodiscard]] Phase phase() const {
    return static_cast<Phase>(sh_.phase.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool issuing() const { return phase() <= kRunning; }

  /// Blocking REQUEST, timed from `sched`. Invalid id on failure.
  RequestId timedRequest(const RequestSpec& spec, std::int64_t sched,
                         const char* purpose) {
    const std::int64_t send = nowNs();
    RequestId id{};
    bool timeout = false;
    {
      trace::Span span("gen.request");
      try {
        id = client_->request(spec);
      } catch (const net::TimeoutError&) {
        timeout = true;
      }
    }
    const std::int64_t ack = nowNs();
    recordLateness(sched, send);
    busyUntil_ = ack;
    reqs.push_back({purpose, sched, send, ack, id.value, id.valid()});
    net::RequestMsg msg;
    msg.cookie = upRequests.size() + 1;
    msg.spec = spec;
    upRequests.push_back(msg);
    if (!id.valid()) {
      fails.push_back({timeout ? "request_timeout" : "request_rejected", ack});
    }
    return id;
  }

  /// DONE (one-way). `successor` tells the checker whether the request
  /// has a NEXT successor that keeps the unreleased IDs.
  void timedDone(RequestId id, std::vector<NodeId> released,
                 std::int64_t sched, const char* purpose, bool successor) {
    const std::int64_t send = nowNs();
    events.push_back("done " + std::to_string(send) + " " + name_ + " " +
                     std::to_string(id.value) + " " +
                     (successor ? "1 " : "0 ") + joinIds(released));
    recordLateness(sched, send);
    dones.push_back({purpose, sched, send, id.value});
    net::DoneMsg msg;
    msg.id = id;
    msg.released = released;
    upDones.push_back(std::move(msg));
    trace::Span span("gen.done");
    client_->done(id, std::move(released));
  }

  void logGrant(std::int64_t t, RequestId id, const char* type,
                NodeCount requested, RequestId pred, const char* kind,
                const std::vector<NodeId>& ids) {
    events.push_back("grant " + std::to_string(t) + " " + name_ + " " +
                     std::to_string(id.value) + " " + type + " " +
                     std::to_string(requested) + " " +
                     std::to_string(pred.value) + " " + kind + " " +
                     joinIds(ids));
  }

  [[nodiscard]] std::int64_t freeAt(std::int64_t sched) const {
    return std::max(sched, busyUntil_);
  }

  Shared& sh_;
  int index_;
  std::string name_;
  std::unique_ptr<net::IoExecutor> exec_;
  std::unique_ptr<net::RmsClient> client_;
  bool killed_ = false;
  std::int64_t busyUntil_ = 0;  ///< end of the last blocking RPC

 private:
  void recordLateness(std::int64_t sched, std::int64_t send) {
    if (sched <= 0 || !sh_.inWindow(sched)) return;
    lateGenNs.push_back(send - freeAt(sched));
  }
  void armTimer(std::int64_t due);
  void runMarkers();

  int tfd_ = -1;
  std::uint64_t viewCount_ = 0;
  bool havePrev_ = false;
  View prevNp_;
  View prevP_;
};

void Actor::armTimer(std::int64_t due) {
  itimerspec spec{};
  if (due != kNone) {
    due = std::max<std::int64_t>(due, 1);
    spec.it_value.tv_sec = due / 1'000'000'000;
    spec.it_value.tv_nsec = due % 1'000'000'000;
  }
  ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void Actor::runMarkers() {
  // Sequential, nothing else in flight: the daemon's last kMarkerCount
  // "request" spans are these, in order (trace alignment, run.py).
  RequestSpec spec;
  spec.cluster = kCluster;
  spec.nodes = 1;
  spec.duration = sec(1);
  spec.type = RequestType::kPreAllocation;
  for (int i = 0; i < kMarkerCount; ++i) {
    exec_->runOne(0);
    const std::int64_t send = nowNs();
    RequestId id{};
    {
      trace::Span span("gen.marker");
      try {
        id = client_->request(spec);
      } catch (const net::TimeoutError&) {
      }
    }
    markers.emplace_back(send, nowNs());
    if (id.valid()) client_->done(id);
  }
}

void Actor::threadMain() {
  exec_ = net::makeIoExecutor(IoBackend::kEpoll);
  tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (tfd_ < 0) die("timerfd_create failed");
  exec_->watch(tfd_, net::IoExecutor::kReadable, [this](short) {
    std::uint64_t expirations = 0;
    (void)!::read(tfd_, &expirations, sizeof(expirations));
  });
  net::RmsClient::Config config{sh_.daemon, name_};
  config.rpcTimeout = sec(5);
  client_ = std::make_unique<net::RmsClient>(*exec_, config);
  {
    trace::Span span("gen.connect");
    client_->connect(*this);
  }
  setup(nowNs());
  const std::int64_t setupDeadline = nowNs() + 20'000 * kMs;
  while (!setupDone()) {
    if (killed_ || client_->dead() || nowNs() > setupDeadline) {
      die(name_ + ": setup failed (no first grant)");
    }
    exec_->runOne(5);
  }
  sh_.ready.fetch_add(1);

  bool quiesceAcked = false;
  bool drainedReported = false;
  for (;;) {
    const Phase ph = phase();
    if (ph == kStop) break;
    std::int64_t due = ph == kSetup ? kNone : nextDue();
    armTimer(due);
    exec_->runOne(ph == kSetup ? 1 : 5);
    const std::int64_t now = nowNs();
    if (client_->dead() && !killed_) {
      killed_ = true;
      fails.push_back({"disconnected", now});
    }
    if (ph == kSetup) {
      conduct(now);
      continue;
    }
    work(now);
    conduct(now);
    if (!drainedReported && now >= sh_.windowEnd && drained(now)) {
      drainedReported = true;
      sh_.drained.fetch_add(1);
    }
    if (phase() >= kQuiesce && !quiesceAcked) {
      quiesceAcked = true;
      sh_.quiesced.fetch_add(1);
    }
    if (phase() == kMarkers && index_ == 1 && !sh_.markersDone.load()) {
      runMarkers();
      sh_.markersDone.store(true);
    }
  }
  exec_->unwatch(tfd_);
  // Disconnecting frees every node ID this app still holds, including IDs
  // kept for a pending NEXT successor, and the other apps may be granted
  // them in the next pass: log the release before it can take effect.
  events.push_back("closed " + std::to_string(nowNs()) + " " + name_);
  client_->disconnect();
}

// --- rigid-job stream --------------------------------------------------------

class RigidStream final : public Actor {
 public:
  RigidStream(Shared& shared, int index, const std::vector<Job>& jobs)
      : Actor(shared, index, "rigid" + std::to_string(index - 1)),
        jobs_(jobs) {
    state_.resize(jobs.size());
  }

 private:
  struct JobState {
    RequestId id{};
    std::int64_t sched = 0;
    std::int64_t started = 0;
    std::int64_t doneAt = kNone;
    bool submitted = false;
    bool failed = false;
    bool doneSent = false;
  };

  void setup(std::int64_t) override {}
  [[nodiscard]] bool setupDone() const override { return true; }

  [[nodiscard]] std::int64_t nextDue() const override {
    std::int64_t due = doneHeap_.empty() ? kNone : doneHeap_.front().first;
    if (issuing() && next_ < jobs_.size()) {
      due = std::min(due, sh_.origin + jobs_[next_].at);
    }
    return due;
  }

  void work(std::int64_t now) override {
    while (issuing() && next_ < jobs_.size() &&
           sh_.origin + jobs_[next_].at <= now) {
      const Job& job = jobs_[next_];
      JobState& st = state_[next_];
      st.sched = sh_.origin + job.at;
      st.submitted = true;
      RequestSpec spec;
      spec.cluster = kCluster;
      spec.nodes = job.nodes;
      spec.duration = job.walltime;
      spec.type = RequestType::kNonPreemptible;
      st.id = timedRequest(spec, st.sched, "job");
      if (st.id.valid()) {
        byId_[st.id.value] = next_;
      } else {
        st.failed = true;
      }
      ++next_;
      now = nowNs();
    }
    while (!doneHeap_.empty() && doneHeap_.front().first <= now) {
      std::pop_heap(doneHeap_.begin(), doneHeap_.end(), std::greater<>{});
      const std::size_t j = doneHeap_.back().second;
      doneHeap_.pop_back();
      JobState& st = state_[j];
      if (st.doneSent) continue;
      st.doneSent = true;
      timedDone(st.id, {}, st.doneAt, "job_done", false);
    }
  }

  void handleStarted(RequestId id, const std::vector<NodeId>& ids,
                     std::int64_t now) override {
    const auto it = byId_.find(id.value);
    if (it == byId_.end()) return;
    JobState& st = state_[it->second];
    st.started = now;
    starts.push_back({id.value, st.sched, now});
    logGrant(now, id, "NP", jobs_[it->second].nodes, RequestId{}, "none", ids);
    st.doneAt = now + jobs_[it->second].runtime * kMs;
    doneHeap_.emplace_back(st.doneAt, it->second);
    std::push_heap(doneHeap_.begin(), doneHeap_.end(), std::greater<>{});
  }

  void handleExpired(RequestId id, std::int64_t now) override {
    const auto it = byId_.find(id.value);
    if (it == byId_.end()) return;
    JobState& st = state_[it->second];
    if (st.doneSent) return;
    st.doneSent = true;
    timedDone(id, {}, now, "job_expired", false);
  }

  bool drained(std::int64_t now) override {
    const bool deadline = now >= sh_.windowEnd + kDrainNs;
    bool pending = false;
    for (std::size_t j = 0; j < next_; ++j) {
      JobState& st = state_[j];
      if (!sh_.inWindow(st.sched) || st.failed || st.started != 0) continue;
      if (!deadline) return false;
      st.failed = true;
      fails.push_back({"start_timeout", now});
      pending = true;
    }
    return !pending || deadline;
  }

  const std::vector<Job>& jobs_;
  std::vector<JobState> state_;
  std::size_t next_ = 0;
  std::unordered_map<std::int64_t, std::size_t> byId_;
  std::vector<std::pair<std::int64_t, std::size_t>> doneHeap_;  // min-heap
};

// --- evolving application: explicit PA + NEXT chains --------------------------

class Evolving final : public Actor {
 public:
  Evolving(Shared& shared, int index) : Actor(shared, index, "evolving") {
    chains_.resize(static_cast<std::size_t>(shared.workload->chains));
  }

 private:
  struct Chain {
    std::size_t k = 0;  ///< index of the current step (request R_k)
    RequestId cur{};
    std::vector<NodeId> curIds;
    RequestId next{};
    bool initial = true;   ///< R_0 not started yet
    std::int64_t growAt = kNone;
    std::int64_t resizeBegin = 0;
    bool resizeGrow = false;
    bool resizing = false;
  };

  [[nodiscard]] const Step& step(std::size_t c, std::size_t k) const {
    const auto& steps = sh_.schedule.chains[c];
    return steps[std::min(k, steps.size() - 1)];
  }
  /// Every kChainSteps-th step ends the chain instead of resizing it and
  /// starts a fresh one: a NEXT chain keeps all its ended requests
  /// referenced (unprunable), so an endless chain would make every pass
  /// slower as the run goes on.
  static constexpr std::size_t kChainSteps = 16;
  [[nodiscard]] bool exitEnds(std::size_t k) const {
    return (k + 1) % kChainSteps == 0;
  }
  [[nodiscard]] bool exitGrows(std::size_t c, std::size_t k) const {
    return !exitEnds(k) && step(c, k + 1).nodes > step(c, k).nodes;
  }
  /// R_k is held for its step's hold time: a shrinking or ending exit lets
  /// it expire (the RMS then asks the app to end it); a growing exit calls
  /// done() at the same moment instead.
  [[nodiscard]] Time durationFor(std::size_t c, std::size_t k) const {
    return exitGrows(c, k) ? sec(60) : step(c, k).hold;
  }

  /// A fresh chain: a free (un-chained) request for step k.
  void restart(std::size_t c, std::int64_t now) {
    Chain& ch = chains_[c];
    RequestSpec spec;
    spec.cluster = kCluster;
    spec.nodes = step(c, ch.k).nodes;
    spec.duration = durationFor(c, ch.k);
    spec.type = RequestType::kNonPreemptible;
    ch.initial = true;
    ch.curIds.clear();
    ch.cur = timedRequest(spec, now, "chain0");
  }

  void setup(std::int64_t now) override {
    const Workload& w = *sh_.workload;
    RequestSpec pa;
    pa.cluster = kCluster;
    pa.nodes = w.chains * w.chainMax;
    pa.duration = hours(1);
    pa.type = RequestType::kPreAllocation;
    pa_ = timedRequest(pa, now, "pa");
    if (!pa_.valid()) die("evolving: pre-allocation rejected");
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      restart(c, nowNs());
      if (!chains_[c].cur.valid()) die("evolving: first step rejected");
    }
  }

  [[nodiscard]] bool setupDone() const override {
    if (!paStarted_) return false;
    for (const Chain& ch : chains_) {
      if (ch.initial) return false;
    }
    return true;
  }

  [[nodiscard]] std::int64_t nextDue() const override {
    std::int64_t due = kNone;
    for (const Chain& ch : chains_) due = std::min(due, ch.growAt);
    return due;
  }

  void work(std::int64_t now) override {
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      Chain& ch = chains_[c];
      if (ch.growAt > now) continue;
      const std::int64_t sched = ch.growAt;
      ch.growAt = kNone;
      if (!ch.next.valid() || !issuing()) continue;
      ch.resizeBegin = sched;
      ch.resizeGrow = true;
      ch.resizing = true;
      timedDone(ch.cur, {}, sched, "grow", true);
    }
  }

  void handleStarted(RequestId id, const std::vector<NodeId>& ids,
                     std::int64_t now) override {
    if (id == pa_) {
      paStarted_ = true;
      return;
    }
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      Chain& ch = chains_[c];
      if (ch.initial && id == ch.cur) {
        ch.initial = false;
        ch.curIds = ids;
        logGrant(now, id, "NP", step(c, ch.k).nodes, RequestId{}, "none",
                 ids);
      } else if (id == ch.next) {
        if (ch.resizing) {
          resizes.push_back({static_cast<int>(c), ch.resizeGrow,
                             ch.resizeBegin, now});
          ch.resizing = false;
        }
        logGrant(now, id, "NP", step(c, ch.k + 1).nodes, ch.cur,
                 ch.resizeGrow ? "grow" : "shrink", ids);
        ch.cur = id;
        ch.curIds = ids;
        ch.next = RequestId{};
        ++ch.k;
      } else {
        continue;
      }
      // The next step: submit the NEXT successor right away so the RMS
      // plans it, then hold R_k for its step time.
      if (issuing() && !exitEnds(ch.k)) {
        RequestSpec spec;
        spec.cluster = kCluster;
        spec.nodes = step(c, ch.k + 1).nodes;
        spec.duration = durationFor(c, ch.k + 1);
        spec.type = RequestType::kNonPreemptible;
        spec.relatedHow = Relation::kNext;
        spec.relatedTo = ch.cur;
        ch.next = timedRequest(spec, now, "successor");
        if (ch.next.valid() && exitGrows(c, ch.k)) {
          ch.growAt = now + step(c, ch.k).hold * kMs;
        }
      }
      return;
    }
  }

  void handleExpired(RequestId id, std::int64_t now) override {
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      Chain& ch = chains_[c];
      if (id != ch.cur) continue;
      if (!ch.next.valid() || exitGrows(c, ch.k)) {
        timedDone(id, {}, now, "chain_end", ch.next.valid());
        if (exitEnds(ch.k) && issuing()) {
          ++ch.k;
          restart(c, now);
        }
        return;
      }
      // Shrink: give back exactly the surplus, from the tail.
      const auto keep = static_cast<std::size_t>(step(c, ch.k + 1).nodes);
      std::vector<NodeId> released;
      if (ch.curIds.size() > keep) {
        released.assign(ch.curIds.begin() + static_cast<std::ptrdiff_t>(keep),
                        ch.curIds.end());
      }
      ch.resizeBegin = now;
      ch.resizeGrow = false;
      ch.resizing = true;
      timedDone(id, std::move(released), now, "shrink", true);
      return;
    }
    timedDone(id, {}, now, "expired", false);
  }

  bool drained(std::int64_t now) override {
    const bool deadline = now >= sh_.windowEnd + kDrainNs;
    for (Chain& ch : chains_) {
      if (!ch.resizing || !sh_.inWindow(ch.resizeBegin)) continue;
      if (!deadline) return false;
      ch.resizing = false;
      fails.push_back({"resize_timeout", now});
    }
    return true;
  }

  RequestId pa_{};
  bool paStarted_ = false;
  std::vector<Chain> chains_;
};

// --- malleable filler + conductor (main thread) --------------------------------

class Filler final : public Actor {
 public:
  explicit Filler(Shared& shared) : Actor(shared, 0, "filler") {}

  std::optional<metrics::Snapshot> statsStart, statsEnd;
  ProcSample daemonStart, daemonEnd, selfStart, selfEnd;
  int maxThreads = 0;
  int maxSockets = 0;
  std::string daemonPid;
  std::int64_t readyNs = 0;

 private:
  void setup(std::int64_t) override {}
  [[nodiscard]] bool setupDone() const override { return cur_.valid(); }
  [[nodiscard]] std::int64_t nextDue() const override {
    if (!statsStart) return sh_.windowStart;
    if (!statsEnd) return sh_.windowEnd;
    return kNone;
  }
  void work(std::int64_t) override {}

  bool drained(std::int64_t) override { return true; }

  /// The preemptive view's value now, on the daemon's clock. The clock is
  /// estimated from the daemon's spawn time (a few ms early), so take the
  /// minimum over +-5 ms: holding less than allowed is always safe.
  [[nodiscard]] NodeCount allowed(std::int64_t now) const {
    const Time est = (now - sh_.clockNs) / kMs;
    const NodeCount v = view_.cap(kCluster).minOver(
        std::max<Time>(est - 5, 0), est + 5);
    return std::max<NodeCount>(v, 0);
  }

  void logHeld(std::int64_t t) {
    const NodeCount held = cur_.valid() ? std::ssize(ids_) : 0;
    events.push_back("pview " + std::to_string(t) + " " + name_ + " " +
                     std::to_string(held) + " " +
                     std::to_string(haveView_ ? allowed(t) : 0));
  }

  void handleViews(const View&, const View& p, std::int64_t now) override {
    view_ = p;
    haveView_ = true;
    logHeld(now);
    if (inFlight_) {
      dirty_ = true;
      return;
    }
    replan(now);
  }

  void replan(std::int64_t now) {
    if (!issuing()) return;
    const NodeCount want = allowed(now);
    if (!cur_.valid()) {
      if (want <= 0 || inFlight_) return;
      RequestSpec spec;
      spec.cluster = kCluster;
      spec.nodes = want;
      spec.duration = kTimeInf;
      spec.type = RequestType::kPreemptible;
      next_ = timedRequest(spec, now, "fill");
      inFlight_ = next_.valid();
      return;
    }
    const NodeCount held = std::ssize(ids_);
    if (want == held) return;
    std::vector<NodeId> released;
    if (want < held) {
      released.assign(ids_.begin() + want, ids_.end());
    }
    bool successor = false;
    if (want > 0) {
      RequestSpec spec;
      spec.cluster = kCluster;
      spec.nodes = want;
      spec.duration = kTimeInf;
      spec.type = RequestType::kPreemptible;
      spec.relatedHow = Relation::kNext;
      spec.relatedTo = cur_;
      next_ = timedRequest(spec, now, "fill");
      successor = next_.valid();
      inFlight_ = successor;
    }
    const RequestId ending = cur_;
    cur_ = RequestId{};
    if (!successor) prev_ = RequestId{};
    timedDone(ending, std::move(released), now, "fill_done", successor);
    logHeld(nowNs());
  }

  void handleStarted(RequestId id, const std::vector<NodeId>& ids,
                     std::int64_t now) override {
    if (id != next_) return;
    logGrant(now, id, "P", std::ssize(ids), prev_, "none", ids);
    prev_ = id;
    cur_ = id;
    next_ = RequestId{};
    ids_ = ids;
    inFlight_ = false;
    logHeld(now);
    if (dirty_ && haveView_) {
      dirty_ = false;
      replan(now);
    }
  }

  void handleExpired(RequestId id, std::int64_t now) override {
    // Open-ended leases never expire; answer anyway rather than be killed.
    if (id == cur_) {
      cur_ = RequestId{};
      timedDone(id, ids_, now, "fill_done", false);
      logHeld(now);
    }
  }

  void conduct(std::int64_t now) override;

  RequestId cur_{};
  RequestId next_{};
  RequestId prev_{};
  std::vector<NodeId> ids_;
  View view_;
  bool haveView_ = false;
  bool inFlight_ = false;
  bool dirty_ = false;
};

void Filler::conduct(std::int64_t now) {
  const int actors = 4;
  switch (phase()) {
    case kSetup:
      if (sh_.ready.load() < actors) return;
      readyNs = now;
      std::cout << "ready " << now << std::endl;
      if (sh_.setupOnly) {
        sh_.phase.store(kStop, std::memory_order_release);
        return;
      }
      sh_.origin = now + kLeadNs;
      sh_.windowStart = sh_.origin + kWarmNs;
      sh_.windowEnd = sh_.windowStart + sh_.seconds * 1'000'000'000;
      sh_.phase.store(kRunning, std::memory_order_release);
      return;
    case kRunning: {
      if (!statsStart && now >= sh_.windowStart) {
        trace::Span span("gen.stats");
        daemonStart = sampleProc(daemonPid);
        selfStart = sampleProc("self");
        statsStart = client_->stats();
        if (!statsStart) die("STATS at window start failed");
      }
      if (statsStart && !statsEnd && now >= sh_.windowStart +
                                                 (sh_.windowEnd -
                                                  sh_.windowStart) / 2) {
        maxThreads = std::max(maxThreads, sampleProc("self").threads);
        maxSockets = std::max(maxSockets, countOwnSockets());
      }
      if (!statsEnd && now >= sh_.windowEnd) {
        trace::Span span("gen.stats");
        statsEnd = client_->stats();
        daemonEnd = sampleProc(daemonPid);
        selfEnd = sampleProc("self");
        maxThreads = std::max(maxThreads, selfEnd.threads);
        maxSockets = std::max(maxSockets, countOwnSockets());
        if (!statsEnd) die("STATS at window end failed");
      }
      if (statsEnd && (sh_.drained.load() >= actors ||
                       now >= sh_.windowEnd + kDrainNs + 500 * kMs)) {
        sh_.phase.store(kQuiesce, std::memory_order_release);
      }
      return;
    }
    case kQuiesce:
      if (sh_.quiesced.load() >= actors) {
        sh_.phase.store(kMarkers, std::memory_order_release);
      }
      return;
    case kMarkers:
      if (sh_.markersDone.load()) {
        sh_.phase.store(kStop, std::memory_order_release);
      }
      return;
    case kStop:
      return;
  }
}

// ---------------------------------------------------------------------------
// In-process layer timings (benchmark "I" metrics)
// ---------------------------------------------------------------------------

/// The delta push the daemon would build for `prev` -> `next` (the same
/// diffWindow + window extraction net::Daemon uses).
void buildDeltas(const View& prev, const View& next,
                 std::vector<net::ClusterDelta>& out) {
  out.clear();
  for (const ClusterId cid : next.clusters()) {
    Time lo = 0;
    Time hi = 0;
    const std::span<const Segment> segs = next.cap(cid).segments();
    if (!diffWindow(prev.cap(cid).segments(), segs, lo, hi)) continue;
    net::ClusterDelta delta;
    delta.cluster = cid;
    delta.lo = lo;
    delta.hi = hi;
    for (const Segment& seg : segs) {
      if (seg.start >= hi) break;
      if (seg.start >= lo) delta.window.push_back(seg);
    }
    out.push_back(std::move(delta));
  }
}

/// Median µs of diffWindow + encodeViewsDelta over the sampled pairs.
double timeDiffEncode(const std::vector<Actor*>& actors) {
  std::vector<double> us;
  std::vector<net::ClusterDelta> np, p;
  std::vector<std::uint8_t> buf;
  for (int rep = 0; rep < 5; ++rep) {
    for (const Actor* actor : actors) {
      for (const auto& pair : actor->viewPairs) {
        buf.clear();
        const std::int64_t t0 = nowNs();
        buildDeltas(pair[0], pair[2], np);
        buildDeltas(pair[1], pair[3], p);
        net::encodeViewsDelta(buf, 2, 1, np, p);
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      }
    }
  }
  return median(us);
}

/// Median µs per frame of net::decode over the run's upstream frames.
double timeDecode(const std::vector<Actor*>& actors) {
  std::vector<std::uint8_t> stream;
  std::size_t frames = 0;
  for (const Actor* actor : actors) {
    for (const auto& msg : actor->upRequests) {
      net::encode(stream, msg);
      ++frames;
    }
    for (const auto& msg : actor->upDones) {
      net::encode(stream, msg);
      ++frames;
    }
  }
  if (frames == 0) return 0;
  std::vector<double> perFrame;
  for (int rep = 0; rep < 15; ++rep) {
    net::FrameBuffer buffer;
    buffer.append(stream);
    net::FrameView frame;
    std::size_t decoded = 0;
    net::RequestMsg req;
    net::DoneMsg done;
    const std::int64_t t0 = nowNs();
    while (buffer.next(frame) == net::FrameBuffer::Next::kFrame) {
      const bool ok = frame.type == net::MsgType::kRequest
                          ? net::decode(frame.payload, req)
                          : net::decode(frame.payload, done);
      decoded += ok ? 1 : 0;
    }
    const double elapsed = static_cast<double>(nowNs() - t0) / 1e3;
    if (decoded != frames) die("decode timing: frames did not round-trip");
    perFrame.push_back(elapsed / static_cast<double>(frames));
  }
  return median(perFrame);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> kv;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string need(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) die("missing --" + key);
    return it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return kv.count(key) > 0;
  }
};

Args parse(int argc, char** argv) {
  if (argc < 2) die("usage: servebench_gen schedule|population|replay|run ...");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) die("bad argument " + key);
    key = key.substr(2);
    if (key == "trace" || key == "setup-only" || key == "digest") {
      args.kv[key] = "1";
    } else if (i + 1 < argc) {
      args.kv[key] = argv[++i];
    } else {
      die("missing value for --" + key);
    }
  }
  return args;
}

int modeSchedule(const Args& args) {
  const Workload& w = workloadNamed(args.need("workload"));
  const std::int64_t seconds = std::stoll(args.need("seconds"));
  const Schedule s = makeSchedule(w, std::stoull(args.need("seed")),
                                  kWarmNs + seconds * 1'000'000'000);
  for (std::size_t r = 0; r < s.rigid.size(); ++r) {
    for (const Job& job : s.rigid[r]) {
      std::cout << "job " << r << " " << job.at << " " << job.nodes << " "
                << job.walltime << " " << job.runtime << "\n";
    }
  }
  for (std::size_t c = 0; c < s.chains.size(); ++c) {
    for (const Step& st : s.chains[c]) {
      std::cout << "step " << c << " " << st.nodes << " " << st.hold << "\n";
    }
  }
  return 0;
}

/// A population member: records the node IDs its requests were granted.
struct PopApp final : AppEndpoint {
  int index = 0;
  std::vector<std::pair<std::int64_t, std::vector<NodeId>>> grants;
  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    grants.emplace_back(id.value, ids);
  }
};

int modePopulation(const Args& args) {
  const Workload& w = kPopulation;
  const std::string path = args.need("journal");
  const std::string out = args.need("out");
  Rng rng(std::stoull(args.need("seed")) ^ 0x9e3779b97f4a7c15ULL);
  std::remove(path.c_str());

  Engine engine;
  Server::Config config;
  config.reschedInterval = msec(10);
  std::vector<std::unique_ptr<PopApp>> apps;
  std::int64_t nodesHeld = 0;
  Time lastTime = 0;
  {
    rms::Journal journal(path, 0);
    Server server(engine, Machine::single(w.nodes), config);
    server.attachJournal(&journal);
    // Rigid jobs and evolving apps' pre-allocations holding distinct
    // multi-hour walltimes: every end is its own view breakpoint.
    for (int i = 0; i < w.population; ++i) {
      auto app = std::make_unique<PopApp>();
      app->index = i;
      Session* session = server.connect(*app, "pop" + std::to_string(i));
      const Time wall = hours(2) + i * sec(10) + rng.uniformInt(0, 9999);
      const bool evolving = rng.uniformReal(0.0, 1.0) < 0.3;
      RequestSpec spec;
      spec.cluster = kCluster;
      if (evolving) {
        spec.type = RequestType::kPreAllocation;
        spec.nodes = rng.uniformInt(2, 4);
        spec.duration = wall + sec(5);
        session->request(spec);
        spec.nodes = rng.uniformInt(1, spec.nodes);
      } else {
        spec.nodes = rng.uniformInt(1, 3);
      }
      spec.type = RequestType::kNonPreemptible;
      spec.duration = wall;
      session->request(spec);
      apps.push_back(std::move(app));
    }
    engine.runUntil(msec(100));
    lastTime = engine.now();
  }
  std::ofstream pop(out + "/population.tsv");
  for (const auto& app : apps) {
    for (const auto& [id, ids] : app->grants) {
      nodesHeld += std::ssize(ids);
      pop << "pop 0 pop" << app->index << " " << id << " " << joinIds(ids)
          << "\n";
    }
  }
  const rms::ScanResult scan = rms::Journal::scan(path);
  if (scan.refused) die("generated journal refused: " + scan.diagnostic);
  std::cout << "{\"records\":" << scan.records.size()
            << ",\"apps\":" << w.population << ",\"nodes_held\":" << nodesHeld
            << ",\"last_time_ms\":" << lastTime << "}" << std::endl;
  return 0;
}

int modeReplay(const Args& args) {
  const std::string path = args.need("journal");
  const int reps = std::stoi(args.get("reps", "5"));
  const NodeCount nodes =
      std::stoll(args.get("nodes", std::to_string(kPopulation.nodes)));
  std::vector<double> ms;
  std::size_t records = 0;
  for (int rep = 0; rep < std::max(reps, 1); ++rep) {
    Engine engine;
    Server::Config config;
    config.reschedInterval = msec(10);
    Server server(engine, Machine::single(nodes), config);
    const std::int64_t t0 = nowNs();
    const rms::ScanResult scan = rms::Journal::scan(path);
    if (scan.refused) die("journal refused: " + scan.diagnostic);
    Time last = kNever;
    std::string error;
    if (!server.restoreFromJournal(scan.records, &last, &error)) {
      die("replay failed: " + error);
    }
    ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    records = scan.records.size();
    if (args.flag("digest") && rep == 0) {
      // The restored population: apps, requests, node IDs (tokens are
      // random by design and deliberately absent).
      for (std::int64_t id = 0; id < static_cast<std::int64_t>(records) * 4;
           ++id) {
        const Request* r = server.findRequest(RequestId{id});
        if (r == nullptr) continue;
        std::vector<NodeId> ids = r->nodeIds;
        std::sort(ids.begin(), ids.end());
        std::cout << "req " << id << " app " << r->app.value << " "
                  << toString(r->type) << " nodes " << r->nodes << " dur "
                  << r->duration << " start " << r->startedAt << " ids "
                  << joinIds(ids) << "\n";
      }
    }
  }
  if (!args.flag("digest")) {
    std::cout << "{\"replay_ms\":" << median(ms) << ",\"records\":" << records
              << "}" << std::endl;
  }
  return 0;
}

void writeRun(const std::string& dir, const std::vector<Actor*>& actors,
              const Filler& filler, const Shared& sh, bool traced) {
  std::ofstream ops(dir + "/ops.tsv");
  std::ofstream ev(dir + "/events.tsv");
  for (const Actor* a : actors) {
    const std::string& n = a->name();
    for (const auto& r : a->reqs) {
      ops << "req " << n << " " << r.purpose << " " << r.sched << " "
          << r.send << " " << r.ack << " " << r.id << " " << (r.ok ? 1 : 0)
          << "\n";
    }
    for (const auto& d : a->dones) {
      ops << "done " << n << " " << d.purpose << " " << d.sched << " "
          << d.send << " " << d.id << "\n";
    }
    for (const auto& s : a->starts) {
      ops << "start " << n << " " << s.id << " " << s.sched << " "
          << s.started << "\n";
    }
    for (const auto& r : a->resizes) {
      ops << "resize " << n << " " << r.chain << " "
          << (r.grow ? "grow" : "shrink") << " " << r.begin << " "
          << r.started << "\n";
    }
    for (const auto& v : a->views) {
      ops << "view " << n << " " << v.t << " " << v.segments << "\n";
    }
    for (const auto& f : a->fails) {
      ops << "fail " << n << " " << f.what << " " << f.t << "\n";
    }
    for (const auto l : a->lateGenNs) ops << "late " << n << " " << l << "\n";
    for (const auto& [s, e] : a->markers) {
      ops << "marker " << n << " " << s << " " << e << "\n";
    }
    for (const auto& line : a->events) ev << line << "\n";
  }

  std::ofstream gen(dir + "/gen.json");
  gen << "{\"window_start_ns\":" << sh.windowStart
      << ",\"window_end_ns\":" << sh.windowEnd
      << ",\"ready_ns\":" << filler.readyNs
      << ",\"max_threads\":" << filler.maxThreads
      << ",\"max_sockets\":" << filler.maxSockets
      << ",\"daemon_start\":" << procJson(filler.daemonStart)
      << ",\"daemon_end\":" << procJson(filler.daemonEnd)
      << ",\"self_start\":" << procJson(filler.selfStart)
      << ",\"self_end\":" << procJson(filler.selfEnd)
      << ",\"clk_tck\":" << ::sysconf(_SC_CLK_TCK)
      << ",\"diff_encode_us\":" << timeDiffEncode(actors)
      << ",\"decode_us\":" << timeDecode(actors)
      << ",\"stats_start\":" << statsJson(*filler.statsStart)
      << ",\"stats_end\":" << statsJson(*filler.statsEnd) << "}\n";

  if (traced) {
    // Absolute steady-clock microseconds, so run.py can align this trace
    // with the daemon's (which is rebased to its earliest kept span).
    std::vector<trace::SpanEvent> spans = trace::collect();
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.startNs < b.startNs;
    });
    std::FILE* f = std::fopen((dir + "/gen_trace.json").c_str(), "w");
    if (f == nullptr) die("cannot write gen_trace.json");
    std::fputs("{\"traceEvents\":[", f);
    const long pid = static_cast<long>(::getpid());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%ld,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i == 0 ? "" : ",", spans[i].name, pid, spans[i].tid,
                   static_cast<double>(spans[i].startNs) / 1e3,
                   static_cast<double>(spans[i].endNs - spans[i].startNs) /
                       1e3);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
  }
}

int modeRun(const Args& args) {
  Shared sh;
  sh.workload = &workloadNamed(args.need("workload"));
  sh.seconds = std::stoll(args.need("seconds"));
  sh.setupOnly = args.flag("setup-only");
  const bool traced = args.flag("trace");
  const std::string out = args.need("out");
  sh.schedule = makeSchedule(*sh.workload, std::stoull(args.need("seed")),
                             kWarmNs + sh.seconds * 1'000'000'000);
  if (traced) trace::enable();

  // Everything above is input generation; setup time starts when run.py
  // spawns the daemon and ends at our "ready" line.
  std::cout << "wait" << std::endl;
  std::string word, port, pid, clock;
  if (!(std::cin >> word >> port >> pid >> clock) || word != "go") {
    die("expected 'go PORT PID CLOCK_NS' on stdin");
  }
  sh.daemon = net::Endpoint{"127.0.0.1",
                            static_cast<std::uint16_t>(std::stoi(port))};
  sh.clockNs = std::stoll(clock);

  Filler filler(sh);
  filler.daemonPid = pid;
  RigidStream rigid0(sh, 1, sh.schedule.rigid[0]);
  RigidStream rigid1(sh, 2, sh.schedule.rigid[1]);
  Evolving evolving(sh, 3);
  const std::vector<Actor*> actors{&filler, &rigid0, &rigid1, &evolving};

  std::vector<std::thread> threads;
  for (Actor* actor : {static_cast<Actor*>(&rigid0),
                       static_cast<Actor*>(&rigid1),
                       static_cast<Actor*>(&evolving)}) {
    threads.emplace_back([actor] { actor->threadMain(); });
  }
  filler.threadMain();
  for (std::thread& t : threads) t.join();
  if (sh.setupOnly) return 0;

  writeRun(out, actors, filler, sh, traced);
  std::cout << "done" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.mode == "schedule") return modeSchedule(args);
  if (args.mode == "population") return modePopulation(args);
  if (args.mode == "replay") return modeReplay(args);
  if (args.mode == "run") return modeRun(args);
  die("unknown mode " + args.mode);
}
