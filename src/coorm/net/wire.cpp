#include "coorm/net/wire.hpp"

#include <algorithm>
#include <cstring>

#include "coorm/common/check.hpp"

namespace coorm::net {

bool knownMsgType(std::uint8_t raw) {
  return (raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
          raw <= static_cast<std::uint8_t>(MsgType::kViewsAck)) ||
         (raw >= static_cast<std::uint8_t>(MsgType::kWelcome) &&
          raw <= static_cast<std::uint8_t>(MsgType::kViewsDelta) &&
          raw != 0x43);  // unassigned: a hole in the downstream range
}

const char* toString(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kRequest: return "REQUEST";
    case MsgType::kDone: return "DONE";
    case MsgType::kGoodbye: return "GOODBYE";
    case MsgType::kWelcome: return "WELCOME";
    case MsgType::kRequestAck: return "REQ_ACK";
    case MsgType::kStarted: return "STARTED";
    case MsgType::kExpired: return "EXPIRED";
    case MsgType::kEnded: return "ENDED";
    case MsgType::kKilled: return "KILLED";
    case MsgType::kStats: return "STATS";
    case MsgType::kStatsReply: return "STATS_REPLY";
    case MsgType::kPing: return "PING";
    case MsgType::kPong: return "PONG";
    case MsgType::kResume: return "RESUME";
    case MsgType::kResumeAck: return "RESUME_ACK";
    case MsgType::kViewsAck: return "VIEWS_ACK";
    case MsgType::kViewsDelta: return "VIEWS_DELTA";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

void Writer::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void Writer::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), p, p + n);
}

void Writer::patchU32(std::size_t offset, std::uint32_t v) {
  COORM_CHECK(offset + 4 <= out_.size());
  out_[offset] = static_cast<std::uint8_t>(v >> 24);
  out_[offset + 1] = static_cast<std::uint8_t>(v >> 16);
  out_[offset + 2] = static_cast<std::uint8_t>(v >> 8);
  out_[offset + 3] = static_cast<std::uint8_t>(v);
}

std::uint8_t Reader::u8() {
  if (!ok_ || remaining() < 1) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!ok_ || remaining() < 2) {
    ok_ = false;
    return 0;
  }
  const std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!ok_ || remaining() < 4) {
    ok_ = false;
    return 0;
  }
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                          static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  const std::uint64_t hi = u32();
  const std::uint64_t lo = u32();
  return (hi << 32) | lo;
}

std::span<const std::uint8_t> Reader::bytes(std::size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return {};
  }
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

// ---------------------------------------------------------------------------
// Shared pieces: node-id lists, profiles, views
// ---------------------------------------------------------------------------

namespace {

// Per-element wire sizes, used to sanity-bound decoded counts against the
// actually-present payload bytes *before* any allocation: a bit-flipped
// count field must fail cleanly instead of asking the allocator for
// gigabytes.
constexpr std::size_t kNodeIdWireSize = 8;    // cluster i32 + index i32
constexpr std::size_t kSegmentWireSize = 16;  // start i64 + value i64
constexpr std::size_t kClusterMinWireSize =
    4 + 4 + kSegmentWireSize;  // id + count + >=1 segment

void writeProfile(Writer& w, const StepFunction& profile) {
  const auto segments = profile.segments();
  w.u32(static_cast<std::uint32_t>(segments.size()));
  for (const StepFunction::Segment& seg : segments) {
    w.i64(seg.start);
    w.i64(seg.value);
  }
}

/// Canonical-form decode: >= 1 segment, first at t=0, strictly increasing
/// starts, adjacent values differing — exactly what StepFunction's
/// invariants demand, verified *before* construction so a hostile frame
/// can never trip an internal invariant check.
[[nodiscard]] bool readProfile(Reader& r, StepFunction& out) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || count == 0 || count > r.remaining() / kSegmentWireSize) {
    r.fail();
    return false;
  }
  std::vector<StepFunction::Segment> segments;
  segments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StepFunction::Segment seg;
    seg.start = r.i64();
    seg.value = r.i64();
    if (i == 0) {
      if (seg.start != 0) {
        r.fail();
        return false;
      }
    } else if (seg.start <= segments.back().start ||
               seg.value == segments.back().value) {
      r.fail();
      return false;
    }
    segments.push_back(seg);
  }
  if (!r.ok()) return false;
  out = StepFunction::fromCanonical(std::move(segments));
  return true;
}

}  // namespace

void writeNodeIds(Writer& w, std::span<const NodeId> ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const NodeId& id : ids) {
    w.i32(id.cluster.value);
    w.i32(id.index);
  }
}

bool readNodeIds(Reader& r, std::vector<NodeId>& out) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / kNodeIdWireSize) {
    r.fail();
    return false;
  }
  out.clear();
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NodeId id;
    id.cluster = ClusterId{r.i32()};
    id.index = r.i32();
    out.push_back(id);
  }
  return r.ok();
}

void writeView(Writer& w, const View& view) {
  const std::vector<ClusterId> clusters = view.clusters();
  w.u32(static_cast<std::uint32_t>(clusters.size()));
  for (const ClusterId cid : clusters) {
    w.i32(cid.value);
    writeProfile(w, view.cap(cid));
  }
}

std::size_t viewWireSize(const View& view) {
  std::size_t size = 4;  // cluster count
  for (const ClusterId cid : view.clusters()) {
    size += 4 + 4 + kSegmentWireSize * view.cap(cid).segments().size();
  }
  return size;
}

bool readView(Reader& r, View& out) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / kClusterMinWireSize) {
    r.fail();
    return false;
  }
  out = View{};
  ClusterId previous{};
  for (std::uint32_t i = 0; i < count; ++i) {
    const ClusterId cid{r.i32()};
    // Strictly increasing ids keep the encoding canonical (one encoding
    // per view, so round-trips are bit-exact) and make setCap appends.
    if (!r.ok() || (i > 0 && !(previous < cid))) {
      r.fail();
      return false;
    }
    StepFunction profile;
    if (!readProfile(r, profile)) return false;
    out.setCap(cid, std::move(profile));
    previous = cid;
  }
  return r.ok();
}

// ---------------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------------

namespace {

/// Appends the fixed header with a zero length and returns the offset of
/// the length field for back-patching once the payload is written.
std::size_t beginFrame(Writer& w, MsgType type) {
  w.u16(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  const std::size_t lengthOffset = w.size();
  w.u32(0);
  return lengthOffset;
}

void endFrame(Writer& w, std::size_t lengthOffset) {
  const std::size_t payload = w.size() - lengthOffset - 4;
  COORM_CHECK(payload <= kMaxPayload);
  w.patchU32(lengthOffset, static_cast<std::uint32_t>(payload));
  metrics::increment(metrics::Event::kFramesEncoded);
  metrics::increment(metrics::Event::kWireBytesOut, payload + kHeaderSize);
}

}  // namespace

void encode(std::vector<std::uint8_t>& out, const HelloMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kHello);
  w.u16(static_cast<std::uint16_t>(std::min<std::size_t>(msg.name.size(),
                                                         0xffff)));
  w.bytes(msg.name.data(), std::min<std::size_t>(msg.name.size(), 0xffff));
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const WelcomeMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kWelcome);
  w.i32(msg.app.value);
  w.u64(msg.token);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const RequestMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kRequest);
  w.u64(msg.cookie);
  w.i32(msg.spec.cluster.value);
  w.i64(msg.spec.nodes);
  w.i64(msg.spec.duration);
  w.u8(static_cast<std::uint8_t>(msg.spec.type));
  w.u8(static_cast<std::uint8_t>(msg.spec.relatedHow));
  w.i64(msg.spec.relatedTo.value);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const RequestAckMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kRequestAck);
  w.u64(msg.cookie);
  w.i64(msg.id.value);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const DoneMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kDone);
  w.i64(msg.id.value);
  writeNodeIds(w, msg.released);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const GoodbyeMsg&) {
  Writer w(out);
  endFrame(w, beginFrame(w, MsgType::kGoodbye));
}

namespace {

void writeClusterDeltas(Writer& w, const std::vector<ClusterDelta>& deltas) {
  w.u32(static_cast<std::uint32_t>(deltas.size()));
  for (const ClusterDelta& d : deltas) {
    w.i32(d.cluster.value);
    w.i64(d.lo);
    w.i64(d.hi);
    w.u32(static_cast<std::uint32_t>(d.window.size()));
    for (const Segment& seg : d.window) {
      w.i64(seg.start);
      w.i64(seg.value);
    }
  }
}

/// Strict window validation — see the decode(ViewsDeltaMsg) contract: a
/// window accepted here splices onto any canonical base without breaking
/// canonical form, so a hostile frame degrades to a resync, never an
/// invariant trip.
[[nodiscard]] bool readClusterDeltas(Reader& r,
                                     std::vector<ClusterDelta>& out) {
  constexpr std::size_t kDeltaMinWireSize = 4 + 8 + 8 + 4;  // id lo hi count
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / kDeltaMinWireSize) {
    r.fail();
    return false;
  }
  out.clear();
  out.reserve(count);
  ClusterId previous{};
  for (std::uint32_t i = 0; i < count; ++i) {
    ClusterDelta d;
    d.cluster = ClusterId{r.i32()};
    if (!r.ok() || (i > 0 && !(previous < d.cluster))) {
      r.fail();
      return false;
    }
    previous = d.cluster;
    d.lo = r.i64();
    d.hi = r.i64();
    if (!r.ok() || d.lo < 0 || isInf(d.lo) || d.hi <= d.lo) {
      r.fail();
      return false;
    }
    if (isInf(d.hi)) d.hi = kTimeInf;  // one canonical infinity
    const std::uint32_t nsegs = r.u32();
    if (!r.ok() || nsegs > r.remaining() / kSegmentWireSize ||
        (d.lo == 0 && nsegs == 0)) {
      // A window over lo == 0 must re-emit t=0: the spliced function has
      // no prefix to start it. Empty windows are otherwise legal (all of
      // the new profile's breakpoints left the range).
      r.fail();
      return false;
    }
    d.window.reserve(nsegs);
    for (std::uint32_t j = 0; j < nsegs; ++j) {
      Segment seg;
      seg.start = r.i64();
      seg.value = r.i64();
      if (!r.ok()) return false;
      const bool ordered =
          j == 0 ? seg.start >= d.lo && (d.lo > 0 || seg.start == 0)
                 : seg.start > d.window.back().start &&
                       seg.value != d.window.back().value;
      if (!ordered || seg.start >= d.hi || isInf(seg.start)) {
        r.fail();
        return false;
      }
      d.window.push_back(seg);
    }
    out.push_back(std::move(d));
  }
  return r.ok();
}

}  // namespace

void encodeViewsFull(std::vector<std::uint8_t>& out, std::uint32_t seq,
                     const View& nonPreemptive, const View& preemptive) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kViewsDelta);
  w.u32(seq);
  w.u8(1);
  writeView(w, nonPreemptive);
  writeView(w, preemptive);
  endFrame(w, at);
}

void encodeViewsDelta(std::vector<std::uint8_t>& out, std::uint32_t seq,
                      std::uint32_t baseSeq,
                      const std::vector<ClusterDelta>& nonPreemptiveDeltas,
                      const std::vector<ClusterDelta>& preemptiveDeltas) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kViewsDelta);
  w.u32(seq);
  w.u8(0);
  w.u32(baseSeq);
  writeClusterDeltas(w, nonPreemptiveDeltas);
  writeClusterDeltas(w, preemptiveDeltas);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const ViewsDeltaMsg& msg) {
  if (msg.full) {
    encodeViewsFull(out, msg.seq, msg.nonPreemptive, msg.preemptive);
  } else {
    encodeViewsDelta(out, msg.seq, msg.baseSeq, msg.nonPreemptiveDeltas,
                     msg.preemptiveDeltas);
  }
}

void encode(std::vector<std::uint8_t>& out, const ViewsAckMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kViewsAck);
  w.u32(msg.seq);
  w.u8(static_cast<std::uint8_t>(msg.status));
  endFrame(w, at);
}

void encodeStarted(std::vector<std::uint8_t>& out, RequestId id,
                   const std::vector<NodeId>& nodeIds) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kStarted);
  w.i64(id.value);
  writeNodeIds(w, nodeIds);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const StartedMsg& msg) {
  encodeStarted(out, msg.id, msg.nodeIds);
}

void encode(std::vector<std::uint8_t>& out, const ExpiredMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kExpired);
  w.i64(msg.id.value);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const EndedMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kEnded);
  w.i64(msg.id.value);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const KilledMsg&) {
  Writer w(out);
  endFrame(w, beginFrame(w, MsgType::kKilled));
}

void encode(std::vector<std::uint8_t>& out, const StatsMsg&) {
  Writer w(out);
  endFrame(w, beginFrame(w, MsgType::kStats));
}

void encode(std::vector<std::uint8_t>& out, const PingMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kPing);
  w.u64(msg.nonce);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const PongMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kPong);
  w.u64(msg.nonce);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const ResumeMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kResume);
  w.i32(msg.app.value);
  w.u64(msg.token);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const ResumeAckMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kResumeAck);
  w.u8(msg.ok ? 1 : 0);
  w.i32(msg.app.value);
  endFrame(w, at);
}

void encode(std::vector<std::uint8_t>& out, const StatsReplyMsg& msg) {
  Writer w(out);
  const std::size_t at = beginFrame(w, MsgType::kStatsReply);
  w.u32(static_cast<std::uint32_t>(metrics::kEventCount));
  for (std::size_t i = 0; i < metrics::kEventCount; ++i) {
    w.u16(static_cast<std::uint16_t>(i));
    w.u64(msg.stats.events[i]);
  }
  w.u32(static_cast<std::uint32_t>(metrics::kGaugeCount));
  for (std::size_t i = 0; i < metrics::kGaugeCount; ++i) {
    w.u16(static_cast<std::uint16_t>(i));
    w.i64(msg.stats.gauges[i]);
  }
  // The histogram catalogue, sparse — only populated buckets ride the
  // wire (a histogram is 512 buckets but rarely > a few dozen are
  // nonzero), indices strictly ascending by construction.
  w.u32(static_cast<std::uint32_t>(metrics::kHistoCount));
  for (std::size_t i = 0; i < metrics::kHistoCount; ++i) {
    const metrics::HistogramData& histo = msg.stats.histos[i];
    w.u16(static_cast<std::uint16_t>(i));
    w.u64(histo.count);
    w.u64(histo.sum);
    std::uint32_t populated = 0;
    for (const std::uint64_t bucket : histo.buckets) {
      if (bucket != 0) ++populated;
    }
    w.u32(populated);
    for (std::size_t b = 0; b < metrics::kHistoBuckets; ++b) {
      if (histo.buckets[b] == 0) continue;
      w.u16(static_cast<std::uint16_t>(b));
      w.u64(histo.buckets[b]);
    }
  }
  endFrame(w, at);
}

// ---------------------------------------------------------------------------
// Frame decoding
// ---------------------------------------------------------------------------

bool decode(std::span<const std::uint8_t> payload, HelloMsg& out) {
  Reader r(payload);
  const std::uint16_t nameLen = r.u16();
  const auto name = r.bytes(nameLen);
  if (!r.done()) return false;
  out.name.assign(reinterpret_cast<const char*>(name.data()), name.size());
  return true;
}

bool decode(std::span<const std::uint8_t> payload, WelcomeMsg& out) {
  Reader r(payload);
  out.app = AppId{r.i32()};
  out.token = r.u64();
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, RequestMsg& out) {
  Reader r(payload);
  out.cookie = r.u64();
  out.spec.cluster = ClusterId{r.i32()};
  out.spec.nodes = r.i64();
  out.spec.duration = r.i64();
  const std::uint8_t type = r.u8();
  const std::uint8_t how = r.u8();
  out.spec.relatedTo = RequestId{r.i64()};
  if (!r.done()) return false;
  if (type > static_cast<std::uint8_t>(RequestType::kPreemptible)) return false;
  if (how > static_cast<std::uint8_t>(Relation::kNext)) return false;
  out.spec.type = static_cast<RequestType>(type);
  out.spec.relatedHow = static_cast<Relation>(how);
  return true;
}

bool decode(std::span<const std::uint8_t> payload, RequestAckMsg& out) {
  Reader r(payload);
  out.cookie = r.u64();
  out.id = RequestId{r.i64()};
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, DoneMsg& out) {
  Reader r(payload);
  out.id = RequestId{r.i64()};
  return readNodeIds(r, out.released) && r.done();
}

bool decode(std::span<const std::uint8_t> payload, GoodbyeMsg&) {
  return payload.empty();
}

bool decode(std::span<const std::uint8_t> payload, StartedMsg& out) {
  Reader r(payload);
  out.id = RequestId{r.i64()};
  return readNodeIds(r, out.nodeIds) && r.done();
}

bool decode(std::span<const std::uint8_t> payload, ExpiredMsg& out) {
  Reader r(payload);
  out.id = RequestId{r.i64()};
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, EndedMsg& out) {
  Reader r(payload);
  out.id = RequestId{r.i64()};
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, KilledMsg&) {
  return payload.empty();
}

bool decode(std::span<const std::uint8_t> payload, StatsMsg&) {
  return payload.empty();
}

bool decode(std::span<const std::uint8_t> payload, PingMsg& out) {
  Reader r(payload);
  out.nonce = r.u64();
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, PongMsg& out) {
  Reader r(payload);
  out.nonce = r.u64();
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, ResumeMsg& out) {
  Reader r(payload);
  out.app = AppId{r.i32()};
  out.token = r.u64();
  return r.done();
}

bool decode(std::span<const std::uint8_t> payload, ResumeAckMsg& out) {
  Reader r(payload);
  const std::uint8_t ok = r.u8();
  out.app = AppId{r.i32()};
  if (!r.done() || ok > 1) return false;
  out.ok = ok == 1;
  return true;
}

bool decode(std::span<const std::uint8_t> payload, ViewsDeltaMsg& out) {
  Reader r(payload);
  out = ViewsDeltaMsg{};
  out.seq = r.u32();
  const std::uint8_t flags = r.u8();
  if (!r.ok() || flags > 1) return false;
  out.full = flags == 1;
  if (out.full) {
    return readView(r, out.nonPreemptive) && readView(r, out.preemptive) &&
           r.done();
  }
  out.baseSeq = r.u32();
  return readClusterDeltas(r, out.nonPreemptiveDeltas) &&
         readClusterDeltas(r, out.preemptiveDeltas) && r.done();
}

bool decode(std::span<const std::uint8_t> payload, ViewsAckMsg& out) {
  Reader r(payload);
  out.seq = r.u32();
  const std::uint8_t status = r.u8();
  if (!r.done() || status > 1) return false;
  out.status = static_cast<ViewsAckMsg::Status>(status);
  return true;
}

bool decode(std::span<const std::uint8_t> payload, StatsReplyMsg& out) {
  Reader r(payload);
  out.stats = metrics::Snapshot{};
  constexpr std::size_t kPairWireSize = 2 + 8;  // id u16 + value u64/i64
  const std::uint32_t eventCount = r.u32();
  if (!r.ok() || eventCount > r.remaining() / kPairWireSize) {
    r.fail();
    return false;
  }
  for (std::uint32_t i = 0; i < eventCount; ++i) {
    const std::uint16_t id = r.u16();
    const std::uint64_t value = r.u64();
    // Unknown ids are counters this build does not have: skip them.
    if (id < metrics::kEventCount) out.stats.events[id] = value;
  }
  const std::uint32_t gaugeCount = r.u32();
  if (!r.ok() || gaugeCount > r.remaining() / kPairWireSize) {
    r.fail();
    return false;
  }
  for (std::uint32_t i = 0; i < gaugeCount; ++i) {
    const std::uint16_t id = r.u16();
    const std::int64_t value = r.i64();
    if (id < metrics::kGaugeCount) out.stats.gauges[id] = value;
  }
  // Each histogram record is at least id u16 + count/sum u64 + u32.
  constexpr std::size_t kHistoHeaderSize = 2 + 8 + 8 + 4;
  const std::uint32_t histoCount = r.u32();
  if (!r.ok() || histoCount > r.remaining() / kHistoHeaderSize) {
    r.fail();
    return false;
  }
  for (std::uint32_t i = 0; i < histoCount; ++i) {
    const std::uint16_t id = r.u16();
    const std::uint64_t count = r.u64();
    const std::uint64_t sum = r.u64();
    const std::uint32_t populated = r.u32();
    if (!r.ok() || populated > r.remaining() / kPairWireSize) {
      r.fail();
      return false;
    }
    const bool known = id < metrics::kHistoCount;
    std::uint32_t lastIndex = 0;
    for (std::uint32_t b = 0; b < populated; ++b) {
      const std::uint16_t index = r.u16();
      const std::uint64_t bucket = r.u64();
      // Indices must ascend strictly (how they are encoded); a repeat or
      // regression is corruption, not a version skew.
      if (b > 0 && index <= lastIndex) {
        r.fail();
        return false;
      }
      lastIndex = index;
      // An index past our bucket count is a newer peer's finer geometry:
      // skip the bucket, keep the record.
      if (known && index < metrics::kHistoBuckets) {
        out.stats.histos[id].buckets[index] = bucket;
      }
    }
    if (known) {
      out.stats.histos[id].count = count;
      out.stats.histos[id].sum = sum;
    }
  }
  return r.done();
}

// ---------------------------------------------------------------------------
// FrameBuffer
// ---------------------------------------------------------------------------

void FrameBuffer::append(std::span<const std::uint8_t> data) {
  // Compact once the consumed prefix dominates: keeps a long-lived
  // connection's buffer proportional to the unconsumed tail, with the
  // memmove amortized over at least 4 KiB of consumed bytes (a frame
  // dribbling in one byte at a time must not memmove per byte).
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
    ++compactions_;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

FrameBuffer::Next FrameBuffer::next(FrameView& out) {
  if (buffered() == 0 && pos_ != 0) {
    // Fully drained (the common case: every read parses to completion):
    // drop the consumed prefix for free, no memmove, capacity retained.
    buf_.clear();
    pos_ = 0;
  }
  if (buffered() < kHeaderSize) return Next::kNeedMore;
  const std::span<const std::uint8_t> head(buf_.data() + pos_, kHeaderSize);
  Reader r(head);
  const std::uint16_t magic = r.u16();
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::uint32_t length = r.u32();
  if (magic != kMagic || version != kProtocolVersion || !knownMsgType(type) ||
      length > kMaxPayload) {
    return Next::kBad;
  }
  if (buffered() < kHeaderSize + length) return Next::kNeedMore;
  out.type = static_cast<MsgType>(type);
  out.payload =
      std::span<const std::uint8_t>(buf_.data() + pos_ + kHeaderSize, length);
  pos_ += kHeaderSize + length;
  metrics::increment(metrics::Event::kFramesDecoded);
  metrics::increment(metrics::Event::kWireBytesIn, kHeaderSize + length);
  return Next::kFrame;
}

}  // namespace coorm::net
