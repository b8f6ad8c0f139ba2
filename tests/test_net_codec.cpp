// Wire-codec fuzz/property suite (run under ASan/UBSan in CI):
//  - every message type round-trips bit-exactly (decode(encode(m)) == m and
//    re-encoding reproduces the identical bytes);
//  - truncated frames are never delivered (every strict prefix of a valid
//    stream yields kNeedMore or a clean protocol error, no over-read);
//  - oversized length fields and corrupted headers are rejected as kBad;
//  - random bit flips anywhere in a frame either still decode to *some*
//    value (header + payload happened to stay well-formed) or fail
//    cleanly — never crash, never over-read, never a wild allocation;
//  - arbitrary random bytes fed to the frame parser never produce
//    undefined behaviour.
#include "coorm/net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/profile/profile_diff.hpp"

namespace coorm::net {
namespace {

// --- generators -------------------------------------------------------------

StepFunction randomProfile(Rng& rng, int maxSegments) {
  std::vector<StepFunction::Segment> segments;
  const int count = static_cast<int>(rng.uniformInt(1, maxSegments));
  Time start = 0;
  NodeCount previous = -1;
  for (int i = 0; i < count; ++i) {
    NodeCount value = rng.uniformInt(0, 512);
    if (value == previous) value += 1;
    segments.push_back({start, value});
    previous = value;
    start += rng.uniformInt(1, 100000);
  }
  return StepFunction::fromCanonical(std::move(segments));
}

View randomView(Rng& rng) {
  View view;
  const int clusters = static_cast<int>(rng.uniformInt(0, 4));
  for (int c = 0; c < clusters; ++c) {
    view.setCap(ClusterId{c}, randomProfile(rng, 12));
  }
  return view;
}

/// Same cluster set as `base`, some profiles regenerated — the shape of
/// consecutive per-session views between two scheduling passes.
View mutateView(Rng& rng, const View& base) {
  View next = base;
  for (const ClusterId cid : base.clusters()) {
    if (rng.uniformInt(0, 1) != 0) next.setCap(cid, randomProfile(rng, 12));
  }
  return next;
}

/// The daemon's delta derivation (net/daemon.cpp buildDeltas): per-cluster
/// diffWindow plus the new profile's segments inside the window.
std::vector<ClusterDelta> deltasBetween(const View& prev, const View& next) {
  std::vector<ClusterDelta> out;
  for (const ClusterId cid : next.clusters()) {
    Time lo = 0;
    Time hi = 0;
    const std::span<const Segment> segs = next.cap(cid).segments();
    if (!diffWindow(prev.cap(cid).segments(), segs, lo, hi)) continue;
    ClusterDelta d;
    d.cluster = cid;
    d.lo = lo;
    d.hi = hi;
    for (const Segment& seg : segs) {
      if (seg.start >= hi) break;
      if (seg.start >= lo) d.window.push_back(seg);
    }
    out.push_back(std::move(d));
  }
  return out;
}

/// A full-flagged VIEWS_DELTA — the sync-point push carrying both views
/// whole, drawn from `rng` in (non-preemptive, preemptive) order.
ViewsDeltaMsg fullPush(Rng& rng) {
  ViewsDeltaMsg msg;
  msg.seq = 1;
  msg.nonPreemptive = randomView(rng);
  msg.preemptive = randomView(rng);
  return msg;
}

std::vector<NodeId> randomNodeIds(Rng& rng) {
  std::vector<NodeId> ids;
  const int count = static_cast<int>(rng.uniformInt(0, 16));
  for (int i = 0; i < count; ++i) {
    ids.push_back(NodeId{ClusterId{static_cast<std::int32_t>(
                             rng.uniformInt(0, 3))},
                         static_cast<std::int32_t>(rng.uniformInt(0, 4096))});
  }
  return ids;
}

/// Parses a buffer that should hold exactly one well-formed frame.
template <typename Msg>
void expectRoundTrip(const std::vector<std::uint8_t>& bytes, const Msg& sent) {
  FrameBuffer buffer;
  buffer.append(bytes);
  FrameView frame;
  ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
  Msg received;
  ASSERT_TRUE(decode(frame.payload, received));
  EXPECT_EQ(received, sent);
  // Bit-exactness: re-encoding the decoded message reproduces the bytes.
  std::vector<std::uint8_t> again;
  encode(again, received);
  EXPECT_EQ(again, bytes);
  // And the stream is fully consumed.
  EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kNeedMore);
}

// --- round trips ------------------------------------------------------------

TEST(WireCodec, RoundTripsEveryMessageType) {
  Rng rng(20260726);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<std::uint8_t> bytes;

    HelloMsg hello{std::string("app-") +
                   std::to_string(rng.uniformInt(0, 1 << 20))};
    encode(bytes, hello);
    expectRoundTrip(bytes, hello);
    bytes.clear();

    WelcomeMsg welcome{AppId{static_cast<std::int32_t>(
        rng.uniformInt(0, 1 << 30))}};
    encode(bytes, welcome);
    expectRoundTrip(bytes, welcome);
    bytes.clear();

    RequestMsg request;
    request.cookie = static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 30));
    request.spec.cluster = ClusterId{static_cast<std::int32_t>(
        rng.uniformInt(0, 7))};
    request.spec.nodes = rng.uniformInt(1, 4096);
    request.spec.duration =
        rng.uniformInt(0, 1) != 0 ? kTimeInf : rng.uniformInt(1, 1 << 30);
    request.spec.type = static_cast<RequestType>(rng.uniformInt(0, 2));
    request.spec.relatedHow = static_cast<Relation>(rng.uniformInt(0, 2));
    request.spec.relatedTo = RequestId{rng.uniformInt(-1, 1 << 20)};
    encode(bytes, request);
    expectRoundTrip(bytes, request);
    bytes.clear();

    RequestAckMsg ack{static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 30)),
                      RequestId{rng.uniformInt(-1, 1 << 20)}};
    encode(bytes, ack);
    expectRoundTrip(bytes, ack);
    bytes.clear();

    DoneMsg done{RequestId{rng.uniformInt(0, 1 << 20)}, randomNodeIds(rng)};
    encode(bytes, done);
    expectRoundTrip(bytes, done);
    bytes.clear();

    encode(bytes, GoodbyeMsg{});
    expectRoundTrip(bytes, GoodbyeMsg{});
    bytes.clear();

    const ViewsDeltaMsg views = fullPush(rng);
    encode(bytes, views);
    expectRoundTrip(bytes, views);
    bytes.clear();

    StartedMsg started{RequestId{rng.uniformInt(0, 1 << 20)},
                       randomNodeIds(rng)};
    encode(bytes, started);
    expectRoundTrip(bytes, started);
    bytes.clear();

    ExpiredMsg expired{RequestId{rng.uniformInt(0, 1 << 20)}};
    encode(bytes, expired);
    expectRoundTrip(bytes, expired);
    bytes.clear();

    EndedMsg ended{RequestId{rng.uniformInt(0, 1 << 20)}};
    encode(bytes, ended);
    expectRoundTrip(bytes, ended);
    bytes.clear();

    encode(bytes, KilledMsg{});
    expectRoundTrip(bytes, KilledMsg{});
    bytes.clear();
  }
}

TEST(WireCodec, ViewProfilesWithSentinelTimesRoundTrip) {
  // kTimeInf/kNever-adjacent values survive the i64 encoding untouched.
  View view;
  view.setCap(ClusterId{0},
              StepFunction::fromCanonical(std::vector<Segment>{
                  {0, 5}, {kTimeInf - 1, 3}, {kTimeInf, 0}}));
  ViewsDeltaMsg msg;
  msg.seq = 1;
  msg.nonPreemptive = view;
  std::vector<std::uint8_t> bytes;
  encode(bytes, msg);
  expectRoundTrip(bytes, msg);
}

// --- VIEWS_DELTA / VIEWS_ACK -------------------------------------------------

TEST(WireCodec, ViewsAckRoundTripsAndRejectsBadStatus) {
  for (const auto status :
       {ViewsAckMsg::Status::kApplied, ViewsAckMsg::Status::kResync}) {
    ViewsAckMsg ack{0xdeadbeefu, status};
    std::vector<std::uint8_t> bytes;
    encode(bytes, ack);
    expectRoundTrip(bytes, ack);
  }
  // Status bytes beyond the enum are a protocol error, not UB.
  std::vector<std::uint8_t> bytes;
  encode(bytes, ViewsAckMsg{7, ViewsAckMsg::Status::kApplied});
  bytes.back() = 2;
  FrameBuffer buffer;
  buffer.append(bytes);
  FrameView frame;
  ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
  ViewsAckMsg out;
  EXPECT_FALSE(decode(frame.payload, out));
}

TEST(WireCodec, ViewsDeltaFullPushesRoundTrip) {
  Rng rng(20260801);
  for (int iteration = 0; iteration < 100; ++iteration) {
    ViewsDeltaMsg msg;
    msg.seq = static_cast<std::uint32_t>(rng.uniformInt(1, 1 << 30));
    msg.full = true;
    msg.nonPreemptive = randomView(rng);
    msg.preemptive = randomView(rng);
    std::vector<std::uint8_t> bytes;
    encodeViewsFull(bytes, msg.seq, msg.nonPreemptive, msg.preemptive);
    expectRoundTrip(bytes, msg);
  }
}

TEST(WireCodec, ViewsDeltaRoundTripsAndSplicesBitExactly) {
  // The whole delta-push contract in one property: the daemon-side
  // derivation (diffWindow + window extraction), the wire round trip, and
  // the client-side spliceWindow application reconstruct the pushed views
  // bit-exactly from the previously-applied ones.
  Rng rng(20260808);
  int nonTrivial = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const View prevNp = randomView(rng);
    const View prevP = randomView(rng);
    const View nextNp = mutateView(rng, prevNp);
    const View nextP = mutateView(rng, prevP);
    ViewsDeltaMsg msg;
    msg.seq = static_cast<std::uint32_t>(rng.uniformInt(2, 1 << 30));
    msg.full = false;
    msg.baseSeq = msg.seq - 1;
    msg.nonPreemptiveDeltas = deltasBetween(prevNp, nextNp);
    msg.preemptiveDeltas = deltasBetween(prevP, nextP);
    nonTrivial += msg.nonPreemptiveDeltas.empty() ? 0 : 1;

    std::vector<std::uint8_t> bytes;
    encodeViewsDelta(bytes, msg.seq, msg.baseSeq, msg.nonPreemptiveDeltas,
                     msg.preemptiveDeltas);
    expectRoundTrip(bytes, msg);

    View np = prevNp;
    for (const ClusterDelta& d : msg.nonPreemptiveDeltas) {
      spliceWindow(np.capRef(d.cluster), d.lo, d.hi, d.window);
    }
    View p = prevP;
    for (const ClusterDelta& d : msg.preemptiveDeltas) {
      spliceWindow(p.capRef(d.cluster), d.lo, d.hi, d.window);
    }
    EXPECT_EQ(np, nextNp);
    EXPECT_EQ(p, nextP);
  }
  EXPECT_GT(nonTrivial, 50);  // the generator actually produced deltas
}

TEST(WireCodec, ViewWireSizeMatchesEncoding) {
  Rng rng(11);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const View view = randomView(rng);
    std::vector<std::uint8_t> bytes;
    Writer w(bytes);
    writeView(w, view);
    EXPECT_EQ(bytes.size(), viewWireSize(view));
  }
}

TEST(WireCodec, TruncatedDeltaPayloadsAreRejected) {
  Rng rng(13);
  const View prev = randomView(rng);
  View next = mutateView(rng, prev);
  next.setCap(ClusterId{9}, randomProfile(rng, 8));  // guarantee a window
  std::vector<std::uint8_t> bytes;
  encodeViewsDelta(bytes, 5, 4, deltasBetween(prev, next),
                   std::vector<ClusterDelta>{});
  FrameBuffer buffer;
  buffer.append(bytes);
  FrameView frame;
  ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
  ViewsDeltaMsg ok;
  ASSERT_TRUE(decode(frame.payload, ok));
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    ViewsDeltaMsg out;
    EXPECT_FALSE(decode(frame.payload.first(cut), out));
  }
}

TEST(WireCodec, MalformedDeltaWindowsAreRejected) {
  // Windows that would break canonical form when spliced must fail decode
  // — spliceWindow's preconditions are enforced at the trust boundary.
  struct Case {
    const char* what;
    Time lo, hi;
    std::vector<std::pair<Time, Time>> segments;  // (start, value)
  };
  const std::vector<Case> cases = {
      {"hi <= lo", 10, 10, {}},
      {"negative lo", -1, 10, {}},
      {"window start below lo", 10, 50, {{5, 1}}},
      {"window start at hi", 10, 50, {{50, 1}}},
      {"window starts not increasing", 10, 50, {{20, 1}, {20, 2}}},
      {"adjacent equal values", 10, 50, {{20, 1}, {30, 1}}},
      {"empty window over t=0", 0, 50, {}},
      {"window over t=0 not starting at 0", 0, 50, {{5, 1}}},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bytes;
    Writer w(bytes);
    w.u16(kMagic);
    w.u8(kProtocolVersion);
    w.u8(static_cast<std::uint8_t>(MsgType::kViewsDelta));
    const std::size_t lengthAt = bytes.size();
    w.u32(0);
    w.u32(2);  // seq
    w.u8(0);   // delta flags
    w.u32(1);  // baseSeq
    w.u32(1);  // one np delta
    w.i32(0);
    w.i64(c.lo);
    w.i64(c.hi);
    w.u32(static_cast<std::uint32_t>(c.segments.size()));
    for (const auto& [start, value] : c.segments) {
      w.i64(start);
      w.i64(value);
    }
    w.u32(0);  // no preemptive deltas
    w.patchU32(lengthAt,
               static_cast<std::uint32_t>(bytes.size() - lengthAt - 4));
    FrameBuffer buffer;
    buffer.append(bytes);
    FrameView frame;
    ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame) << c.what;
    ViewsDeltaMsg out;
    EXPECT_FALSE(decode(frame.payload, out)) << c.what;
  }
  // Duplicate / non-increasing cluster ids across deltas.
  std::vector<std::uint8_t> bytes;
  Writer w(bytes);
  w.u16(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kViewsDelta));
  const std::size_t lengthAt = bytes.size();
  w.u32(0);
  w.u32(2);
  w.u8(0);
  w.u32(1);
  w.u32(2);  // two np deltas, same cluster id
  for (int i = 0; i < 2; ++i) {
    w.i32(3);
    w.i64(10);
    w.i64(20);
    w.u32(0);
  }
  w.u32(0);
  w.patchU32(lengthAt,
             static_cast<std::uint32_t>(bytes.size() - lengthAt - 4));
  FrameBuffer buffer;
  buffer.append(bytes);
  FrameView frame;
  ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
  ViewsDeltaMsg out;
  EXPECT_FALSE(decode(frame.payload, out));
}

TEST(WireCodec, DeltaBitFlipsNeverCrashAndSurvivorsSpliceSafely) {
  // The decoder's strict validation is what lets the client splice a
  // hostile frame without tripping StepFunction invariants: any flipped
  // frame that still decodes must splice onto ANY base holding its
  // clusters and yield a canonical profile (CHECKed inside StepFunction).
  Rng rng(31337);
  for (int iteration = 0; iteration < 400; ++iteration) {
    const View prev = randomView(rng);
    const View next = mutateView(rng, prev);
    std::vector<std::uint8_t> bytes;
    if (rng.uniformInt(0, 3) == 0) {
      encodeViewsFull(bytes, 2, next, prev);
    } else {
      encodeViewsDelta(bytes, 2, 1, deltasBetween(prev, next),
                       deltasBetween(prev, prev));
    }
    const std::size_t at =
        static_cast<std::size_t>(rng.uniformInt(0, std::ssize(bytes) - 1));
    bytes[at] ^= static_cast<std::uint8_t>(1 << rng.uniformInt(0, 7));

    FrameBuffer buffer;
    buffer.append(bytes);
    FrameView frame;
    FrameBuffer::Next result;
    while ((result = buffer.next(frame)) == FrameBuffer::Next::kFrame) {
      ViewsDeltaMsg msg;
      if (!decode(frame.payload, msg) || msg.full) continue;
      View base = prev;
      const std::vector<ClusterId> have = base.clusters();
      for (const ClusterDelta& d : msg.nonPreemptiveDeltas) {
        if (!std::binary_search(have.begin(), have.end(), d.cluster)) break;
        spliceWindow(base.capRef(d.cluster), d.lo, d.hi, d.window);
      }
    }
  }
}

TEST(WireCodec, FramesSurviveArbitraryChunking) {
  Rng rng(7);
  std::vector<std::uint8_t> stream;
  const ViewsDeltaMsg views = fullPush(rng);
  StartedMsg started{RequestId{42}, randomNodeIds(rng)};
  encode(stream, views);
  encode(stream, started);
  encode(stream, KilledMsg{});

  for (int trial = 0; trial < 50; ++trial) {
    FrameBuffer buffer;
    std::size_t fed = 0;
    int frames = 0;
    while (fed < stream.size()) {
      const std::size_t chunk = static_cast<std::size_t>(
          rng.uniformInt(1, 7));
      const std::size_t n = std::min(chunk, stream.size() - fed);
      buffer.append({stream.data() + fed, n});
      fed += n;
      FrameView frame;
      FrameBuffer::Next next;
      while ((next = buffer.next(frame)) == FrameBuffer::Next::kFrame) {
        ++frames;
      }
      ASSERT_EQ(next, FrameBuffer::Next::kNeedMore);
    }
    EXPECT_EQ(frames, 3);
  }
}

// --- malformed input --------------------------------------------------------

TEST(WireCodec, TruncatedFramesAreNeverDelivered) {
  Rng rng(99);
  std::vector<std::uint8_t> bytes;
  encode(bytes, fullPush(rng));

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameBuffer buffer;
    buffer.append({bytes.data(), cut});
    FrameView frame;
    // A strict prefix of one frame can never deliver a frame; it either
    // wants more bytes or (with nothing to misread) stays clean.
    EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kNeedMore);
  }

  // Truncating *inside* the payload while lying about the length: decoders
  // must reject, never over-read.
  FrameBuffer buffer;
  buffer.append(bytes);
  FrameView frame;
  ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    ViewsDeltaMsg out;
    EXPECT_FALSE(decode(frame.payload.first(cut), out));
  }
}

TEST(WireCodec, OversizedAndCorruptHeadersAreRejected) {
  std::vector<std::uint8_t> bytes;
  encode(bytes, ExpiredMsg{RequestId{1}});

  {  // bad magic
    auto bad = bytes;
    bad[0] ^= 0xff;
    FrameBuffer buffer;
    buffer.append(bad);
    FrameView frame;
    EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kBad);
  }
  {  // unknown version
    auto bad = bytes;
    bad[2] = kProtocolVersion + 1;
    FrameBuffer buffer;
    buffer.append(bad);
    FrameView frame;
    EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kBad);
  }
  {  // unknown message type
    auto bad = bytes;
    bad[3] = 0x3f;
    FrameBuffer buffer;
    buffer.append(bad);
    FrameView frame;
    EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kBad);
  }
  {  // the retired full-views type, a hole in the downstream range
    auto bad = bytes;
    bad[3] = 0x43;
    FrameBuffer buffer;
    buffer.append(bad);
    FrameView frame;
    EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kBad);
  }
  {  // length beyond kMaxPayload
    auto bad = bytes;
    bad[4] = 0xff;
    bad[5] = 0xff;
    bad[6] = 0xff;
    bad[7] = 0xff;
    FrameBuffer buffer;
    buffer.append(bad);
    FrameView frame;
    EXPECT_EQ(buffer.next(frame), FrameBuffer::Next::kBad);
  }
}

TEST(WireCodec, CountFieldsAreBoundedByPayload) {
  // A DONE frame whose node-id count field claims 2^31 entries but whose
  // payload holds none: the decoder must fail before allocating.
  std::vector<std::uint8_t> bytes;
  Writer w(bytes);
  w.u16(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kDone));
  w.u32(8 + 4);          // payload: id + count only
  w.i64(7);              // request id
  w.u32(0x7fffffffu);    // huge count, no data
  FrameBuffer buffer;
  buffer.append(bytes);
  FrameView frame;
  ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
  DoneMsg out;
  EXPECT_FALSE(decode(frame.payload, out));

  // Same for a full views push lying about its segment count.
  bytes.clear();
  w.u16(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kViewsDelta));
  w.u32(4 + 1 + 4 + 4 + 4);
  w.u32(1);            // seq
  w.u8(1);             // full
  w.u32(1);            // one cluster
  w.i32(0);            // cluster id
  w.u32(0x40000000u);  // absurd segment count
  FrameBuffer buffer2;
  buffer2.append(bytes);
  ASSERT_EQ(buffer2.next(frame), FrameBuffer::Next::kFrame);
  ViewsDeltaMsg viewsOut;
  EXPECT_FALSE(decode(frame.payload, viewsOut));
}

TEST(WireCodec, NonCanonicalProfilesAreRejected) {
  const auto frameWithSegments =
      [](std::initializer_list<std::pair<Time, NodeCount>> segments) {
        std::vector<std::uint8_t> bytes;
        Writer w(bytes);
        w.u16(kMagic);
        w.u8(kProtocolVersion);
        w.u8(static_cast<std::uint8_t>(MsgType::kViewsDelta));
        const std::size_t lengthAt = bytes.size();
        w.u32(0);
        w.u32(1);  // seq
        w.u8(1);   // full
        w.u32(1);  // one cluster in the np view
        w.i32(0);
        w.u32(static_cast<std::uint32_t>(segments.size()));
        for (const auto& [start, value] : segments) {
          w.i64(start);
          w.i64(value);
        }
        w.u32(0);  // empty preemptive view
        w.patchU32(lengthAt,
                   static_cast<std::uint32_t>(bytes.size() - lengthAt - 4));
        return bytes;
      };

  const auto expectRejected = [](const std::vector<std::uint8_t>& bytes) {
    FrameBuffer buffer;
    buffer.append(bytes);
    FrameView frame;
    ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
    ViewsDeltaMsg out;
    EXPECT_FALSE(decode(frame.payload, out));
  };

  expectRejected(frameWithSegments({{5, 1}}));            // first not at 0
  expectRejected(frameWithSegments({{0, 1}, {0, 2}}));    // non-increasing
  expectRejected(frameWithSegments({{0, 2}, {10, 1}, {5, 3}}));  // decreasing
  expectRejected(frameWithSegments({{0, 2}, {10, 2}}));   // equal adjacent
  expectRejected(frameWithSegments({}));                  // zero segments
}

TEST(WireCodec, BitFlipsNeverCrashTheDecoder) {
  Rng rng(4242);
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<std::uint8_t> bytes;
    const ViewsDeltaMsg views = fullPush(rng);
    DoneMsg done{RequestId{3}, randomNodeIds(rng)};
    encode(bytes, views);
    encode(bytes, done);

    const std::size_t at =
        static_cast<std::size_t>(rng.uniformInt(0, std::ssize(bytes) - 1));
    bytes[at] ^= static_cast<std::uint8_t>(1 << rng.uniformInt(0, 7));

    FrameBuffer buffer;
    buffer.append(bytes);
    FrameView frame;
    // Walk the whole (possibly corrupt) stream: every outcome is
    // acceptable except a crash/over-read, which the sanitizers catch.
    FrameBuffer::Next next;
    while ((next = buffer.next(frame)) == FrameBuffer::Next::kFrame) {
      ViewsDeltaMsg viewsOut;
      DoneMsg doneOut;
      switch (frame.type) {
        case MsgType::kViewsDelta:
          (void)decode(frame.payload, viewsOut);
          break;
        case MsgType::kDone:
          (void)decode(frame.payload, doneOut);
          break;
        default: {
          // A flipped type byte may land on any other known type; decode
          // as that type to exercise its validator too.
          StartedMsg s;
          HelloMsg h;
          RequestMsg r;
          (void)decode(frame.payload, s);
          (void)decode(frame.payload, h);
          (void)decode(frame.payload, r);
          break;
        }
      }
    }
  }
}

// --- STATS_REPLY --------------------------------------------------------------

/// A snapshot exercising the sparse histogram encoding: bucket 0, a mid
/// bucket, and the saturation bucket, plus a second histogram and plain
/// counters/gauges.
metrics::Snapshot richSnapshot() {
  metrics::Snapshot snap{};
  snap.events[0] = 41;
  snap.events[metrics::kEventCount - 1] = 9;
  snap.gauges[0] = -12;
  metrics::HistogramData& pass =
      snap.histos[static_cast<std::size_t>(metrics::Histo::kPassLatencyUs)];
  pass.buckets[0] = 3;
  pass.buckets[37] = 2;
  pass.buckets[metrics::kHistoBuckets - 1] = 1;
  pass.count = 6;
  pass.sum = 123456;
  metrics::HistogramData& rtt =
      snap.histos[static_cast<std::size_t>(metrics::Histo::kRequestRttUs)];
  rtt.buckets[200] = 9;
  rtt.count = 9;
  rtt.sum = 900;
  return snap;
}

TEST(WireCodec, StatsReplyRoundTripsTheHistogramCatalogue) {
  std::vector<std::uint8_t> bytes;
  const StatsReplyMsg sent{richSnapshot()};
  encode(bytes, sent);
  expectRoundTrip(bytes, sent);
}

TEST(WireCodec, StatsReplyTruncationsAreRejected) {
  std::vector<std::uint8_t> payload;
  {
    std::vector<std::uint8_t> framed;
    encode(framed, StatsReplyMsg{richSnapshot()});
    payload.assign(framed.begin() + 8, framed.end());  // strip frame header
  }
  // Every strict prefix fails, including the cut right after the gauges:
  // the histogram catalogue is part of the one payload layout.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    StatsReplyMsg out;
    EXPECT_FALSE(
        decode(std::span<const std::uint8_t>(payload.data(), cut), out))
        << "cut at " << cut;
  }
}

TEST(WireCodec, StatsReplySkipsUnknownIdsAndForeignBuckets) {
  // A newer peer may ship counters and histogram geometry this build does
  // not know; records with unknown ids (and bucket indices past our 512)
  // are skipped without failing the payload.
  std::vector<std::uint8_t> payload;
  Writer w(payload);
  w.u32(1);
  w.u16(static_cast<std::uint16_t>(metrics::kEventCount + 5));
  w.u64(99);
  w.u32(0);  // no gauges
  w.u32(2);  // two histogram records
  // Unknown histogram id: the whole record is skipped.
  w.u16(static_cast<std::uint16_t>(metrics::kHistoCount + 2));
  w.u64(4);
  w.u64(400);
  w.u32(1);
  w.u16(3);
  w.u64(4);
  // Known id: one in-range bucket kept, one past our geometry dropped.
  w.u16(static_cast<std::uint16_t>(metrics::Histo::kPassLatencyUs));
  w.u64(5);
  w.u64(500);
  w.u32(2);
  w.u16(7);
  w.u64(4);
  w.u16(static_cast<std::uint16_t>(metrics::kHistoBuckets + 100));
  w.u64(1);
  StatsReplyMsg out;
  ASSERT_TRUE(decode(payload, out));
  const metrics::HistogramData& pass =
      out.stats.histos[static_cast<std::size_t>(metrics::Histo::kPassLatencyUs)];
  EXPECT_EQ(pass.count, 5u);
  EXPECT_EQ(pass.sum, 500u);
  EXPECT_EQ(pass.buckets[7], 4u);
  EXPECT_EQ(pass.totalInBuckets(), 4u);
  for (std::size_t i = 0; i < metrics::kEventCount; ++i) {
    EXPECT_EQ(out.stats.events[i], 0u) << "event " << i;
  }
}

TEST(WireCodec, StatsReplyRejectsNonAscendingBucketIndices) {
  const auto payloadWithIndices = [](std::uint16_t first,
                                     std::uint16_t second) {
    std::vector<std::uint8_t> payload;
    Writer w(payload);
    w.u32(0);  // no events
    w.u32(0);  // no gauges
    w.u32(1);
    w.u16(0);
    w.u64(2);
    w.u64(20);
    w.u32(2);
    w.u16(first);
    w.u64(1);
    w.u16(second);
    w.u64(1);
    return payload;
  };
  StatsReplyMsg out;
  EXPECT_TRUE(decode(payloadWithIndices(3, 9), out));   // sanity: ascending
  EXPECT_FALSE(decode(payloadWithIndices(9, 3), out));  // regression
  EXPECT_FALSE(decode(payloadWithIndices(9, 9), out));  // repeat
}

TEST(WireCodec, StatsReplyBitFlipsNeverCrashTheDecoder) {
  Rng rng(20260808);
  std::vector<std::uint8_t> pristine;
  encode(pristine, StatsReplyMsg{richSnapshot()});
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<std::uint8_t> bytes = pristine;
    const std::size_t at =
        static_cast<std::size_t>(rng.uniformInt(0, std::ssize(bytes) - 1));
    bytes[at] ^= static_cast<std::uint8_t>(1 << rng.uniformInt(0, 7));
    FrameBuffer buffer;
    buffer.append(bytes);
    FrameView frame;
    while (buffer.next(frame) == FrameBuffer::Next::kFrame) {
      StatsReplyMsg out;
      (void)decode(frame.payload, out);
    }
  }
}

// --- FrameBuffer storage management -----------------------------------------

TEST(FrameBuffer, DribbledFramesCompactAmortizedNotPerByte) {
  // A frame arriving one byte at a time must not memmove the buffer per
  // append. Two regimes are pinned:
  //  - full drains (every frame parsed to completion before more bytes
  //    arrive) recycle storage for free — zero compactions;
  //  - a consumed prefix with an unconsumed tail behind it is compacted
  //    once the prefix dominates — one memmove, amortized over >= 4 KiB.
  std::vector<Segment> segments;
  for (int i = 0; i < 600; ++i) {
    segments.push_back({sec(i), (i % 2 == 0) ? 7 : 9});
  }
  View big;
  big.setCap(ClusterId{0}, StepFunction::fromCanonical(std::move(segments)));
  std::vector<std::uint8_t> stream;
  encodeViewsFull(stream, 1, big, View{});
  const std::size_t bigFrame = stream.size();
  ASSERT_GT(bigFrame, 8192u);  // large enough to cross the 4 KiB threshold
  for (int i = 0; i < 50; ++i) encode(stream, ExpiredMsg{RequestId{i}});

  {  // Regime 1: dribble the whole stream, draining after every byte.
    FrameBuffer buffer;
    int frames = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      buffer.append({stream.data() + i, 1});
      FrameView frame;
      while (buffer.next(frame) == FrameBuffer::Next::kFrame) ++frames;
    }
    EXPECT_EQ(frames, 51);
    EXPECT_EQ(buffer.compactions(), 0u);
    EXPECT_EQ(buffer.buffered(), 0u);
  }

  {  // Regime 2: the big frame lands with one byte of the next frame
    // behind it, so the drain is never total; the rest dribbles in.
    FrameBuffer buffer;
    buffer.append({stream.data(), bigFrame + 1});
    FrameView frame;
    ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kFrame);
    ASSERT_EQ(buffer.next(frame), FrameBuffer::Next::kNeedMore);
    int frames = 0;
    for (std::size_t i = bigFrame + 1; i < stream.size(); ++i) {
      buffer.append({stream.data() + i, 1});
      while (buffer.next(frame) == FrameBuffer::Next::kFrame) ++frames;
    }
    EXPECT_EQ(frames, 50);
    // The dominated prefix was memmoved away exactly once, not per byte,
    // and storage ends bounded by the tail, not the whole history.
    EXPECT_EQ(buffer.compactions(), 1u);
    EXPECT_LT(buffer.storageBytes(), bigFrame);
  }
}

TEST(WireCodec, RandomBytesNeverCrashTheParser) {
  Rng rng(777);
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 256)));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    FrameBuffer buffer;
    buffer.append(junk);
    FrameView frame;
    while (buffer.next(frame) == FrameBuffer::Next::kFrame) {
      ViewsDeltaMsg out;
      (void)decode(frame.payload, out);
    }
  }
}

}  // namespace
}  // namespace coorm::net
