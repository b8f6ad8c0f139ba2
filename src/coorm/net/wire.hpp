// The CooRMv2 wire protocol: versioned, length-prefixed binary frames.
//
// The paper's evaluation simulator was derived from the real-life prototype
// "by replacing remote calls with direct function calls" (§5); this header
// is the inverse derivation — the remote-call encoding of the very same
// message set. The framing follows the XRootD school (fixed packed header,
// all binary values in network byte order, payload length up front so a
// stream reader never guesses):
//
//   frame   := header payload
//   header  := magic:u16 version:u8 type:u8 length:u32     (8 bytes, BE)
//   payload := `length` bytes, layout per message type
//
// Message set: the full CooRMv2 protocol of §3.1, plus the handshake acks
// a remote transport needs where a function call would just return. The
// payload layouts below are the spec (README "Wire format" renders the
// same table):
//
//   upstream (application -> RMS)
//   HELLO        0x01  nameLen:u16 name[nameLen]
//   REQUEST      0x02  cookie:u64 cluster:i32 nodes:i64 duration:i64
//                      type:u8 relatedHow:u8 relatedTo:i64
//   DONE         0x03  requestId:i64 nodeIds
//   GOODBYE      0x04  (empty)
//   STATS        0x05  (empty)
//   PING         0x06  nonce:u64
//   RESUME       0x07  appId:i32 token:u64
//   VIEWS_ACK    0x08  seq:u32 status:u8        (0 applied, 1 resync)
//
//   downstream (RMS -> application); 0x43 is unassigned
//   WELCOME      0x41  appId:i32 token:u64
//   REQ_ACK      0x42  cookie:u64 requestId:i64 (invalid id = rejected)
//   STARTED      0x44  requestId:i64 nodeIds
//   EXPIRED      0x45  requestId:i64
//   ENDED        0x46  requestId:i64
//   KILLED       0x47  (empty)
//   STATS_REPLY  0x48  eventCount:u32 (id:u16 value:u64)*
//                      gaugeCount:u32 (id:u16 value:i64)*
//                      histoCount:u32 (id:u16 count:u64 sum:u64
//                                      populated:u32 (bucket:u16 n:u64)*)*
//   PONG         0x49  nonce:u64
//   RESUME_ACK   0x4A  ok:u8 appId:i32
//   VIEWS_DELTA  0x4B  seq:u32 flags:u8, then
//                        flags = 1 (full):  view view   (non-preemptive,
//                                                        preemptive)
//                        flags = 0 (delta): baseSeq:u32 deltas deltas
//
//   nodeIds := count:u32 (cluster:i32 index:i32)*
//   view    := count:u32 (cluster:i32 segCount:u32 (start:i64 value:i64)*)*
//   deltas  := count:u32 (cluster:i32 lo:i64 hi:i64
//                         segCount:u32 (start:i64 value:i64)*)*
//
// VIEWS_DELTA is the only view push: every push carries a sequence number
// and is either a full view pair (a sync point) or, once the client has
// acked the previous push, per-cluster splice windows against that acked
// base — the segment-level diff the incremental scheduler already
// computes (profile/profile_diff.hpp), typically a few dozen bytes instead
// of a whole multi-KiB view pair. The client applies and VIEWS_ACKs each
// push; any gap, unknown cluster or malformed window makes it ack
// `resync` and the daemon answers with a fresh full push.
//
// PING/PONG is the liveness probe behind the daemon's idle-session sweep
// (either side may PING; the peer echoes the nonce). RESUME re-attaches a
// disconnected application to its surviving (or journal-replayed) session:
// the WELCOME hands out a per-session secret token, and a client that loses
// its TCP connection dials back and presents (appId, token) instead of
// HELLOing fresh — see README "Crash safety & recovery".
//
// STATS is an admin query, answered with a STATS_REPLY holding the
// daemon's metrics snapshot (common/metrics.hpp) as (id, value) pairs —
// explicit ids rather than positional arrays, so decoders skip counters
// they do not know and replies stay forward-compatible as counters are
// added. Histogram buckets are sparse: only nonzero ones ride the wire,
// indices strictly ascending. STATS needs no session: monitoring
// connects, queries, leaves.
//
// Integers are big-endian two's complement. Decoding validates canonical
// form (first segment at t=0, strictly increasing starts, adjacent values
// differing, strictly increasing cluster ids), so every accepted frame
// round-trips bit-exactly and malformed frames are rejected with a
// protocol error — never a crash, an over-read or an unchecked
// allocation. Encoding is allocation-light: frames append to a
// caller-owned byte buffer that amortizes across messages.
//
// Versioning policy: `kProtocolVersion` names the frame layout above. A
// peer rejects frames whose version it does not speak (closing the
// connection); additions within a version append new message types,
// never reshape existing payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coorm/common/ids.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/profile/view.hpp"
#include "coorm/rms/request.hpp"

namespace coorm::net {

inline constexpr std::uint16_t kMagic = 0xC052;  // "CooRMv2", squinting
inline constexpr std::uint8_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderSize = 8;
/// Upper bound on a payload; larger length fields are a protocol error
/// (a views push of 4096-breakpoint profiles is ~128 KiB).
inline constexpr std::uint32_t kMaxPayload = 4u << 20;

enum class MsgType : std::uint8_t {
  // upstream (application -> RMS)
  kHello = 0x01,
  kRequest = 0x02,
  kDone = 0x03,
  kGoodbye = 0x04,
  kStats = 0x05,
  kPing = 0x06,
  kResume = 0x07,
  kViewsAck = 0x08,
  // downstream (RMS -> application)
  kWelcome = 0x41,
  kRequestAck = 0x42,
  kStarted = 0x44,
  kExpired = 0x45,
  kEnded = 0x46,
  kKilled = 0x47,
  kStatsReply = 0x48,
  kPong = 0x49,
  kResumeAck = 0x4A,
  kViewsDelta = 0x4B,
};

[[nodiscard]] bool knownMsgType(std::uint8_t raw);
[[nodiscard]] const char* toString(MsgType type);

// --- message payloads -------------------------------------------------------

struct HelloMsg {
  std::string name;  ///< application name, for server-side traces
  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

struct WelcomeMsg {
  AppId app{};
  /// Per-session secret for the RESUME handshake.
  std::uint64_t token = 0;
  friend bool operator==(const WelcomeMsg&, const WelcomeMsg&) = default;
};

struct RequestMsg {
  /// Client-chosen correlation token echoed by the REQ_ACK (the remote
  /// stand-in for request()'s synchronous return value).
  std::uint64_t cookie = 0;
  RequestSpec spec;
  friend bool operator==(const RequestMsg& a, const RequestMsg& b) {
    return a.cookie == b.cookie && a.spec.cluster == b.spec.cluster &&
           a.spec.nodes == b.spec.nodes && a.spec.duration == b.spec.duration &&
           a.spec.type == b.spec.type && a.spec.relatedHow == b.spec.relatedHow &&
           a.spec.relatedTo == b.spec.relatedTo;
  }
};

struct RequestAckMsg {
  std::uint64_t cookie = 0;
  RequestId id{};  ///< invalid id = request rejected
  friend bool operator==(const RequestAckMsg&, const RequestAckMsg&) = default;
};

struct DoneMsg {
  RequestId id{};
  std::vector<NodeId> released;
  friend bool operator==(const DoneMsg&, const DoneMsg&) = default;
};

struct GoodbyeMsg {
  friend bool operator==(const GoodbyeMsg&, const GoodbyeMsg&) = default;
};

/// One cluster's splice window inside a delta push: the pushed view's
/// segments whose start lies in [lo, hi) — exactly the emit-on-change
/// window profile_diff's spliceWindow() reconstructs the new profile
/// from, given the previously-applied one. An empty window is legal (the
/// new profile has no breakpoints inside the changed range).
struct ClusterDelta {
  ClusterId cluster{};
  Time lo = 0;
  Time hi = 0;
  std::vector<Segment> window;
  friend bool operator==(const ClusterDelta&, const ClusterDelta&) = default;
};

/// Sequenced view push (VIEWS_DELTA). `full` pushes carry the complete
/// view pair and need no base; delta pushes splice per-cluster windows
/// into the views the client applied at `baseSeq`. Clusters absent from a
/// delta's lists are unchanged.
struct ViewsDeltaMsg {
  std::uint32_t seq = 0;
  bool full = true;
  // full == true:
  View nonPreemptive;
  View preemptive;
  // full == false:
  std::uint32_t baseSeq = 0;
  std::vector<ClusterDelta> nonPreemptiveDeltas;
  std::vector<ClusterDelta> preemptiveDeltas;
  friend bool operator==(const ViewsDeltaMsg&, const ViewsDeltaMsg&) = default;
};

/// Client's receipt for one sequenced push: `kApplied` confirms the views
/// at `seq` are now the client's base (the daemon may diff against them);
/// `kResync` reports a gap or decode failure and requests a full push.
struct ViewsAckMsg {
  enum class Status : std::uint8_t {
    kApplied = 0,
    kResync = 1,
  };
  std::uint32_t seq = 0;
  Status status = Status::kApplied;
  friend bool operator==(const ViewsAckMsg&, const ViewsAckMsg&) = default;
};

struct StartedMsg {
  RequestId id{};
  std::vector<NodeId> nodeIds;
  friend bool operator==(const StartedMsg&, const StartedMsg&) = default;
};

struct ExpiredMsg {
  RequestId id{};
  friend bool operator==(const ExpiredMsg&, const ExpiredMsg&) = default;
};

struct EndedMsg {
  RequestId id{};
  friend bool operator==(const EndedMsg&, const EndedMsg&) = default;
};

struct KilledMsg {
  friend bool operator==(const KilledMsg&, const KilledMsg&) = default;
};

/// Admin query for the daemon's metrics snapshot; empty payload, allowed
/// with or without a session.
struct StatsMsg {
  friend bool operator==(const StatsMsg&, const StatsMsg&) = default;
};

/// Liveness probe; the peer echoes the nonce back in a PONG. Either
/// direction may probe (the daemon's idle sweep is the main sender).
struct PingMsg {
  std::uint64_t nonce = 0;
  friend bool operator==(const PingMsg&, const PingMsg&) = default;
};

struct PongMsg {
  std::uint64_t nonce = 0;
  friend bool operator==(const PongMsg&, const PongMsg&) = default;
};

/// Re-attach to an existing session after a connection loss: the client
/// presents the (appId, token) pair its WELCOME handed out.
struct ResumeMsg {
  AppId app{};
  std::uint64_t token = 0;
  friend bool operator==(const ResumeMsg&, const ResumeMsg&) = default;
};

/// Answer to a RESUME. `ok == false` means the session cannot be resumed
/// (unknown app, token mismatch, or the session was killed/ended) — the
/// client must treat the session as gone.
struct ResumeAckMsg {
  bool ok = false;
  AppId app{};
  friend bool operator==(const ResumeAckMsg&, const ResumeAckMsg&) = default;
};

/// The daemon's metrics snapshot. Counters and gauges are explicit
/// (id, value) pairs, followed by the histogram catalogue as (id, count,
/// sum, sparse ascending bucket vector) records. Decoding ignores unknown
/// ids and out-of-range bucket indices, so a newer peer's extra catalogue
/// entries read cleanly.
struct StatsReplyMsg {
  metrics::Snapshot stats;
  friend bool operator==(const StatsReplyMsg&, const StatsReplyMsg&) = default;
};

// --- primitive big-endian serialization -------------------------------------

/// Append-only big-endian writer over a caller-owned buffer (reuse the
/// buffer across frames to amortize allocations).
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t n);

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  /// Overwrite 4 bytes at `offset` (frame-length back-patching).
  void patchU32(std::size_t offset, std::uint32_t v);

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked big-endian reader with a sticky failure flag: any read
/// past the end (or an explicit fail()) poisons the reader, subsequent
/// reads return zero, and the caller checks ok()/done() once at the end.
/// By construction no read ever touches memory outside the given span.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// Reads n raw bytes; returns an empty span on underrun (and poisons).
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n);

  void fail() { ok_ = false; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// True iff nothing failed and the payload was consumed exactly.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- node-ID lists (shared by RELEASE/STARTED and the journal records) ------

/// u32 count, then (cluster i32, index i32) per node.
void writeNodeIds(Writer& w, std::span<const NodeId> ids);
/// Decodes a writeNodeIds() list into `out`. A count larger than the
/// remaining payload could hold fails (poisoning the reader) before any
/// allocation, so a bit-flipped count never asks for gigabytes.
[[nodiscard]] bool readNodeIds(Reader& r, std::vector<NodeId>& out);

// --- profile serialization (shared by VIEWS_DELTA and tests/benchmarks) -----

void writeView(Writer& w, const View& view);
/// Strict decode: canonical profiles, strictly increasing cluster ids;
/// false (and a poisoned reader) on any malformation.
[[nodiscard]] bool readView(Reader& r, View& out);

/// Exact encoded size of writeView(view), without encoding — what a full
/// push would have cost, for the views_delta_bytes_saved counter.
[[nodiscard]] std::size_t viewWireSize(const View& view);

// --- frame encoding ---------------------------------------------------------

// Each overload appends one complete frame (header + payload) to `out`.
// The VIEWS_DELTA/STARTED field-wise variants encode the same frames as
// their message-struct overloads without materializing a message first —
// the daemon's per-push hot path (views can be ~128 KiB of profiles).
/// A full sequenced push (VIEWS_DELTA with the full flag) — the delta
/// stream's sync point.
void encodeViewsFull(std::vector<std::uint8_t>& out, std::uint32_t seq,
                     const View& nonPreemptive, const View& preemptive);
/// A windowed delta push against the views applied at `baseSeq`.
void encodeViewsDelta(std::vector<std::uint8_t>& out, std::uint32_t seq,
                      std::uint32_t baseSeq,
                      const std::vector<ClusterDelta>& nonPreemptiveDeltas,
                      const std::vector<ClusterDelta>& preemptiveDeltas);
void encodeStarted(std::vector<std::uint8_t>& out, RequestId id,
                   const std::vector<NodeId>& nodeIds);
void encode(std::vector<std::uint8_t>& out, const HelloMsg& msg);
void encode(std::vector<std::uint8_t>& out, const WelcomeMsg& msg);
void encode(std::vector<std::uint8_t>& out, const RequestMsg& msg);
void encode(std::vector<std::uint8_t>& out, const RequestAckMsg& msg);
void encode(std::vector<std::uint8_t>& out, const DoneMsg& msg);
void encode(std::vector<std::uint8_t>& out, const GoodbyeMsg& msg);
void encode(std::vector<std::uint8_t>& out, const StartedMsg& msg);
void encode(std::vector<std::uint8_t>& out, const ExpiredMsg& msg);
void encode(std::vector<std::uint8_t>& out, const EndedMsg& msg);
void encode(std::vector<std::uint8_t>& out, const KilledMsg& msg);
void encode(std::vector<std::uint8_t>& out, const StatsMsg& msg);
void encode(std::vector<std::uint8_t>& out, const StatsReplyMsg& msg);
void encode(std::vector<std::uint8_t>& out, const PingMsg& msg);
void encode(std::vector<std::uint8_t>& out, const PongMsg& msg);
void encode(std::vector<std::uint8_t>& out, const ResumeMsg& msg);
void encode(std::vector<std::uint8_t>& out, const ResumeAckMsg& msg);
void encode(std::vector<std::uint8_t>& out, const ViewsDeltaMsg& msg);
void encode(std::vector<std::uint8_t>& out, const ViewsAckMsg& msg);

// --- frame decoding ---------------------------------------------------------

// Each decoder consumes exactly the payload of one frame of its type;
// false means protocol error (the payload is malformed for that type).
// `out` may be left partially assigned on failure.
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, HelloMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          WelcomeMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          RequestMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          RequestAckMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, DoneMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          GoodbyeMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          StartedMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ExpiredMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, EndedMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          KilledMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          StatsMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          StatsReplyMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, PingMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, PongMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ResumeMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ResumeAckMsg& out);
/// Strict delta validation: every window must be spliceable onto *some*
/// canonical base without breaking canonical form — bounds ordered,
/// starts strictly increasing within [lo, hi), adjacent values differing,
/// cluster ids strictly increasing, and a window over lo == 0 non-empty
/// and starting at t=0. A frame that decodes true can never trip a
/// StepFunction invariant, whatever base it is applied to.
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ViewsDeltaMsg& out);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ViewsAckMsg& out);

// --- stream framing ---------------------------------------------------------

/// One parsed frame, viewing the FrameBuffer's storage: valid until the
/// next append()/next() call.
struct FrameView {
  MsgType type{};
  std::span<const std::uint8_t> payload;
};

/// Reassembles frames from an arbitrarily-chunked byte stream (partial
/// reads, coalesced reads). Storage is reused across frames; consumed
/// bytes compact away periodically so a long-lived connection stays at a
/// bounded buffer size.
class FrameBuffer {
 public:
  enum class Next {
    kFrame,     ///< `out` holds the next complete frame
    kNeedMore,  ///< no complete frame buffered; append more bytes
    kBad,       ///< protocol error (magic/version/type/length); close peer
  };

  void append(std::span<const std::uint8_t> data);
  Next next(FrameView& out);

  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }
  /// Times the consumed prefix was memmoved away (amortized: dribbled
  /// frames must not compact per byte — pinned by test_net_codec).
  [[nodiscard]] std::size_t compactions() const { return compactions_; }
  /// Bytes currently held including the consumed prefix.
  [[nodiscard]] std::size_t storageBytes() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix
  std::size_t compactions_ = 0;
};

}  // namespace coorm::net
