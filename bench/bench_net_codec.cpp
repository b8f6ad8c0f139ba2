// BM_WireCodec: encode + decode throughput of the wire protocol's
// heaviest frame, the full-flagged VIEWS_DELTA push, at 64–4096
// breakpoints per profile (bench arg). Each iteration encodes one push
// into a reused buffer, reassembles it through FrameBuffer (the daemon's
// read path) and decodes it back, so the number is the full
// serialize/deserialize round trip per push — bytes/s tracks the
// allocation-light goal.
//
// BM_WireCodecSmall covers the chatty small frames (request + ack), the
// per-message floor of daemon throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "coorm/common/check.hpp"
#include "coorm/net/wire.hpp"

namespace coorm::net {
namespace {

View viewWithBreakpoints(int breakpoints, NodeCount top) {
  std::vector<StepFunction::Segment> segments;
  segments.reserve(static_cast<std::size_t>(breakpoints));
  for (int i = 0; i < breakpoints; ++i) {
    segments.push_back({sec(10) * i, top - (i % 7)});
  }
  View view;
  view.setCap(ClusterId{0}, StepFunction::fromSegments(std::move(segments)));
  return view;
}

void BM_WireCodec(benchmark::State& state) {
  const int breakpoints = static_cast<int>(state.range(0));
  ViewsDeltaMsg message;
  message.seq = 1;
  message.nonPreemptive = viewWithBreakpoints(breakpoints, 4096);
  message.preemptive = viewWithBreakpoints(breakpoints, 1024);

  std::vector<std::uint8_t> buffer;
  std::size_t frameBytes = 0;
  for (auto _ : state) {
    buffer.clear();
    encode(buffer, message);
    frameBytes = buffer.size();

    FrameBuffer frames;
    frames.append(buffer);
    FrameView frame;
    COORM_CHECK(frames.next(frame) == FrameBuffer::Next::kFrame);
    ViewsDeltaMsg decoded;
    COORM_CHECK(decode(frame.payload, decoded));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frameBytes));
  state.counters["frame_bytes"] = static_cast<double>(frameBytes);
  state.counters["pushes/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WireCodec)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_WireCodecSmall(benchmark::State& state) {
  RequestMsg request;
  request.cookie = 7;
  request.spec.nodes = 16;
  request.spec.duration = sec(600);

  std::vector<std::uint8_t> buffer;
  for (auto _ : state) {
    buffer.clear();
    encode(buffer, request);
    encode(buffer, RequestAckMsg{request.cookie, RequestId{42}});

    FrameBuffer frames;
    frames.append(buffer);
    FrameView frame;
    RequestMsg decodedRequest;
    RequestAckMsg decodedAck;
    COORM_CHECK(frames.next(frame) == FrameBuffer::Next::kFrame);
    COORM_CHECK(decode(frame.payload, decodedRequest));
    COORM_CHECK(frames.next(frame) == FrameBuffer::Next::kFrame);
    COORM_CHECK(decode(frame.payload, decodedAck));
    benchmark::DoNotOptimize(decodedAck);
  }
  state.counters["messages/s"] =
      benchmark::Counter(2.0 * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WireCodecSmall);

}  // namespace
}  // namespace coorm::net

BENCHMARK_MAIN();
