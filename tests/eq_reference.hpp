// The seed's Algorithm 3 (eqSchedule), kept verbatim as an independent
// reference, shared by the suites that check the scheduler's Step 2
// against it: per-breakpoint at() probes, O(n^2) cluster dedup, binary
// copy-subtract-clamp chains and the paper's round-based distribution. It
// composes only the public toView/fit building blocks, so it shares no
// code with the production sweep (`eqScheduleStep2`).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "coorm/rms/scheduler.hpp"

namespace coorm::testing_support {

// The seed's round-based distribution (paper Algorithm 3 lines 10–18,
// verbatim): one share-sized round at a time. fairDistribute must compute
// the same fixed point directly.
inline std::vector<NodeCount> roundRobinDistribute(
    NodeCount capacity, const std::vector<NodeCount>& wants) {
  std::vector<NodeCount> gives(wants.size(), 0);
  NodeCount remaining = std::max<NodeCount>(capacity, 0);
  while (remaining > 0) {
    NodeCount unsatisfied = 0;
    for (std::size_t i = 0; i < wants.size(); ++i) {
      if (gives[i] < wants[i]) ++unsatisfied;
    }
    if (unsatisfied == 0) break;
    const NodeCount share = std::max<NodeCount>(remaining / unsatisfied, 1);
    bool progressed = false;
    for (std::size_t i = 0; i < wants.size() && remaining > 0; ++i) {
      if (gives[i] >= wants[i]) continue;
      const NodeCount grant =
          std::min({share, wants[i] - gives[i], remaining});
      gives[i] += grant;
      remaining -= grant;
      if (grant > 0) progressed = true;
    }
    if (!progressed) break;
  }
  return gives;
}

// The seed's eqSchedule: writes every AppSchedule's preemptiveView and the
// preemptible requests' scheduling state, as Scheduler::eqSchedule does.
inline void referenceEqSchedule(std::span<AppSchedule> apps,
                                const View& available, Time now,
                                bool strict) {
  const std::size_t napps = apps.size();
  if (napps == 0) return;

  View avail = available;
  avail.clampMin(0);

  std::vector<View> occupation(napps);
  for (std::size_t i = 0; i < napps; ++i) {
    occupation[i] = Scheduler::toView(*apps[i].preemptible, &avail, now);
    View freeForMe = avail - occupation[i];
    freeForMe.clampMin(0);
    occupation[i] += Scheduler::fit(*apps[i].preemptible, freeForMe, now);
    apps[i].preemptiveView = View{};
  }

  std::vector<ClusterId> clusterIds = avail.clusters();
  for (const View& occ : occupation) {
    for (ClusterId cid : occ.clusters()) {
      if (std::find(clusterIds.begin(), clusterIds.end(), cid) ==
          clusterIds.end()) {
        clusterIds.push_back(cid);
      }
    }
  }
  std::sort(clusterIds.begin(), clusterIds.end());

  std::vector<NodeCount> wants(napps);
  for (ClusterId cid : clusterIds) {
    std::vector<Time> breakpoints;
    for (const auto& seg : avail.cap(cid).segments()) {
      breakpoints.push_back(seg.start);
    }
    for (const View& occ : occupation) {
      for (const auto& seg : occ.cap(cid).segments()) {
        breakpoints.push_back(seg.start);
      }
    }
    std::sort(breakpoints.begin(), breakpoints.end());
    breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                      breakpoints.end());

    std::vector<std::vector<StepFunction::Segment>> outSegments(napps);
    for (Time t : breakpoints) {
      const NodeCount vin = std::max<NodeCount>(avail.at(cid, t), 0);
      NodeCount sumWant = 0;
      NodeCount active = 0;
      for (std::size_t i = 0; i < napps; ++i) {
        wants[i] = std::max<NodeCount>(occupation[i].at(cid, t), 0);
        sumWant += wants[i];
        if (wants[i] > 0) ++active;
      }
      const bool anyInactive = active < static_cast<NodeCount>(napps);

      for (std::size_t i = 0; i < napps; ++i) outSegments[i].push_back({t, 0});

      if (strict) {
        NodeCount participants = 0;
        for (std::size_t i = 0; i < napps; ++i) {
          if (!apps[i].preemptible->empty()) ++participants;
        }
        const NodeCount share = vin / std::max<NodeCount>(participants, 1);
        for (std::size_t i = 0; i < napps; ++i) {
          outSegments[i].back().value = share;
        }
      } else if (sumWant > vin) {
        const auto gives = roundRobinDistribute(vin, wants);
        const NodeCount partitions = active + (anyInactive ? 1 : 0);
        const NodeCount share = partitions > 0 ? vin / partitions : 0;
        for (std::size_t i = 0; i < napps; ++i) {
          outSegments[i].back().value = std::max(gives[i], share);
        }
      } else {
        for (std::size_t i = 0; i < napps; ++i) {
          const NodeCount partitions = active + (wants[i] > 0 ? 0 : 1);
          const NodeCount share = partitions > 0 ? vin / partitions : vin;
          const NodeCount leftover = vin - (sumWant - wants[i]);
          outSegments[i].back().value = std::max(leftover, share);
        }
      }
    }
    for (std::size_t i = 0; i < napps; ++i) {
      apps[i].preemptiveView.setCap(
          cid, StepFunction::fromSegments(std::move(outSegments[i])));
    }
  }

  for (std::size_t i = 0; i < napps; ++i) {
    const View own =
        Scheduler::toView(*apps[i].preemptible, &apps[i].preemptiveView, now);
    View rest = apps[i].preemptiveView - own;
    rest.clampMin(0);
    Scheduler::fit(*apps[i].preemptible, rest, now);
  }
}

}  // namespace coorm::testing_support
