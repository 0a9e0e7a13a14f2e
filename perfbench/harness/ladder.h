#pragma once
// Capacity search on a fixed, ascending ladder of offered rates.
//
// Rung k offers floor * 1.05^k frames/s.  The ratio and the stride are
// constants and the floor is fixed per workload (perfbench/workloads.json),
// so two commits are probed at the same rates.  The floor sits below a
// tenth of the capacity measured when the benchmark was defined, so a
// reading of 0 means the service failed even a trivial load.
//
// Two predicates are searched on the same probes:
//   * within    — p99 within the latency limit, no lost frames, no
//                 backlog growth (the capacity reading);
//   * sustained — no lost frames and no backlog growth (latency ignored).
// `within` implies `sustained`; the probe must report them that way.
//
// The search climbs in strides of kStride rungs until a rung is not
// sustained, then bisects each predicate's bracket [last passing rung,
// first failing rung] down to adjacent rungs.  A rung fails a predicate
// only when two windows at that rate both fail it: a transient host stall
// fails one window, a rate beyond capacity fails both.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

namespace perfbench {

struct RungVerdict {
  bool within = false;
  bool sustained = false;
};

struct Ladder {
  static constexpr double kRatio = 1.05;
  static constexpr long kStride = 14;  ///< rungs per coarse step (1.05^14 ~ 2x)
  static constexpr long kTopRung = 95;  ///< 1.05^95 ~ 100x the floor

  double floor = 0.0;

  double rate(long rung) const {
    return rung < 0 ? 0.0 : floor * std::pow(kRatio, static_cast<double>(rung));
  }
};

struct LadderResult {
  long capacity_rung = -1;   ///< -1: even the floor failed (rate 0)
  long sustained_rung = -1;
  std::size_t probes = 0;    ///< windows run
};

/// `probe(rung)` runs one fresh window at Ladder::rate(rung) and returns
/// its verdict.
template <class Probe>
LadderResult search_ladder(Probe&& probe) {
  LadderResult out;
  const auto window = [&](long k) {
    ++out.probes;
    return probe(k);
  };
  // Confirmed verdicts, one per rung.
  std::map<long, RungVerdict> seen;
  const auto at = [&](long k) -> const RungVerdict& {
    auto it = seen.find(k);
    if (it == seen.end()) {
      RungVerdict v = window(k);
      if (!v.within || !v.sustained) {
        const RungVerdict again = window(k);
        v.within = v.within || again.within;
        v.sustained = v.sustained || again.sustained;
      }
      it = seen.emplace(k, v).first;
    }
    return it->second;
  };
  const long top = Ladder::kTopRung;

  // Coarse climb until the first rung that is not sustained.
  long k = 0;
  while (at(k).sustained && k < top) k = std::min(k + Ladder::kStride, top);

  // Bisects one predicate's bracket from the rungs probed so far, in
  // ascending order: hi = first failing rung, lo = highest passing rung
  // below it.
  const auto bisect = [&](bool RungVerdict::*pred) {
    long lo = -1, hi = top + 1;
    for (const auto& [rung, v] : seen) {
      if (!(v.*pred)) {
        hi = rung;
        break;
      }
      lo = rung;
    }
    while (hi - lo > 1) {
      const long mid = lo + (hi - lo) / 2;
      if (at(mid).*pred)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  };
  out.capacity_rung = bisect(&RungVerdict::within);
  // A rung met within the limit is sustained too, even where a lower
  // rung's two windows both failed.
  out.sustained_rung =
      std::max(out.capacity_rung, bisect(&RungVerdict::sustained));
  return out;
}

}  // namespace perfbench
