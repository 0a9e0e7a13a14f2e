// Self-tests of the harness's own arithmetic: the percentile rule, the
// ladder search on a synthetic monotone service, and span self-time on
// nested spans.  Exits non-zero on the first failed check.
//
// Run: perfbench/run.py --selftest  (or the perfbench_selftest binary)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "harness/ladder.h"
#include "harness/spans.h"
#include "harness/stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void percentile_rule() {
  using namespace perfbench;
  // 1000 samples: p99 has exactly 10 beyond it, so p99 is reported.
  expect(near(tail_quantile(1000, 0.99), 0.99), "p99 supported at n=1000");
  // 500 samples: only p98 keeps 10 beyond it.
  expect(near(tail_quantile(500, 0.99), 0.98), "p98 at n=500");
  expect(near(tail_quantile(100, 0.99), 0.90), "p90 at n=100");
  // Too few samples for any tail: the median is the floor.
  expect(near(tail_quantile(12, 0.99), 0.5), "median floor at n=12");
  expect(near(tail_quantile(0, 0.99), 0.5), "median floor when empty");
  // Never above the requested quantile.
  expect(near(tail_quantile(1000000, 0.99), 0.99), "capped at request");

  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);
  const Summary s = summarize(v);
  expect(s.n == 500, "summary count");
  expect(near(s.tail_q, 0.98), "summary reports the quantile used");
  // At least 10 samples lie strictly beyond the reported tail value.
  std::size_t beyond = 0;
  for (const double x : v) beyond += x > s.tail;
  expect(beyond >= kMinBeyond, "10 samples beyond the tail");
  expect(near(s.p50, 250.5), "median of 1..500");

  // Chunked tail: three 1000-sample chunks, one with a stall hitting 5%
  // of its samples.  The median over chunk tails ignores the stall; the
  // whole-window tail does not.
  std::vector<double> lat;
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 1000; ++i)
      lat.push_back(c == 1 && i % 20 == 0 ? 500.0 : 1.0 + i % 10);
  const Summary ch = summarize_chunked(lat);
  expect(ch.chunks == 3, "three chunks");
  expect(ch.n == 3000, "chunked summary counts every sample");
  expect(near(ch.tail_q, 0.99), "p99 supported in 1000-sample chunks");
  expect(ch.tail <= 10.0, "median chunk tail ignores one stalled chunk");
  expect(ch.window_tail == 500.0, "whole-window tail sees the stall");
  // Under two chunks' worth the chunked summary is the plain one.
  const std::vector<double> few(1500, 2.0);
  expect(summarize_chunked(few).chunks == 1, "one chunk below 2000 samples");
}

void ladder_search() {
  using namespace perfbench;
  Ladder ladder;
  ladder.floor = 100.0;
  // Highest rung whose rate is <= c, capped at the top rung.
  const auto rung_of = [&](double c) {
    const auto k = static_cast<long>(std::floor(
        std::log(c / ladder.floor) / std::log(Ladder::kRatio) + 1e-9));
    return std::min<long>(k, Ladder::kTopRung);
  };
  for (const double cap : {100.0, 130.0, 999.0, 2500.0, 7000.0}) {
    for (const double sus_over : {1.0, 1.3, 2.2}) {
      const double sus = cap * sus_over;
      int calls = 0;
      const auto r = search_ladder([&](long k) {
        ++calls;
        const double rate = ladder.rate(k);
        return RungVerdict{rate <= cap, rate <= sus};
      });
      expect(r.capacity_rung == rung_of(cap), "capacity rung on monotone service");
      expect(r.sustained_rung == rung_of(sus), "sustained rung on monotone service");
      expect(r.probes == static_cast<std::size_t>(calls), "every window counted");
      // 8 climb rungs, a confirmed failure, two 4-step bisections of a
      // 14-rung bracket with every midpoint confirmed.
      expect(r.probes <= 25, "bisection keeps the window count small");
    }
  }
  // Even the floor fails: both readings are rate 0.
  const auto none = search_ladder([](long) { return RungVerdict{}; });
  expect(none.capacity_rung == -1 && none.sustained_rung == -1, "floor fails");
  expect(ladder.rate(-1) == 0.0, "rung -1 reads as rate 0");
  // Sustained at the floor but over the latency limit: capacity 0.
  const auto slow = search_ladder([&](long k) {
    return RungVerdict{false, ladder.rate(k) <= 300.0};
  });
  expect(slow.capacity_rung == -1 && slow.sustained_rung == rung_of(300.0),
         "capacity 0 while sustained");
  // A flaky service: every first window at a rung fails (a transient
  // stall); confirmed failures still find the true capacity.
  {
    std::map<long, int> windows;
    const auto r = search_ladder([&](long k) {
      const bool first = windows[k]++ == 0;
      const double rate = ladder.rate(k);
      return RungVerdict{!first && rate <= 999.0, !first && rate <= 1500.0};
    });
    expect(r.capacity_rung == rung_of(999.0), "confirmed capacity");
    expect(r.sustained_rung == rung_of(1500.0), "confirmed sustained");
  }
  // A coin-toss band: rung K+1 passes every other window, K and below
  // always pass, K+2 and above never.  The search reads K or K+1.
  {
    const long K = 40;
    int toss = 0;
    const auto r = search_ladder([&](long k) {
      const bool pass = k <= K || (k == K + 1 && toss++ % 2 == 0);
      return RungVerdict{pass, pass};
    });
    expect(r.capacity_rung == K || r.capacity_rung == K + 1, "coin-toss band");
    expect(r.sustained_rung >= r.capacity_rung, "sustained never below capacity");
  }
  // Service never saturates: the search stops at the top rung.
  const auto all = search_ladder([](long) { return RungVerdict{true, true}; });
  expect(all.capacity_rung == Ladder::kTopRung &&
             all.sustained_rung == Ladder::kTopRung,
         "top rung");
}

void span_self_time() {
  using namespace perfbench;
  SpanRecorder rec;
  // root [0, 10] with children [1, 3] and [2, 5] (overlapping: union
  // [1, 5] = 4) and [6, 7]; grandchild [1.5, 2.5] under the first child;
  // a child sticking out of its parent is clipped to the parent.
  const long root = rec.add({"root", 0.0, 10.0, -1});
  const long a = rec.add({"a", 1.0, 3.0, root});
  rec.add({"b", 2.0, 5.0, root});
  rec.add({"c", 6.0, 7.0, root});
  rec.add({"a1", 1.5, 2.5, a});
  const long d = rec.add({"d", 20.0, 30.0, -1});
  rec.add({"d1", 25.0, 40.0, d});
  const auto self = rec.self_times();
  expect(near(self[0], 10.0 - 5.0), "root self = 10 - union(children)");
  expect(near(self[1], 2.0 - 1.0), "child self = 2 - grandchild");
  expect(near(self[2], 3.0), "leaf self = duration");
  expect(near(self[4], 1.0), "grandchild leaf");
  expect(near(self[5], 10.0 - 5.0), "child clipped to its parent");

  // Live recording nests by the open-span stack.
  SpanRecorder live;
  {
    ScopedSpan outer(live, "outer");
    ScopedSpan inner(live, "inner");
  }
  expect(live.spans().size() == 2, "two live spans");
  expect(live.spans()[1].parent == 0, "inner's parent is outer");
  expect(live.spans()[0].end >= live.spans()[1].end, "outer closes last");
  const auto live_self = live.self_times();
  expect(live_self[0] >= 0.0 && live_self[0] <= live.spans()[0].duration(),
         "self time within duration");
}

}  // namespace

int main() {
  percentile_rule();
  ladder_search();
  span_self_time();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
