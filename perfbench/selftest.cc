// Self-test of the benchmark's arithmetic (stats.h) on hand-computed
// inputs. run.py runs it before every benchmark run; any failure stops the
// run with a nonzero exit.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b));
}

void TestMedian() {
  using perfbench::Median;
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd-count median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even-count median");
}

void TestTail() {
  using perfbench::TailPercentile;
  // 19 samples: fewer than twice the 10 required beyond, so no tail.
  std::vector<double> v;
  for (int i = 1; i <= 19; ++i) v.push_back(i);
  Expect(!TailPercentile(v).available, "tail needs >= 20 samples");
  Expect(TailPercentile(v).samples == 19, "tail counts samples");

  // 20 samples 1..20 (shuffled): rank 9 = value 10, p50, 10 beyond.
  v = {20, 1, 19, 2, 18, 3, 17, 4, 16, 5, 15, 6, 14, 7, 13, 8, 12, 9, 11, 10};
  perfbench::Tail t = TailPercentile(v);
  Expect(t.available && t.value == 10.0, "20 samples -> 10th smallest");
  Expect(t.beyond == 10 && Near(t.percentile, 50.0), "20 samples -> p50");

  // 1000 samples 0..999: rank 989 = value 989, p99, 10 beyond.
  v.clear();
  for (int i = 999; i >= 0; --i) v.push_back(i);
  t = TailPercentile(v);
  Expect(t.value == 989.0 && t.beyond == 10, "1000 samples -> rank 989");
  Expect(Near(t.percentile, 99.0), "1000 samples -> p99");

  // A different minimum beyond the rank.
  t = TailPercentile(v, 100);
  Expect(t.value == 899.0 && Near(t.percentile, 90.0),
         "min_beyond 100 -> p90");
}

void TestStepArithmetic() {
  perfbench::StepTotals s;
  Expect(s.ns_per_item() == 0.0 && s.cpu_share() == 0.0 &&
             s.model_ratio() == 0.0,
         "empty step is all zeros");
  // Two instances of one step (e.g. partition passes over R and S).
  // Lane time 600+200 and 300+100 ns over 40+10 and 30+20 items.
  s.Add(600, 200, 40, 10, 0.8, 2.0, 4.0);  // predicted 80 + 40 = 120
  s.Add(300, 100, 30, 20, 0.6, 1.0, 1.0);  // predicted 30 + 20 = 50
  Expect(s.lane_ns == 1200.0 && s.items == 100, "lane ns and items summed");
  Expect(Near(s.ns_per_item(), 12.0), "ns/item = lane ns / items");
  Expect(Near(s.cpu_share(), (0.8 * 50 + 0.6 * 50) / 100),
         "items-weighted ratio");
  Expect(Near(s.model_ratio(), 170.0 / 1200.0),
         "predicted / measured lane ns");
  Expect(perfbench::NsPerItem(10.0, 0) == 0.0, "no items -> 0 ns/item");

  // The same two instances seen by two clients and merged.
  perfbench::StepTotals a, b;
  a.Add(600, 200, 40, 10, 0.8, 2.0, 4.0);
  b.Add(300, 100, 30, 20, 0.6, 1.0, 1.0);
  a.Merge(b);
  Expect(a.lane_ns == s.lane_ns && a.items == s.items &&
             Near(a.cpu_share(), s.cpu_share()) &&
             Near(a.model_ratio(), s.model_ratio()),
         "merging accumulators equals accumulating both");
}

void TestOverheads() {
  using perfbench::OverheadMs;
  // 7 ms wall around 3 ms of reported execution.
  Expect(Near(OverheadMs(7e6, 3e6), 4.0), "overhead = wall - elapsed");
  Expect(OverheadMs(3e6, 3e6 + 1) == 0.0, "overhead never negative");
  Expect(Near(perfbench::ModelRatio(81e6, 2.2e9), 81.0 / 2200.0),
         "model ratio = estimate / measured");
  Expect(perfbench::ModelRatio(5.0, 0.0) == 0.0, "nothing measured -> 0");
  Expect(Near(perfbench::LaneSkew(3.0, 1.0), 0.5), "lane skew");
  Expect(perfbench::LaneSkew(0.0, 0.0) == 0.0, "idle lanes -> no skew");
  // 100 tuples in 10 ns untraced, 100 tuples in 12.5 ns traced: 20% lost.
  Expect(Near(perfbench::TraceOverheadFrac(100, 10, 100, 12.5), 0.2),
         "trace overhead from work per request time");
}

void TestFailedFrac() {
  perfbench::Tally a;
  Expect(a.failed_frac() == 0.0, "nothing attempted -> 0");
  a.Add(true);
  a.Add(false);  // non-OK status
  a.Add(true);
  a.Add(false);  // rejected submission
  Expect(a.attempted == 4 && a.failed == 2, "every attempt counted");
  perfbench::Tally b;
  for (int i = 0; i < 6; ++i) b.Add(true);
  a.Merge(b);
  Expect(a.attempted == 10 && a.failed == 2, "merge sums both counts");
  Expect(Near(a.failed_frac(), 0.2), "failed / attempted");
}

}  // namespace

int main() {
  TestMedian();
  TestTail();
  TestStepArithmetic();
  TestOverheads();
  TestFailedFrac();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
