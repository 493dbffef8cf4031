// The benchmark's own arithmetic: medians, the tail percentile, per-step
// unit costs, overhead subtraction and failure counting. Kept apart from
// the driver so selftest.cc can pin every formula on hand-computed inputs.

#ifndef APUJOIN_PERFBENCH_STATS_H_
#define APUJOIN_PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of a sample that still has `min_beyond` samples
/// above it. With n sorted samples that is the value at 0-based rank
/// n - 1 - min_beyond, i.e. percentile 100 * (n - min_beyond) / n.
struct Tail {
  bool available = false;  ///< false when n < 2 * min_beyond
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples strictly after the chosen rank
};

inline Tail TailPercentile(std::vector<double> v, size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (min_beyond == 0 || v.size() < 2 * min_beyond) return t;
  std::sort(v.begin(), v.end());
  const size_t rank = v.size() - 1 - min_beyond;
  t.available = true;
  t.value = v[rank];
  t.beyond = v.size() - 1 - rank;
  t.percentile = 100.0 * static_cast<double>(v.size() - min_beyond) /
                 static_cast<double>(v.size());
  return t;
}

/// Lane time per item; 0 when the step executed no items.
inline double NsPerItem(double lane_ns, uint64_t items) {
  return items == 0 ? 0.0 : lane_ns / static_cast<double>(items);
}

/// Time a request spent outside the engine's reported execution time (plan
/// lowering, calibration, ratio optimisation, engine setup, hand-off,
/// queueing), in ms. Clamped at 0: the report never exceeds the wall time
/// that encloses it, but rounding must not print a negative overhead.
inline double OverheadMs(double wall_ns, double elapsed_ns) {
  return std::max(0.0, wall_ns - elapsed_ns) * 1e-6;
}

/// Predicted over measured time; 0 when nothing was measured.
inline double ModelRatio(double predicted_ns, double measured_ns) {
  return measured_ns > 0.0 ? predicted_ns / measured_ns : 0.0;
}

/// Requests attempted and failed. A request fails when its Status is not OK
/// or its submission was rejected; both count as attempted. A wrong answer
/// is not a failure: the driver aborts the run on it.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Per-step-name accumulator over StepReports: lane time, items, the
/// chosen CPU ratio weighted by items, and the cost model's lane-time
/// prediction (calibrated unit cost times the items each lane ran).
struct StepTotals {
  double lane_ns = 0.0;
  uint64_t items = 0;
  double ratio_items = 0.0;
  double predicted_ns = 0.0;

  void Add(double cpu_ns, double gpu_ns, uint64_t cpu_items,
           uint64_t gpu_items, double ratio, double unit_cpu_ns,
           double unit_gpu_ns) {
    lane_ns += cpu_ns + gpu_ns;
    items += cpu_items + gpu_items;
    ratio_items += ratio * static_cast<double>(cpu_items + gpu_items);
    predicted_ns += unit_cpu_ns * static_cast<double>(cpu_items) +
                    unit_gpu_ns * static_cast<double>(gpu_items);
  }
  void Merge(const StepTotals& o) {
    lane_ns += o.lane_ns;
    items += o.items;
    ratio_items += o.ratio_items;
    predicted_ns += o.predicted_ns;
  }
  double ns_per_item() const { return NsPerItem(lane_ns, items); }
  double cpu_share() const {
    return items == 0 ? 0.0 : ratio_items / static_cast<double>(items);
  }
  double model_ratio() const { return ModelRatio(predicted_ns, lane_ns); }
};

/// |a - b| / (a + b): 0 when both lanes were busy equally long, 1 when all
/// the time sat on one lane.
inline double LaneSkew(double a_ns, double b_ns) {
  const double sum = a_ns + b_ns;
  return sum > 0.0 ? (a_ns > b_ns ? a_ns - b_ns : b_ns - a_ns) / sum : 0.0;
}

/// Throughput lost to tracing: 1 - traced / untraced, each as work per
/// unit of request time.
inline double TraceOverheadFrac(double untraced_work, double untraced_ns,
                                double traced_work, double traced_ns) {
  if (untraced_ns <= 0.0 || traced_ns <= 0.0 || untraced_work <= 0.0) {
    return 0.0;
  }
  return 1.0 - (traced_work / traced_ns) / (untraced_work / untraced_ns);
}

}  // namespace perfbench

#endif  // APUJOIN_PERFBENCH_STATS_H_
