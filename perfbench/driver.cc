// perfbench — the repo's oracle-checked benchmark for the `threads` backend.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// One process runs one workload on a thread pool of `nproc` workers:
//
//   phj_uniform   PHJ-PL, library defaults, uniform 1:1, |R| = |S| = 2^21
//   shj_skew_u64  SHJ-PL, 25% of probe tuples on one key, U64 keys, 2^21
//   fk_groupby    select(dim.key < median) -> join -> group-by SUM(fact rid),
//                 fused, open-addressing layout; 2^18 dim keys, 2^22 facts
//   service_small JoinService, 3 sessions, closed loop with one outstanding
//                 request each; every session alternates a 4K x 16K SHJ-PL
//                 join and a select -> join -> group-by plan of that size
//
// Inputs come only from --seed. Every request is checked against an oracle
// (the generator's exact match count, or a scalar unordered_map
// join-and-aggregate computed once in set-up); a wrong answer ends the run
// with exit code 1. Set-up (generation, substrate construction, one
// untimed warm-up request) runs at least three times; setup_s is the median.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced requests: traced ones turn on
// Backend::set_trace, drain the launch events after the request, and the
// per-layer metrics come from this run, plus the throughput lost to
// tracing. Each layer is timed from outside, around the benchmark's own
// calls into its public functions; nothing inside the library is patched.
//
// Output: a human-readable metric table, then as the last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --out the
// run's host fingerprint, metrics and (traced run) spans are also written
// to <dir>/<workload>-seed<n>-trace<t>.json.
//
// Just before and just after the window a fixed scalar reference join
// (host_probe_ms, not a metric) is timed, so a run on a slower or busier
// host can be told apart from a slower program.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "plan/fusion.h"
#include "plan/plan.h"
#include "service/join_service.h"
#include "simcl/context.h"
#include "stats.h"
#include "util/cpu_features.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using apujoin::coproc::JoinReport;
using apujoin::coproc::PlanSpec;
using apujoin::join::GroupRow;
namespace coproc = apujoin::coproc;
namespace data = apujoin::data;
namespace exec = apujoin::exec;
namespace plan = apujoin::plan;
namespace service = apujoin::service;
namespace simcl = apujoin::simcl;

// Set-ups per run (setup_s is their median): at least kMinSetups, more
// while they have taken less than kSetupBudgetS, so a cheap set-up is
// repeated until its median is steady.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr size_t kTailBeyond = 10;    // samples beyond the tail percentile
constexpr int kProbeReps = 300;       // host-speed probe reps per block
constexpr int kServiceSessions = 3;   // = load-generator threads
// Traced requests per client whose operators, steps and launch events are
// nested into the written spans; later ones keep only their spans, so a
// run of small requests does not write tens of megabytes.
constexpr uint64_t kDetailedRequests = 64;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Ends the run with exit code 1. _Exit, not exit: a client thread of the
/// service workload may call this while other threads still run, and exit
/// would destroy statics under them.
[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(nullptr);
  std::_Exit(1);
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string JStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit a double carries; a non-finite value is a benchmark bug.
std::string JNum(double v) {
  if (!std::isfinite(v)) Fail("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JNum(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Whole-process resource use (getrusage); the counters are totals since
/// the process started, so a window's use is the difference of two reads.
struct Usage {
  double cpu_s = 0.0;   // user + system
  double sys_s = 0.0;   // system part of cpu_s
  double minflt = 0.0;  // minor page faults
  double nvcsw = 0.0;   // voluntary context switches
  double nivcsw = 0.0;  // involuntary context switches
  double peak_rss_mb = 0.0;

  Usage Since(const Usage& earlier) const {
    return {cpu_s - earlier.cpu_s,   sys_s - earlier.sys_s,
            minflt - earlier.minflt, nvcsw - earlier.nvcsw,
            nivcsw - earlier.nivcsw, peak_rss_mb};
  }
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  Usage u;
  u.sys_s = secs(ru.ru_stime);
  u.cpu_s = secs(ru.ru_utime) + u.sys_s;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return u;
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Scalar join-and-aggregate: select(build.key < bound) ⋈ probe,
/// SUM(probe rid) per key. It tests the bound itself rather than calling
/// plan::EvalPredicate, so a defect there cannot hide in both results.
struct GroupOracle {
  std::vector<GroupRow> groups;  // sorted by key, as JoinReport::groups
  uint64_t matches = 0;
};

GroupOracle SelectJoinSumOracle(const data::Relation& build, int32_t bound,
                                const data::Relation& probe) {
  std::unordered_map<int32_t, std::vector<int32_t>> index;
  index.reserve(build.size() * 2);
  for (uint64_t i = 0; i < build.size(); ++i) {
    if (build.keys[i] < bound) {
      index[build.keys[i]].push_back(build.rids[i]);
    }
  }
  GroupOracle out;
  std::unordered_map<int32_t, GroupRow> groups;
  for (uint64_t i = 0; i < probe.size(); ++i) {
    auto it = index.find(probe.keys[i]);
    if (it == index.end()) continue;
    GroupRow& g = groups[probe.keys[i]];
    g.key = probe.keys[i];
    for (size_t m = 0; m < it->second.size(); ++m) {
      g.value += probe.rids[i];
      ++g.count;
      ++out.matches;
    }
  }
  out.groups.reserve(groups.size());
  for (const auto& kv : groups) out.groups.push_back(kv.second);
  std::sort(out.groups.begin(), out.groups.end(),
            [](const GroupRow& a, const GroupRow& b) { return a.key < b.key; });
  return out;
}

/// What a request's report must show.
struct Expected {
  uint64_t matches = 0;
  const GroupOracle* groups = nullptr;  // null: a plain join
};

/// Empty when the report matches the oracle; otherwise what differs.
std::string Mismatch(const JoinReport& r, const Expected& e) {
  if (r.matches != e.matches) {
    return "matches " + std::to_string(r.matches) + " != expected " +
           std::to_string(e.matches);
  }
  if (e.groups == nullptr) return "";
  const std::vector<GroupRow>& want = e.groups->groups;
  if (r.groups.size() != want.size()) {
    return "groups " + std::to_string(r.groups.size()) + " != expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const GroupRow& a = r.groups[i];
    const GroupRow& b = want[i];
    if (a.key != b.key || a.value != b.value || a.count != b.count) {
      return "group " + std::to_string(i) + " (key " + std::to_string(b.key) +
             ") differs";
    }
  }
  return "";
}

/// Ends the run (exit code 1) when `r` does not match the oracle.
void CheckOrFail(const JoinReport& r, const Expected& e,
                 const std::string& what) {
  const std::string why = Mismatch(r, e);
  if (!why.empty()) Fail("wrong answer (" + what + "): " + why);
}

/// The true median build key: `key < median` keeps half the build side.
int32_t MedianKey(const data::Relation& r) {
  std::vector<int32_t> keys = r.keys;
  std::nth_element(keys.begin(), keys.begin() + keys.size() / 2, keys.end());
  return keys[keys.size() / 2];
}

plan::Predicate KeyBelow(int32_t bound) {
  plan::Predicate p;
  p.column = plan::SelectColumn::kKey;
  p.op = plan::CompareOp::kLt;
  p.operand = bound;
  return p;
}

/// select(build.key < bound) -> build ⋈ probe -> group-by SUM(probe rid).
PlanSpec SelectJoinSumPlan(const data::Workload& w,
                           const plan::Predicate& pred,
                           const coproc::JoinSpec& spec) {
  PlanSpec p;
  const int b = p.graph.AddScan(&w.build);
  const int s = p.graph.AddSelect(b, pred);
  const int f = p.graph.AddScan(&w.probe);
  const int j = p.graph.AddHashJoin(s, f);
  p.graph.AddGroupBy(j, plan::AggFn::kSum);
  p.exec = spec;
  p.skew_fraction = data::SkewFraction(w.spec.distribution);
  return p;
}

data::Workload Generate(const data::WorkloadSpec& spec) {
  auto w = data::GenerateWorkload(spec);
  if (!w.ok()) Fail("GenerateWorkload: " + w.status().ToString());
  return std::move(w).value();
}

uint64_t Tuples(const data::Workload& w) {
  return w.build.size() + w.probe.size();
}

/// SplitMix64: independent per-input seeds derived from the run's --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Host-speed probe: a fixed single-threaded scalar join-and-aggregate
/// (4K x 16K, generator seed 0: the same input on every run and commit),
/// timed kProbeReps times; returns the median in ms. It runs none of the
/// library's join code, so when it moves between two runs the host ran
/// faster or slower, not the program under test.
double HostProbeMs() {
  data::WorkloadSpec ws;
  ws.build_tuples = 4ull << 10;
  ws.probe_tuples = 16ull << 10;
  ws.seed = 0;
  const data::Workload w = Generate(ws);
  const int32_t bound = MedianKey(w.build);
  std::vector<double> ms;
  for (int i = 0; i < kProbeReps; ++i) {
    const double a = NowNs();
    const GroupOracle g = SelectJoinSumOracle(w.build, bound, w.probe);
    ms.push_back((NowNs() - a) * 1e-6);
    if (g.matches == 0) Fail("host probe found no matches");
  }
  return Median(ms);
}

// ---------------------------------------------------------------------------
// Spans: one per benchmark call into a layer, kept in memory, written at
// the end of the traced run. Spans of one request share its id.
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: top level
  uint64_t request = 0;
  std::string name;
  double start_ns = 0.0;  // relative to the run's start
  double end_ns = 0.0;
  std::string detail;  // pre-rendered JSON members nested under the span
};

class SpanLog {
 public:
  SpanLog(uint64_t id_base, double origin_ns)
      : next_(id_base), origin_(origin_ns) {}

  uint64_t NewId() { return ++next_; }
  void Add(uint64_t id, uint64_t parent, uint64_t request, std::string name,
           double start_ns, double end_ns, std::string detail = "") {
    spans_.push_back(Span{id, parent, request, std::move(name),
                          start_ns - origin_, end_ns - origin_,
                          std::move(detail)});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_;
  double origin_;
  std::vector<Span> spans_;
};

/// Operators, steps and launch events of one request, as JSON members.
std::string ReportDetail(const JoinReport& r,
                         const std::vector<exec::LaunchEvent>& events,
                         bool traced) {
  std::string s = "\"traced\": " + std::string(traced ? "true" : "false") +
                  ", \"elapsed_ns\": " + JNum(r.elapsed_ns) +
                  ", \"estimated_ns\": " + JNum(r.estimated_ns) +
                  ", \"operators\": [";
  for (size_t i = 0; i < r.operators.size(); ++i) {
    const coproc::OperatorReport& op = r.operators[i];
    s += (i ? ", " : "") + std::string("{\"path\": ") + JStr(op.path) +
         ", \"kind\": " + JStr(op.kind) + ", \"ns\": " + JNum(op.elapsed_ns) +
         ", \"rows_in\": " + JNum(op.input_rows) +
         ", \"rows_out\": " + JNum(op.output_rows) +
         ", \"fused\": " + (op.fused ? "true" : "false") + "}";
  }
  s += "], \"steps\": [";
  for (size_t i = 0; i < r.steps.size(); ++i) {
    const coproc::StepReport& st = r.steps[i];
    s += (i ? ", " : "") + std::string("{\"phase\": ") + JStr(st.phase) +
         ", \"step\": " + JStr(st.name) + ", \"cpu_share\": " +
         JNum(st.ratio) + ", \"cpu_ns\": " + JNum(st.cpu_ns) +
         ", \"gpu_ns\": " + JNum(st.gpu_ns) +
         ", \"cpu_items\": " + JNum(st.cpu_items) +
         ", \"gpu_items\": " + JNum(st.gpu_items) +
         ", \"unit_cpu_ns\": " + JNum(st.unit_cpu_ns) +
         ", \"unit_gpu_ns\": " + JNum(st.unit_gpu_ns) + "}";
  }
  s += "], \"launches\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const exec::LaunchEvent& e = events[i];
    s += (i ? ", " : "") + std::string("{\"step\": ") + JStr(e.step) +
         ", \"device\": " +
         JStr(e.device == simcl::DeviceId::kCpu ? "cpu" : "gpu") +
         ", \"begin\": " + JNum(e.begin) + ", \"end\": " + JNum(e.end) +
         ", \"ns\": " + JNum(e.elapsed_ns) + "}";
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// Per-layer accumulation (traced run)
// ---------------------------------------------------------------------------

/// Steps whose unit cost and chosen ratio are reported. f2 and g1 never run
/// here: with fusion on (the default) a fused select skips f2 and a fused
/// group-by skips g1.
const char* const kSteps[] = {"n1", "n2", "n3", "b1", "b2", "b3", "b4",
                              "p1", "p2", "p3", "p4", "p4g", "f1"};
/// Phases from JoinReport::breakdown. The select phase is always the select
/// operator's time (coproc.op_ms.select), and a fused group-by reports its
/// work under probe (p4g), so neither is listed; merge and transfer are 0
/// on the coupled architecture with a shared table.
const simcl::Phase kPhases[] = {simcl::Phase::kPartition,
                                simcl::Phase::kBuild, simcl::Phase::kProbe};
const char* const kOpKinds[] = {"select", "join", "group-by"};

struct LayerAcc {
  std::vector<double> validate_us, fuse_us, overhead_ms, model_ratio,
      fused_ops;
  std::map<std::string, std::vector<double>> phase_ms, op_ms, op_rows;
  std::map<std::string, StepTotals> steps;
  // Launch events of traced requests.
  double busy_ns[2] = {0.0, 0.0};  // indexed by DeviceId
  uint64_t launches = 0;
  uint64_t traced_requests = 0;
  uint64_t untraced_requests = 0;
  double traced_wall_ns = 0.0;
  double traced_tuples = 0.0;
  double untraced_wall_ns = 0.0;
  double untraced_tuples = 0.0;

  /// `is_plan`: the request was a PlanSpec (not a Submit(Workload) join),
  /// so its fusion count is meaningful.
  void AbsorbReport(const JoinReport& r, double wall_ns, bool is_plan) {
    overhead_ms.push_back(OverheadMs(wall_ns, r.elapsed_ns));
    model_ratio.push_back(ModelRatio(r.estimated_ns, r.elapsed_ns));
    // Phases and operators count only on requests that ran them, so the
    // service's join requests do not pull its plan-only medians to 0.
    for (simcl::Phase p : kPhases) {
      const double ns = r.breakdown.Get(p);
      if (ns > 0.0) phase_ms[simcl::PhaseName(p)].push_back(ns * 1e-6);
    }
    std::map<std::string, double> ns, rows;
    double fused = 0.0;
    for (const coproc::OperatorReport& op : r.operators) {
      ns[op.kind] += op.elapsed_ns;
      rows[op.kind] += static_cast<double>(op.output_rows);
      fused += op.fused ? 1.0 : 0.0;
    }
    if (is_plan) fused_ops.push_back(fused);
    for (const auto& kv : ns) {
      op_ms[kv.first].push_back(kv.second * 1e-6);
      op_rows[kv.first].push_back(rows[kv.first]);
    }
    for (const coproc::StepReport& st : r.steps) {
      steps[st.name].Add(st.cpu_ns, st.gpu_ns, st.cpu_items, st.gpu_items,
                         st.ratio, st.unit_cpu_ns, st.unit_gpu_ns);
    }
  }

  void AbsorbRequest(bool traced, double wall_ns, uint64_t tuples,
                     const std::vector<exec::LaunchEvent>& events) {
    if (!traced) {
      ++untraced_requests;
      untraced_wall_ns += wall_ns;
      untraced_tuples += static_cast<double>(tuples);
      return;
    }
    ++traced_requests;
    traced_wall_ns += wall_ns;
    traced_tuples += static_cast<double>(tuples);
    launches += events.size();
    for (const exec::LaunchEvent& e : events) {
      busy_ns[static_cast<int>(e.device)] += e.elapsed_ns;
    }
  }

  void Merge(const LayerAcc& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&validate_us, o.validate_us);
    cat(&fuse_us, o.fuse_us);
    cat(&overhead_ms, o.overhead_ms);
    cat(&model_ratio, o.model_ratio);
    cat(&fused_ops, o.fused_ops);
    for (const auto& kv : o.phase_ms) cat(&phase_ms[kv.first], kv.second);
    for (const auto& kv : o.op_ms) cat(&op_ms[kv.first], kv.second);
    for (const auto& kv : o.op_rows) cat(&op_rows[kv.first], kv.second);
    for (const auto& kv : o.steps) steps[kv.first].Merge(kv.second);
    busy_ns[0] += o.busy_ns[0];
    busy_ns[1] += o.busy_ns[1];
    launches += o.launches;
    traced_requests += o.traced_requests;
    untraced_requests += o.untraced_requests;
    traced_wall_ns += o.traced_wall_ns;
    traced_tuples += o.traced_tuples;
    untraced_wall_ns += o.untraced_wall_ns;
    untraced_tuples += o.untraced_tuples;
  }
};

/// Validate + Fuse timed around the benchmark's own calls (traced run);
/// their spans are children of the request's span.
void TimePlanLayer(const PlanSpec& p, uint64_t request, LayerAcc* acc,
                   SpanLog* log) {
  const double a = NowNs();
  const apujoin::Status st = p.graph.Validate();
  const double b = NowNs();
  if (!st.ok()) Fail("plan::Graph::Validate: " + st.ToString());
  const plan::FusionPlan fp = plan::Fuse(p.graph, p.exec.engine.fuse);
  const double c = NowNs();
  acc->validate_us.push_back((b - a) * 1e-3);
  acc->fuse_us.push_back((c - b) * 1e-3);
  log->Add(log->NewId(), request, request, "plan::Graph::Validate", a, b);
  log->Add(log->NewId(), request, request, "plan::Fuse", b, c,
           "\"fused_edges\": " + JNum(static_cast<uint64_t>(std::count(
                                     fp.fused.begin(), fp.fused.end(), 1))));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  double total() const { return generate_s + construct_s + warmup_s; }
};

/// What one measured window produced.
struct RunResult {
  std::vector<double> walls_ns;  // per completed request
  Tally tally;
  LayerAcc layers;
  double window_ns = 0.0;
  Usage usage;             // process resource use inside the window
  uint64_t tuples = 0;     // input tuples of requests that completed OK
  double pending_max = 0.0;
  double rejected = 0.0;
  double lease_peak_workers = 0.0;
  std::vector<Span> spans;

  /// Folds in what one client of the service workload measured; the
  /// window, CPU time and service counters are the caller's.
  void Merge(const RunResult& o) {
    walls_ns.insert(walls_ns.end(), o.walls_ns.begin(), o.walls_ns.end());
    tally.Merge(o.tally);
    layers.Merge(o.layers);
    tuples += o.tuples;
    pending_max = std::max(pending_max, o.pending_max);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

/// True once the window is over; the traced run also waits for one request
/// of each mode.
bool Done(double deadline, bool trace, const LayerAcc& layers) {
  return NowNs() >= deadline &&
         (!trace ||
          (layers.traced_requests > 0 && layers.untraced_requests > 0));
}

/// One request of a load loop and its timestamps.
struct Request {
  uint64_t id = 0;       // span id of the request
  double start = 0.0;    // before the benchmark's plan-layer calls
  double a = 0.0;        // call into the engine (ExecutePlan or Submit)
  double b = 0.0;        // its return (or Take)
  bool traced = false;   // launch events recorded
  bool is_plan = true;   // a PlanSpec, not a Submit(Workload) join
  uint64_t tuples = 0;   // input tuples
  std::string call;      // span name of the engine call
};

/// Books one finished request into `r`: failure count, oracle check (a
/// wrong answer ends the run), latency sample and, in the traced run, its
/// layer metrics and spans.
void Book(const Request& q, const apujoin::StatusOr<JoinReport>& rep,
          const Expected& want, const std::vector<exec::LaunchEvent>& events,
          bool trace, SpanLog* log, RunResult* r) {
  r->tally.Add(rep.ok());
  if (!rep.ok()) {
    std::fprintf(stderr, "request failed: %s\n",
                 rep.status().ToString().c_str());
    return;
  }
  CheckOrFail(*rep, want, q.call);
  r->walls_ns.push_back(q.b - q.a);
  r->tuples += q.tuples;
  if (!trace) return;
  r->layers.AbsorbReport(*rep, q.b - q.a, q.is_plan);
  r->layers.AbsorbRequest(q.traced, q.b - q.a, q.tuples, events);
  log->Add(q.id, 0, q.id, "request", q.start, q.b);
  log->Add(log->NewId(), q.id, q.id, q.call, q.a, q.b,
           r->layers.traced_requests <= kDetailedRequests
               ? ReportDetail(*rep, events, q.traced)
               : "");
}

class Bench {
 public:
  virtual ~Bench() = default;
  /// Generates the inputs from `seed` (the same each time), builds the
  /// substrate and runs one untimed warm-up request, replacing any earlier
  /// set-up. Oracles are computed on the first call, outside the timings.
  virtual void SetUp(uint64_t seed, SetupTimes* t) = 0;
  /// Runs requests until `seconds` have passed; with `trace`, alternates
  /// untraced and traced requests and fills RunResult::layers and spans.
  virtual RunResult Measure(double seconds, bool trace) = 0;
  virtual int loadgen_threads() const = 0;
  /// True when requests go through service/ (the service.* metrics apply).
  virtual bool uses_service() const { return false; }
};

/// One plan executed directly through coproc::ExecutePlan on a private
/// thread-pool backend (the three large workloads).
class PlanBench : public Bench {
 public:
  PlanBench(data::WorkloadSpec spec, coproc::JoinSpec exec, bool group_by,
            int pool)
      : spec_(spec), exec_(std::move(exec)), group_by_(group_by),
        pool_(pool) {}

  void SetUp(uint64_t seed, SetupTimes* t) override {
    inst_.reset();
    auto inst = std::make_unique<Instance>();
    spec_.seed = seed;

    double a = NowNs();
    inst->w = Generate(spec_);
    t->generate_s = (NowNs() - a) * 1e-9;

    if (group_by_ && !oracle_) {  // untimed
      oracle_ = std::make_unique<GroupOracle>(SelectJoinSumOracle(
          inst->w.build, MedianKey(inst->w.build), inst->w.probe));
    }

    a = NowNs();
    inst->plan = group_by_
                     ? SelectJoinSumPlan(inst->w,
                                         KeyBelow(MedianKey(inst->w.build)),
                                         exec_)
                     : coproc::MakeSingleJoinPlan(inst->w, exec_);
    inst->ctx = std::make_unique<simcl::SimContext>();
    inst->backend = exec::MakeBackend(exec::BackendKind::kThreadPool,
                                      inst->ctx.get(), pool_);
    t->construct_s = (NowNs() - a) * 1e-9;

    a = NowNs();
    auto warm = coproc::ExecutePlan(inst->backend.get(), inst->plan);
    t->warmup_s = (NowNs() - a) * 1e-9;
    if (!warm.ok()) Fail("warm-up request: " + warm.status().ToString());
    inst_ = std::move(inst);
    CheckOrFail(*warm, Want(), "warm-up");
  }

  RunResult Measure(double seconds, bool trace) override {
    RunResult r;
    const Usage u0 = ReadUsage();
    const double t0 = NowNs();
    const double deadline = t0 + seconds * 1e9;
    SpanLog log(0, t0);
    exec::Backend* backend = inst_->backend.get();
    for (uint64_t i = 0; !Done(deadline, trace, r.layers); ++i) {
      Request q;
      q.id = log.NewId();
      q.start = NowNs();
      q.traced = trace && i % 2 == 1;
      q.tuples = Tuples(inst_->w);
      q.call = "coproc::ExecutePlan";
      if (trace) TimePlanLayer(inst_->plan, q.id, &r.layers, &log);

      backend->set_trace(q.traced);
      q.a = NowNs();
      auto rep = coproc::ExecutePlan(backend, inst_->plan);
      q.b = NowNs();
      std::vector<exec::LaunchEvent> events;
      if (q.traced) events = backend->DrainEvents();
      backend->set_trace(false);
      Book(q, rep, Want(), events, trace, &log, &r);
    }
    r.window_ns = NowNs() - t0;
    r.usage = ReadUsage().Since(u0);
    r.spans = log.spans();
    return r;
  }

  int loadgen_threads() const override { return 1; }

 private:
  struct Instance {
    data::Workload w;  // the plan's scans point into it
    PlanSpec plan;
    std::unique_ptr<simcl::SimContext> ctx;
    std::unique_ptr<exec::Backend> backend;  // declared after ctx
  };

  Expected Want() const {
    return {oracle_ ? oracle_->matches : inst_->w.expected_matches,
            oracle_.get()};
  }

  data::WorkloadSpec spec_;
  coproc::JoinSpec exec_;
  bool group_by_;
  int pool_;
  std::unique_ptr<GroupOracle> oracle_;
  std::unique_ptr<Instance> inst_;
};

/// JoinService over one pool: kServiceSessions sessions, one client thread
/// each, closed loop with one outstanding request per session. Requests
/// alternate Submit(Workload) (an SHJ-PL join) and Submit(PlanSpec) (a
/// select -> join -> group-by plan over inputs of the same size).
class ServiceBench : public Bench {
 public:
  explicit ServiceBench(int pool) : pool_(pool) {}

  void SetUp(uint64_t seed, SetupTimes* t) override {
    inst_ = std::make_unique<Instance>();
    double a = NowNs();
    for (int c = 0; c < kServiceSessions; ++c) {
      Client& cl = inst_->clients[c];
      data::WorkloadSpec ws;
      ws.build_tuples = 4ull << 10;
      ws.probe_tuples = 16ull << 10;
      ws.seed = DeriveSeed(seed, 2 * c);
      cl.join_w = Generate(ws);
      ws.seed = DeriveSeed(seed, 2 * c + 1);
      cl.plan_w = Generate(ws);
    }
    t->generate_s = (NowNs() - a) * 1e-9;

    if (oracles_.empty()) {  // untimed
      for (const Client& cl : inst_->clients) {
        oracles_.push_back(SelectJoinSumOracle(
            cl.plan_w.build, MedianKey(cl.plan_w.build), cl.plan_w.probe));
      }
    }

    a = NowNs();
    for (Client& cl : inst_->clients) {
      cl.plan = SelectJoinSumPlan(
          cl.plan_w, KeyBelow(MedianKey(cl.plan_w.build)), Spec());
    }
    t->construct_s = (NowNs() - a) * 1e-9;
    Open(t);
  }

  RunResult Measure(double seconds, bool trace) override {
    const service::ServiceStats before = inst_->service->stats();
    std::vector<RunResult> per(kServiceSessions);
    std::vector<double> end_ns(kServiceSessions, 0.0);

    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    double t0 = 0.0;
    std::vector<std::thread> threads;
    threads.reserve(kServiceSessions);
    for (int c = 0; c < kServiceSessions; ++c) {
      threads.emplace_back([&, c] {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return go; });
        }
        SpanLog log(static_cast<uint64_t>(c + 1) << 40, t0);
        RunClient(c, t0 + seconds * 1e9, trace, &log, &per[c]);
        end_ns[c] = NowNs();
        per[c].spans = log.spans();
      });
    }
    const Usage u0 = ReadUsage();
    {
      std::lock_guard<std::mutex> lock(mu);
      t0 = NowNs();
      go = true;
    }
    cv.notify_all();
    for (std::thread& th : threads) th.join();
    const Usage u1 = ReadUsage();

    RunResult r;
    for (const RunResult& pc : per) r.Merge(pc);
    r.window_ns = *std::max_element(end_ns.begin(), end_ns.end()) - t0;
    r.usage = u1.Since(u0);
    const service::ServiceStats after = inst_->service->stats();
    r.rejected = static_cast<double>(
        (after.submissions_rejected - before.submissions_rejected) +
        (after.sessions_rejected - before.sessions_rejected));
    for (const auto& session : inst_->sessions) {
      if (const exec::LeaseStats* ls = session->lease_stats()) {
        r.lease_peak_workers = std::max(r.lease_peak_workers,
                                        static_cast<double>(ls->peak_workers));
      }
    }
    return r;
  }

  int loadgen_threads() const override { return kServiceSessions; }
  bool uses_service() const override { return true; }

 private:
  struct Client {
    data::Workload join_w;
    data::Workload plan_w;  // plan's scans point into it
    PlanSpec plan;
  };
  struct Instance {
    Client clients[kServiceSessions];  // inputs outlive the service below
    std::unique_ptr<service::JoinService> service;
    std::vector<std::unique_ptr<service::Session>> sessions;
    ~Instance() { sessions.clear(); }  // sessions close before the service
  };

  static coproc::JoinSpec Spec() {
    coproc::JoinSpec spec;
    spec.algorithm = coproc::Algorithm::kSHJ;
    spec.scheme = coproc::Scheme::kPipelined;
    return spec;
  }

  /// Opens the service and its sessions, then warms every session with one
  /// request of each kind so its lazy state (calibration, tuner, engine
  /// buffers) exists before timing.
  void Open(SetupTimes* t) {
    double a = NowNs();
    service::ServiceOptions so;
    so.exec.threads = pool_;
    inst_->service = std::make_unique<service::JoinService>(so);
    for (int c = 0; c < kServiceSessions; ++c) {
      service::SessionOptions sess;
      sess.spec = Spec();
      auto s = inst_->service->OpenSession(sess);
      if (!s.ok()) Fail("OpenSession: " + s.status().ToString());
      inst_->sessions.push_back(std::move(s).value());
    }
    t->construct_s += (NowNs() - a) * 1e-9;

    a = NowNs();
    std::vector<JoinReport> warm;
    for (int c = 0; c < kServiceSessions; ++c) {
      for (int kind = 0; kind < 2; ++kind) {
        auto ticket = kind == 0
                          ? inst_->sessions[c]->Submit(inst_->clients[c].join_w)
                          : inst_->sessions[c]->Submit(inst_->clients[c].plan);
        if (!ticket.ok()) Fail("warm-up submit: " + ticket.status().ToString());
        auto rep = ticket->Take();
        if (!rep.ok()) Fail("warm-up request: " + rep.status().ToString());
        warm.push_back(std::move(rep).value());
      }
    }
    t->warmup_s = (NowNs() - a) * 1e-9;
    for (int c = 0; c < kServiceSessions; ++c) {
      CheckOrFail(warm[2 * c], Want(c, false), "warm-up");
      CheckOrFail(warm[2 * c + 1], Want(c, true), "warm-up");
    }
  }

  Expected Want(int c, bool is_plan) const {
    return is_plan
               ? Expected{oracles_[c].matches, &oracles_[c]}
               : Expected{inst_->clients[c].join_w.expected_matches, nullptr};
  }

  /// One closed-loop client: its session never has more than one request
  /// outstanding, so its lease's trace switch and event log are touched
  /// only between requests.
  void RunClient(int c, double deadline, bool trace, SpanLog* log,
                 RunResult* r) const {
    const Client& cl = inst_->clients[c];
    service::Session& session = *inst_->sessions[c];
    exec::Backend& lease = session.joiner().backend();
    for (uint64_t i = 0; !Done(deadline, trace, r->layers); ++i) {
      Request q;
      q.id = log->NewId();
      q.start = NowNs();
      q.is_plan = i % 2 == 1;
      q.traced = trace && (i / 2) % 2 == 1;
      q.tuples = Tuples(q.is_plan ? cl.plan_w : cl.join_w);
      q.call = q.is_plan ? "service::Session::Submit(PlanSpec)..Take"
                         : "service::Session::Submit(Workload)..Take";
      if (trace && q.is_plan) TimePlanLayer(cl.plan, q.id, &r->layers, log);

      lease.set_trace(q.traced);
      q.a = NowNs();
      auto ticket =
          q.is_plan ? session.Submit(cl.plan) : session.Submit(cl.join_w);
      if (!ticket.ok()) {  // rejected: a failed attempt
        lease.set_trace(false);
        r->tally.Add(false);
        std::this_thread::yield();
        continue;
      }
      r->pending_max = std::max(
          r->pending_max, static_cast<double>(inst_->service->pending()));
      auto rep = ticket->Take();
      q.b = NowNs();
      std::vector<exec::LaunchEvent> events;
      if (q.traced) events = lease.DrainEvents();
      lease.set_trace(false);
      Book(q, rep, Want(c, q.is_plan), events, trace, log, r);
    }
  }

  int pool_;
  std::vector<GroupOracle> oracles_;
  std::unique_ptr<Instance> inst_;
};

std::unique_ptr<Bench> MakeBench(const std::string& name, int pool) {
  coproc::JoinSpec exec;  // library defaults: PHJ-PL, chained, shared table
  exec.engine.backend = exec::BackendKind::kThreadPool;
  exec.engine.threads = pool;
  data::WorkloadSpec spec;
  if (name == "phj_uniform") {
    spec.build_tuples = spec.probe_tuples = 1ull << 21;
    return std::make_unique<PlanBench>(spec, exec, false, pool);
  }
  if (name == "shj_skew_u64") {
    spec.build_tuples = spec.probe_tuples = 1ull << 21;
    spec.distribution = data::Distribution::kHighSkew;
    spec.key_schema = data::KeySchema::kU64;
    exec.algorithm = coproc::Algorithm::kSHJ;
    return std::make_unique<PlanBench>(spec, exec, false, pool);
  }
  if (name == "fk_groupby") {
    spec.build_tuples = 1ull << 18;
    spec.probe_tuples = 1ull << 22;
    exec.engine.layout = exec::HashLayout::kOpenAddressing;
    return std::make_unique<PlanBench>(spec, exec, true, pool);
  }
  if (name == "service_small") return std::make_unique<ServiceBench>(pool);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool applies = true;  // false: printed as n/a, 0 in the JSON line
};

class Metrics {
 public:
  void Add(std::string name, std::string unit, double value,
           bool applies = true) {
    list_.push_back({std::move(name), std::move(unit),
                     applies ? value : 0.0, applies});
  }

  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < list_.size(); ++i) {
      s += (i ? ", " : "") + JStr(list_[i].name) + ": {\"value\": " +
           JNum(list_[i].value) + ", \"unit\": " + JStr(list_[i].unit) + "}";
    }
    return s + "}";
  }
  std::string NotApplicableJson() const {
    std::string s = "[";
    bool first = true;
    for (const Metric& m : list_) {
      if (m.applies) continue;
      s += (first ? "" : ", ") + JStr(m.name);
      first = false;
    }
    return s + "]";
  }
  void Print() const {
    for (const Metric& m : list_) {
      if (m.applies) {
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      } else {
        std::printf("  %-34s %14s %s\n", m.name.c_str(), "n/a",
                    m.unit.c_str());
      }
    }
  }

 private:
  std::vector<Metric> list_;
};

Metrics EndToEnd(const RunResult& r, double peak_rss_mb, double setup_s) {
  const double mtuples = static_cast<double>(r.tuples) * 1e-6;
  Metrics m;
  m.Add("throughput_mtps", "Mtuple/s",
        r.window_ns > 0 ? mtuples * 1e9 / r.window_ns : 0.0);
  m.Add("latency_p50_ms", "ms", Median(r.walls_ns) * 1e-6);
  m.Add("cpu_s_per_mtuple", "s/Mtuple",
        mtuples > 0 ? r.usage.cpu_s / mtuples : 0.0);
  m.Add("peak_rss_mb", "MB", peak_rss_mb);
  m.Add("setup_s", "s", setup_s);
  return m;
}

Metrics PerLayer(const RunResult& r, bool is_service, double generate_s) {
  const LayerAcc& L = r.layers;
  Metrics m;
  m.Add("data.generate_s", "s", generate_s);
  m.Add("plan.validate_us", "us", Median(L.validate_us),
        !L.validate_us.empty());
  m.Add("plan.fuse_us", "us", Median(L.fuse_us), !L.fuse_us.empty());
  m.Add("plan.fused_ops", "count", Median(L.fused_ops));
  m.Add("coproc.overhead_ms", "ms", Median(L.overhead_ms));
  for (simcl::Phase p : kPhases) {
    auto it = L.phase_ms.find(simcl::PhaseName(p));
    const bool ran = it != L.phase_ms.end();
    m.Add(std::string("coproc.phase_ms.") + simcl::PhaseName(p), "ms",
          ran ? Median(it->second) : 0.0, ran);
  }
  for (const char* kind : kOpKinds) {
    auto it = L.op_ms.find(kind);
    const bool ran = it != L.op_ms.end();
    m.Add(std::string("coproc.op_ms.") + kind, "ms",
          ran ? Median(it->second) : 0.0, ran);
    m.Add(std::string("coproc.op_rows_out.") + kind, "count",
          ran ? Median(L.op_rows.at(kind)) : 0.0, ran);
  }
  for (const char* step : kSteps) {
    auto it = L.steps.find(step);
    const bool ran = it != L.steps.end() && it->second.items > 0;
    const StepTotals t = ran ? it->second : StepTotals();
    const std::string base = std::string("join.") + step;
    m.Add(base + ".ns_per_item", "ns/item", t.ns_per_item(), ran);
    m.Add(base + ".cpu_share", "frac", t.cpu_share(), ran);
    m.Add("cost.step_model_ratio." + std::string(step), "ratio",
          t.model_ratio(), ran);
  }
  m.Add("cost.model_ratio", "ratio", Median(L.model_ratio));
  const double wall = L.traced_wall_ns;
  m.Add("exec.spans_per_request", "count",
        L.traced_requests ? static_cast<double>(L.launches) /
                                static_cast<double>(L.traced_requests)
                          : 0.0);
  m.Add("exec.busy_frac.cpu", "frac", wall > 0 ? L.busy_ns[0] / wall : 0.0);
  m.Add("exec.busy_frac.gpu", "frac", wall > 0 ? L.busy_ns[1] / wall : 0.0);
  m.Add("exec.lane_skew", "frac", LaneSkew(L.busy_ns[0], L.busy_ns[1]));
  m.Add("exec.trace_overhead_frac", "frac",
        TraceOverheadFrac(L.untraced_tuples, L.untraced_wall_ns,
                          L.traced_tuples, L.traced_wall_ns));
  m.Add("process.sys_frac", "frac",
        r.usage.cpu_s > 0 ? r.usage.sys_s / r.usage.cpu_s : 0.0);
  m.Add("process.minflt_per_request", "count",
        r.walls_ns.empty() ? 0.0
                           : r.usage.minflt /
                                 static_cast<double>(r.walls_ns.size()));
  m.Add("service.pending_max", "count", r.pending_max, is_service);
  m.Add("service.rejected", "count", r.rejected, is_service);
  m.Add("service.lease_peak_workers", "count", r.lease_peak_workers,
        is_service);
  return m;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out;
};

[[noreturn]] void BadArgs(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "phj_uniform|shj_skew_u64|fk_groupby|service_small "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      BadArgs("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') BadArgs("bad --seed");
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 3600.0) {
        BadArgs("bad --seconds");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") BadArgs("bad --trace");
      a.trace = val == "1" ? 1 : 0;
    } else if (key == "--out") {
      a.out = val;
    } else {
      BadArgs("unknown flag " + key);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0) {
    BadArgs("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const int pool = Nproc();
  std::unique_ptr<Bench> bench = MakeBench(args.workload, pool);
  if (!bench) BadArgs("unknown workload " + args.workload);

  const std::string host =
      "{\"nproc\": " + std::to_string(Nproc()) +
      ", \"compiler\": " + JStr(PERFBENCH_COMPILER) +
      ", \"build_type\": " + JStr(PERFBENCH_BUILD_TYPE) +
      ", \"avx2\": " + (apujoin::CpuSupportsAvx2() ? "true" : "false") +
      ", \"pool_threads\": " + std::to_string(pool) +
      ", \"loadgen_threads\": " + std::to_string(bench->loadgen_threads()) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"workload\": " + JStr(args.workload) +
      ", \"seconds\": " + JNum(args.seconds) +
      ", \"trace\": " + std::to_string(args.trace) + "}";
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  std::vector<double> setup_s, generate_s;
  double setup_spent_s = 0.0;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || setup_spent_s < kSetupBudgetS);
       ++i) {
    SetupTimes t;
    const double a = NowNs();
    bench->SetUp(args.seed, &t);
    setup_spent_s += (NowNs() - a) * 1e-9;
    setup_s.push_back(t.total());
    generate_s.push_back(t.generate_s);
  }

  // The host probe runs just before and just after the window, with the
  // process otherwise idle.
  const double probe_before_ms = HostProbeMs();
  const RunResult r = bench->Measure(args.seconds, args.trace == 1);
  const double probe_after_ms = HostProbeMs();
  const Metrics metrics =
      args.trace == 1
          ? PerLayer(r, bench->uses_service(), Median(generate_s))
          : EndToEnd(r, ReadUsage().peak_rss_mb, Median(setup_s));
  const Tail tail = TailPercentile(r.walls_ns, kTailBeyond);

  std::printf("%s metrics, %s, seed %" PRIu64 ", %zu requests in %.3f s:\n",
              args.trace == 1 ? "per-layer" : "end-to-end",
              args.workload.c_str(), args.seed, r.walls_ns.size(),
              r.window_ns * 1e-9);
  metrics.Print();
  if (tail.available) {
    std::printf("  %-34s %14.6g ms (p%.2f, %zu of %zu samples beyond)\n",
                "latency_tail_ms", tail.value * 1e-6, tail.percentile,
                tail.beyond, tail.samples);
  } else {
    std::printf("  %-34s %14s ms (%zu requests; needs >= %zu)\n",
                "latency_tail_ms", "n/a", tail.samples, 2 * kTailBeyond);
  }
  std::printf("  %-34s %14.6g (%" PRIu64 " of %" PRIu64 " attempted)\n",
              "failed_frac", r.tally.failed_frac(), r.tally.failed,
              r.tally.attempted);
  std::printf("  %-34s %14.6g ms before, %.6g ms after the window "
              "(scalar reference join; host speed)\n",
              "host_probe_ms", probe_before_ms, probe_after_ms);

  if (!args.out.empty()) {
    const std::string path = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace) + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Fail("cannot write " + path);
    std::string s = "{\"host\": " + host + ",\n \"metrics\": " +
                    metrics.Json() + ",\n \"not_applicable\": " +
                    metrics.NotApplicableJson() +
                    ",\n \"latency_tail\": {\"available\": " +
                    (tail.available ? "true" : "false") +
                    ", \"ms\": " + JNum(tail.value * 1e-6) +
                    ", \"percentile\": " + JNum(tail.percentile) +
                    ", \"samples\": " +
                    JNum(static_cast<uint64_t>(tail.samples)) +
                    "},\n \"attempted\": " + JNum(r.tally.attempted) +
                    ", \"failed\": " + JNum(r.tally.failed) +
                    ", \"failed_frac\": " + JNum(r.tally.failed_frac()) +
                    ",\n \"window_usage\": {\"cpu_s\": " +
                    JNum(r.usage.cpu_s) + ", \"sys_s\": " +
                    JNum(r.usage.sys_s) + ", \"minflt\": " +
                    JNum(r.usage.minflt) + ", \"nvcsw\": " +
                    JNum(r.usage.nvcsw) + ", \"nivcsw\": " +
                    JNum(r.usage.nivcsw) + "}" +
                    ",\n \"host_probe_ms\": {\"before\": " +
                    JNum(probe_before_ms) + ", \"after\": " +
                    JNum(probe_after_ms) + "}" +
                    ",\n \"setup_s\": [";
    for (size_t i = 0; i < setup_s.size(); ++i) {
      s += (i ? ", " : "") + JNum(setup_s[i]);
    }
    s += "],\n \"spans\": [";
    for (size_t i = 0; i < r.spans.size(); ++i) {
      const Span& sp = r.spans[i];
      s += (i ? ",\n  " : "\n  ") + std::string("{\"id\": ") + JNum(sp.id) +
           ", \"parent\": " + JNum(sp.parent) +
           ", \"request\": " + JNum(sp.request) + ", \"name\": " +
           JStr(sp.name) + ", \"start_ns\": " + JNum(sp.start_ns) +
           ", \"end_ns\": " + JNum(sp.end_ns) +
           (sp.detail.empty() ? "" : ", " + sp.detail) + "}";
    }
    s += "]}\n";
    const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    if (std::fclose(f) != 0 || !ok) Fail("cannot write " + path);
    std::printf("run record: %s\n", path.c_str());
  }

  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              r.tally.attempted, r.tally.failed, metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
