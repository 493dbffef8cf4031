// One build/probe kernel family for both hash joins (Algorithms 1 and 2).
//
// PHJ is the radix partitioner followed by SHJ on every partition pair, so
// SHJ and PHJ share one set of join-phase kernels: b1..b4 over the build
// side, then p1..p3 plus p4 (emit result pairs) or p4g (fold matches into a
// fused group-by) over the probe side. Each kernel body is written once,
// templated on three choices resolved where the StepDef is built — never
// per item:
//
//   * Table: the paper's chained HashTable or the open-addressing
//     OpenHashTable, adapted to one FindOrAddKey/FindKey/InsertRid/
//     ForEachRid call shape; the open layout's prefetch and AVX2 probe sit
//     behind `if constexpr`.
//   * the table selector: a single table (SHJ), or the item's partition
//     table with the hash shifted past the radix bits (PHJ). Both pick the
//     GPU-private table for GPU build morsels in separate-table mode.
//   * kWide: one-word U32 keys, or two-word canonical keys.
//
// HashJoinEngine, the common base of ShjEngine and PhjEngine, owns the two
// relations and their canonical keys plus what every kernel reads or
// writes: the node pools, the tables, the per-tuple intermediate arrays
// (the "pipeline registers" between steps), the probe grouping
// permutation and the overflow flag. ShjEngine feeds the kernels the
// relations themselves; PhjEngine feeds them the output of its two radix
// partitioners.

#ifndef APUJOIN_JOIN_HASH_JOIN_ENGINE_H_
#define APUJOIN_JOIN_HASH_JOIN_ENGINE_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "join/hash_table.h"
#include "join/open_hash_table.h"
#include "join/options.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

class GroupByEngine;

/// Key-column view of a relation (canonical form: lo = keys, hi = key_hi).
inline KeyView KeyViewOf(const data::Relation& r) {
  return KeyView{r.key_schema, r.keys.data(),
                 r.key_hi.empty() ? nullptr : r.key_hi.data()};
}

/// One side of the join phase as the kernels read it.
struct JoinSide {
  uint64_t items = 0;  ///< step item count
  KeyView keys;  ///< canonical key words; p4/p4g report the lo word
  const int32_t* rids = nullptr;
  const uint8_t* filter = nullptr;  ///< fused-select vector, or null
};

/// Working-set sizes the step profiles price.
struct JoinCosts {
  double table_bytes = 0.0;   ///< b3/b4/p3/p4 random-access working set
  double header_bytes = 0.0;  ///< b2/p2 bucket-header working set
};

/// Common base of ShjEngine and PhjEngine: the relations, their canonical
/// keys and the build/probe kernel family.
class HashJoinEngine {
 public:
  /// Number of live build lanes under a fused-select build filter (the
  /// select's survivor count). Prepare() sizes the node pools — and the
  /// SHJ table or the PHJ radix plan — from it, so a fused plan gets the
  /// data structures an unfused plan would build from the materialized
  /// filtered relation — without the hint SHJ's table is sized for the
  /// full relation and a selective filter leaves the probe walking a
  /// sparse, cache-hostile bucket array. 0 (the default) means
  /// unfiltered; set before Prepare().
  void set_build_cardinality(uint64_t n) { build_card_ = n; }

  /// The build step series b1..b4.
  std::vector<StepDef> BuildSteps();
  /// The probe step series p1..p4, emitting into `out`.
  std::vector<StepDef> ProbeSteps(ResultWriter* out) {
    return ProbeSeries(out, nullptr);
  }
  /// Fused HashJoin→GroupBy edges: p1..p3 plus a fused probe+aggregate
  /// step (p4g) that folds every match into `agg` instead of emitting
  /// result pairs. `agg` must be PrepareFused()-sized and outlive the run.
  std::vector<StepDef> ProbeStepsFused(GroupByEngine* agg) {
    return ProbeSeries(nullptr, agg);
  }

  /// Separate-table mode: merges every GPU-private table into its CPU
  /// twin after the build (the paper's merge overhead). Returns {keys,
  /// rids} moved.
  std::pair<uint64_t, uint64_t> MergeSeparateTables();

  NodePools& pools() { return *pools_; }
  const EngineOptions& options() const { return opts_; }
  /// Key schema shared by both relations (validated in Prepare()).
  data::KeySchema key_schema() const { return build_->key_schema; }

  /// Table `i` of the configured layout (nullptr under the other layout or
  /// out of range). CPU tables come first — one per partition — then, in
  /// separate-table mode, the GPU-private twins in the same order.
  HashTable* table(uint32_t i = 0) const { return chained_.At(i); }
  OpenHashTable* open_table(uint32_t i = 0) const { return open_.At(i); }
  int num_tables() const {
    return opts_.layout == exec::HashLayout::kChained ? chained_.size()
                                                      : open_.size();
  }

  /// True when the probe kernels take the AVX2 bucket-compare path.
  bool probe_uses_avx2() const { return use_avx2_; }

  /// True if any kernel hit arena or result-buffer exhaustion.
  bool overflowed() const {
    // relaxed: sticky flag read after the spans that may set it.
    return overflowed_.load(std::memory_order_relaxed);
  }

  /// The workload-divergence grouping permutation used in p3/p4 (empty =
  /// identity); exposed for tests.
  const std::vector<uint32_t>& probe_permutation() const { return perm_; }

 protected:
  /// `build`/`probe` must outlive the engine.
  HashJoinEngine(simcl::SimContext* ctx, const data::Relation* build,
                 const data::Relation* probe, EngineOptions opts)
      : ctx_(ctx), build_(build), probe_(probe), opts_(opts) {}
  ~HashJoinEngine() = default;

  /// The join phase's inputs, resolved when a series is built.
  virtual JoinSide BuildSide() const = 0;
  virtual JoinSide ProbeSide() const = 0;
  virtual JoinCosts Costs() const = 0;

  /// Rejects empty relations and mismatched or malformed key schemas and
  /// canonicalizes dict-string keys into r_canon_ / s_canon_: keys =
  /// low32(Murmur64(string)), key_hi = build-side dictionary code. The
  /// probe side translates its codes into the build code space once per
  /// dictionary entry (hash-first lookup, exact string compare second);
  /// untranslatable probe strings get key_hi = kNil, which never equals a
  /// build code, so the kernels see plain two-word keys and never touch
  /// strings. Wide schemas require shared_table (the separate-table merge
  /// path is U32-only).
  apujoin::Status PrepareKeys();
  /// The relations in canonical key form: the dict-string copies, or the
  /// inputs themselves for every other schema.
  const data::Relation& canonical_build() const;
  const data::Relation& canonical_probe() const;
  /// Build rows that survive the fused-select filter (all without one).
  uint64_t live_build_rows() const;

  /// Sizes the node pools for live_build_rows() and resolves the probe
  /// SIMD path. Call after PrepareKeys().
  void PreparePools();
  /// Allocates the per-tuple arrays for every build and probe tuple.
  void PrepareArrays();

  /// Creates one table per entry of `buckets` (each followed by its
  /// GPU-private twin in separate-table mode). `shift` is the hash
  /// pre-shift bucket indices use: 0 for SHJ, the radix bits for PHJ.
  void CreateTables(const std::vector<uint32_t>& buckets, uint32_t shift);

  /// PHJ: tuple -> partition maps from the partitioners' offsets (tuples
  /// are contiguous per partition). Switches the kernels to the
  /// per-partition table selector.
  void MapPartitions(const std::vector<uint32_t>& off_r,
                     const std::vector<uint32_t>& off_s);

  simcl::SimContext* ctx_;
  const data::Relation* build_;
  const data::Relation* probe_;
  EngineOptions opts_;
  bool wide_ = false;  // two-word canonical keys; resolved in PrepareKeys()
  data::Relation r_canon_, s_canon_;  // dict-string canonical copies

 private:
  /// p1..p3, then p4 emitting into `out` — or, when `agg` is non-null, the
  /// fused probe+aggregate p4g folding matches into `agg`.
  std::vector<StepDef> ProbeSeries(ResultWriter* out, GroupByEngine* agg);

  template <typename T>
  struct TableSet {
    using Table = T;
    std::vector<std::unique_ptr<T>> cpu, gpu;  // gpu: separate mode only
    T* At(uint32_t i) const {
      if (i < cpu.size()) return cpu[i].get();
      i -= static_cast<uint32_t>(cpu.size());
      return i < gpu.size() ? gpu[i].get() : nullptr;
    }
    int size() const { return static_cast<int>(cpu.size() + gpu.size()); }
  };

  template <typename T>
  std::pair<uint64_t, uint64_t> MergeTables(TableSet<T>& set);

  /// Resolves layout x selector x key width into compile-time arguments of
  /// `fn(selector, std::bool_constant<kWide>)`.
  template <typename Fn>
  std::vector<StepDef> Dispatch(Fn&& fn);

  template <bool kWide, typename Sel>
  std::vector<StepDef> BuildSeriesT(const Sel& sel, const JoinSide& r,
                                    const JoinCosts& c);
  template <bool kWide, typename Sel>
  std::vector<StepDef> ProbeSeriesT(const Sel& sel, const JoinSide& s,
                                    const JoinCosts& c, ResultWriter* out,
                                    GroupByEngine* agg);

  void BuildProbePermutation(uint64_t n, uint64_t begin, uint64_t end);

  void MarkOverflow() {
    // relaxed: sticky flag, read after the spans that may set it.
    overflowed_.store(true, std::memory_order_relaxed);
  }

  uint64_t build_card_ = 0;  // live build lanes under the filter (0 = all)
  std::unique_ptr<NodePools> pools_;
  TableSet<HashTable> chained_;
  TableSet<OpenHashTable> open_;
  uint32_t shift_ = 0;       // hash pre-shift of bucket indices
  bool partitioned_ = false;  // per-partition table selector (PHJ)
  bool use_avx2_ = false;   // resolved from opts_.simd in PreparePools()
  std::atomic<bool> overflowed_{false};  // kernels may set it concurrently

  std::vector<uint32_t> part_of_r_, part_of_s_;  // PHJ: tuple -> partition
  std::vector<uint32_t> r_hash_, s_hash_;
  std::vector<uint32_t> r_bucket_, s_bucket_;
  std::vector<int32_t> r_keynode_, s_keynode_;  // key node or open slot id
  std::vector<int32_t> s_count_;  // p2 workload estimate (grouping input)
  std::vector<uint32_t> perm_;    // probe grouping permutation
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_HASH_JOIN_ENGINE_H_
