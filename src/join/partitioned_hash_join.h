// Partitioned (radix) hash join — PHJ, Algorithm 2.
//
// Phase 1: multi-pass radix partitioning of both relations (RadixPartitioner,
// one n1..n3 step series per pass). Phase 2: SHJ on each partition pair.
// In the fine-grained formulation the join phase is still two global step
// series (b1..b4 over all partitioned R tuples, p1..p4 over all partitioned
// S tuples); tuples simply address their own partition's hash table, which
// is small enough to live in the shared L2 — the whole point of PHJ.
//
// Bucket indices use the hash bits *above* the partition bits, so the radix
// partitioning does not degenerate the in-partition bucket distribution.

#ifndef APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_
#define APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_

#include <cstdint>
#include <memory>

#include "data/relation.h"
#include "join/hash_join_engine.h"
#include "join/options.h"
#include "join/radix_partition.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

/// PHJ engine: the two radix partitioners plus the build/probe kernel
/// family over per-partition tables.
class PhjEngine final : public HashJoinEngine {
 public:
  PhjEngine(simcl::SimContext* ctx, const data::Relation* build,
            const data::Relation* probe, EngineOptions opts)
      : HashJoinEngine(ctx, build, probe, opts) {}

  /// Plans the radix partitioning and allocates state.
  apujoin::Status Prepare();

  RadixPartitioner* build_partitioner() { return part_r_.get(); }
  RadixPartitioner* probe_partitioner() { return part_s_.get(); }
  const RadixPlan& radix_plan() const { return plan_; }

  /// Fused Select→HashJoin edges: positional selection vectors over the
  /// build (resp. probe) relation, pushed into pass 0 of the matching
  /// radix partitioner. Dead tuples are never scattered, so later passes
  /// and the whole join phase see only the survivors, compacted — the
  /// join-phase step series shrink to offsets().back() items. Call after
  /// Prepare() and before the partition passes run.
  void set_build_filter(const uint8_t* flags) { part_r_->set_filter(flags); }
  void set_probe_filter(const uint8_t* flags) { part_s_->set_filter(flags); }

  /// Creates the per-partition hash tables. Must be called after both
  /// partitioners finished all passes.
  apujoin::Status PrepareJoinPhase();

  uint32_t num_partitions() const { return plan_.total_partitions; }
  /// Average per-partition table capacity as the cost model sees it:
  /// chained buckets, or total key slots under the open layout.
  uint64_t CostModelBuckets() const;

  /// Average per-partition working set (bytes) — the join phase's random
  /// accesses hit this, not the full table (PHJ's cache advantage).
  double PartitionWorkingSetBytes() const;

 private:
  /// The survivors of the partition passes (= every tuple unless a
  /// fused-select filter shrank pass 0), in partition order.
  JoinSide BuildSide() const override { return SideOf(*part_r_); }
  JoinSide ProbeSide() const override { return SideOf(*part_s_); }
  static JoinSide SideOf(const RadixPartitioner& part);
  /// The partition working set prices every random-access step, the
  /// header visits of b2/p2 included.
  JoinCosts Costs() const override;

  RadixPlan plan_;
  std::unique_ptr<RadixPartitioner> part_r_;
  std::unique_ptr<RadixPartitioner> part_s_;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_
