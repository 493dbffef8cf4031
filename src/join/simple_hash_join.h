// Simple hash join (SHJ, Algorithm 1): build + probe step series over the
// paper's bucket/key-list/rid-list hash table, with no partitioning phase.
//
// The kernels and all per-tuple intermediate state (hash values, bucket
// ids, key-node ids) live in the build/probe family shared with PHJ
// (join/hash_join_engine.h), so each fine-grained step is a pure
// data-parallel kernel over tuple indices — exactly the shape the
// co-processing schemes (OL/DD/PL) schedule across the CPU and the GPU.

#ifndef APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_
#define APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_

#include <cstdint>

#include "data/relation.h"
#include "join/hash_join_engine.h"
#include "join/options.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

/// SHJ: the build/probe kernel family over one table, reading the two
/// relations directly. One engine instance per join execution.
class ShjEngine final : public HashJoinEngine {
 public:
  /// `build`/`probe` must outlive the engine.
  ShjEngine(simcl::SimContext* ctx, const data::Relation* build,
            const data::Relation* probe, EngineOptions opts)
      : HashJoinEngine(ctx, build, probe, opts) {}

  /// Allocates pools, the table and intermediate arrays.
  apujoin::Status Prepare();

  /// Fused Select→HashJoin edges: a positional selection vector over the
  /// build (resp. probe) relation — every kernel skips dead lanes (their
  /// key is never hashed, looked up, or inserted) at zero work units.
  /// Null (the default) disables filtering; set before the series are
  /// built.
  void set_build_filter(const uint8_t* flags) { build_filter_ = flags; }
  void set_probe_filter(const uint8_t* flags) { probe_filter_ = flags; }

  /// Hash-table capacity as the cost model sees it: chained bucket count,
  /// or total key slots under the open layout.
  uint64_t CostModelBuckets() const {
    return opts_.layout == exec::HashLayout::kChained
               ? opts_.num_buckets
               : uint64_t{opts_.num_buckets} * kOpenSlotsPerBucket;
  }

  /// Estimated hash-table working set (bytes), used in step profiles.
  double TableWorkingSetBytes() const;

 private:
  JoinSide BuildSide() const override;
  JoinSide ProbeSide() const override;
  /// The table working set, and the bucket-header array b2/p2 visit (8 B
  /// per chained header, 4 B per open bucket state word).
  JoinCosts Costs() const override;

  const uint8_t* build_filter_ = nullptr;  // fused-select vector (or null)
  const uint8_t* probe_filter_ = nullptr;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_
